#include "fuzz/disk_image_target.h"

#include <cstring>
#include <string_view>
#include <vector>

#include "mcn/graph/cost_vector.h"
#include "mcn/net/format.h"
#include "mcn/net/landmark_index.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/storage/disk_manager.h"
#include "mcn/storage/persistence.h"
#include "mcn/storage/slotted_page.h"

namespace mcn::fuzz {
namespace {

uint32_t LoadU32(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Drives the MLI1 header parser over file `f` of a parsed image. The
/// catalog metadata normally comes from net::catalog; here it is
/// reconstructed from the (untrusted) header page so Validate exercises
/// its full check sequence instead of failing the catalog comparison.
void ProbeAsLandmarkIndex(storage::DiskManager* disk, storage::FileId f) {
  auto page = disk->PageData(storage::PageId{f, 0});
  if (!page.ok()) return;
  storage::SlottedPageReader reader(*page);
  if (reader.count() < 1) return;
  auto rec = reader.TryRecord(0);
  if (!rec.ok() || rec->size() < 24) return;
  net::LandmarkIndexFiles files;
  files.file = f;
  files.num_nodes = LoadU32(&(*rec)[8]);
  const uint32_t d = LoadU32(&(*rec)[12]);
  files.num_landmarks = LoadU32(&(*rec)[16]);
  files.records_per_page = LoadU32(&(*rec)[20]);
  auto pages = disk->NumPages(f);
  files.num_pages = pages.ok() ? *pages : 0;
  // A real index has a handful of cost dimensions; an implausible count
  // would only size the probe buffer, not find new parser states.
  if (d > 64 || files.num_landmarks > 4096) return;
  files.num_costs = static_cast<int>(d);
  net::LandmarkIndexReader index(disk, files);
  if (!index.Validate().ok()) return;
  if (files.num_nodes == 0) return;
  std::vector<float> row(static_cast<size_t>(d) * files.num_landmarks);
  (void)index.LoadNodeRow(0, row.data());
}

/// Reads every page of file `f` as a slotted page and runs both record
/// decoders over each record it yields, the adjacency decoder at every
/// cost dimension. Pages that are not slotted yield garbage records, which
/// is the point. A decode must fail with its output empty, or succeed
/// with every entry inside the record. False = a decoder broke that.
bool DecodeSlottedRecords(const storage::DiskManager& disk,
                          storage::FileId f) {
  auto pages = disk.NumPages(f);
  if (!pages.ok()) return true;
  std::vector<net::AdjEntry> entries;
  std::vector<net::FacilityOnEdge> facilities;
  for (storage::PageNo p = 0; p < *pages; ++p) {
    auto page = disk.PageData(storage::PageId{f, p});
    if (!page.ok()) continue;
    storage::SlottedPageReader reader(*page);
    for (uint16_t slot = 0; slot < reader.count(); ++slot) {
      auto rec = reader.TryRecord(slot);
      if (!rec.ok()) continue;
      for (int d = 1; d <= graph::kMaxCostTypes; ++d) {
        const bool ok = net::DecodeAdjRecord(*rec, d, &entries).ok();
        if (ok ? net::AdjRecordBytes(static_cast<uint32_t>(entries.size()),
                                     d) > rec->size()
               : !entries.empty()) {
          return false;
        }
      }
      const bool ok = net::DecodeFacRecord(*rec, &facilities).ok();
      if (ok ? net::FacRecordBytes(static_cast<uint32_t>(
                   facilities.size())) > rec->size()
             : !facilities.empty()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool RunDiskImageTarget(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto disk = storage::LoadDiskImageFromBuffer(bytes);
  if (!disk.ok()) return true;
  bool held = true;
  for (storage::FileId f = 0; f < disk->num_files(); ++f) {
    (void)shard::ReadRoutingTable(*disk, f);
    ProbeAsLandmarkIndex(&*disk, f);
    held = DecodeSlottedRecords(*disk, f) && held;
  }
  return held;
}

bool DiskImageParses(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  return storage::LoadDiskImageFromBuffer(bytes).ok();
}

}  // namespace mcn::fuzz
