// Regenerates the checked-in fuzz seed corpora (fuzz/corpus/{wire,disk})
// from the real encoders, so every seed is a valid instance of its format
// and deep parser states (session frames, metrics snapshots, landmark
// index pages, routing tables) are reachable from the first fuzz cycle.
//
//   make_seed_corpus <corpus-root>
//
// writes <corpus-root>/wire/* (frame payloads, no length prefix) and
// <corpus-root>/disk/* (full MCNDISK1 images). Output is deterministic;
// rerun it and commit the result whenever a format changes.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "mcn/api/wire.h"
#include "mcn/common/macros.h"
#include "mcn/graph/facility.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/net/landmark_index.h"
#include "mcn/shard/partition.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_storage.h"
#include "mcn/storage/disk_manager.h"
#include "mcn/storage/persistence.h"
#include "mcn/storage/slotted_page.h"

namespace mcn {
namespace {

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MCN_CHECK(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  MCN_CHECK(out.good());
}

/// Drops the u32 length prefix: fuzz inputs are frame payloads.
std::string Payload(const std::string& frame) { return frame.substr(4); }

void WriteWireSeeds(const std::filesystem::path& dir) {
  using api::MsgType;
  const graph::Location at = graph::Location::AtNode(7);

  api::WireRequest execute;
  execute.type = MsgType::kExecute;
  execute.spec = api::SkylineSpec(at);
  WriteFile(dir / "request_execute_skyline",
            Payload(api::EncodeRequestFrame(execute)));

  api::WireRequest topk;
  topk.type = MsgType::kExecute;
  topk.spec = api::TopKSpec(at, 4, {0.25, 0.75});
  topk.spec.parallelism = 4;
  topk.spec.deadline_ms = 250;
  topk.spec.preference.constraints.cost_caps = {50.0, 90.0};
  WriteFile(dir / "request_execute_topk",
            Payload(api::EncodeRequestFrame(topk)));

  api::WireRequest open;
  open.type = MsgType::kOpenSession;
  open.spec = api::IncrementalSpec(at, 8, {0.5, 0.5});
  WriteFile(dir / "request_open_session",
            Payload(api::EncodeRequestFrame(open)));

  api::WireRequest next;
  next.type = MsgType::kNext;
  next.session_id = 3;
  next.batch_n = 8;
  WriteFile(dir / "request_next", Payload(api::EncodeRequestFrame(next)));

  api::WireRequest close;
  close.type = MsgType::kCloseSession;
  close.session_id = 3;
  WriteFile(dir / "request_close_session",
            Payload(api::EncodeRequestFrame(close)));

  api::WireRequest metrics;
  metrics.type = MsgType::kGetMetrics;
  WriteFile(dir / "request_get_metrics",
            Payload(api::EncodeRequestFrame(metrics)));

  api::WireRequest trace;
  trace.type = MsgType::kGetTrace;
  WriteFile(dir / "request_get_trace",
            Payload(api::EncodeRequestFrame(trace)));

  api::WireResponse result;
  result.type = MsgType::kResponse;
  result.response.kind = api::QueryKind::kTopK;
  result.response.topk = {{2, {10.0, 20.0}, 15.0}, {5, {12.0, 18.0}, 15.5}};
  result.response.RehashRows();
  result.response.buffer_misses = 17;
  result.response.buffer_accesses = 123;
  result.response.exhausted = true;
  WriteFile(dir / "response_topk",
            Payload(api::EncodeResponseFrame(result)));

  api::WireResponse failed;
  failed.type = MsgType::kResponse;
  failed.response.status = Status::DeadlineExceeded("query deadline");
  WriteFile(dir / "response_failed",
            Payload(api::EncodeResponseFrame(failed)));

  api::WireResponse opened;
  opened.type = MsgType::kSessionOpened;
  opened.session_id = 3;
  WriteFile(dir / "response_session_opened",
            Payload(api::EncodeResponseFrame(opened)));

  api::WireResponse closed;
  closed.type = MsgType::kSessionClosed;
  closed.status = Status::NotFound("no such session");
  WriteFile(dir / "response_session_closed",
            Payload(api::EncodeResponseFrame(closed)));

  api::WireResponse metrics_resp;
  metrics_resp.type = MsgType::kMetrics;
  metrics_resp.snapshot.counters = {{"mcn_queries_total", 42}};
  metrics_resp.snapshot.gauges = {{"mcn_sessions_open", 2.0}};
  WriteFile(dir / "response_metrics",
            Payload(api::EncodeResponseFrame(metrics_resp)));

  api::WireResponse trace_resp;
  trace_resp.type = MsgType::kTrace;
  trace_resp.trace_json = "{\"traceEvents\": []}\n";
  WriteFile(dir / "response_trace",
            Payload(api::EncodeResponseFrame(trace_resp)));
}

/// A 6-node, 2-cost ring with a chord: big enough for two landmarks.
graph::MultiCostGraph SeedGraph() {
  graph::MultiCostGraph g(2);
  for (int i = 0; i < 6; ++i) {
    g.AddNode(static_cast<double>(i), 0.0);
  }
  auto edge = [&g](graph::NodeId a, graph::NodeId b, double c0, double c1) {
    MCN_CHECK(g.AddEdge(a, b, {c0, c1}).ok());
  };
  edge(0, 1, 1.0, 4.0);
  edge(1, 2, 2.0, 1.0);
  edge(2, 3, 1.0, 2.0);
  edge(3, 4, 3.0, 1.0);
  edge(4, 5, 1.0, 1.0);
  edge(5, 0, 2.0, 2.0);
  edge(1, 4, 5.0, 1.0);
  g.Finalize();
  return g;
}

void WriteDiskSeeds(const std::filesystem::path& dir) {
  {
    storage::DiskManager empty;
    MCN_CHECK(storage::SaveDiskImage(empty, dir / "image_empty").ok());
  }
  {
    storage::DiskManager disk;
    storage::FileId f = disk.CreateFile("adjacency");
    for (int p = 0; p < 3; ++p) {
      auto page = disk.AllocatePage(f);
      MCN_CHECK(page.ok());
      std::vector<std::byte> bytes(storage::kPageSize,
                                   std::byte{static_cast<unsigned char>(p)});
      MCN_CHECK(disk.WritePage({f, *page}, bytes.data()).ok());
    }
    disk.CreateFile("");  // empty name, zero pages: a legal edge case
    MCN_CHECK(storage::SaveDiskImage(disk, dir / "image_plain_files").ok());
  }
  {
    // Landmark index + routing table on one disk: both nested headers in
    // one seed.
    const graph::MultiCostGraph g = SeedGraph();
    storage::DiskManager disk;
    const std::vector<graph::NodeId> landmarks =
        net::SelectLandmarks(g, 2, 1, {});
    auto index = net::BuildLandmarkIndex(&disk, g, landmarks, "landmarks");
    MCN_CHECK(index.ok());
    shard::Partition partition;
    partition.num_shards = 2;
    partition.node_shard = {0, 0, 0, 1, 1, 1};
    auto routing =
        shard::WriteRoutingTable(&disk, partition, {0, 1, 1});
    MCN_CHECK(routing.ok());
    MCN_CHECK(storage::SaveDiskImage(disk, dir / "image_indexed").ok());
  }
  {
    // A whole K = 1 network (adjacency and facility files and both trees):
    // real records for the record decoders.
    const graph::MultiCostGraph g = SeedGraph();
    graph::FacilitySet facilities;
    facilities.Add(0, 0.25);
    facilities.Add(0, 0.75);
    facilities.Add(3, 0.5);
    facilities.Finalize();
    shard::ShardedStorage storage(shard::SingleShardPartition(g.num_nodes()));
    MCN_CHECK(shard::BuildShardedNetwork(&storage, g, facilities).ok());
    MCN_CHECK(
        storage::SaveDiskImage(*storage.disk(0), dir / "image_network").ok());
  }
  {
    // Regression seeds for the findings the fuzz-target audit surfaced:
    // a slotted record whose directory entry overruns the page (now
    // Corruption via SlottedPageReader::TryRecord, previously a CHECK
    // abort) and an MLI1 header with records_per_page == 0 (previously a
    // division by zero in LoadNodeRow).
    storage::DiskManager disk;
    storage::FileId bad_slot = disk.CreateFile("bad_slot");
    auto page = disk.AllocatePage(bad_slot);
    MCN_CHECK(page.ok());
    std::vector<std::byte> bytes(storage::kPageSize, std::byte{0});
    auto put_u16 = [&bytes](size_t at, uint16_t v) {
      std::memcpy(bytes.data() + at, &v, sizeof(v));
    };
    put_u16(0, 1);       // slot_count
    put_u16(2, 0xFFF0);  // free_end (nonsense)
    put_u16(4, 0xFFF0);  // slot 0 offset: past the page with...
    put_u16(6, 0x0100);  // ...a length that overruns it
    MCN_CHECK(disk.WritePage({bad_slot, *page}, bytes.data()).ok());

    storage::FileId rpp0 = disk.CreateFile("rpp0_index");
    page = disk.AllocatePage(rpp0);
    MCN_CHECK(page.ok());
    std::fill(bytes.begin(), bytes.end(), std::byte{0});
    storage::SlottedPageBuilder builder(bytes.data());
    std::vector<std::byte> header(28, std::byte{0});
    auto put_u32 = [&header](size_t at, uint32_t v) {
      std::memcpy(header.data() + at, &v, sizeof(v));
    };
    put_u32(0, 0x31494C4Du);  // 'MLI1'
    put_u32(4, 1);            // version
    put_u32(8, 6);            // num_nodes
    put_u32(12, 2);           // num_costs
    put_u32(16, 1);           // num_landmarks
    put_u32(20, 0);           // records_per_page: the regression
    put_u32(24, 3);           // landmark id
    MCN_CHECK(builder.TryAppend(header, nullptr));
    MCN_CHECK(disk.WritePage({rpp0, *page}, bytes.data()).ok());
    MCN_CHECK(storage::SaveDiskImage(disk, dir / "image_regression").ok());
  }
}

}  // namespace
}  // namespace mcn

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  std::filesystem::create_directories(root / "wire");
  std::filesystem::create_directories(root / "disk");
  mcn::WriteWireSeeds(root / "wire");
  mcn::WriteDiskSeeds(root / "disk");
  std::printf("seed corpus written under %s\n", root.string().c_str());
  return 0;
}
