#include "mcn/net/landmark_index.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "mcn/common/macros.h"
#include "mcn/expand/dijkstra.h"
#include "mcn/graph/location.h"
#include "mcn/net/slotted_writer.h"
#include "mcn/storage/slotted_page.h"

namespace mcn::net {
namespace {

constexpr uint32_t kMagic = 0x31494C4Du;  // 'MLI1' little-endian
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderFixedBytes = 24;  // 6 x u32 before the landmark ids

void PutU32(std::byte* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

uint32_t GetU32(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

size_t RowBytes(int num_costs, uint32_t num_landmarks) {
  return sizeof(float) * static_cast<size_t>(num_costs) * num_landmarks;
}

}  // namespace

float RoundDownToFloat(double x) {
  MCN_DCHECK(x >= 0.0);
  if (std::isinf(x)) return std::numeric_limits<float>::infinity();
  if (x >= static_cast<double>(std::numeric_limits<float>::max())) {
    // FLT_MAX <= x, so FLT_MAX is itself a valid lower bound (and the cast
    // below would overflow).
    return std::numeric_limits<float>::max();
  }
  float f = static_cast<float>(x);
  if (static_cast<double>(f) > x) {
    f = std::nextafterf(f, -std::numeric_limits<float>::infinity());
  }
  return f;
}

std::vector<graph::NodeId> SelectLandmarks(
    const graph::MultiCostGraph& graph, uint32_t num_landmarks,
    int num_shards, std::span<const uint32_t> node_shard) {
  MCN_CHECK(graph.finalized());
  const uint32_t n = graph.num_nodes();
  if (num_landmarks == 0 || n == 0) return {};
  const uint32_t want = std::min(num_landmarks, n);

  // Candidate pools, one per shard. With a real partition the pool is the
  // shard's boundary nodes (endpoints of cross-shard edges) — the nodes
  // remote expansions enter through — falling back to all of the shard's
  // nodes when it has no boundary. K = 1: one pool of every node.
  const bool sharded = num_shards > 1 && node_shard.size() == n;
  const int groups = sharded ? num_shards : 1;
  std::vector<std::vector<graph::NodeId>> pools(groups);
  if (sharded) {
    std::vector<bool> is_boundary(n, false);
    for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
      const graph::EdgeRecord& rec = graph.edge(e);
      if (node_shard[rec.u] != node_shard[rec.v]) {
        is_boundary[rec.u] = true;
        is_boundary[rec.v] = true;
      }
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      if (is_boundary[v]) pools[node_shard[v]].push_back(v);
    }
    for (int s = 0; s < groups; ++s) {
      if (!pools[s].empty()) continue;
      for (graph::NodeId v = 0; v < n; ++v) {
        if (node_shard[v] == static_cast<uint32_t>(s)) pools[s].push_back(v);
      }
    }
  } else {
    pools[0].resize(n);
    for (graph::NodeId v = 0; v < n; ++v) pools[0][v] = v;
  }

  // Farthest-point sampling over the dimension-0 metric. min_dist starts at
  // +inf, so the first pick of each pool degenerates to its smallest id —
  // every argmax breaks ties towards the smallest id, making the selection
  // a deterministic function of (graph, partition, num_landmarks).
  std::vector<double> min_dist(n, expand::kInfCost);
  std::vector<bool> chosen_flag(n, false);
  std::vector<graph::NodeId> chosen;
  chosen.reserve(want);

  auto pick_from = [&](std::span<const graph::NodeId> pool) {
    graph::NodeId best = graph::kInvalidNode;
    for (graph::NodeId v : pool) {
      if (chosen_flag[v]) continue;
      if (best == graph::kInvalidNode || min_dist[v] > min_dist[best] ||
          (min_dist[v] == min_dist[best] && v < best)) {
        best = v;
      }
    }
    return best;
  };
  auto take = [&](graph::NodeId v) {
    chosen_flag[v] = true;
    chosen.push_back(v);
    std::vector<double> dist = expand::ShortestPathCosts(
        graph, /*cost_index=*/0, graph::Location::AtNode(v));
    for (graph::NodeId u = 0; u < n; ++u) {
      if (dist[u] < min_dist[u]) min_dist[u] = dist[u];
    }
  };

  // Per-shard quotas split like frame budgets: base + one of the remainder
  // for the first (want % groups) shards.
  const uint32_t base = want / static_cast<uint32_t>(groups);
  const uint32_t rem = want % static_cast<uint32_t>(groups);
  for (int s = 0; s < groups; ++s) {
    const uint32_t quota = base + (static_cast<uint32_t>(s) < rem ? 1 : 0);
    for (uint32_t t = 0; t < quota; ++t) {
      graph::NodeId v = pick_from(pools[s]);
      if (v == graph::kInvalidNode) break;  // pool exhausted; fill below
      take(v);
    }
  }
  // Unfilled quota (tiny pools): global farthest-point rounds.
  while (chosen.size() < want) {
    graph::NodeId best = graph::kInvalidNode;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (chosen_flag[v]) continue;
      if (best == graph::kInvalidNode || min_dist[v] > min_dist[best] ||
          (min_dist[v] == min_dist[best] && v < best)) {
        best = v;
      }
    }
    if (best == graph::kInvalidNode) break;
    take(best);
  }
  return chosen;
}

Result<LandmarkIndexFiles> BuildLandmarkIndex(
    storage::DiskManager* disk, const graph::MultiCostGraph& graph,
    std::span<const graph::NodeId> landmarks, const std::string& file_name) {
  MCN_CHECK(disk != nullptr);
  MCN_CHECK(graph.finalized());
  LandmarkIndexFiles files;
  if (landmarks.empty()) return files;

  const uint32_t L = static_cast<uint32_t>(landmarks.size());
  const int d = graph.num_costs();
  const uint32_t n = graph.num_nodes();
  const size_t row_bytes = RowBytes(d, L);
  const size_t header_bytes = kHeaderFixedBytes + 4u * L;
  const size_t max_record = storage::SlottedPageBuilder::MaxRecordSize();
  if (row_bytes > max_record || header_bytes > max_record) {
    return Status::InvalidArgument(
        "landmark index row does not fit one page (d*L too large)");
  }
  for (graph::NodeId lm : landmarks) {
    if (lm >= n) {
      return Status::InvalidArgument("landmark node id out of range");
    }
  }

  // One reverse Dijkstra per (landmark, dimension); edges are undirected,
  // so the forward run from the landmark is the reverse distance. Stored
  // rounded down (RoundDownToFloat) to stay an admissible lower bound.
  std::vector<std::vector<float>> columns(static_cast<size_t>(d) * L);
  for (int i = 0; i < d; ++i) {
    for (uint32_t l = 0; l < L; ++l) {
      std::vector<double> dist = expand::ShortestPathCosts(
          graph, i, graph::Location::AtNode(landmarks[l]));
      std::vector<float>& col = columns[static_cast<size_t>(i) * L + l];
      col.resize(n);
      for (graph::NodeId v = 0; v < n; ++v) {
        col[v] = RoundDownToFloat(dist[v]);
      }
    }
  }

  const uint32_t rpp = static_cast<uint32_t>(
      (storage::kPageSize - 4) / (row_bytes + 4));
  MCN_CHECK(rpp > 0);

  storage::FileId file = disk->CreateFile(file_name);
  SlottedFileWriter writer(disk, file);

  // Header record padded to the page capacity, so the first node record
  // opens page 1 and node n addresses as (1 + n/rpp, n%rpp) directly.
  std::vector<std::byte> header(max_record, std::byte{0});
  PutU32(&header[0], kMagic);
  PutU32(&header[4], kVersion);
  PutU32(&header[8], n);
  PutU32(&header[12], static_cast<uint32_t>(d));
  PutU32(&header[16], L);
  PutU32(&header[20], rpp);
  for (uint32_t l = 0; l < L; ++l) {
    PutU32(&header[kHeaderFixedBytes + 4u * l], landmarks[l]);
  }
  RecordPos pos;
  MCN_RETURN_IF_ERROR(writer.Append(header, &pos));
  MCN_CHECK(pos.page == 0 && pos.slot == 0);

  std::vector<std::byte> rec(row_bytes);
  for (graph::NodeId v = 0; v < n; ++v) {
    std::byte* p = rec.data();
    for (int i = 0; i < d; ++i) {
      for (uint32_t l = 0; l < L; ++l) {
        const float f = columns[static_cast<size_t>(i) * L + l][v];
        std::memcpy(p, &f, sizeof(float));
        p += sizeof(float);
      }
    }
    MCN_RETURN_IF_ERROR(writer.Append(rec, &pos));
    MCN_CHECK(pos.page == 1 + v / rpp && pos.slot == v % rpp);
  }
  MCN_RETURN_IF_ERROR(writer.Finish());

  files.file = file;
  files.num_landmarks = L;
  files.num_nodes = n;
  files.num_costs = d;
  files.records_per_page = rpp;
  MCN_ASSIGN_OR_RETURN(uint32_t pages, disk->NumPages(file));
  files.num_pages = pages;
  return files;
}

LandmarkIndexReader::LandmarkIndexReader(storage::DiskManager* disk,
                                         const LandmarkIndexFiles& files,
                                         size_t pool_frames)
    : files_(files), pool_(disk, pool_frames) {}

Status LandmarkIndexReader::Validate() {
  if (!files_.present()) {
    return Status::InvalidArgument("no landmark index in this database");
  }
  // Header validation is load-time work, not query I/O: raw page access.
  MCN_ASSIGN_OR_RETURN(const std::byte* page,
                       pool_.disk()->PageData(storage::PageId{files_.file, 0}));
  storage::SlottedPageReader reader(page);
  if (reader.count() < 1) {
    return Status::Corruption("landmark index: empty header page");
  }
  // The page may come from a loaded image: bounds-checked access only.
  MCN_ASSIGN_OR_RETURN(std::span<const std::byte> rec, reader.TryRecord(0));
  if (rec.size() < kHeaderFixedBytes) {
    return Status::Corruption("landmark index: short header record");
  }
  if (GetU32(&rec[0]) != kMagic) {
    return Status::Corruption("landmark index: bad magic");
  }
  if (GetU32(&rec[4]) != kVersion) {
    return Status::Corruption("landmark index: unsupported version " +
                              std::to_string(GetU32(&rec[4])));
  }
  const uint32_t n = GetU32(&rec[8]);
  const uint32_t d = GetU32(&rec[12]);
  const uint32_t L = GetU32(&rec[16]);
  const uint32_t rpp = GetU32(&rec[20]);
  if (n != files_.num_nodes || d != static_cast<uint32_t>(files_.num_costs) ||
      L != files_.num_landmarks || rpp != files_.records_per_page) {
    return Status::Corruption(
        "landmark index: header disagrees with catalog");
  }
  if (rpp == 0) {
    // LoadNodeRow divides by records_per_page; a zero here would only
    // come from a corrupt image that the catalog happens to agree with.
    return Status::Corruption("landmark index: zero records per page");
  }
  if (rec.size() < kHeaderFixedBytes + 4u * L) {
    return Status::Corruption("landmark index: truncated landmark ids");
  }
  landmark_ids_.resize(L);
  for (uint32_t l = 0; l < L; ++l) {
    landmark_ids_[l] = GetU32(&rec[kHeaderFixedBytes + 4u * l]);
  }
  validated_ = true;
  return Status::OK();
}

Status LandmarkIndexReader::LoadNodeRow(graph::NodeId v, float* out) {
  MCN_DCHECK(validated_);
  if (v >= files_.num_nodes) {
    return Status::InvalidArgument("LoadNodeRow: node out of range");
  }
  const uint32_t rpp = files_.records_per_page;
  const storage::PageId id{files_.file,
                           static_cast<storage::PageNo>(1 + v / rpp)};
  MCN_ASSIGN_OR_RETURN(storage::BufferPool::PageGuard guard, pool_.Fetch(id));
  storage::SlottedPageReader reader(guard.data());
  const uint16_t slot = static_cast<uint16_t>(v % rpp);
  // The page may come from a loaded image: bounds-checked access only.
  MCN_ASSIGN_OR_RETURN(std::span<const std::byte> rec,
                       reader.TryRecord(slot));
  const size_t bytes = RowBytes(files_.num_costs, files_.num_landmarks);
  if (rec.size() != bytes) {
    return Status::Corruption("landmark index: bad node record size");
  }
  std::memcpy(out, rec.data(), bytes);
  return Status::OK();
}

}  // namespace mcn::net
