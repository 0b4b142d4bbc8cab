#include "mcn/shard/sharded_builder.h"

#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "mcn/common/macros.h"
#include "mcn/index/bplus_tree.h"
#include "mcn/net/format.h"
#include "mcn/net/slotted_writer.h"
#include "mcn/storage/slotted_page.h"

namespace mcn::shard {
namespace {

using storage::kPageSize;

constexpr uint32_t kRoutingMagic = 0x4D434E53u;  // "MCNS"

template <typename T>
void Append(std::vector<std::byte>& out, T v) {
  size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

template <typename T>
T ReadAt(std::span<const std::byte> bytes, size_t at) {
  T v;
  MCN_CHECK(at + sizeof(T) <= bytes.size());
  std::memcpy(&v, bytes.data() + at, sizeof(T));
  return v;
}

/// Appends u32 values into consecutive raw pages of `file`, padding the
/// last page with zeros.
class RawU32Writer {
 public:
  RawU32Writer(storage::DiskManager* disk, storage::FileId file)
      : disk_(disk), file_(file), buf_(kPageSize, std::byte{0}) {}

  Status Push(uint32_t v) {
    std::memcpy(buf_.data() + at_, &v, sizeof(uint32_t));
    at_ += sizeof(uint32_t);
    if (at_ == kPageSize) return Flush();
    return Status::OK();
  }

  Status Finish() {
    if (at_ > 0) return Flush();
    return Status::OK();
  }

 private:
  Status Flush() {
    MCN_ASSIGN_OR_RETURN(storage::PageNo page, disk_->AllocatePage(file_));
    MCN_RETURN_IF_ERROR(disk_->WritePage({file_, page}, buf_.data()));
    std::memset(buf_.data(), 0, kPageSize);
    at_ = 0;
    return Status::OK();
  }

  storage::DiskManager* disk_;
  storage::FileId file_;
  std::vector<std::byte> buf_;
  size_t at_ = 0;
};

/// Reads the u32 stream back (header page included in `pages`).
class RawU32Reader {
 public:
  RawU32Reader(const storage::DiskManager& disk, storage::FileId file)
      : disk_(disk), file_(file) {}

  Result<uint32_t> Next() {
    if (page_bytes_ == nullptr || at_ == kPageSize) {
      MCN_ASSIGN_OR_RETURN(page_bytes_, disk_.PageData({file_, page_}));
      ++page_;
      at_ = 0;
    }
    uint32_t v;
    std::memcpy(&v, page_bytes_ + at_, sizeof(uint32_t));
    at_ += sizeof(uint32_t);
    return v;
  }

 private:
  const storage::DiskManager& disk_;
  storage::FileId file_;
  storage::PageNo page_ = 0;
  const std::byte* page_bytes_ = nullptr;
  size_t at_ = 0;
};

}  // namespace

std::vector<std::byte> EncodeBoundaryRecord(const BoundaryEdge& edge) {
  std::vector<std::byte> out;
  out.reserve(20 + 8 * static_cast<size_t>(edge.w.dim()));
  Append<uint32_t>(out, edge.edge.u);
  Append<uint32_t>(out, edge.edge.v);
  Append<uint32_t>(out, edge.owner_shard);
  Append<uint32_t>(out, edge.peer_shard);
  Append<uint16_t>(out, static_cast<uint16_t>(edge.w.dim()));
  Append<uint16_t>(out, 0);
  for (int i = 0; i < edge.w.dim(); ++i) Append<double>(out, edge.w[i]);
  return out;
}

Result<BoundaryEdge> DecodeBoundaryRecord(std::span<const std::byte> bytes) {
  if (bytes.size() < 20) {
    return Status::Corruption("boundary record too short");
  }
  BoundaryEdge edge;
  edge.edge.u = ReadAt<uint32_t>(bytes, 0);
  edge.edge.v = ReadAt<uint32_t>(bytes, 4);
  edge.owner_shard = ReadAt<uint32_t>(bytes, 8);
  edge.peer_shard = ReadAt<uint32_t>(bytes, 12);
  uint16_t d = ReadAt<uint16_t>(bytes, 16);
  if (d > graph::kMaxCostTypes || bytes.size() < 20 + 8u * d) {
    return Status::Corruption("boundary record cost vector malformed");
  }
  edge.w = graph::CostVector(d);
  for (int i = 0; i < d; ++i) {
    edge.w[i] = ReadAt<double>(bytes, 20 + 8 * static_cast<size_t>(i));
  }
  return edge;
}

Result<ShardedNetworkFiles> BuildShardedNetwork(
    ShardedStorage* storage, const graph::MultiCostGraph& graph,
    const graph::FacilitySet& facilities) {
  MCN_CHECK(storage != nullptr);
  if (!graph.finalized()) {
    return Status::FailedPrecondition(
        "BuildShardedNetwork: graph not finalized");
  }
  if (!facilities.finalized()) {
    return Status::FailedPrecondition(
        "BuildShardedNetwork: facility set not finalized");
  }
  const Partition& part = storage->partition();
  if (part.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "BuildShardedNetwork: partition covers " +
        std::to_string(part.num_nodes()) + " nodes, graph has " +
        std::to_string(graph.num_nodes()));
  }
  MCN_RETURN_IF_ERROR(part.Validate());
  const int k = part.num_shards;
  const int d = graph.num_costs();

  ShardedNetworkFiles files;
  files.shards.resize(k);
  files.boundary_files.resize(k);
  files.num_nodes = graph.num_nodes();
  files.num_edges = graph.num_edges();
  files.num_facilities = static_cast<uint32_t>(facilities.size());
  files.num_costs = d;
  files.facility_shard.resize(facilities.size(), kInvalidShard);

  for (ShardId s = 0; s < static_cast<ShardId>(k); ++s) {
    net::NetworkFiles& nf = files.shards[s];
    nf.facility_file = storage->disk(s)->CreateFile("facility_file");
    nf.adjacency_file = storage->disk(s)->CreateFile("adjacency_file");
    nf.num_nodes = graph.num_nodes();  // global: range checks stay global
    nf.num_costs = d;
  }
  std::vector<storage::FileId> adj_tree_files(k), fac_tree_files(k);

  // 1. Facility files: one record per facility-carrying edge, in global
  //    edge order, routed to the edge's owner shard. The FacRef positions
  //    are shard-local; adjacency entries of *any* shard embed them (a
  //    boundary edge's facility record lives with its owner).
  std::unordered_map<graph::EdgeId, net::FacRef> edge_fac_refs;
  {
    std::vector<std::unique_ptr<net::SlottedFileWriter>> writers;
    writers.reserve(k);
    for (ShardId s = 0; s < static_cast<ShardId>(k); ++s) {
      writers.push_back(std::make_unique<net::SlottedFileWriter>(
          storage->disk(s), files.shards[s].facility_file));
    }
    std::vector<net::FacilityOnEdge> record;
    for (graph::EdgeId e : facilities.EdgesWithFacilities()) {
      record.clear();
      for (graph::FacilityId f : facilities.OnEdge(e)) {
        record.push_back(net::FacilityOnEdge{f, facilities[f].frac});
      }
      const graph::EdgeRecord& er = graph.edge(e);
      const graph::EdgeKey key(er.u, er.v);
      const ShardId owner = part.of_edge(key);
      std::vector<std::byte> bytes = net::EncodeFacRecord(key, record);
      net::RecordPos pos;
      MCN_RETURN_IF_ERROR(writers[owner]->Append(bytes, &pos));
      net::FacRef ref;
      ref.page = pos.page;
      ref.slot = pos.slot;
      ref.count = static_cast<uint16_t>(record.size());
      edge_fac_refs[e] = ref;
      for (graph::FacilityId f : facilities.OnEdge(e)) {
        files.facility_shard[f] = owner;
        ++files.shards[owner].num_facilities;
      }
    }
    for (auto& writer : writers) MCN_RETURN_IF_ERROR(writer->Finish());
  }

  // 2. Adjacency files: one record per node, in global node order, routed
  //    to the node's shard. Record contents (entries, costs) are the same
  //    for every K; only FacRef positions are shard-local.
  std::vector<std::vector<index::BPlusTree::Entry>> adj_tree_entries(k);
  {
    std::vector<std::unique_ptr<net::SlottedFileWriter>> writers;
    writers.reserve(k);
    for (ShardId s = 0; s < static_cast<ShardId>(k); ++s) {
      writers.push_back(std::make_unique<net::SlottedFileWriter>(
          storage->disk(s), files.shards[s].adjacency_file));
    }
    std::vector<net::AdjEntry> entries;
    for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
      entries.clear();
      for (const graph::AdjacentEdge& adj : graph.Neighbors(v)) {
        net::AdjEntry e;
        e.neighbor = adj.neighbor;
        auto it = edge_fac_refs.find(adj.edge);
        if (it != edge_fac_refs.end()) e.fac = it->second;
        e.w = graph.edge(adj.edge).w;
        entries.push_back(e);
      }
      const ShardId owner = part.of_node(v);
      std::vector<std::byte> bytes = net::EncodeAdjRecord(v, entries, d);
      net::RecordPos pos;
      MCN_RETURN_IF_ERROR(writers[owner]->Append(bytes, &pos));
      adj_tree_entries[owner].emplace_back(v, pos.Pack());
    }
    for (auto& writer : writers) MCN_RETURN_IF_ERROR(writer->Finish());
  }

  // 3. Per-shard adjacency trees (node id -> record position; keys are
  //    strictly increasing within a shard because pass 2 ran in node
  //    order).
  for (ShardId s = 0; s < static_cast<ShardId>(k); ++s) {
    adj_tree_files[s] = storage->disk(s)->CreateFile("adjacency_tree");
    MCN_ASSIGN_OR_RETURN(
        files.shards[s].adjacency_tree,
        index::BPlusTree::BulkLoad(storage->disk(s), adj_tree_files[s],
                                   adj_tree_entries[s]));
  }

  // 4. Per-shard facility trees (facility id -> containing edge), each
  //    holding the facilities owned by the shard.
  for (ShardId s = 0; s < static_cast<ShardId>(k); ++s) {
    fac_tree_files[s] = storage->disk(s)->CreateFile("facility_tree");
    std::vector<index::BPlusTree::Entry> entries;
    for (graph::FacilityId f = 0; f < facilities.size(); ++f) {
      if (files.facility_shard[f] != s) continue;
      const graph::EdgeRecord& er = graph.edge(facilities[f].edge);
      entries.emplace_back(f, graph::EdgeKey(er.u, er.v).Pack());
    }
    MCN_ASSIGN_OR_RETURN(
        files.shards[s].facility_tree,
        index::BPlusTree::BulkLoad(storage->disk(s), fac_tree_files[s],
                                   entries));
  }

  // 5. Boundary files: every cross-shard edge, in edge order, written to
  //    its owner shard with the peer shard and cost vector.
  {
    std::vector<std::unique_ptr<net::SlottedFileWriter>> writers;
    writers.reserve(k);
    for (ShardId s = 0; s < static_cast<ShardId>(k); ++s) {
      files.boundary_files[s] = storage->disk(s)->CreateFile("boundary_file");
      writers.push_back(std::make_unique<net::SlottedFileWriter>(
          storage->disk(s), files.boundary_files[s]));
    }
    for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
      const graph::EdgeRecord& er = graph.edge(e);
      const graph::EdgeKey key(er.u, er.v);
      if (!part.is_boundary(key)) continue;
      BoundaryEdge be;
      be.edge = key;
      be.owner_shard = part.of_edge(key);
      be.peer_shard = part.of_node(key.v);
      be.w = er.w;
      MCN_RETURN_IF_ERROR(
          writers[be.owner_shard]->Append(EncodeBoundaryRecord(be), nullptr));
      ++files.num_boundary_edges;
    }
    for (auto& writer : writers) MCN_RETURN_IF_ERROR(writer->Finish());
  }

  // 6. Routing table on shard 0, so the image set is self-describing.
  MCN_ASSIGN_OR_RETURN(
      files.routing_file,
      WriteRoutingTable(storage->disk(0), part, files.facility_shard));

  // Totals: per-shard num_edges (owned) and query-file pages.
  for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
    const graph::EdgeRecord& er = graph.edge(e);
    ++files.shards[part.of_edge(graph::EdgeKey(er.u, er.v))].num_edges;
  }
  for (ShardId s = 0; s < static_cast<ShardId>(k); ++s) {
    net::NetworkFiles& nf = files.shards[s];
    for (storage::FileId f : {nf.adjacency_file, nf.facility_file,
                              adj_tree_files[s], fac_tree_files[s]}) {
      MCN_ASSIGN_OR_RETURN(uint32_t pages, storage->disk(s)->NumPages(f));
      nf.total_pages += pages;
    }
    files.total_pages += nf.total_pages;
  }
  return files;
}

Result<std::vector<BoundaryEdge>> ReadBoundaryRecords(
    const storage::DiskManager& disk, storage::FileId boundary_file) {
  std::vector<BoundaryEdge> edges;
  MCN_ASSIGN_OR_RETURN(uint32_t pages, disk.NumPages(boundary_file));
  for (storage::PageNo p = 0; p < pages; ++p) {
    MCN_ASSIGN_OR_RETURN(const std::byte* bytes,
                         disk.PageData({boundary_file, p}));
    storage::SlottedPageReader page(bytes);
    for (uint16_t slot = 0; slot < page.count(); ++slot) {
      MCN_ASSIGN_OR_RETURN(BoundaryEdge edge,
                           DecodeBoundaryRecord(page.Record(slot)));
      edges.push_back(edge);
    }
  }
  return edges;
}

Result<storage::FileId> WriteRoutingTable(
    storage::DiskManager* shard0_disk, const Partition& partition,
    const std::vector<ShardId>& facility_shard) {
  MCN_CHECK(shard0_disk != nullptr);
  storage::FileId file = shard0_disk->CreateFile("routing_table");
  RawU32Writer writer(shard0_disk, file);
  MCN_RETURN_IF_ERROR(writer.Push(kRoutingMagic));
  MCN_RETURN_IF_ERROR(
      writer.Push(static_cast<uint32_t>(partition.num_shards)));
  MCN_RETURN_IF_ERROR(writer.Push(partition.num_nodes()));
  MCN_RETURN_IF_ERROR(
      writer.Push(static_cast<uint32_t>(facility_shard.size())));
  for (ShardId s : partition.node_shard) MCN_RETURN_IF_ERROR(writer.Push(s));
  for (ShardId s : facility_shard) MCN_RETURN_IF_ERROR(writer.Push(s));
  MCN_RETURN_IF_ERROR(writer.Finish());
  return file;
}

Result<RoutingTable> ReadRoutingTable(const storage::DiskManager& disk,
                                      storage::FileId routing_file) {
  RawU32Reader reader(disk, routing_file);
  MCN_ASSIGN_OR_RETURN(uint32_t magic, reader.Next());
  if (magic != kRoutingMagic) {
    return Status::Corruption("routing table: bad magic");
  }
  MCN_ASSIGN_OR_RETURN(uint32_t num_shards, reader.Next());
  MCN_ASSIGN_OR_RETURN(uint32_t num_nodes, reader.Next());
  MCN_ASSIGN_OR_RETURN(uint32_t num_facilities, reader.Next());
  if (num_shards == 0 || num_shards > 1u << 16) {
    return Status::Corruption("routing table: implausible shard count");
  }
  // Bound the entity counts before reserving, so a corrupt header page
  // surfaces as Corruption instead of a multi-gigabyte allocation.
  if (num_nodes > 1u << 28 || num_facilities > 1u << 28) {
    return Status::Corruption("routing table: implausible entity counts");
  }
  RoutingTable table;
  table.partition.num_shards = static_cast<int>(num_shards);
  table.partition.node_shard.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    MCN_ASSIGN_OR_RETURN(uint32_t s, reader.Next());
    table.partition.node_shard.push_back(s);
  }
  table.facility_shard.reserve(num_facilities);
  for (uint32_t i = 0; i < num_facilities; ++i) {
    MCN_ASSIGN_OR_RETURN(uint32_t s, reader.Next());
    table.facility_shard.push_back(s);
  }
  MCN_RETURN_IF_ERROR(table.partition.Validate());
  return table;
}

}  // namespace mcn::shard
