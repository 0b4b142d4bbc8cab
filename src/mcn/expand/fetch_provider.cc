#include "mcn/expand/fetch_provider.h"

#include <string>

#include "mcn/common/macros.h"

namespace mcn::expand {
namespace internal {

Result<FetchProvider::SeedInfo> SeedFromEntries(
    FetchProvider* self, std::span<const net::AdjEntry> entries,
    graph::EdgeKey key) {
  // `entries` is the adjacency record of key.u; look for the key.v entry.
  for (const net::AdjEntry& e : entries) {
    if (e.neighbor != key.v) continue;
    FetchProvider::SeedInfo info;
    info.edge_costs = e.w;
    if (!e.fac.empty()) {
      MCN_ASSIGN_OR_RETURN(auto facs, self->GetFacilities(key, e.fac));
      info.facilities.assign(facs.begin(), facs.end());
    }
    return info;
  }
  return Status::NotFound("seed edge (" + std::to_string(key.u) + "," +
                          std::to_string(key.v) + ") not found");
}

}  // namespace internal

using internal::SeedFromEntries;

DirectFetch::DirectFetch(const net::NetworkReader* reader) : reader_(reader) {
  MCN_CHECK(reader != nullptr);
}

Result<std::span<const net::AdjEntry>> DirectFetch::GetAdjacency(
    graph::NodeId node) {
  ++stats_.adjacency_requests;
  ++stats_.adjacency_fetches;
  MCN_RETURN_IF_ERROR(reader_->GetAdjacency(node, &adj_scratch_));
  return std::span<const net::AdjEntry>(adj_scratch_);
}

Result<std::span<const net::FacilityOnEdge>> DirectFetch::GetFacilities(
    graph::EdgeKey edge, const net::FacRef& ref) {
  ++stats_.facility_requests;
  ++stats_.facility_fetches;
  MCN_RETURN_IF_ERROR(reader_->GetFacilities(edge, ref, &fac_scratch_));
  return std::span<const net::FacilityOnEdge>(fac_scratch_);
}

Result<FetchProvider::SeedInfo> DirectFetch::GetSeedInfo(
    const graph::Location& q) {
  if (q.is_node()) return SeedInfo{};
  MCN_ASSIGN_OR_RETURN(auto entries, GetAdjacency(q.edge().u));
  return SeedFromEntries(this, entries, q.edge());
}

CachedFetch::CachedFetch(const net::NetworkReader* reader)
    : reader_(reader),
      adj_row_of_(reader != nullptr ? reader->num_nodes() : 0,
                  FlatU64Map::kNoValue) {
  MCN_CHECK(reader != nullptr);
}

namespace {

template <typename T, typename Row>
std::span<const T> RowSpan(const std::vector<T>& arena, const Row& row) {
  return {arena.data() + row.offset, row.count};
}

/// Appends `scratch` to `arena` as a new row of `rows`; returns its span.
template <typename T, typename Row>
std::span<const T> AppendRow(const std::vector<T>& scratch,
                             std::vector<T>* arena, std::vector<Row>* rows) {
  const Row row{static_cast<uint32_t>(arena->size()),
                static_cast<uint32_t>(scratch.size())};
  arena->insert(arena->end(), scratch.begin(), scratch.end());
  rows->push_back(row);
  return RowSpan(*arena, row);
}

}  // namespace

Result<std::span<const net::AdjEntry>> CachedFetch::GetAdjacency(
    graph::NodeId node) {
  ++stats_.adjacency_requests;
  if (node >= adj_row_of_.size()) {
    return Status::InvalidArgument("CachedFetch: node out of range");
  }
  const uint32_t row = adj_row_of_[node];
  if (row != FlatU64Map::kNoValue) return RowSpan(adj_arena_, adj_rows_[row]);
  ++stats_.adjacency_fetches;
  MCN_RETURN_IF_ERROR(reader_->GetAdjacency(node, &adj_scratch_));
  adj_row_of_[node] = static_cast<uint32_t>(adj_rows_.size());
  return AppendRow(adj_scratch_, &adj_arena_, &adj_rows_);
}

Result<std::span<const net::FacilityOnEdge>> CachedFetch::GetFacilities(
    graph::EdgeKey edge, const net::FacRef& ref) {
  ++stats_.facility_requests;
  const uint32_t row = fac_row_of_.Find(edge.Pack());
  if (row != FlatU64Map::kNoValue) return RowSpan(fac_arena_, fac_rows_[row]);
  ++stats_.facility_fetches;
  MCN_RETURN_IF_ERROR(reader_->GetFacilities(edge, ref, &fac_scratch_));
  fac_row_of_.Insert(edge.Pack(), static_cast<uint32_t>(fac_rows_.size()));
  return AppendRow(fac_scratch_, &fac_arena_, &fac_rows_);
}

Result<FetchProvider::SeedInfo> CachedFetch::GetSeedInfo(
    const graph::Location& q) {
  if (q.is_node()) return SeedInfo{};
  MCN_ASSIGN_OR_RETURN(auto entries, GetAdjacency(q.edge().u));
  return SeedFromEntries(this, entries, q.edge());
}

MemFetch::MemFetch(const graph::MultiCostGraph* graph,
                   const graph::FacilitySet* facilities)
    : graph_(graph), facilities_(facilities) {
  MCN_CHECK(graph != nullptr && facilities != nullptr);
  MCN_CHECK(graph->finalized() && facilities->finalized());
}

Result<std::span<const net::AdjEntry>> MemFetch::GetAdjacency(
    graph::NodeId node) {
  ++stats_.adjacency_requests;
  if (node >= graph_->num_nodes()) {
    return Status::InvalidArgument("MemFetch: node out of range");
  }
  adj_scratch_.clear();
  for (const graph::AdjacentEdge& adj : graph_->Neighbors(node)) {
    net::AdjEntry e;
    e.neighbor = adj.neighbor;
    e.w = graph_->edge(adj.edge).w;
    // MemFetch has no facility file; encode only the count so the expansion
    // knows whether to ask for the list.
    e.fac.count =
        static_cast<uint16_t>(facilities_->OnEdge(adj.edge).size());
    adj_scratch_.push_back(e);
  }
  return std::span<const net::AdjEntry>(adj_scratch_);
}

Result<std::span<const net::FacilityOnEdge>> MemFetch::GetFacilities(
    graph::EdgeKey edge, const net::FacRef& ref) {
  (void)ref;
  ++stats_.facility_requests;
  MCN_ASSIGN_OR_RETURN(graph::EdgeId eid, graph_->FindEdge(edge.u, edge.v));
  fac_scratch_.clear();
  for (graph::FacilityId f : facilities_->OnEdge(eid)) {
    fac_scratch_.push_back(net::FacilityOnEdge{f, (*facilities_)[f].frac});
  }
  return std::span<const net::FacilityOnEdge>(fac_scratch_);
}

Result<FetchProvider::SeedInfo> MemFetch::GetSeedInfo(
    const graph::Location& q) {
  if (q.is_node()) return SeedInfo{};
  graph::EdgeKey key = q.edge();
  MCN_ASSIGN_OR_RETURN(graph::EdgeId eid, graph_->FindEdge(key.u, key.v));
  SeedInfo info;
  info.edge_costs = graph_->edge(eid).w;
  for (graph::FacilityId f : facilities_->OnEdge(eid)) {
    info.facilities.push_back(net::FacilityOnEdge{f, (*facilities_)[f].frac});
  }
  return info;
}

}  // namespace mcn::expand
