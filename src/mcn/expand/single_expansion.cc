#include "mcn/expand/single_expansion.h"

#include <limits>

#include "mcn/common/macros.h"

namespace mcn::expand {

void FacilityFilter::Add(graph::EdgeKey edge, graph::FacilityId fac) {
  if (fac >= fac_entries_.size()) fac_entries_.resize(fac + 1);
  FacEntry& entry = fac_entries_[fac];
  if (entry.edge_packed != FlatU64Map::kEmptyKey) {
    // A facility lies on exactly one edge: a re-add under a different edge
    // means the caller's bookkeeping is corrupt.
    MCN_DCHECK(entry.edge_packed == edge.Pack());
    return;
  }
  uint32_t row = edges_.Find(edge.Pack());
  if (row == FlatU64Map::kNoValue) {
    row = static_cast<uint32_t>(edge_rows_.size());
    edge_rows_.emplace_back();
    edges_.Insert(edge.Pack(), row);
  }
  entry.edge_packed = edge.Pack();
  entry.pos = static_cast<uint32_t>(edge_rows_[row].size());
  edge_rows_[row].push_back(fac);
  ++num_facilities_;
}

bool FacilityFilter::Remove(graph::FacilityId fac) {
  if (fac >= fac_entries_.size()) return false;
  FacEntry& entry = fac_entries_[fac];
  if (entry.edge_packed == FlatU64Map::kEmptyKey) return false;
  uint32_t row = edges_.Find(entry.edge_packed);
  MCN_DCHECK(row != FlatU64Map::kNoValue);
  std::vector<graph::FacilityId>& vec = edge_rows_[row];
  MCN_DCHECK(entry.pos < vec.size() && vec[entry.pos] == fac);
  graph::FacilityId moved = vec.back();
  vec[entry.pos] = moved;
  fac_entries_[moved].pos = entry.pos;
  vec.pop_back();
  // The (possibly now empty) edge row is retained: ContainsEdge checks
  // emptiness, and a later Add may refill it without re-probing the map.
  entry.edge_packed = FlatU64Map::kEmptyKey;
  --num_facilities_;
  return true;
}

SingleExpansion::SingleExpansion(int cost_index, FetchProvider* fetch)
    : cost_index_(cost_index), fetch_(fetch) {
  MCN_CHECK(fetch != nullptr);
  MCN_CHECK(cost_index >= 0 && cost_index < fetch->num_costs());
  node_dist_.assign(fetch->num_nodes(),
                    std::numeric_limits<double>::infinity());
  fac_dist_.assign(fetch->num_facilities(),
                   std::numeric_limits<double>::infinity());
  // Queries are local: a few thousand frontier entries cover typical runs,
  // and the rare deeper expansion grows geometrically (no per-push
  // allocation in steady state).
  heap_.reserve(4096);
}

void SingleExpansion::PushNode(graph::NodeId v, double key) {
  // dist == kSettled (settled) also fails this test: key is non-negative.
  if (key >= node_dist_[v]) return;
  node_dist_[v] = key;
  heap_.push(HeapItem{key, v});
  ++stats_.heap_pushes;
}

void SingleExpansion::PushFacility(graph::FacilityId f, double key) {
  if (key >= fac_dist_[f]) return;
  fac_dist_[f] = key;
  heap_.push(HeapItem{key, kFacilityTag | f});
  ++stats_.heap_pushes;
}

void SingleExpansion::SeedNode(graph::NodeId v, double cost) {
  PushNode(v, cost);
}

void SingleExpansion::SeedFacility(graph::FacilityId f, double cost) {
  PushFacility(f, cost);
}

Status SingleExpansion::ExpandNode(graph::NodeId v, double key) {
  // The adjacency span stays valid across the facility fetches below: the
  // providers keep the two record kinds in separate storage.
  MCN_ASSIGN_OR_RETURN(auto entries, fetch_->GetAdjacency(v));
  for (const net::AdjEntry& e : entries) {
    double w = e.w[cost_index_];
    PushNode(e.neighbor, key + w);
    if (e.fac.count == 0) continue;

    graph::EdgeKey edge(v, e.neighbor);
    if (filter_ != nullptr && !filter_->ContainsEdge(edge)) continue;

    MCN_ASSIGN_OR_RETURN(auto facs, fetch_->GetFacilities(edge, e.fac));
    for (const net::FacilityOnEdge& fe : facs) {
      if (filter_ != nullptr && !filter_->Allows(edge, fe.facility)) continue;
      // fe.frac is measured from the canonical endpoint edge.u.
      double frac_from_v = (v == edge.u) ? fe.frac : 1.0 - fe.frac;
      PushFacility(fe.facility, key + frac_from_v * w);
    }
  }
  return Status::OK();
}

Result<ExpansionEvent> SingleExpansion::Step() {
  // Cancellation point: checked once per settled element, so an expired
  // query stops before its next fetch. Exhaustion still reports cleanly —
  // an empty heap costs nothing to finish.
  if (cancel_ != nullptr && !heap_.empty()) {
    MCN_RETURN_IF_ERROR(cancel_->Check());
  }
  while (!heap_.empty()) {
    HeapItem item = heap_.top();
    heap_.pop();
    ++stats_.heap_pops;
    if (item.tagged_id & kFacilityTag) {
      graph::FacilityId f =
          static_cast<graph::FacilityId>(item.tagged_id & 0xFFFFFFFFu);
      if (item.key > fac_dist_[f]) continue;  // stale or already settled
      fac_dist_[f] = kSettled;
      ++stats_.facilities_settled;
      return ExpansionEvent{ExpansionEvent::Type::kFacility, f, item.key};
    }
    graph::NodeId v = static_cast<graph::NodeId>(item.tagged_id);
    if (item.key > node_dist_[v]) continue;  // stale or already settled
    // The pruner must be asked while v still reads as unsettled: a
    // protected facility endpoint recognizes itself through its live
    // tentative key (key + 0 > UB fails), which the settle below destroys.
    if (pruner_ != nullptr && pruner_->ShouldPrune(cost_index_, v, item.key)) {
      node_dist_[v] = kSettled;
      ++stats_.nodes_pruned;
      // Settled-but-not-expanded: neighbors are never relaxed and no page
      // is fetched; the event keeps Step()'s one-element contract.
      return ExpansionEvent{ExpansionEvent::Type::kNode, v, item.key};
    }
    node_dist_[v] = kSettled;
    ++stats_.nodes_settled;
    MCN_RETURN_IF_ERROR(ExpandNode(v, item.key));
    return ExpansionEvent{ExpansionEvent::Type::kNode, v, item.key};
  }
  return ExpansionEvent{ExpansionEvent::Type::kExhausted, 0, 0.0};
}

double SingleExpansion::FrontierKey() const {
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.top().key;
}

}  // namespace mcn::expand
