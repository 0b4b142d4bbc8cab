#include "mcn/net/network_reader.h"

#include <string>

#include "mcn/common/macros.h"
#include "mcn/storage/slotted_page.h"

namespace mcn::net {

namespace {

/// One kProbeFetch event per traced record fetch (obs/trace.h): captures
/// the pool's miss count up front; Record() flags the fetch as a miss if
/// any page of the call missed. Everything is skipped (two loads + branch)
/// unless tracing is on AND a query context is installed AND the reader
/// has fetch tracing enabled.
class FetchTrace {
 public:
  FetchTrace(bool reader_traces, const storage::BufferPool* pool)
      : context_(obs::CurrentTraceContext()) {
    if (!reader_traces || !context_.active() ||
        !obs::Tracer::Global().enabled()) {
      return;
    }
    pool_ = pool;
    misses_before_ = pool->stats().misses;
  }

  void Record(uint64_t key) {
    if (pool_ == nullptr) return;
    const uint64_t flags =
        pool_->stats().misses > misses_before_ ? obs::kFetchMiss : 0;
    obs::RecordInstant(context_, obs::EventType::kProbeFetch, key, flags);
  }

 private:
  obs::TraceContext context_;
  const storage::BufferPool* pool_ = nullptr;
  uint64_t misses_before_ = 0;
};

}  // namespace

NetworkReader::NetworkReader(const NetworkFiles& files,
                             storage::BufferPool* pool)
    : files_(files), pool_(pool) {
  MCN_CHECK(pool != nullptr);
}

Status NetworkReader::GetAdjacency(graph::NodeId node,
                                   std::vector<AdjEntry>* out) const {
  out->clear();
  if (node >= files_.num_nodes) {
    return Status::InvalidArgument("GetAdjacency: node out of range");
  }
  FetchTrace fetch_trace(trace_fetches(), pool_);
  MCN_ASSIGN_OR_RETURN(auto pos_value,
                       files_.adjacency_tree.Lookup(*pool_, node));
  if (!pos_value.has_value()) {
    return Status::Corruption("adjacency tree misses node " +
                              std::to_string(node));
  }
  RecordPos pos = RecordPos::Unpack(*pos_value);
  MCN_ASSIGN_OR_RETURN(auto guard,
                       pool_->Fetch({files_.adjacency_file, pos.page}));
  storage::SlottedPageReader page(guard.data());
  MCN_ASSIGN_OR_RETURN(auto record, page.TryRecord(pos.slot));
  MCN_ASSIGN_OR_RETURN(graph::NodeId stored,
                       DecodeAdjRecord(record, files_.num_costs, out));
  if (stored != node) {
    return Status::Corruption("adjacency record for node " +
                              std::to_string(stored) + ", expected " +
                              std::to_string(node));
  }
  fetch_trace.Record(node);
  return Status::OK();
}

Status NetworkReader::GetFacilities(graph::EdgeKey edge, const FacRef& ref,
                                    std::vector<FacilityOnEdge>* out) const {
  out->clear();
  if (ref.empty()) return Status::OK();
  FetchTrace fetch_trace(trace_fetches(), pool_);
  MCN_ASSIGN_OR_RETURN(auto guard,
                       pool_->Fetch({files_.facility_file, ref.page}));
  storage::SlottedPageReader page(guard.data());
  MCN_ASSIGN_OR_RETURN(auto record, page.TryRecord(ref.slot));
  MCN_RETURN_IF_ERROR(DecodeFacRecord(record, out).status());
  if (out->size() != ref.count) {
    return Status::Corruption("facility record count mismatch");
  }
  fetch_trace.Record(edge.u);
  return Status::OK();
}

Result<graph::EdgeKey> NetworkReader::LocateFacilityEdge(
    graph::FacilityId fac) const {
  MCN_ASSIGN_OR_RETURN(auto value, files_.facility_tree.Lookup(*pool_, fac));
  if (!value.has_value()) {
    return Status::NotFound("facility " + std::to_string(fac) +
                            " not in facility tree");
  }
  return graph::EdgeKey::Unpack(*value);
}

Result<AdjEntry> NetworkReader::FindEdgeEntry(graph::NodeId a,
                                              graph::NodeId b) const {
  std::vector<AdjEntry> entries;
  MCN_RETURN_IF_ERROR(GetAdjacency(a, &entries));
  for (const AdjEntry& e : entries) {
    if (e.neighbor == b) return e;
  }
  return Status::NotFound("no edge between " + std::to_string(a) + " and " +
                          std::to_string(b));
}

}  // namespace mcn::net
