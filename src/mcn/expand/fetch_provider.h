// FetchProvider: the data-access seam between the incremental expansions and
// the network. Three implementations:
//
//  * DirectFetch  — every request goes to the NetworkReader (through the
//                   buffer pool). d expansions sharing one DirectFetch is
//                   exactly LSA: the same record may be read up to d times.
//  * CachedFetch  — a query-lifetime shared cache in front of the reader:
//                   each adjacency record and each facility record is
//                   fetched at most once per query. This realizes CEA's
//                   information sharing (paper §IV-B; DESIGN.md §3). Its
//                   rows live in two flat per-query arenas, so a fetch
//                   allocates only when an arena grows (DESIGN.md §4).
//  * MemFetch     — serves everything from the in-memory graph; zero I/O.
#ifndef MCN_EXPAND_FETCH_PROVIDER_H_
#define MCN_EXPAND_FETCH_PROVIDER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mcn/common/flat_u64_map.h"
#include "mcn/common/result.h"
#include "mcn/graph/facility.h"
#include "mcn/graph/location.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/net/format.h"
#include "mcn/net/network_reader.h"

namespace mcn::expand {

/// Abstract access to adjacency and facility records during a query.
class FetchProvider {
 public:
  struct Stats {
    /// Logical requests.
    uint64_t adjacency_requests = 0;
    uint64_t facility_requests = 0;
    /// Requests served by the underlying store (== requests for
    /// DirectFetch; <= requests for CachedFetch; 0 for MemFetch).
    uint64_t adjacency_fetches = 0;
    uint64_t facility_fetches = 0;
  };

  virtual ~FetchProvider() = default;

  virtual int num_costs() const = 0;
  virtual uint32_t num_nodes() const = 0;
  virtual uint32_t num_facilities() const = 0;

  /// Adjacency entries of `node`. The returned span stays valid until the
  /// next GetAdjacency call on this provider.
  virtual Result<std::span<const net::AdjEntry>> GetAdjacency(
      graph::NodeId node) = 0;

  /// Facility list of `edge` (whose adjacency entry carried `ref`). The
  /// returned span stays valid until the next GetFacilities call.
  virtual Result<std::span<const net::FacilityOnEdge>> GetFacilities(
      graph::EdgeKey edge, const net::FacRef& ref) = 0;

  /// Data needed to seed expansions at `q`: the edge's cost vector and its
  /// facility list (empty for node locations).
  struct SeedInfo {
    graph::CostVector edge_costs;
    std::vector<net::FacilityOnEdge> facilities;
  };
  virtual Result<SeedInfo> GetSeedInfo(const graph::Location& q) = 0;

  /// Virtual so concurrent providers (StripedCachedFetch) can materialize
  /// atomic counters on demand. Call only from the query-driving thread
  /// while no probe is in flight.
  virtual const Stats& stats() const { return stats_; }
  virtual void ResetStats() { stats_ = Stats(); }

 protected:
  Stats stats_;
};

namespace internal {
/// Shared GetSeedInfo logic: find `key`'s entry among the adjacency record
/// of key.u, then load its facilities through `self`.
Result<FetchProvider::SeedInfo> SeedFromEntries(
    FetchProvider* self, std::span<const net::AdjEntry> entries,
    graph::EdgeKey key);
}  // namespace internal

/// LSA-style pass-through provider.
class DirectFetch : public FetchProvider {
 public:
  explicit DirectFetch(const net::NetworkReader* reader);

  int num_costs() const override { return reader_->num_costs(); }
  uint32_t num_nodes() const override { return reader_->num_nodes(); }
  uint32_t num_facilities() const override {
    return reader_->num_facilities();
  }

  Result<std::span<const net::AdjEntry>> GetAdjacency(
      graph::NodeId node) override;
  Result<std::span<const net::FacilityOnEdge>> GetFacilities(
      graph::EdgeKey edge, const net::FacRef& ref) override;
  Result<SeedInfo> GetSeedInfo(const graph::Location& q) override;

 private:
  const net::NetworkReader* reader_;
  std::vector<net::AdjEntry> adj_scratch_;
  std::vector<net::FacilityOnEdge> fac_scratch_;
};

/// CEA-style caching provider: each record is fetched from the reader at
/// most once per provider lifetime (i.e. per query). The adjacency cache is
/// a NodeId-indexed flat directory (one u32 per node) and the facility
/// cache an open-addressed packed-edge table, so the per-request lookup is
/// an array index / one probe chain instead of an unordered_map find
/// (DESIGN.md §4). Both lead to an (offset, count) row over a flat arena.
class CachedFetch : public FetchProvider {
 public:
  explicit CachedFetch(const net::NetworkReader* reader);

  int num_costs() const override { return reader_->num_costs(); }
  uint32_t num_nodes() const override { return reader_->num_nodes(); }
  uint32_t num_facilities() const override {
    return reader_->num_facilities();
  }

  Result<std::span<const net::AdjEntry>> GetAdjacency(
      graph::NodeId node) override;
  Result<std::span<const net::FacilityOnEdge>> GetFacilities(
      graph::EdgeKey edge, const net::FacRef& ref) override;
  Result<SeedInfo> GetSeedInfo(const graph::Location& q) override;

  size_t cached_nodes() const { return adj_rows_.size(); }
  size_t cached_edges() const { return fac_rows_.size(); }

 private:
  /// A cached record: `count` entries from `offset` in its arena.
  struct Row {
    uint32_t offset = 0;
    uint32_t count = 0;
  };

  const net::NetworkReader* reader_;
  // Each record is decoded into a reused scratch row, then appended to its
  // arena, so a fetch allocates only when a buffer grows. Growth moves the
  // arena: a returned span lives only until the next call of its getter,
  // as the base contract states (the two arenas are independent, so an
  // adjacency span survives the facility fetches made while walking it).
  std::vector<uint32_t> adj_row_of_;  ///< NodeId-indexed; kNoValue = absent
  std::vector<Row> adj_rows_;
  std::vector<net::AdjEntry> adj_arena_;
  std::vector<net::AdjEntry> adj_scratch_;
  FlatU64Map fac_row_of_;  ///< packed EdgeKey -> row in fac_rows_
  std::vector<Row> fac_rows_;
  std::vector<net::FacilityOnEdge> fac_arena_;
  std::vector<net::FacilityOnEdge> fac_scratch_;
};

/// In-memory provider over MultiCostGraph + FacilitySet (no disk at all).
class MemFetch : public FetchProvider {
 public:
  MemFetch(const graph::MultiCostGraph* graph,
           const graph::FacilitySet* facilities);

  int num_costs() const override { return graph_->num_costs(); }
  uint32_t num_nodes() const override { return graph_->num_nodes(); }
  uint32_t num_facilities() const override {
    return static_cast<uint32_t>(facilities_->size());
  }

  Result<std::span<const net::AdjEntry>> GetAdjacency(
      graph::NodeId node) override;
  Result<std::span<const net::FacilityOnEdge>> GetFacilities(
      graph::EdgeKey edge, const net::FacRef& ref) override;
  Result<SeedInfo> GetSeedInfo(const graph::Location& q) override;

 private:
  const graph::MultiCostGraph* graph_;
  const graph::FacilitySet* facilities_;
  std::vector<net::AdjEntry> adj_scratch_;
  std::vector<net::FacilityOnEdge> fac_scratch_;
};

}  // namespace mcn::expand

#endif  // MCN_EXPAND_FETCH_PROVIDER_H_
