// QuerySpec: the one request value type of the unified preference-query API
// (DESIGN.md §9). Every entry point — in-process calls, exec::QueryService,
// and the api::Server socket endpoint — speaks this type; it subsumes the
// paper's three processors (skyline §IV, top-k §V, incremental §V) behind a
// composable PreferenceSpec and is fully serializable through api/wire.h,
// which makes it the RPC seam the multi-node sharding roadmap item builds
// on.
//
// A spec is self-contained by value and engine-agnostic: the `engine` and
// `parallelism` fields are execution *hints* that never change results
// (LSA/CEA/parallel schedules are result-identical by the determinism
// contract), so a spec executed remotely hashes byte-identically to the
// same spec executed in process.
#ifndef MCN_API_QUERY_SPEC_H_
#define MCN_API_QUERY_SPEC_H_

#include <cstdint>
#include <vector>

#include "mcn/algo/constraints.h"
#include "mcn/common/status.h"
#include "mcn/expand/engines.h"
#include "mcn/graph/location.h"

namespace mcn::api {

/// The three preference-query kinds of the paper. Values are fixed wire
/// encodings — append only.
enum class QueryKind : uint8_t {
  kSkyline = 0,          ///< full MCN skyline (paper §IV)
  kTopK = 1,             ///< known-k top-k (paper §V)
  kIncrementalTopK = 2,  ///< incremental ranking (paper §V); sessionable
};

/// Printable kind name ("skyline", "top-k", "incremental").
const char* QueryKindName(QueryKind kind);

/// What the client prefers: nothing (full skyline), a weighted sum (top-k
/// kinds), and optional constraints applied as a post-dominance filter
/// (algo/constraints.h). Composable: a constrained skyline, a capped top-k
/// and an unconstrained incremental session are all one type.
struct PreferenceSpec {
  /// Weighted-sum coefficients; required (size d) for the top-k kinds,
  /// must be empty for skyline.
  std::vector<double> weights;
  /// Epsilon thinning + per-dimension cost caps; default = unconstrained,
  /// which is a guaranteed filter no-op (byte-identical result hashes).
  algo::PreferenceConstraints constraints;

  bool operator==(const PreferenceSpec& o) const {
    return weights == o.weights && constraints == o.constraints;
  }
};

/// One preference query. See the file comment.
struct QuerySpec {
  QueryKind kind = QueryKind::kSkyline;
  graph::Location location = graph::Location::AtNode(graph::kInvalidNode);
  /// Top-k kinds: result count (one-shot top-k) or first-batch size
  /// (incremental). Ignored by skyline.
  int32_t k = 4;
  PreferenceSpec preference;
  /// Execution hint: engine flavor (result-invariant; I/O behavior only).
  expand::EngineKind engine = expand::EngineKind::kCea;
  /// Execution hint: intra-query d-expansion parallelism (DESIGN.md §7).
  /// 0 = width-1 turns (the paper's per-probe schedule); >= 1 = wide
  /// round-robin turns over the CEA engine.
  int32_t parallelism = 0;
  /// Per-request deadline in milliseconds, measured from admission
  /// (DESIGN.md §10). 0 = no deadline. An expired query stops expanding at
  /// the next cancellation point and resolves with DeadlineExceeded; the
  /// deadline never changes the bytes of a *successful* result.
  int32_t deadline_ms = 0;

  /// Full semantic validation against a d-dimensional network. Malformed
  /// specs — wrong-size or negative weights, non-positive k, bad caps,
  /// epsilon on a non-skyline kind, an unset location — are rejected with
  /// InvalidArgument instead of tripping a CHECK in a worker, so they are
  /// rejectable over the wire.
  Status Validate(int num_costs) const;

  bool operator==(const QuerySpec& o) const;
};

/// Convenience constructors for the common shapes.
QuerySpec SkylineSpec(const graph::Location& location);
QuerySpec TopKSpec(const graph::Location& location, int k,
                   std::vector<double> weights);
QuerySpec IncrementalSpec(const graph::Location& location, int first_batch,
                          std::vector<double> weights);

}  // namespace mcn::api

#endif  // MCN_API_QUERY_SPEC_H_
