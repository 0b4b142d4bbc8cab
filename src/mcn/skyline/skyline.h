// Conventional skyline operators over materialized tuples (paper §II-A).
// Sort-filter-skyline is the operator of the naive MCN baseline (which
// first computes every facility's complete cost vector); the brute-force
// operator is its test reference.
#ifndef MCN_SKYLINE_SKYLINE_H_
#define MCN_SKYLINE_SKYLINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "mcn/graph/cost_vector.h"

namespace mcn::skyline {

/// A tuple with an id and a d-dimensional value vector (smaller is better).
struct Tuple {
  uint32_t id = 0;
  graph::CostVector values;
};

struct SkylineStats {
  uint64_t dominance_checks = 0;
};

/// Sort-filter-skyline (Chomicki et al.): presort by a monotone score
/// (component sum) so that no tuple can dominate an earlier one; a single
/// filtering pass then suffices. Output in the monotone order.
std::vector<uint32_t> SortFilterSkyline(std::span<const Tuple> data,
                                        SkylineStats* stats = nullptr);

/// Reference O(n^2) implementation (tests and small inputs).
std::vector<uint32_t> BruteForceSkyline(std::span<const Tuple> data,
                                        SkylineStats* stats = nullptr);

}  // namespace mcn::skyline

#endif  // MCN_SKYLINE_SKYLINE_H_
