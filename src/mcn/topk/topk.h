// Conventional top-k over materialized tuples (paper §II-B): Fagin's
// Threshold Algorithm (TA) with random accesses. It assumes an increasingly
// monotone aggregate and minimizes it (the paper's convention: lower
// aggregate cost is better).
#ifndef MCN_TOPK_TOPK_H_
#define MCN_TOPK_TOPK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "mcn/algo/common.h"
#include "mcn/skyline/skyline.h"

namespace mcn::topk {

/// A scored result item.
struct RankedItem {
  uint32_t id = 0;
  double score = 0.0;
};

struct TaStats {
  uint64_t sorted_accesses = 0;
  uint64_t random_accesses = 0;
  uint64_t rounds = 0;
};

/// Threshold Algorithm: d sorted lists (ascending per attribute), round-
/// robin sorted access, random access to complete each encountered tuple,
/// stop when the k-th best score <= f(t_1,...,t_d) with t_i the key at the
/// current position of list i. Returns the k smallest-score items
/// (ascending; fewer if |data| < k).
std::vector<RankedItem> ThresholdAlgorithm(
    std::span<const skyline::Tuple> data, const algo::AggregateFn& f, int k,
    TaStats* stats = nullptr);

/// Reference: full scan + sort (tests, baselines).
std::vector<RankedItem> BruteForceTopK(std::span<const skyline::Tuple> data,
                                       const algo::AggregateFn& f, int k);

}  // namespace mcn::topk

#endif  // MCN_TOPK_TOPK_H_
