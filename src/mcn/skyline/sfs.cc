#include <algorithm>
#include <numeric>

#include "mcn/skyline/skyline.h"

namespace mcn::skyline {

std::vector<uint32_t> SortFilterSkyline(std::span<const Tuple> data,
                                        SkylineStats* stats) {
  SkylineStats local;
  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  // Monotone presort: if a dominates b (strictly), sum(a) < sum(b), so a
  // precedes b and one pass suffices.
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return data[a].values.Sum() < data[b].values.Sum();
  });
  std::vector<size_t> window;
  for (size_t idx : order) {
    const graph::CostVector& v = data[idx].values;
    bool dominated = false;
    for (size_t w : window) {
      ++local.dominance_checks;
      if (data[w].values.Dominates(v)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) window.push_back(idx);
  }
  std::vector<uint32_t> result;
  result.reserve(window.size());
  for (size_t i : window) result.push_back(data[i].id);
  if (stats != nullptr) *stats = local;
  return result;
}

std::vector<uint32_t> BruteForceSkyline(std::span<const Tuple> data,
                                        SkylineStats* stats) {
  SkylineStats local;
  std::vector<uint32_t> result;
  for (size_t i = 0; i < data.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < data.size() && !dominated; ++j) {
      if (i == j) continue;
      ++local.dominance_checks;
      dominated = data[j].values.Dominates(data[i].values);
    }
    if (!dominated) result.push_back(data[i].id);
  }
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace mcn::skyline
