#include "mcn/algo/naive.h"

#include <algorithm>
#include <unordered_map>

#include "mcn/common/macros.h"
#include "mcn/expand/engines.h"
#include "mcn/skyline/skyline.h"

namespace mcn::algo {

Result<std::vector<SkylineEntry>> NaiveAllCosts(
    const net::NetworkReader& reader, const graph::Location& q) {
  MCN_ASSIGN_OR_RETURN(auto engine, expand::LsaEngine::Create(&reader, q));
  int d = engine->num_costs();
  std::unordered_map<graph::FacilityId, SkylineEntry> found;
  // One full expansion per cost type, reading the network d times.
  for (int i = 0; i < d; ++i) {
    for (;;) {
      MCN_ASSIGN_OR_RETURN(auto nn, engine->NextNN(i));
      if (!nn.has_value()) break;
      auto [it, created] = found.try_emplace(
          nn->facility,
          SkylineEntry{nn->facility,
                       graph::CostVector(d, expand::kInfCost), 0});
      it->second.costs[i] = nn->cost;
      it->second.known_mask |= 1u << i;
    }
  }
  std::vector<SkylineEntry> all;
  all.reserve(found.size());
  for (auto& [fid, entry] : found) all.push_back(entry);
  std::sort(all.begin(), all.end(),
            [](const SkylineEntry& a, const SkylineEntry& b) {
              return a.facility < b.facility;
            });
  return all;
}

Result<std::vector<SkylineEntry>> NaiveSkyline(
    const net::NetworkReader& reader, const graph::Location& q) {
  MCN_ASSIGN_OR_RETURN(std::vector<SkylineEntry> all,
                       NaiveAllCosts(reader, q));
  std::vector<skyline::Tuple> tuples;
  tuples.reserve(all.size());
  for (const SkylineEntry& e : all) {
    tuples.push_back(skyline::Tuple{e.facility, e.costs});
  }
  std::vector<uint32_t> ids = skyline::SortFilterSkyline(tuples);
  std::unordered_map<graph::FacilityId, const SkylineEntry*> by_id;
  for (const SkylineEntry& e : all) by_id[e.facility] = &e;
  std::vector<SkylineEntry> result;
  result.reserve(ids.size());
  for (uint32_t id : ids) result.push_back(*by_id[id]);
  return result;
}

Result<std::vector<TopKEntry>> NaiveTopK(const net::NetworkReader& reader,
                                         const graph::Location& q,
                                         const AggregateFn& f, int k) {
  if (k < 1) return Status::InvalidArgument("NaiveTopK: k must be >= 1");
  MCN_ASSIGN_OR_RETURN(std::vector<SkylineEntry> all,
                       NaiveAllCosts(reader, q));
  std::vector<TopKEntry> scored;
  scored.reserve(all.size());
  for (const SkylineEntry& e : all) {
    scored.push_back(TopKEntry{e.facility, e.costs, f(e.costs)});
  }
  std::sort(scored.begin(), scored.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.facility < b.facility;
            });
  if (static_cast<int>(scored.size()) > k) scored.resize(k);
  return scored;
}

}  // namespace mcn::algo
