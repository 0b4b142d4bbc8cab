// Quickstart: build a small multi-cost network by hand, store it in the
// paged storage scheme, and run the three preference queries of the paper
// two ways — first against the raw query processors, then through the
// unified api::QuerySpec surface of the serving layer (DESIGN.md §9),
// including a constrained spec and a streaming incremental session.
//
//   ./examples/quickstart
#include <cstdio>
#include <limits>

#include "mcn/mcn.h"

int main() {
  using namespace mcn;

  // A toy network with two cost types per edge: minutes and dollars.
  //   0 --- 1 --- 2
  //   |     |     |
  //   3 --- 4 --- 5
  graph::MultiCostGraph g(/*num_costs=*/2);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) g.AddNode(c, r);
  }
  auto edge = [&](graph::NodeId a, graph::NodeId b, double minutes,
                  double dollars) {
    return g.AddEdge(a, b, graph::CostVector{minutes, dollars}).value();
  };
  edge(0, 1, 10, 0);
  edge(1, 2, 12, 0);
  graph::EdgeId e03 = edge(0, 3, 5, 2);
  edge(1, 4, 4, 1);
  graph::EdgeId e25 = edge(2, 5, 3, 3);
  edge(3, 4, 8, 0);
  graph::EdgeId e45 = edge(4, 5, 9, 0);
  g.Finalize();

  // Three facilities on edges (fraction measured from the lower node id).
  graph::FacilitySet facilities;
  facilities.Add(e03, 0.5);  // facility 0
  facilities.Add(e45, 0.25);  // facility 1
  facilities.Add(e25, 1.0);  // facility 2 (at node 5)
  facilities.Finalize();

  // Materialize the disk-resident storage scheme (adjacency tree/file,
  // facility tree/file) on one disk — a single-shard layout — and front it
  // with a tiny LRU buffer.
  shard::ShardedStorage storage(shard::SingleShardPartition(g.num_nodes()));
  auto files = shard::BuildShardedNetwork(&storage, g, facilities).value();
  shard::ShardedNetworkReader reader(&storage, files,
                                     /*frames=*/{8});

  // Query location: on edge (0,1), a fifth of the way from node 0.
  graph::Location q = graph::Location::OnEdge(graph::EdgeKey(0, 1), 0.2);
  std::printf("query at %s\n\n", q.ToString().c_str());

  // --- Part 1: the raw query processors -------------------------------

  // Progressive skyline (CEA engine).
  {
    auto engine = expand::CeaEngine::Create(&reader, q).value();
    algo::SkylineQuery skyline(engine.get());
    std::printf("skyline facilities (reported progressively):\n");
    for (;;) {
      auto next = skyline.Next().value();
      if (!next.has_value()) break;
      std::printf("  facility %u  costs=%s\n", next->facility,
                  next->costs.ToString().c_str());
    }
    const storage::BufferPool::Stats io = reader.PoolStats();
    std::printf("buffer after skyline: %llu hits, %llu misses\n\n",
                static_cast<unsigned long long>(io.hits),
                static_cast<unsigned long long>(io.misses));
  }

  // Top-2 with a 70/30 minutes/dollars trade-off.
  {
    auto engine = expand::CeaEngine::Create(&reader, q).value();
    algo::TopKOptions opts;
    opts.k = 2;
    algo::TopKQuery topk(engine.get(),
                         algo::WeightedSum({0.7, 0.3}), opts);
    std::printf("top-2 by 0.7*minutes + 0.3*dollars:\n");
    for (const auto& entry : topk.Run().value()) {
      std::printf("  facility %u  score=%.2f  costs=%s\n", entry.facility,
                  entry.score, entry.costs.ToString().c_str());
    }
    std::printf("\n");
  }

  // --- Part 2: the unified API (api::QuerySpec -> QueryService) --------
  //
  // One value type expresses all three query kinds plus preference
  // constraints; the same spec also travels over the api/wire protocol
  // (see examples/query_server.cpp for the TCP side).
  exec::ServiceOptions options;
  options.num_workers = 2;
  options.pool_frames_per_worker = 8;
  auto service = exec::QueryService::Create(&storage, files, options).value();

  // The full skyline, as a spec.
  {
    exec::QueryResult result =
        service->Submit(api::SkylineSpec(q)).get();
    std::printf("skyline via QuerySpec: %zu facilities, hash %016llx\n",
                result.skyline.size(),
                static_cast<unsigned long long>(result.result_hash));
  }

  // The same skyline under a budget: dollars capped at 1.50. Constraints
  // are applied server-side as a post-dominance filter.
  {
    api::QuerySpec spec = api::SkylineSpec(q);
    spec.preference.constraints.cost_caps = {
        std::numeric_limits<double>::infinity(), 1.5};
    exec::QueryResult result = service->Submit(spec).get();
    std::printf("skyline with dollars <= 1.50: %zu facilities\n",
                result.skyline.size());
    for (const auto& e : result.skyline) {
      std::printf("  facility %u  costs=%s\n", e.facility,
                  e.costs.ToString().c_str());
    }
  }

  // Malformed specs come back as Status errors, never crashes.
  {
    exec::QueryResult bad =
        service->Submit(api::TopKSpec(q, 2, {0.7})).get();
    std::printf("malformed spec -> %s\n\n", bad.status.ToString().c_str());
  }

  // A streaming incremental session: one pinned engine server-side, one
  // more ranked batch per Next — ask for as many as you end up needing.
  {
    exec::SessionId session =
        service->OpenSession(api::IncrementalSpec(q, 1, {0.5, 0.5}))
            .value();
    std::printf("incremental session (50/50 weights), batches of 1:\n");
    int rank = 1;
    for (;;) {
      exec::QueryResult batch = service->SessionNext(session, 1).get();
      if (!batch.status.ok()) {
        std::printf("  session ended: %s\n", batch.status.ToString().c_str());
        break;
      }
      for (const auto& row : batch.topk) {
        std::printf("  #%d facility %u  score=%.2f\n", rank++, row.facility,
                    row.score);
      }
      if (batch.exhausted) break;
    }
    (void)service->CloseSession(session);
  }
  service->Shutdown();
  return 0;
}
