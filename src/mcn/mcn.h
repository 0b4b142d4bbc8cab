// Umbrella header for the mcn library: preference queries (skyline, top-k)
// in large multi-cost transportation networks, after Mouratidis, Lin & Yiu,
// ICDE 2010. See README.md for a tour and examples/ for runnable programs.
#ifndef MCN_MCN_H_
#define MCN_MCN_H_

#include "mcn/algo/common.h"
#include "mcn/algo/constraints.h"
#include "mcn/algo/incremental_topk.h"
#include "mcn/algo/naive.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/api/client.h"
#include "mcn/api/query_response.h"
#include "mcn/api/query_spec.h"
#include "mcn/api/server.h"
#include "mcn/api/wire.h"
#include "mcn/common/logging.h"
#include "mcn/common/random.h"
#include "mcn/common/result.h"
#include "mcn/common/status.h"
#include "mcn/common/stopwatch.h"
#include "mcn/exec/query_service.h"
#include "mcn/expand/dijkstra.h"
#include "mcn/expand/engines.h"
#include "mcn/gen/workload.h"
#include "mcn/graph/cost_vector.h"
#include "mcn/graph/facility.h"
#include "mcn/graph/location.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/io/dimacs.h"
#include "mcn/mcpp/pareto_paths.h"
#include "mcn/net/catalog.h"
#include "mcn/net/network_reader.h"
#include "mcn/shard/partition.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_reader.h"
#include "mcn/shard/sharded_storage.h"
#include "mcn/skyline/skyline.h"
#include "mcn/storage/buffer_pool.h"
#include "mcn/storage/disk_manager.h"
#include "mcn/storage/persistence.h"

#endif  // MCN_MCN_H_
