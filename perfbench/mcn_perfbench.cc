// mcn_perfbench: the wall-clock benchmark of the preference-query service.
//
//   mcn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload is a closed loop: each client thread sends its next
// request only when the previous one has returned. Timings are wall clock
// (std::chrono::steady_clock) around the public call a user makes; no I/O
// stall is slept or modeled.
//
//   wire_warm         K=1 network behind api::Server on 127.0.0.1. Two TCP
//                     clients send one-shot requests. Each worker's buffer
//                     pool holds the whole network and stays warm across
//                     queries, so the path is wire codec, sockets, queueing
//                     and expansion CPU. The network carries a landmark
//                     index and the service prunes skylines with it (the
//                     index reads through its own small pool, whose misses
//                     are the only ones here); every query runs the classic
//                     per-probe schedule.
//   sharded_sessions  K=4 grid-sharded network, four shard-affine worker
//                     groups, four in-process users. Incremental queries
//                     run as sessions (open, batches, close). Pools are the
//                     paper's 1% size; a one-shot query starts with an
//                     empty one and a session keeps its own across its
//                     batches, so buffer misses and page reads are on the
//                     path. One-shot queries run the turn-barrier schedule
//                     (parallelism 1: turns inline on the worker; pooled
//                     probe threads on four busy workers oversubscribe a
//                     4-vCPU machine, and run-to-run spread was several
//                     times wider with them); there is no landmark index
//                     and no wire.
//
// So the prune index and the turn schedule are each exercised by one
// workload and bypassed by the other. The result cache and the MCNDISK1
// file backend are off in both (a cache hit would replace the work this
// benchmark times; the backend is not on the pool's miss path).
//
// Inputs: the network is the paper's default configuration scaled to
// kScale (fixed, like a dataset); --seed draws the queries and the order
// each user sends them in. The traffic is the repository's service mix
// (bench/bench_wire_throughput.cc): skyline, top-k (k=4) and incremental
// top-k (k=3) in equal numbers, uniform random locations and preference
// weights from U[0,1) as in the paper (§VI). A session pulls its
// incremental ranks in kSessionBatches batches of kSessionBatchSize, the
// session shape of that bench's parity check. Every response is checked
// against an oracle evaluated once per distinct query at set-up (see
// ComputeReferences): identical skyline facility sets, and identical
// top-k / session facility order with scores within 1e-9.
//
// Output: progress on stderr; the last stdout line is one JSON object,
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// --trace 0 reports the end-to-end metrics with tracing off. The measured
// window is cut into kSlices equal slices of about a second; latency
// percentiles and throughput are computed per slice, and each metric is
// the slice at the quartile of least outside disturbance: the lower
// quartile of the slices' latencies, the upper quartile of their
// throughputs. Outside load only ever slows a slice (on the shared 4-vCPU
// VM this was tuned on, a fixed single-thread loop took anywhere from 36
// to 81 ms, in stretches of seconds), and a change that slows every
// request slows that quartile too. setup_s is the median of 3 x kSetupGroup
// complete set-ups, timed in three groups spread over the run.
//
// --trace 1 turns the program's tracer on and reports the per-layer
// breakdown, attributed outside in, as means per request (a session batch
// counts as a request): the client-timed request, minus what the service
// reports as its own latency (the API boundary: wire codec and sockets, or
// the future hand-off in process), split into queue wait and execution;
// then the work counts of the layers under execution — record fetches and
// their off-shard share from the trace, dominance rounds from the trace,
// buffer-pool accesses and misses, disk page reads.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "mcn/algo/common.h"
#include "mcn/api/client.h"
#include "mcn/api/query_spec.h"
#include "mcn/api/server.h"
#include "mcn/common/random.h"
#include "mcn/exec/query_service.h"
#include "mcn/expand/dijkstra.h"
#include "mcn/gen/workload.h"
#include "mcn/obs/metrics.h"
#include "mcn/obs/trace.h"
#include "mcn/skyline/skyline.h"

namespace mcn::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Reports and ends the process at once (client threads may be running).
[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "mcn_perfbench: %s\n", message.c_str());
  std::_Exit(2);
}

// ------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  /// Users talk to api::Server over TCP instead of calling the service.
  bool wire;
  int shards;
  int workers;
  int clients;
  /// Buffer pool per worker, % of the network's pages.
  double buffer_pct;
  bool cold_cache_per_query;
  /// Incremental queries run as sessions instead of one-shot requests.
  bool sessions;
  /// Landmarks of the prune index; 0 builds none (and prunes nothing).
  uint32_t landmarks;
  /// QuerySpec::parallelism of one-shot queries: 0 is the classic
  /// per-probe schedule, 1 the turn-barrier schedule inline on the worker.
  int parallelism;
};

constexpr Workload kWorkloads[] = {
    {"wire_warm", true, 1, 2, 2, 100.0, false, false, 64, 0},
    {"sharded_sessions", false, 4, 4, 4, 1.0, true, true, 0, 1},
};

/// Network size as a share of the paper's San Francisco defaults: the
/// scale CI runs every service, wire and shard bench at. (At the figure
/// harness's 0.15, sharded_sessions completes a few requests a second, too
/// few in a run for steady percentiles.)
constexpr double kScale = 0.02;
/// Distinct queries per run; clients cycle through them.
constexpr int kDistinctQueries = 8192;
constexpr int kSessionBatches = 8;
constexpr int kSessionBatchSize = 8;
/// Complete set-ups in each of the three groups a run times: before the
/// queries are drawn, after the oracle and after the window; setup_s is
/// the median of all of them. Within one group the times agree closely,
/// but on a shared host they move by up to half between moments of a
/// run, so one group alone would give a run-to-run spread that large.
constexpr int kSetupGroup = 5;
/// Unmeasured load before the window: pools fill, lazy state is built.
constexpr double kWarmupSeconds = 1.0;
/// Slices of the measured window (see the file comment).
constexpr int kSlices = 50;
/// Trace events each per-thread ring holds; a traced run fails if one
/// round of load (one step per user) appends more to a ring.
constexpr size_t kTraceRingEvents = size_t{1} << 18;

// ----------------------------------------------------------------- queries

/// One distinct query and its oracle answer.
struct Query {
  api::QuerySpec spec;
  /// Skyline: sorted facility ids. Top-k kinds: facilities in rank order
  /// (sessions: the first kSessionBatches x kSessionBatchSize ranks).
  std::vector<graph::FacilityId> ids;
  std::vector<double> scores;
};

std::vector<Query> MakeQueries(const gen::ShardedInstance& instance,
                               const Workload& workload, uint64_t seed) {
  Random rng(seed);
  const int d = instance.graph.num_costs();
  std::vector<Query> queries(kDistinctQueries);
  for (int i = 0; i < kDistinctQueries; ++i) {
    const graph::Location loc = instance.RandomQueryLocation(rng);
    api::QuerySpec& spec = queries[i].spec;
    if (i % 3 == 0) {
      spec = api::SkylineSpec(loc);
    } else {
      std::vector<double> weights(static_cast<size_t>(d));
      for (double& w : weights) w = rng.NextDouble();
      spec = i % 3 == 1 ? api::TopKSpec(loc, 4, std::move(weights))
                        : api::IncrementalSpec(loc, 3, std::move(weights));
    }
    spec.parallelism = workload.parallelism;
  }
  return queries;
}

/// The oracle answer for one query: in-memory Dijkstra over the generated
/// graph (expand::AllFacilityCosts, d runs), then sort-filter skyline or a
/// full (score, id) ranking. Nothing of the disk layout, buffer pools or
/// expansion engines under test is involved.
void ComputeReference(const gen::ShardedInstance& instance, size_t ranks,
                      Query* q) {
  const api::QuerySpec& spec = q->spec;
  const std::vector<graph::CostVector> costs = expand::AllFacilityCosts(
      instance.graph, instance.facilities, spec.location);
  if (spec.kind == api::QueryKind::kSkyline) {
    std::vector<skyline::Tuple> reachable;
    for (size_t f = 0; f < costs.size(); ++f) {
      if (std::isinf(costs[f][0])) continue;
      reachable.push_back({static_cast<uint32_t>(f), costs[f]});
    }
    for (uint32_t id : skyline::SortFilterSkyline(reachable)) {
      q->ids.push_back(id);
    }
    std::sort(q->ids.begin(), q->ids.end());
    return;
  }
  const algo::AggregateFn score = algo::WeightedSum(spec.preference.weights);
  std::vector<std::pair<double, graph::FacilityId>> ranked;
  for (size_t f = 0; f < costs.size(); ++f) {
    if (std::isinf(costs[f][0])) continue;
    ranked.emplace_back(score(costs[f]), static_cast<graph::FacilityId>(f));
  }
  const size_t n = std::min(ranks, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + n, ranked.end());
  for (size_t r = 0; r < n; ++r) {
    q->scores.push_back(ranked[r].first);
    q->ids.push_back(ranked[r].second);
  }
}

void ComputeReferences(const gen::ShardedInstance& instance,
                       const Workload& workload, std::vector<Query>* queries) {
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < queries->size(); i += threads) {
        Query& q = (*queries)[i];
        const bool session = workload.sessions &&
                             q.spec.kind == api::QueryKind::kIncrementalTopK;
        const size_t ranks = static_cast<size_t>(
            session ? kSessionBatches * kSessionBatchSize : q.spec.k);
        ComputeReference(instance, ranks, &q);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
}

bool SkylineMatches(const Query& q,
                    const std::vector<algo::SkylineEntry>& rows) {
  std::vector<graph::FacilityId> ids;
  ids.reserve(rows.size());
  for (const auto& e : rows) ids.push_back(e.facility);
  std::sort(ids.begin(), ids.end());
  return ids == q.ids;
}

/// `rows` are ranks [offset, offset + rows.size()) of the reference.
bool RanksMatch(const Query& q, size_t offset,
                const std::vector<algo::TopKEntry>& rows) {
  if (offset + rows.size() > q.ids.size()) return false;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].facility != q.ids[offset + r]) return false;
    if (std::fabs(rows[r].score - q.scores[offset + r]) > 1e-9) return false;
  }
  return true;
}

bool ResponseMatches(const Query& q,
                     const std::vector<algo::SkylineEntry>& skyline,
                     const std::vector<algo::TopKEntry>& topk) {
  if (q.spec.kind == api::QueryKind::kSkyline) {
    return SkylineMatches(q, skyline);
  }
  return topk.size() == q.ids.size() && RanksMatch(q, 0, topk);
}

// ------------------------------------------------------------------ set-up

struct Rig {
  std::unique_ptr<gen::ShardedInstance> instance;
  std::unique_ptr<exec::QueryService> service;
  std::unique_ptr<api::Server> server;  ///< wire workloads only

  ~Rig() {
    if (server) server->Stop();
    if (service) service->Shutdown();
  }
};

/// Builds the network and brings the service (and server) up: what an
/// operator waits for before the first query can be answered.
std::unique_ptr<Rig> SetUp(const Workload& workload) {
  gen::ExperimentConfig config = gen::ExperimentConfig{}.Scaled(kScale);
  config.buffer_pct = workload.buffer_pct;
  config.landmarks = workload.landmarks;
  auto rig = std::make_unique<Rig>();
  auto instance = gen::BuildShardedInstance(config, workload.shards);
  if (!instance.ok()) Fail("build: " + instance.status().ToString());
  rig->instance = std::move(instance).value();

  exec::ServiceOptions opts;
  opts.num_workers = workload.workers;
  opts.queue_capacity = 64;
  opts.pool_frames_per_worker = rig->instance->pool_frames;
  opts.cold_cache_per_query = workload.cold_cache_per_query;
  opts.enable_prune_index = workload.landmarks > 0;
  auto service = exec::QueryService::Create(&rig->instance->storage,
                                            rig->instance->files, opts);
  if (!service.ok()) Fail("service: " + service.status().ToString());
  rig->service = std::move(service).value();
  if (workload.wire) {
    auto server = api::Server::Start(rig->service.get(), {});
    if (!server.ok()) Fail("server: " + server.status().ToString());
    rig->server = std::move(server).value();
  }
  return rig;
}

/// Times kSetupGroup complete set-ups, one rig at a time, into `*seconds`;
/// returns the last rig.
std::unique_ptr<Rig> TimedSetUps(const Workload& workload,
                                 std::vector<double>* seconds) {
  std::unique_ptr<Rig> rig;
  for (int r = 0; r < kSetupGroup; ++r) {
    rig.reset();
    const auto start = Clock::now();
    rig = SetUp(workload);
    seconds->push_back(SecondsSince(start));
  }
  return rig;
}

// ----------------------------------------------------------------- clients

/// One result-bearing request: when it completed (seconds into the run
/// phase) and how long it took.
struct Sample {
  double end_s;
  double latency_us;
};

/// What one client thread records.
struct ClientLog {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
};

/// A user of the service: one wire connection or the in-process handle.
class User {
 public:
  User(const Workload& workload, Rig& rig, Clock::time_point epoch)
      : service_(rig.service.get()),
        sessions_(workload.sessions),
        epoch_(epoch) {
    if (workload.wire) {
      auto client = api::Client::Connect("127.0.0.1", rig.server->port());
      if (!client.ok()) Fail("connect: " + client.status().ToString());
      client_ = std::move(client).value();
    }
  }

  /// The unit of work for `q`: a session for an incremental query of a
  /// session workload, else one request.
  void Step(const Query& q, ClientLog* log) {
    if (sessions_ && q.spec.kind == api::QueryKind::kIncrementalTopK) {
      Session(q, log);
    } else {
      Execute(q, log);
    }
  }

 private:
  /// One one-shot request, timed around the public call, then checked.
  void Execute(const Query& q, ClientLog* log) {
    ++log->attempted;
    const auto start = Clock::now();
    bool ok = false;
    bool right = false;
    if (client_) {
      auto response = client_->Execute(q.spec);
      Record(start, log);
      ok = response.ok() && response.value().status.ok();
      right = ok && ResponseMatches(q, response.value().skyline,
                                    response.value().topk);
    } else {
      exec::QueryResult result = service_->Submit(q.spec).get();
      Record(start, log);
      ok = result.status.ok();
      right = ok && ResponseMatches(q, result.skyline, result.topk);
    }
    if (!ok) {
      log->samples.pop_back();
      ++log->failed;
    } else if (!right) {
      ++log->wrong;
    }
  }

  /// One incremental session: open, kSessionBatches timed batches, close.
  void Session(const Query& q, ClientLog* log) {
    ++log->attempted;
    auto id = service_->OpenSession(q.spec);
    if (!id.ok()) {
      ++log->failed;
      return;
    }
    for (int b = 0; b < kSessionBatches; ++b) {
      ++log->attempted;
      const auto start = Clock::now();
      exec::QueryResult batch =
          service_->SessionNext(*id, kSessionBatchSize).get();
      Record(start, log);
      if (!batch.status.ok()) {
        log->samples.pop_back();
        ++log->failed;
        break;
      }
      if (batch.topk.size() != static_cast<size_t>(kSessionBatchSize) ||
          !RanksMatch(q, static_cast<size_t>(b) * kSessionBatchSize,
                      batch.topk)) {
        ++log->wrong;
      }
    }
    ++log->attempted;
    if (!service_->CloseSession(*id).ok()) ++log->failed;
  }

  void Record(Clock::time_point start, ClientLog* log) const {
    const auto end = Clock::now();
    log->samples.push_back(
        {std::chrono::duration<double>(end - epoch_).count(),
         std::chrono::duration<double, std::micro>(end - start).count()});
  }

  exec::QueryService* service_;
  bool sessions_;
  Clock::time_point epoch_;
  std::unique_ptr<api::Client> client_;
};

// ------------------------------------------------------------------- trace

/// Program trace events counted over the rounds of a traced run.
struct TraceTotals {
  uint64_t exec_spans = 0;  ///< one per executed request or session batch
  uint64_t fetches = 0;     ///< record fetches of the expansion layer
  uint64_t remote_fetches = 0;  ///< ... routed off the home shard
  uint64_t dominance_rounds = 0;
  uint64_t rounds = 0;
  uint64_t max_round_events = 0;
};

/// Counts the events of the tracer's Chrome JSON export (one event per
/// line) into `*round`. Returns the number of events seen.
uint64_t ParseTrace(const std::string& json, TraceTotals* round) {
  constexpr char kNameKey[] = "{\"name\": \"";
  const size_t name_start = std::strlen(kNameKey);
  uint64_t events = 0;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    const std::string_view line(json.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, name_start) != kNameKey) continue;
    ++events;
    const std::string_view name =
        line.substr(name_start, line.find('"', name_start) - name_start);
    if (name == "exec") {
      ++round->exec_spans;
    } else if (name == "probe_fetch") {
      ++round->fetches;
      if (line.find("\"remote\": 1") != std::string_view::npos) {
        ++round->remote_fetches;
      }
    } else if (name == "dominance_round") {
      ++round->dominance_rounds;
    }
  }
  return events;
}

// ------------------------------------------------------------------ output

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

/// Linear-interpolated percentile of `values` (sorted in place).
double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc % 2 != 1) Fail("arguments come in --key value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      Fail("unknown argument " + key);
    }
  }
  if (!(args.seconds > 0)) Fail("--seconds must be positive");
  return args;
}

/// Trace rounds: the rings are drained and parsed between rounds of load.
/// A round whose rings overflowed would bias the per-request means toward
/// the lighter requests, so it fails the run.
void DrainTrace(TraceTotals* totals) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const uint64_t appended = tracer.total_appended();
  const std::string json = tracer.ExportChromeJson();
  tracer.Clear();
  TraceTotals round;
  const uint64_t events = ParseTrace(json, &round);
  if (events < appended) {
    Fail("trace rings overflowed: " + std::to_string(appended - events) +
         " of " + std::to_string(appended) + " events lost in one round");
  }
  ++totals->rounds;
  totals->max_round_events = std::max(totals->max_round_events, events);
  totals->exec_spans += round.exec_spans;
  totals->fetches += round.fetches;
  totals->remote_fetches += round.remote_fetches;
  totals->dominance_rounds += round.dominance_rounds;
}

/// Runs `workload.clients` closed-loop users over `queries` until
/// `seconds` have passed since `epoch`. Each user cycles through the
/// queries in its own random order drawn from `seed`, like independent
/// users: any stretch of a run sends a fair sample of the list, and users
/// do not move over the network in step. With `trace` set, the users meet
/// at a barrier after every step, where the last to arrive drains the
/// tracer with no load in flight and decides, once for the round, whether
/// the window is over. (Had each user set the flag, one could end the next
/// round's step and set it before a slower user had read it for this
/// round; that user would leave, and the rest would wait at the barrier.)
std::vector<ClientLog> RunClients(const Workload& workload, Rig& rig,
                                  const std::vector<Query>& queries,
                                  uint64_t seed, Clock::time_point epoch,
                                  double seconds, TraceTotals* trace) {
  const auto deadline =
      epoch + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const size_t clients = static_cast<size_t>(workload.clients);
  std::vector<ClientLog> logs(clients);
  std::atomic<bool> stop{false};
  std::barrier round_barrier(static_cast<std::ptrdiff_t>(clients),
                             [trace, deadline, &stop]() noexcept {
                               DrainTrace(trace);
                               if (Clock::now() >= deadline) stop.store(true);
                             });
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<size_t> order(queries.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      Random rng(seed * 0x9e3779b97f4a7c15ull + c);
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.Uniform(i + 1)]);
      }
      User user(workload, rig, epoch);
      ClientLog& log = logs[c];
      for (size_t step = 1;; ++step) {
        user.Step(queries[order[step % order.size()]], &log);
        if (trace == nullptr) {
          if (Clock::now() >= deadline) break;
          continue;
        }
        round_barrier.arrive_and_wait();
        if (stop.load()) break;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return logs;
}

/// End-to-end metrics: per-slice latency percentiles and throughput, each
/// at the least-disturbed quartile of the slices (see the file comment).
std::vector<Metric> EndToEnd(const std::vector<Sample>& samples,
                             double window_s, double setup_s) {
  // Slices of the measured window (the last requests end after the
  // deadline, so it is a little longer than --seconds).
  const double slice_s = window_s / kSlices;
  std::vector<std::vector<double>> slices(kSlices);
  for (const Sample& s : samples) {
    const int slice = static_cast<int>(s.end_s / slice_s);
    if (slice >= 0 && slice < kSlices) slices[slice].push_back(s.latency_us);
  }
  std::vector<double> p50, p95, qps;
  for (std::vector<double>& slice : slices) {
    qps.push_back(static_cast<double>(slice.size()) / slice_s);
    if (slice.empty()) continue;
    p50.push_back(Percentile(slice, 50) / 1e3);
    p95.push_back(Percentile(slice, 95) / 1e3);
  }
  return {{"latency_p50_ms", Percentile(p50, 25), "ms"},
          {"latency_p95_ms", Percentile(p95, 25), "ms"},
          {"throughput_qps", Percentile(qps, 75), "1/s"},
          {"setup_s", setup_s, "s"}};
}

/// Per-layer metrics of a traced run (see the file comment): means per
/// request from the client samples, the service's registry deltas and the
/// parsed trace.
std::vector<Metric> PerLayer(const std::vector<Sample>& samples,
                             const obs::Snapshot& before,
                             const obs::Snapshot& after,
                             const TraceTotals& trace) {
  auto delta = [&](const char* name) {
    return static_cast<double>(after.CounterValue(name) -
                               before.CounterValue(name));
  };
  double service_us = 0;
  if (const obs::HistogramSnapshot* a =
          after.FindHistogram("mcn.service.latency_us")) {
    const obs::HistogramSnapshot* b =
        before.FindHistogram("mcn.service.latency_us");
    service_us = static_cast<double>(a->sum - (b != nullptr ? b->sum : 0));
  }
  const double n = std::max<double>(static_cast<double>(samples.size()), 1);
  double request_us = 0;
  for (const Sample& s : samples) request_us += s.latency_us;
  request_us /= n;
  const double spans =
      std::max<double>(static_cast<double>(trace.exec_spans), 1);
  const double fetches = static_cast<double>(trace.fetches);
  const double accesses = delta("mcn.service.buffer_accesses");
  const double misses = delta("mcn.service.buffer_misses");
  return {
      {"request_us", request_us, "us"},
      {"api_boundary_us", request_us - service_us / n, "us"},
      {"queue_wait_us", delta("mcn.service.queue_micros") / n, "us"},
      {"exec_us", delta("mcn.service.cpu_micros") / n, "us"},
      {"record_fetches", fetches / spans, "count"},
      {"remote_fetch_ratio",
       fetches > 0 ? static_cast<double>(trace.remote_fetches) / fetches : 0,
       "ratio"},
      {"dominance_rounds",
       static_cast<double>(trace.dominance_rounds) / spans, "count"},
      {"buffer_accesses", accesses / n, "count"},
      {"buffer_misses", misses / n, "count"},
      {"pool_hit_ratio", accesses > 0 ? 1.0 - misses / accesses : 0,
       "ratio"},
      {"page_reads", delta("mcn.disk.page_reads") / n, "count"},
  };
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) Fail("unknown workload '" + args.workload + "'");
  const Workload& workload = *found;

  // Set-up is timed in three groups spread over the run (see kSetupGroup);
  // the last rig of the first group serves the run.
  std::vector<double> setup_seconds;
  std::unique_ptr<Rig> rig = TimedSetUps(workload, &setup_seconds);

  const auto ref_start = Clock::now();
  std::vector<Query> queries =
      MakeQueries(*rig->instance, workload, args.seed);
  ComputeReferences(*rig->instance, workload, &queries);
  const double ref_s = SecondsSince(ref_start);
  TimedSetUps(workload, &setup_seconds);

  // Warm-up (checked, not measured), then the window.
  std::vector<ClientLog> warm = RunClients(workload, *rig, queries,
                                          args.seed, Clock::now(),
                                          kWarmupSeconds, nullptr);
  TraceTotals trace;
  if (args.trace) obs::Tracer::Global().Enable(kTraceRingEvents);
  const obs::Snapshot before = rig->service->MetricsSnapshot();
  const auto epoch = Clock::now();
  std::vector<ClientLog> logs =
      RunClients(workload, *rig, queries, args.seed, epoch, args.seconds,
                 args.trace ? &trace : nullptr);
  const double window_s = SecondsSince(epoch);
  obs::Tracer::Global().Disable();
  const obs::Snapshot after = rig->service->MetricsSnapshot();
  const int nodes = static_cast<int>(rig->instance->graph.num_nodes());
  rig.reset();
  TimedSetUps(workload, &setup_seconds);
  const double setup_s = Percentile(setup_seconds, 50);
  std::fprintf(stderr,
               "%s: set-up %.4f s (median of %zu, %.4f-%.4f), %d nodes; %zu "
               "oracle answers in %.2f s\n",
               workload.name, setup_s, setup_seconds.size(),
               setup_seconds.front(), setup_seconds.back(), nodes,
               queries.size(), ref_s);

  ClientLog total;
  for (const std::vector<ClientLog>* phase : {&warm, &logs}) {
    for (const ClientLog& log : *phase) {
      total.attempted += log.attempted;
      total.failed += log.failed;
      total.wrong += log.wrong;
    }
  }
  for (const ClientLog& log : logs) {
    total.samples.insert(total.samples.end(), log.samples.begin(),
                         log.samples.end());
  }
  std::fprintf(stderr,
               "%s: %zu requests in %.2f s; %" PRIu64 " attempted, %" PRIu64
               " failed, %" PRIu64 " wrong (warm-up included)\n",
               workload.name, total.samples.size(), window_s, total.attempted,
               total.failed, total.wrong);
  if (args.trace) {
    std::fprintf(stderr,
                 "trace: %" PRIu64 " rounds, at most %" PRIu64
                 " events in one (rings hold %zu each), %" PRIu64
                 " exec spans\n",
                 trace.rounds, trace.max_round_events, kTraceRingEvents,
                 trace.exec_spans);
  }
  PrintResult(total.wrong == 0, total.attempted, total.failed,
              args.trace ? PerLayer(total.samples, before, after, trace)
                         : EndToEnd(total.samples, window_s, setup_s));
  return 0;
}

}  // namespace
}  // namespace mcn::perfbench

int main(int argc, char** argv) { return mcn::perfbench::Main(argc, argv); }
