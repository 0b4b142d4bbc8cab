// Fault-recovery benchmark (DESIGN.md §10): the full client/server stack
// driven through a fault storm and back out of it, with hard gates.
//
// Builds the fig. 8(a) base instance at MCN_BENCH_SCALE, stands up an
// exec::QueryService behind an api::Server, and runs the same fixed mixed
// spec list (both engine flavors) through three phases:
//
//   baseline   no injector: every request must succeed; records the
//              reference result hashes (identical to what the fig. 8(a)
//              replay produces on this instance).
//   faulted    deterministic FaultInjector storm (disk EIO + delays, send
//              EIO, torn writes, recv EIO) against retrying clients: every
//              outcome must be success-with-baseline-hash or a *typed*
//              failure-model Status — anything else aborts.
//   healed     injector disabled (the injector heals, nothing restarts):
//              every request must succeed again and hash byte-identically
//              to the baseline — the no-fault-parity gate proving injected
//              failures poisoned no cache or on-disk state.
//
// Leak gates: open-fd count must return to its pre-server level after
// teardown, no session may outlive its connection (Server::Stop asserts),
// and the process exits cleanly (no leaked thread keeps it alive).
//
// Output: one PrintRow per phase (mcn-bench-v2 rows; qps + client RTT
// percentiles; result_hash is the reference mix, which all three phases
// proved equal to). Extra environment knobs:
//   MCN_FAULT_REQUESTS  specs per engine per phase        (default 36)
//   MCN_FAULT_WORKERS   service workers                   (default 4)
//   MCN_FAULT_CLIENTS   concurrent client connections     (default 3)
//   MCN_FAULT_SEED      injector + retry jitter seed      (default 4242)
//   MCN_FAULT_SPEC      injector spec for the storm phase (default
//                       "disk_eio=0.002,send_eio=0.02,torn_write=0.02,
//                        recv_eio=0.01")
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "mcn/algo/result_hash.h"
#include "mcn/api/client.h"
#include "mcn/api/server.h"
#include "mcn/common/fault_injector.h"
#include "mcn/common/macros.h"
#include "mcn/common/random.h"
#include "mcn/common/stopwatch.h"
#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"

namespace mcn::bench {
namespace {

const char* EnvString(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return (value != nullptr && value[0] != '\0') ? value : fallback;
}

int CountOpenFds() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count - 1;  // the iterator's own fd
}

std::vector<api::QuerySpec> MixedSpecs(gen::ShardedInstance& instance,
                                       expand::EngineKind engine,
                                       uint64_t seed, int count) {
  Random rng(seed);
  const int d = instance.graph.num_costs();
  std::vector<api::QuerySpec> specs;
  specs.reserve(count);
  for (int i = 0; i < count; ++i) {
    const graph::Location loc = instance.RandomQueryLocation(rng);
    api::QuerySpec spec;
    switch (i % 3) {
      case 0:
        spec = api::SkylineSpec(loc);
        break;
      default: {
        std::vector<double> weights(d);
        for (double& w : weights) w = rng.NextDouble();
        spec = i % 3 == 1 ? api::TopKSpec(loc, 4, std::move(weights))
                          : api::IncrementalSpec(loc, 3, std::move(weights));
        break;
      }
    }
    spec.engine = engine;
    specs.push_back(std::move(spec));
  }
  return specs;
}

bool IsFailureModelStatus(const Status& s) {
  switch (s.code()) {
    case StatusCode::kIOError:
    case StatusCode::kCorruption:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kCancelled:
      return true;
    default:
      return false;
  }
}

struct PhaseOutcome {
  RunMetrics metrics;
  uint64_t ok = 0;
  uint64_t faulted = 0;
};

/// Drives `specs` from `num_clients` concurrent retrying clients.
/// `allow_faults` = the storm phase: typed failures are counted, anything
/// untyped (or a success that diverges from `ref_hashes`) aborts. With
/// allow_faults = false every request must succeed and match.
PhaseOutcome DrivePhase(int port, int num_clients,
                        const std::vector<api::QuerySpec>& specs,
                        const std::vector<uint64_t>& ref_hashes,
                        uint64_t jitter_seed, bool allow_faults,
                        const char* phase) {
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> rtts_ms(num_clients);
  std::vector<uint64_t> oks(num_clients, 0), faults(num_clients, 0);
  std::vector<uint64_t> misses(num_clients, 0);
  std::vector<int> hard_failures(num_clients, 0);
  Stopwatch wall;
  for (int c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c] {
      api::Client::Options options;
      options.retry.max_attempts = 4;
      options.retry.base_backoff_ms = 1;
      options.retry.max_backoff_ms = 8;
      options.retry.seed = jitter_seed + static_cast<uint64_t>(c);
      auto client = api::Client::Connect("127.0.0.1", port, options);
      for (size_t i = 0; i < specs.size(); ++i) {
        if (!client.ok()) {
          // The dial itself lost to the storm; typed, count and redial.
          if (!allow_faults ||
              !IsFailureModelStatus(client.status())) {
            hard_failures[c] = 1;
            return;
          }
          ++faults[c];
          client = api::Client::Connect("127.0.0.1", port, options);
          if (!client.ok()) continue;
        }
        Stopwatch rtt;
        auto response = (*client)->Execute(specs[i]);
        rtts_ms[c].push_back(rtt.ElapsedSeconds() * 1e3);
        const Status status =
            response.ok() ? response.value().status : response.status();
        if (status.ok()) {
          if (response.value().result_hash != ref_hashes[i]) {
            std::fprintf(stderr,
                         "PARITY FAILURE [%s]: query %zu hash %016" PRIx64
                         " != baseline %016" PRIx64 "\n",
                         phase, i, response.value().result_hash,
                         ref_hashes[i]);
            hard_failures[c] = 2;
            return;
          }
          ++oks[c];
          misses[c] += response.value().buffer_misses;
        } else if (allow_faults && IsFailureModelStatus(status)) {
          ++faults[c];
        } else {
          std::fprintf(stderr, "FAILURE [%s]: query %zu: %s\n", phase, i,
                       status.ToString().c_str());
          hard_failures[c] = 3;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_seconds = wall.ElapsedSeconds();
  for (int c = 0; c < num_clients; ++c) MCN_CHECK(hard_failures[c] == 0);

  PhaseOutcome outcome;
  std::vector<double> all_rtts;
  for (int c = 0; c < num_clients; ++c) {
    outcome.ok += oks[c];
    outcome.faulted += faults[c];
    outcome.metrics.buffer_misses += misses[c];
    all_rtts.insert(all_rtts.end(), rtts_ms[c].begin(), rtts_ms[c].end());
  }
  std::sort(all_rtts.begin(), all_rtts.end());
  outcome.metrics.queries = static_cast<int>(specs.size()) * num_clients;
  outcome.metrics.latency_p50_ms = PercentileSorted(all_rtts, 50);
  outcome.metrics.latency_p95_ms = PercentileSorted(all_rtts, 95);
  outcome.metrics.latency_p99_ms = PercentileSorted(all_rtts, 99);
  outcome.metrics.qps =
      static_cast<double>(outcome.metrics.queries) / wall_seconds;
  // All three phases prove (hash-for-hash) equality with the reference,
  // so the row hash is the reference mix for each of them — a drifting
  // phase aborts before it could report one.
  outcome.metrics.result_hash = kFnvOffsetBasis;
  for (uint64_t h : ref_hashes) {
    outcome.metrics.result_hash =
        algo::FnvMixU64(outcome.metrics.result_hash, h);
  }
  return outcome;
}

int Main() {
  BenchEnv env = BenchEnv::FromEnvironment();
  const int num_requests =
      static_cast<int>(EnvDouble("MCN_FAULT_REQUESTS", 36));
  const int workers = static_cast<int>(EnvDouble("MCN_FAULT_WORKERS", 4));
  const int clients = static_cast<int>(EnvDouble("MCN_FAULT_CLIENTS", 3));
  const auto seed =
      static_cast<uint64_t>(EnvDouble("MCN_FAULT_SEED", 4242));
  const char* fault_spec = EnvString(
      "MCN_FAULT_SPEC",
      "disk_eio=0.002,send_eio=0.02,torn_write=0.02,recv_eio=0.01");
  MCN_CHECK(num_requests > 0 && workers > 0 && clients > 0);

  gen::ExperimentConfig config;  // fig. 8(a) base: the paper's defaults
  gen::ExperimentConfig scaled = config.Scaled(env.scale);
  std::printf("building instance (%s)...\n", scaled.ToString().c_str());
  auto instance = gen::BuildShardedInstance(scaled, /*num_shards=*/1);
  MCN_CHECK(instance.ok());

  const int fds_baseline = CountOpenFds();

  exec::ServiceOptions opts;
  opts.num_workers = workers;
  opts.queue_capacity = 256;
  opts.pool_frames_per_worker = (*instance)->pool_frames;
  auto service = exec::QueryService::Create(&(*instance)->storage,
                                            (*instance)->files, opts);
  MCN_CHECK(service.ok());

  const auto specs_lsa =
      MixedSpecs(**instance, expand::EngineKind::kLsa, 8086, num_requests);
  const auto specs_cea =
      MixedSpecs(**instance, expand::EngineKind::kCea, 8086, num_requests);

  // In-process reference: what the fig. 8(a)-style replay of these specs
  // must hash to in every phase.
  std::vector<uint64_t> ref_lsa, ref_cea;
  for (const auto* specs : {&specs_lsa, &specs_cea}) {
    auto& ref = specs == &specs_lsa ? ref_lsa : ref_cea;
    for (const api::QuerySpec& spec : *specs) {
      exec::QueryResult result = (*service)->Submit(spec).get();
      MCN_CHECK(result.status.ok());
      ref.push_back(result.result_hash);
    }
  }

  auto parsed = FaultInjector::ParseSpec(fault_spec);
  MCN_CHECK(parsed.ok());
  FaultInjector::Options fault_options = parsed.value();
  fault_options.seed = seed;
  FaultInjector injector(fault_options);
  injector.set_enabled(false);  // armed later, for the storm phase only
  FaultInjector::Install(&injector);

  auto server = api::Server::Start((*service).get(), {});
  MCN_CHECK(server.ok());
  const int port = (*server)->port();
  std::printf("server up on 127.0.0.1:%d (%d workers, %d clients)\n", port,
              workers, clients);

  PrintHeader("Fault recovery: chaos storm + heal parity (fig. 8(a) base)",
              "phase", scaled, env);
  std::printf("requests/engine=%d storm spec: %s (seed %" PRIu64 ")\n",
              num_requests, fault_spec, seed);

  struct Phase {
    const char* name;
    bool faults;
  };
  uint64_t storm_faulted = 0;
  for (const Phase phase : {Phase{"baseline", false}, Phase{"faulted", true},
                            Phase{"healed", false}}) {
    injector.set_enabled(phase.faults);
    PhaseOutcome lsa = DrivePhase(port, clients, specs_lsa, ref_lsa,
                                  seed ^ 0x15a, phase.faults, phase.name);
    PhaseOutcome cea = DrivePhase(port, clients, specs_cea, ref_cea,
                                  seed ^ 0xcea, phase.faults, phase.name);
    AlgoComparison row;
    row.lsa = lsa.metrics;
    row.cea = cea.metrics;
    PrintRow(phase.name, row);
    std::printf("    %s: LSA ok=%" PRIu64 " faulted=%" PRIu64
                " | CEA ok=%" PRIu64 " faulted=%" PRIu64
                " | injected so far=%" PRIu64 "\n",
                phase.name, lsa.ok, lsa.faulted, cea.ok, cea.faulted,
                injector.injected());
    if (phase.faults) storm_faulted = lsa.faulted + cea.faulted;
  }
  PrintFooter();

  // Gates. The storm must have actually stormed, and the heal must have
  // actually healed (DrivePhase already aborted on any hash divergence).
  MCN_CHECK(injector.injected() > 0);
  std::printf("storm: %" PRIu64 " requests hit typed faults, %" PRIu64
              " faults injected; healed replay byte-identical to "
              "baseline.\n",
              storm_faulted, injector.injected());

  (*server)->Stop();  // asserts zero leaked sessions
  MCN_CHECK((*service)->num_open_sessions() == 0);
  (*service)->Shutdown();
  service->reset();
  server->reset();
  FaultInjector::Install(nullptr);
  const int fds_after = CountOpenFds();
  if (fds_after != fds_baseline) {
    std::fprintf(stderr, "FAILURE: fd leak: %d open before, %d after\n",
                 fds_baseline, fds_after);
    return 1;
  }
  std::printf("no fd/session leak (fds %d -> %d); clean exit.\n",
              fds_baseline, fds_after);
  return 0;
}

}  // namespace
}  // namespace mcn::bench

int main() { return mcn::bench::Main(); }
