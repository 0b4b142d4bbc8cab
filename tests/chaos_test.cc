// Chaos suite (DESIGN.md §10): the full service stack under deterministic
// fault injection. Invariants under faults:
//   - no crash, no hang, no leaked fd / session / thread;
//   - every affected request resolves with a *typed* Status (IOError,
//     Corruption, DeadlineExceeded, ...), never a wrong answer;
//   - once faults are healed (set_enabled(false)), replaying the same
//     specs yields byte-identical result hashes to a never-faulted run —
//     i.e. injected failures cannot poison caches or on-disk state.
// All randomness (fault draws included) derives from MCN_TEST_SEED via
// AnnounceSeed, so a red run reproduces from the logged seed alone.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mcn/api/client.h"
#include "mcn/api/server.h"
#include "mcn/common/fault_injector.h"
#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn {
namespace {

using api::Client;
using api::IncrementalSpec;
using api::QueryKind;
using api::QuerySpec;
using api::Server;
using api::SkylineSpec;
using api::TopKSpec;

/// Installs an injector for one test scope; uninstalls even on failure.
struct InjectorGuard {
  explicit InjectorGuard(FaultInjector* fi) { FaultInjector::Install(fi); }
  ~InjectorGuard() { FaultInjector::Install(nullptr); }
};

/// Open fds of this process — the leak gauge for the wire chaos tests.
int CountOpenFds() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  // The iterator itself holds one fd while counting.
  return count - 1;
}

gen::ExperimentConfig SmallConfig(uint64_t seed) {
  gen::ExperimentConfig config;
  config.nodes = 400;
  config.edges = 520;
  config.facilities = 60;
  config.clusters = 4;
  config.num_costs = 3;
  config.buffer_pct = 1.0;
  config.seed = seed;
  return config;
}

struct Rig {
  std::unique_ptr<gen::ShardedInstance> instance;
  std::unique_ptr<exec::QueryService> service;

  static Rig Make(int workers, uint64_t seed) {
    Rig rig;
    auto built = gen::BuildShardedInstance(SmallConfig(seed), 1);
    EXPECT_TRUE(built.ok());
    rig.instance = std::move(built).value();
    exec::ServiceOptions opts;
    opts.num_workers = workers;
    opts.queue_capacity = 64;
    opts.pool_frames_per_worker = rig.instance->pool_frames;
    auto service = exec::QueryService::Create(&rig.instance->storage,
                                              rig.instance->files, opts);
    EXPECT_TRUE(service.ok());
    rig.service = std::move(service).value();
    return rig;
  }
};

std::vector<QuerySpec> MixedSpecs(const gen::ShardedInstance& instance,
                                  uint64_t seed, int count) {
  Random rng(seed);
  const int d = instance.graph.num_costs();
  std::vector<QuerySpec> specs;
  for (int i = 0; i < count; ++i) {
    const graph::Location loc = instance.RandomQueryLocation(rng);
    switch (i % 3) {
      case 0:
        specs.push_back(SkylineSpec(loc));
        break;
      case 1:
        specs.push_back(TopKSpec(loc, 4, test::TestWeights(d, seed + i)));
        break;
      default:
        specs.push_back(
            IncrementalSpec(loc, 3, test::TestWeights(d, seed + i)));
        break;
    }
  }
  return specs;
}

/// The statuses a fault-injected or overloaded request may legitimately
/// carry. Anything else under chaos is a bug.
bool IsChaosStatus(const Status& s) {
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

TEST(ChaosTest, DiskFaultsHealToByteIdenticalResults) {
  const uint64_t seed = test::AnnounceSeed("ChaosTest.DiskFaults");
  Rig rig = Rig::Make(/*workers=*/3, /*seed=*/11);
  const auto specs = MixedSpecs(*rig.instance, 101, 24);

  // Never-faulted baseline.
  std::vector<uint64_t> baseline;
  for (const QuerySpec& spec : specs) {
    exec::QueryResult result = rig.service->Submit(spec).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    baseline.push_back(result.result_hash);
  }

  FaultInjector::Options fault_options;
  fault_options.seed = test::DeriveSeed(seed, 1);
  fault_options.disk_eio = 0.002;  // a few per thousand page reads
  fault_options.disk_delay = 0.001;
  fault_options.disk_delay_us = 50;
  FaultInjector injector(fault_options);
  InjectorGuard guard(&injector);

  // Under faults: typed statuses only, and a successful result is still
  // the *correct* result (determinism contract: faults change whether a
  // query finishes, never the bytes of a success).
  int failed = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    exec::QueryResult result = rig.service->Submit(specs[i]).get();
    if (result.status.ok()) {
      EXPECT_EQ(result.result_hash, baseline[i]) << "faulted run " << i;
    } else {
      EXPECT_TRUE(IsChaosStatus(result.status)) << result.status.ToString();
      ++failed;
    }
  }
  EXPECT_GT(injector.injected(), 0u) << "chaos run injected nothing";
  EXPECT_GT(failed, 0) << "disk faults never surfaced (rate too low?)";

  // Heal, then replay: byte-identical to the never-faulted baseline —
  // failed reads must not have poisoned the buffer pool or fetch caches.
  injector.set_enabled(false);
  for (size_t i = 0; i < specs.size(); ++i) {
    exec::QueryResult result = rig.service->Submit(specs[i]).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.result_hash, baseline[i]) << "healed run " << i;
  }
  rig.service->Shutdown();
}

TEST(ChaosTest, WireChaosYieldsTypedStatusesAndLeaksNothing) {
  const uint64_t seed = test::AnnounceSeed("ChaosTest.WireChaos");
  Rig rig = Rig::Make(/*workers=*/2, /*seed=*/13);
  const auto specs = MixedSpecs(*rig.instance, 202, 12);

  // Baseline hash before any chaos (and the fd level to restore to).
  std::vector<uint64_t> baseline;
  for (const QuerySpec& spec : specs) {
    exec::QueryResult result = rig.service->Submit(spec).get();
    ASSERT_TRUE(result.status.ok());
    baseline.push_back(result.result_hash);
  }
  const int fds_before = CountOpenFds();

  FaultInjector::Options fault_options;
  fault_options.seed = test::DeriveSeed(seed, 2);
  fault_options.send_eio = 0.03;
  fault_options.torn_write = 0.03;
  fault_options.recv_eio = 0.02;
  fault_options.recv_delay = 0.10;
  fault_options.recv_delay_us = 100;
  FaultInjector injector(fault_options);
  InjectorGuard guard(&injector);

  {
    auto server = Server::Start(rig.service.get(), {});
    ASSERT_TRUE(server.ok());
    Client::Options client_options;
    client_options.retry.max_attempts = 4;
    client_options.retry.base_backoff_ms = 1;
    client_options.retry.max_backoff_ms = 4;
    client_options.retry.seed = test::DeriveSeed(seed, 3);
    auto client = Client::Connect("127.0.0.1", (*server)->port(),
                                  client_options);
    // The very first dial can already be hit by faults; that's chaos.
    int ok = 0, faulted = 0;
    for (int round = 0; round < 5; ++round) {
      for (size_t i = 0; i < specs.size(); ++i) {
        if (!client.ok()) {
          client = Client::Connect("127.0.0.1", (*server)->port(),
                                   client_options);
          if (!client.ok()) continue;
        }
        auto response = (*client)->Execute(specs[i]);
        const Status status =
            response.ok() ? response.value().status : response.status();
        if (status.ok()) {
          // A success under chaos is still byte-correct.
          EXPECT_EQ(response.value().result_hash, baseline[i]);
          ++ok;
        } else {
          EXPECT_TRUE(IsChaosStatus(status)) << status.ToString();
          ++faulted;
        }
      }
    }
    EXPECT_GT(injector.injected(), 0u);
    EXPECT_GT(ok, 0) << "nothing survived the chaos (rates too high?)";
    EXPECT_GT(faulted + ok, 0);

    // Heal the transport mid-run: the same server and a fresh client now
    // replay the baseline byte-identically.
    injector.set_enabled(false);
    auto healed = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    for (size_t i = 0; i < specs.size(); ++i) {
      auto response = (*healed)->Execute(specs[i]);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(response.value().status.ok());
      EXPECT_EQ(response.value().result_hash, baseline[i]);
    }
    // Stop() asserts zero leaked sessions internally.
    (*server)->Stop();
  }

  // Everything torn down: no fd may have leaked through all the broken
  // connections, torn frames and reconnects.
  EXPECT_EQ(CountOpenFds(), fds_before);
  rig.service->Shutdown();
}

TEST(ChaosTest, SessionChurnUnderChaosNeverLeaksSessions) {
  const uint64_t seed = test::AnnounceSeed("ChaosTest.SessionChurn");
  Rig rig = Rig::Make(/*workers=*/2, /*seed=*/17);
  const int d = rig.instance->graph.num_costs();

  FaultInjector::Options fault_options;
  fault_options.seed = test::DeriveSeed(seed, 4);
  fault_options.torn_write = 0.05;
  fault_options.recv_eio = 0.03;
  FaultInjector injector(fault_options);
  InjectorGuard guard(&injector);

  auto server = Server::Start(rig.service.get(), {});
  ASSERT_TRUE(server.ok());
  Random rng(test::DeriveSeed(seed, 5));
  for (int round = 0; round < 20; ++round) {
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    if (!client.ok()) continue;  // dial lost to chaos: next round
    auto session = (*client)->OpenSession(IncrementalSpec(
        rig.instance->RandomQueryLocation(rng), 2,
        test::TestWeights(d, seed + round)));
    if (!session.ok()) continue;  // open lost to chaos (typed either way)
    for (int batch = 0; batch < 3; ++batch) {
      auto next = (*client)->Next(*session, 2);
      if (!next.ok() || !next.value().status.ok()) break;
      if (next.value().exhausted) break;
    }
    if (round % 2 == 0 && (*client)->connected()) {
      (void)(*client)->CloseSession(*session);
    }
    // Odd rounds abandon the session: disconnect cleanup must reclaim it.
  }

  // Heal, drop all clients (done above by scope), and wait for the
  // connection threads to finish their cleanup. A connection thread
  // decrements the server's count only after CloseSession has returned,
  // and a closed session is destroyed outside the service's lock, so the
  // service's count can reach zero first: wait for both.
  injector.set_enabled(false);
  for (int spin = 0;
       spin < 400 && (rig.service->num_open_sessions() != 0 ||
                      (*server)->sessions_open() != 0);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(rig.service->num_open_sessions(), 0u);
  EXPECT_EQ((*server)->sessions_open(), 0);
  (*server)->Stop();  // asserts the same invariant internally
  rig.service->Shutdown();
}

TEST(ChaosTest, FaultSpecParsingRoundTrips) {
  auto parsed = FaultInjector::ParseSpec(
      "seed=42,disk_eio=0.25,disk_delay=0.5,disk_delay_us=100,"
      "send_eio=0.1,torn_write=0.2,recv_eio=0.3,recv_delay=0.4,"
      "recv_delay_us=7");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().seed, 42u);
  EXPECT_DOUBLE_EQ(parsed.value().disk_eio, 0.25);
  EXPECT_DOUBLE_EQ(parsed.value().disk_delay, 0.5);
  EXPECT_EQ(parsed.value().disk_delay_us, 100);
  EXPECT_DOUBLE_EQ(parsed.value().send_eio, 0.1);
  EXPECT_DOUBLE_EQ(parsed.value().torn_write, 0.2);
  EXPECT_DOUBLE_EQ(parsed.value().recv_eio, 0.3);
  EXPECT_DOUBLE_EQ(parsed.value().recv_delay, 0.4);
  EXPECT_EQ(parsed.value().recv_delay_us, 7);

  EXPECT_FALSE(FaultInjector::ParseSpec("disk_eio=1.5").ok());   // p > 1
  EXPECT_FALSE(FaultInjector::ParseSpec("unknown_key=1").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("disk_eio").ok());       // no '='
  EXPECT_FALSE(FaultInjector::ParseSpec("seed=abc").ok());
  EXPECT_TRUE(FaultInjector::ParseSpec("").ok());  // all defaults
}

TEST(ChaosTest, InjectorDrawsAreDeterministicPerSeed) {
  FaultInjector::Options fault_options;
  fault_options.seed = 77;
  fault_options.disk_eio = 0.5;
  auto draw_pattern = [&] {
    FaultInjector injector(fault_options);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern.push_back(injector.OnDiskRead().ok() ? '.' : 'X');
    }
    return pattern;
  };
  const std::string first = draw_pattern();
  EXPECT_EQ(first, draw_pattern());  // same seed, same fault schedule
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
  fault_options.seed = 78;
  FaultInjector other(fault_options);
  std::string other_pattern;
  for (int i = 0; i < 64; ++i) {
    other_pattern.push_back(other.OnDiskRead().ok() ? '.' : 'X');
  }
  EXPECT_NE(first, other_pattern);
}

}  // namespace
}  // namespace mcn
