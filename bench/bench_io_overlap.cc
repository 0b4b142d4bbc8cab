// Overlapped batch I/O benchmark (DESIGN.md §13).
//
// Builds the fig. 8(a) base instance (the paper's d=4 skyline defaults at
// MCN_BENCH_SCALE) and runs the same fixed skyline query set through an
// exec::QueryService three times — one worker, turn-mode requests
// (parallelism 1), sequential submission, cold cache per query:
//
//   serial       StallModel::kSerial + simulated stalls: every buffer
//                miss sleeps MCN_IO_STALL_US — the classic one-fetch-at-
//                a-time charge.
//   overlapped   StallModel::kOverlapped + simulated stalls: each turn
//                sleeps only its max per-probe miss delta at the barrier
//                (misses outside probes stay serial) — the latency model
//                of a batched read per turn.
//   file_backed  the disk spilled to an on-disk image
//                (DiskManager::AttachFileBackend) with replay_batch_io:
//                each turn's misses are physically read back as one
//                ReadPagesBatch (io_uring or the preadv worker ring — see
//                MCN_IO_BACKEND). No sleeps; wall time is real I/O.
//
// Parity gate: per-query result hashes AND per-query logical buffer-miss
// counts must be byte-identical across all three legs — the stall model
// and the physical backend change *when time passes*, never what is
// fetched or returned. Performance gate: mean request latency must drop
// by at least MCN_IO_MIN_OVERLAP_SPEEDUP x from serial to overlapped.
//
// Extra environment knobs (on top of the harness ones):
//   MCN_IO_REQUESTS             queries per leg               (default 24)
//   MCN_IO_STALL_US             slept stall per charged miss  (default 100)
//   MCN_IO_MIN_OVERLAP_SPEEDUP  latency-cut gate, 0 disables  (default 1.5)
//   MCN_IO_BACKEND              auto | preadv | io_uring      (default auto:
//                               io_uring when available, else preadv)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

#include "harness.h"
#include "mcn/algo/result_hash.h"
#include "mcn/common/macros.h"
#include "mcn/common/random.h"
#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"
#include "mcn/storage/io_backend.h"

namespace mcn::bench {
namespace {

struct LegResult {
  RunMetrics metrics;
  std::vector<uint64_t> hashes;  ///< per request, submission order
  std::vector<uint64_t> misses;  ///< per request, submission order
  double mean_latency_s = 0;
  uint64_t io_batches = 0;
  uint64_t io_batch_pages = 0;
  obs::Snapshot snapshot;
};

LegResult RunLeg(gen::ShardedInstance& instance, const BenchEnv& env,
                 double stall_us, exec::StallModel model, bool simulate,
                 bool replay, const std::vector<graph::Location>& locations) {
  exec::ServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = locations.size() + 1;
  opts.pool_frames_per_worker = instance.pool_frames;
  opts.io_latency_ms = stall_us / 1000.0;
  opts.simulate_io_stalls = simulate;
  opts.stall_model = model;
  opts.replay_batch_io = replay;
  auto service =
      exec::QueryService::Create(&instance.storage, instance.files, opts);
  MCN_CHECK(service.ok());

  LegResult leg;
  leg.metrics.queries = static_cast<int>(locations.size());
  double latency_sum = 0;
  for (const graph::Location& loc : locations) {
    api::QuerySpec spec;
    spec.kind = exec::QueryKind::kSkyline;
    spec.location = loc;
    spec.parallelism = 1;  // inline turn schedule: the overlap unit
    // Sequential submission: latency is exec + modeled stall, free of
    // queueing — exactly the quantity the two stall models disagree on.
    exec::QueryResult result = (*service)->Submit(std::move(spec)).get();
    MCN_CHECK(result.status.ok());
    leg.hashes.push_back(result.result_hash);
    leg.misses.push_back(result.stats.buffer_misses);
    leg.metrics.result_hash =
        algo::FnvMixU64(leg.metrics.result_hash, result.result_hash);
    leg.metrics.result_size += static_cast<double>(result.skyline.size());
    leg.metrics.cpu_seconds += result.stats.exec_seconds;
    leg.metrics.buffer_misses += result.stats.buffer_misses;
    leg.metrics.buffer_accesses += result.stats.buffer_accesses;
    // Modeled time charges the row's own stall model at the harness I/O
    // latency (rows are tagged; bench_diff refuses cross-model compares).
    const uint64_t charged = model == exec::StallModel::kOverlapped
                                 ? result.stats.overlapped_misses
                                 : result.stats.buffer_misses;
    leg.metrics.modeled_seconds +=
        result.stats.exec_seconds +
        static_cast<double>(charged) * env.io_latency_ms / 1000.0;
    latency_sum += result.stats.latency_seconds;
  }
  leg.metrics.result_size /= static_cast<double>(locations.size());
  leg.mean_latency_s = latency_sum / static_cast<double>(locations.size());

  exec::ServiceStats stats = (*service)->Snapshot();
  leg.metrics.latency_p50_ms = stats.latency_p50_ms;
  leg.metrics.latency_p95_ms = stats.latency_p95_ms;
  leg.metrics.latency_p99_ms = stats.latency_p99_ms;
  leg.io_batches = stats.io_batches;
  leg.io_batch_pages = stats.io_batch_pages;
  leg.snapshot = (*service)->MetricsSnapshot();
  (*service)->Shutdown();
  return leg;
}

void CheckParity(const char* leg_name, const LegResult& ref,
                 const LegResult& leg) {
  MCN_CHECK(ref.hashes.size() == leg.hashes.size());
  for (size_t i = 0; i < ref.hashes.size(); ++i) {
    if (ref.hashes[i] != leg.hashes[i]) {
      std::fprintf(stderr,
                   "PARITY FAILURE: leg %s query %zu hash %016" PRIx64
                   " != serial %016" PRIx64 "\n",
                   leg_name, i, leg.hashes[i], ref.hashes[i]);
      std::abort();
    }
    if (ref.misses[i] != leg.misses[i]) {
      std::fprintf(stderr,
                   "PARITY FAILURE: leg %s query %zu logical misses "
                   "%" PRIu64 " != serial %" PRIu64 "\n",
                   leg_name, i, leg.misses[i], ref.misses[i]);
      std::abort();
    }
  }
}

storage::IoBackendKind RequestedBackend() {
  const char* env = std::getenv("MCN_IO_BACKEND");
  const std::string v = env == nullptr ? "auto" : env;
  if (v == "preadv") return storage::IoBackendKind::kPreadv;
  if (v == "io_uring") return storage::IoBackendKind::kIoUring;
  MCN_CHECK(v == "auto" || v.empty());
  // Open() degrades io_uring to preadv when the kernel refuses.
  return storage::IoBackendKind::kIoUring;
}

int Main() {
  BenchEnv env = BenchEnv::FromEnvironment();
  const int num_requests = static_cast<int>(EnvDouble("MCN_IO_REQUESTS", 24));
  const double stall_us = EnvDouble("MCN_IO_STALL_US", 100.0);
  const double min_speedup = EnvDouble("MCN_IO_MIN_OVERLAP_SPEEDUP", 1.5);
  MCN_CHECK(num_requests > 0 && stall_us >= 0);

  gen::ExperimentConfig config;  // fig. 8(a) base: d=4 skyline defaults
  gen::ExperimentConfig scaled = config.Scaled(env.scale);
  std::printf("building instance (%s)...\n", scaled.ToString().c_str());
  auto instance = gen::BuildShardedInstance(scaled, /*num_shards=*/1);
  MCN_CHECK(instance.ok());

  Random rng(2026);
  std::vector<graph::Location> locations;
  locations.reserve(num_requests);
  for (int i = 0; i < num_requests; ++i) {
    locations.push_back((*instance)->RandomQueryLocation(rng));
  }

  PrintHeader(
      "Overlapped I/O: stall models + file-backed batch reads (fig. 8(a) "
      "base)",
      "leg", scaled, env);
  std::printf(
      "requests/leg=%d stall/miss=%.1fus "
      "(MCN_IO_REQUESTS / MCN_IO_STALL_US)\n",
      num_requests, stall_us);

  LegResult serial =
      RunLeg(**instance, env, stall_us, exec::StallModel::kSerial,
             /*simulate=*/true, /*replay=*/false, locations);
  AlgoComparison c_serial;
  c_serial.cea = serial.metrics;
  SetNextRowMeta("serial", "memory");
  PrintRow("serial", c_serial, serial.snapshot);
  std::printf("    mean latency %8.2f ms\n", serial.mean_latency_s * 1e3);

  LegResult overlapped =
      RunLeg(**instance, env, stall_us, exec::StallModel::kOverlapped,
             /*simulate=*/true, /*replay=*/false, locations);
  CheckParity("overlapped", serial, overlapped);
  AlgoComparison c_overlapped;
  c_overlapped.cea = overlapped.metrics;
  SetNextRowMeta("overlapped", "memory");
  PrintRow("overlapped", c_overlapped, overlapped.snapshot);
  std::printf("    mean latency %8.2f ms\n",
              overlapped.mean_latency_s * 1e3);

  // Spill the frozen pages to an image and re-run with physical batched
  // replay — the real-I/O anchor of the modeled overlap. K = 1: the whole
  // network sits on shard 0's disk.
  storage::DiskManager* disk = (*instance)->storage.disk(0);
  const std::string image_path =
      "/tmp/mcn_io_overlap_" + std::to_string(getpid()) + ".img";
  Status attached = disk->AttachFileBackend(image_path, RequestedBackend());
  MCN_CHECK(attached.ok());
  const storage::IoBackendKind backend = disk->io_backend();
  LegResult file_backed =
      RunLeg(**instance, env, stall_us, exec::StallModel::kOverlapped,
             /*simulate=*/false, /*replay=*/true, locations);
  CheckParity("file_backed", serial, file_backed);
  disk->DetachFileBackend();
  std::remove(image_path.c_str());
  AlgoComparison c_file;
  c_file.cea = file_backed.metrics;
  SetNextRowMeta("overlapped", storage::IoBackendKindName(backend));
  PrintRow("file_backed", c_file, file_backed.snapshot);
  std::printf(
      "    mean latency %8.2f ms | backend=%s batches=%" PRIu64
      " pages=%" PRIu64 "\n",
      file_backed.mean_latency_s * 1e3, storage::IoBackendKindName(backend),
      file_backed.io_batches, file_backed.io_batch_pages);
  PrintFooter();

  std::printf(
      "result hashes + per-query logical miss counts: identical across "
      "serial, overlapped and file-backed legs.\n");
  const double speedup = overlapped.mean_latency_s > 0
                             ? serial.mean_latency_s / overlapped.mean_latency_s
                             : 0;
  std::printf("latency cut serial -> overlapped (d=%d): %.2fx\n",
              scaled.num_costs, speedup);
  if (file_backed.io_batches == 0) {
    std::fprintf(stderr,
                 "FAILURE: file-backed leg issued no batched reads\n");
    return 1;
  }
  if (min_speedup > 0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAILURE: overlapped latency cut %.2fx below %.2fx "
                 "(MCN_IO_MIN_OVERLAP_SPEEDUP)\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mcn::bench

int main() { return mcn::bench::Main(); }
