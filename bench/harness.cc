#include "harness.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/common/macros.h"
#include "mcn/common/stopwatch.h"

namespace mcn::bench {

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atof(v);
}

namespace {

// Fills a QueryOutcome from a result list: size, order-sensitive FNV hash
// (shared entry hashing from algo/result_hash.h), and the time the hashing
// itself took, which the driver subtracts from the measured CPU window.
template <typename Entry>
QueryOutcome MakeOutcome(const std::vector<Entry>& entries) {
  QueryOutcome outcome;
  outcome.result_size = entries.size();
  Stopwatch hash_watch;
  outcome.result_hash = algo::HashResult(entries);
  outcome.hash_seconds = hash_watch.ElapsedSeconds();
  return outcome;
}

// ------------------------------------------------------------- JSON record
//
// One record per process: every figure run through PrintHeader/PrintRow/
// PrintFooter is accumulated and the whole file rewritten on each footer, so
// a crashed sweep still leaves the completed figures on disk.

struct JsonRow {
  std::string param;
  AlgoComparison c;
  /// Row provenance tag (may be empty; see SetNextRowMeta): which I/O
  /// backend produced the row's timings.
  std::string io_backend;
  /// Flattened registry snapshot (may be empty): name -> value pairs for
  /// the row's "obs" object. Informational only; bench_diff.py ignores it.
  std::vector<std::pair<std::string, double>> obs;
};

std::vector<std::pair<std::string, double>> FlattenSnapshot(
    const obs::Snapshot& snap) {
  std::vector<std::pair<std::string, double>> flat;
  flat.reserve(snap.counters.size() + snap.gauges.size() +
               3 * snap.histograms.size());
  for (const obs::CounterRow& c : snap.counters) {
    flat.emplace_back(c.name, static_cast<double>(c.value));
  }
  for (const obs::GaugeRow& g : snap.gauges) {
    flat.emplace_back(g.name, g.value);
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    flat.emplace_back(h.name + ".count", static_cast<double>(h.count));
    flat.emplace_back(h.name + ".mean", h.Mean());
    flat.emplace_back(h.name + ".p99", h.ValueAtQuantile(0.99));
  }
  return flat;
}

struct JsonFigure {
  std::string figure;
  std::string varying;
  std::string base_config;
  std::vector<JsonRow> rows;
};

struct JsonState {
  BenchEnv env;
  std::vector<JsonFigure> figures;
  bool figure_open = false;
  /// One-shot row tag staged by SetNextRowMeta for the next PrintRow.
  std::string next_io_backend;
};

JsonState& State() {
  static JsonState state;
  return state;
}

// Minimal escaping: the strings we emit hold figure titles and config
// summaries (no control characters in practice).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

void WriteMetrics(std::FILE* f, const char* name, const RunMetrics& m) {
  std::fprintf(
      f,
      "        \"%s\": {\"avg_cpu_s\": %.9g, \"avg_modeled_s\": %.9g, "
      "\"avg_misses\": %.9g, \"total_cpu_s\": %.9g, \"buffer_misses\": "
      "%" PRIu64 ", \"buffer_accesses\": %" PRIu64 ", \"avg_result_size\": "
      "%.9g, \"result_hash\": \"%016" PRIx64 "\", \"queries\": %d, "
      "\"latency_p50_ms\": %.9g, \"latency_p95_ms\": %.9g, "
      "\"latency_p99_ms\": %.9g, \"qps\": %.9g, "
      "\"local_fetches\": %" PRIu64 ", \"remote_fetches\": %" PRIu64 ", "
      "\"remote_fetch_ratio\": %.9g}",
      name, m.AvgCpu(), m.AvgModeled(), m.AvgMisses(), m.cpu_seconds,
      m.buffer_misses, m.buffer_accesses, m.result_size, m.result_hash,
      m.queries, m.latency_p50_ms, m.latency_p95_ms, m.latency_p99_ms,
      m.qps, m.local_fetches, m.remote_fetches, m.RemoteRatio());
}

void WriteJson() {
  JsonState& st = State();
  if (st.env.json_path.empty()) return;
  std::FILE* f = std::fopen(st.env.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "MCN_BENCH_JSON: cannot open %s\n",
                 st.env.json_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"mcn-bench-v3\",\n");
  std::fprintf(f,
               "  \"scale\": %.9g,\n  \"queries_per_point\": %d,\n"
               "  \"io_latency_ms\": %.9g,\n  \"figures\": [\n",
               st.env.scale, st.env.queries, st.env.io_latency_ms);
  for (size_t fi = 0; fi < st.figures.size(); ++fi) {
    const JsonFigure& fig = st.figures[fi];
    std::fprintf(f,
                 "    {\"figure\": \"%s\", \"varying\": \"%s\",\n"
                 "     \"base_config\": \"%s\",\n     \"rows\": [\n",
                 JsonEscape(fig.figure).c_str(),
                 JsonEscape(fig.varying).c_str(),
                 JsonEscape(fig.base_config).c_str());
    for (size_t ri = 0; ri < fig.rows.size(); ++ri) {
      const JsonRow& row = fig.rows[ri];
      std::fprintf(f, "      {\"param\": \"%s\",\n",
                   JsonEscape(row.param).c_str());
      if (!row.io_backend.empty()) {
        std::fprintf(f, "        \"io_backend\": \"%s\",\n",
                     JsonEscape(row.io_backend).c_str());
      }
      WriteMetrics(f, "lsa", row.c.lsa);
      std::fprintf(f, ",\n");
      WriteMetrics(f, "cea", row.c.cea);
      if (!row.obs.empty()) {
        std::fprintf(f, ",\n        \"obs\": {");
        for (size_t oi = 0; oi < row.obs.size(); ++oi) {
          std::fprintf(f, "%s\"%s\": %.9g", oi > 0 ? ", " : "",
                       JsonEscape(row.obs[oi].first).c_str(),
                       row.obs[oi].second);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "\n      }%s\n", ri + 1 < fig.rows.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", fi + 1 < st.figures.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

RunMetrics RunOne(gen::ShardedInstance& instance, expand::EngineKind kind,
                  const BenchEnv& env, uint64_t query_seed,
                  const QueryFn& run) {
  RunMetrics metrics;
  Random rng(query_seed);
  for (int qi = 0; qi < env.queries; ++qi) {
    graph::Location q = instance.RandomQueryLocation(rng);
    Random per_query(query_seed * 1000003 + qi);
    // Cold buffer per query, as in the paper (each query is independent).
    instance.ResetIoState();
    Stopwatch watch;
    auto engine = expand::MakeEngine(kind, instance.reader.get(), q);
    MCN_CHECK(engine.ok());
    QueryOutcome outcome = run(engine.value().get(), per_query);
    double cpu = watch.ElapsedSeconds() - outcome.hash_seconds;
    metrics.result_size += static_cast<double>(outcome.result_size);
    metrics.result_hash =
        algo::FnvMixU64(metrics.result_hash, outcome.result_hash);
    const storage::BufferPool::Stats io = instance.reader->PoolStats();
    const uint64_t misses = io.misses;
    metrics.cpu_seconds += cpu;
    metrics.buffer_misses += misses;
    metrics.buffer_accesses += io.accesses();
    metrics.modeled_seconds += cpu + misses * env.io_latency_ms / 1000.0;
    ++metrics.queries;
  }
  metrics.result_size /= metrics.queries;
  return metrics;
}

}  // namespace

BenchEnv BenchEnv::FromEnvironment() {
  BenchEnv env;
  env.scale = EnvDouble("MCN_BENCH_SCALE", 0.15);
  env.queries = static_cast<int>(EnvDouble("MCN_BENCH_QUERIES", 24));
  env.io_latency_ms = EnvDouble("MCN_IO_LATENCY_MS", 5.0);
  const char* json = std::getenv("MCN_BENCH_JSON");
  if (json != nullptr && *json != '\0') env.json_path = json;
  MCN_CHECK(env.scale > 0 && env.queries > 0 && env.io_latency_ms >= 0);
  return env;
}

AlgoComparison CompareLsaCea(gen::ShardedInstance& instance,
                             const BenchEnv& env, uint64_t query_seed,
                             const QueryFn& run) {
  AlgoComparison c;
  c.lsa = RunOne(instance, expand::EngineKind::kLsa, env, query_seed, run);
  c.cea = RunOne(instance, expand::EngineKind::kCea, env, query_seed, run);
  return c;
}

QueryFn SkylineRunner() {
  return [](expand::NnEngine* engine, Random&) -> QueryOutcome {
    algo::SkylineQuery query(engine);
    auto result = query.ComputeAll();
    MCN_CHECK(result.ok());
    return MakeOutcome(result.value());
  };
}

QueryFn TopKRunner(int k, int num_costs) {
  return [k, num_costs](expand::NnEngine* engine,
                        Random& rng) -> QueryOutcome {
    // Random independent coefficients in [0,1] per query (paper §VI).
    std::vector<double> weights(num_costs);
    for (double& w : weights) w = rng.NextDouble();
    algo::TopKOptions opts;
    opts.k = k;
    algo::TopKQuery query(engine, algo::WeightedSum(weights), opts);
    auto result = query.Run();
    MCN_CHECK(result.ok());
    return MakeOutcome(result.value());
  };
}

void PrintHeader(const std::string& figure, const std::string& varying,
                 const gen::ExperimentConfig& base, const BenchEnv& env) {
  JsonState& st = State();
  st.env = env;
  st.figures.push_back(
      JsonFigure{figure, varying, base.ToString(), {}});
  st.figure_open = true;

  std::printf("== %s ==\n", figure.c_str());
  std::printf("base config: %s\n", base.ToString().c_str());
  std::printf(
      "scale=%.3g queries/point=%d io_latency=%.1fms "
      "(MCN_BENCH_SCALE / MCN_BENCH_QUERIES / MCN_IO_LATENCY_MS)\n",
      env.scale, env.queries, env.io_latency_ms);
  std::printf(
      "%-14s | %12s %12s | %10s %10s | %9s %9s | %7s | %6s\n",
      varying.c_str(), "LSA time(s)", "CEA time(s)", "LSA IOs", "CEA IOs",
      "LSA cpu", "CEA cpu", "speedup", "|res|");
  std::printf(
      "---------------+---------------------------+-----------------------+"
      "---------------------+---------+-------\n");
}

void PrintRow(const std::string& param_value, const AlgoComparison& c) {
  PrintRow(param_value, c, obs::Snapshot{});
}

void SetNextRowMeta(const std::string& io_backend) {
  State().next_io_backend = io_backend;
}

void PrintRow(const std::string& param_value, const AlgoComparison& c,
              const obs::Snapshot& obs_snapshot) {
  JsonState& st = State();
  if (st.figure_open) {
    st.figures.back().rows.push_back(
        JsonRow{param_value, c, std::move(st.next_io_backend),
                FlattenSnapshot(obs_snapshot)});
  }
  st.next_io_backend.clear();
  double speedup = c.cea.AvgModeled() > 0
                       ? c.lsa.AvgModeled() / c.cea.AvgModeled()
                       : 0.0;
  std::printf(
      "%-14s | %12.4f %12.4f | %10.1f %10.1f | %9.4f %9.4f | %6.2fx | %6.1f\n",
      param_value.c_str(), c.lsa.AvgModeled(), c.cea.AvgModeled(),
      c.lsa.AvgMisses(), c.cea.AvgMisses(), c.lsa.AvgCpu(), c.cea.AvgCpu(),
      speedup, c.cea.result_size);
  std::fflush(stdout);
}

void PrintFooter() {
  JsonState& st = State();
  st.figure_open = false;
  WriteJson();
  std::printf(
      "time(s) = modeled per-query time: buffer misses x io_latency + "
      "measured CPU.\n\n");
}

}  // namespace mcn::bench
