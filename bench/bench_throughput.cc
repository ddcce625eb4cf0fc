// Inter-query parallelism benchmark: a fixed mixed workload of top-k and
// skyline queries fans out over 1/2/4/8 workers against one shared,
// immutable PCube + R*-tree through the striped BufferPool, and the sweep
// reports QPS and speedup vs. the single-worker baseline.
//
// Methodology: the paper's experiments are disk-bound (§VI; bench_common.h
// charges 5 ms per cold page read arithmetically). Here the latency is made
// REAL — a LatencyPageManager sleeps per physical read — so worker threads
// genuinely overlap their I/O stalls, which is where the throughput win of
// inter-query parallelism comes from on any machine (CPU parallelism adds
// on top when cores are available). The buffer pool is deliberately smaller
// than the working set so the workload keeps faulting, as a loaded server
// serving many distinct queries would.
//
// Output: a human-readable table on stdout plus three artifacts in the
// working directory — BENCH_throughput.json (per-run qps and latency
// quantiles), BENCH_throughput_metrics.prom (Prometheus-style dump of every
// engine and buffer-pool metric) and BENCH_throughput_querylog.jsonl (one
// trace record per query of the final measured batch).
//
// Environment knobs:
//   PCUBE_THROUGHPUT_ROWS        dataset size            (default 20000)
//   PCUBE_THROUGHPUT_QUERIES     queries per batch       (default 120)
//   PCUBE_THROUGHPUT_LATENCY_US  per-read sleep, micros  (default 1000)
//   PCUBE_THROUGHPUT_POOL_PAGES  buffer-pool capacity    (default 64)
//   PCUBE_THROUGHPUT_STRIPES     buffer-pool stripes     (default 16)
//   PCUBE_THROUGHPUT_SMOKE       when set, sweep only {1, 2} workers (CI)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/timer.h"
#include "common/trace.h"
#include "data/generators.h"
#include "workbench/workbench.h"

using namespace pcube;
using pcube::bench::EnvU64;

namespace {

/// Deterministic mixed workload: 1/3 skylines, 2/3 top-k (linear and
/// distance-to-target), predicates spread over all boolean dimensions.
std::vector<BatchQuery> BuildWorkload(size_t n, const SyntheticConfig& config) {
  Random rng(2024);
  std::vector<BatchQuery> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PredicateSet preds;
    preds.Add({static_cast<int>(rng.Uniform(config.num_bool)),
               static_cast<uint32_t>(rng.Uniform(config.bool_cardinality))});
    if (rng.Uniform(4) == 0) {  // every 4th query drills into two dimensions
      preds.Add({static_cast<int>(rng.Uniform(config.num_bool)),
                 static_cast<uint32_t>(rng.Uniform(config.bool_cardinality))});
    }
    switch (i % 3) {
      case 0:
        queries.push_back(BatchQuery::Skyline(std::move(preds)));
        break;
      case 1: {
        std::vector<double> weights(config.num_pref);
        for (double& w : weights) w = 0.25 + rng.NextDouble();
        queries.push_back(BatchQuery::TopK(
            std::move(preds), std::make_shared<LinearRanking>(weights), 10));
        break;
      }
      default: {
        std::vector<double> target(config.num_pref);
        for (double& t : target) t = rng.NextDouble();
        std::vector<double> weights(config.num_pref, 1.0);
        queries.push_back(BatchQuery::TopK(
            std::move(preds),
            std::make_shared<WeightedL2Ranking>(target, weights), 10));
        break;
      }
    }
  }
  return queries;
}

}  // namespace

int main() {
  SyntheticConfig config;
  config.num_tuples = EnvU64("PCUBE_THROUGHPUT_ROWS", 20000, 1);
  config.num_bool = 3;
  config.num_pref = 3;
  config.bool_cardinality = 100;
  config.seed = 42;

  const size_t num_queries = EnvU64("PCUBE_THROUGHPUT_QUERIES", 120, 1);
  const double latency_us =
      static_cast<double>(EnvU64("PCUBE_THROUGHPUT_LATENCY_US", 1000));
  // Small pool so the workload keeps faulting; explicit stripes so misses on
  // different pages overlap (the default heuristic would leave a pool this
  // small single-striped for strict-LRU compatibility).
  const size_t pool_pages = EnvU64("PCUBE_THROUGHPUT_POOL_PAGES", 64, 1);
  const size_t pool_stripes = EnvU64("PCUBE_THROUGHPUT_STRIPES", 16);

  WorkbenchOptions options;
  options.pool_pages = pool_pages;
  options.pool_stripes = pool_stripes;
  options.read_latency_us = latency_us;
  // This benchmark measures engine throughput under real I/O stalls; the
  // sweep re-runs one workload, which the result cache would answer without
  // touching a page after the warm-up. bench_cache measures the cache.
  options.result_cache_mb = 0;
  std::printf(
      "building workbench: %llu rows, pool %zu pages / %zu stripes, "
      "%.0f us/read\n",
      static_cast<unsigned long long>(config.num_tuples), pool_pages,
      pool_stripes, latency_us);
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  PCUBE_CHECK(wb.ok()) << wb.status().ToString();
  Workbench& workbench = **wb;

  std::vector<BatchQuery> queries = BuildWorkload(num_queries, config);

  // One untimed pass brings the pool to its steady faulting state so every
  // measured worker count starts from the same cache contents.
  (void)workbench.RunBatch(queries, 4);

  struct Row {
    size_t workers;
    double seconds;
    double qps;
    uint64_t reads;
    uint64_t failed;
    LatencySummary latency;
    double queue_depth_peak;
  };
  std::vector<Row> rows;
  std::vector<size_t> sweep = {1, 2, 4, 8};
  if (std::getenv("PCUBE_THROUGHPUT_SMOKE") != nullptr) sweep = {1, 2};
  // The last sweep point also writes the JSONL query log (one record per
  // query; earlier runs would just overwrite it).
  std::unique_ptr<QueryLog> query_log;
  {
    auto log = QueryLog::OpenFile("BENCH_throughput_querylog.jsonl");
    PCUBE_CHECK(log.ok()) << log.status().ToString();
    query_log = std::move(*log);
  }
  // The pool's peak-backlog gauge is monotone across pools; resetting it
  // before each sweep point turns it into a per-run high-water mark.
  Gauge* pool_peak = MetricsRegistry::Default().GetGauge(
      "pcube_threadpool_queue_depth_peak");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const size_t workers = sweep[i];
    const bool last = i + 1 == sweep.size();
    pool_peak->Reset();
    BatchOutput out =
        workbench.RunBatch(queries, workers, last ? query_log.get() : nullptr);
    PCUBE_CHECK_EQ(out.failed, 0u);
    rows.push_back({workers, out.seconds,
                    static_cast<double>(queries.size()) / out.seconds,
                    out.io.TotalReads(), out.failed, out.latency,
                    pool_peak->Value()});
    std::printf(
        "  %zu worker(s): %6.2f qps  (%.3f s, %llu page reads, "
        "p50 %.1f ms, p95 %.1f ms, p99 %.1f ms, queue peak %.0f)\n",
        workers, rows.back().qps, out.seconds,
        static_cast<unsigned long long>(rows.back().reads),
        out.latency.p50 * 1e3, out.latency.p95 * 1e3, out.latency.p99 * 1e3,
        rows.back().queue_depth_peak);
  }

  const double base_qps = rows.front().qps;
  std::ofstream json("BENCH_throughput.json");
  json << "{\n  \"workload\": {\"rows\": " << config.num_tuples
       << ", \"queries\": " << num_queries
       << ", \"pool_pages\": " << pool_pages
       << ", \"read_latency_us\": " << latency_us << "},\n  \"runs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"workers\": " << r.workers << ", \"qps\": " << r.qps
         << ", \"seconds\": " << r.seconds << ", \"page_reads\": " << r.reads
         << ", \"latency_p50\": " << r.latency.p50
         << ", \"latency_p95\": " << r.latency.p95
         << ", \"latency_p99\": " << r.latency.p99
         << ", \"latency_mean\": " << r.latency.mean
         << ", \"queue_depth_peak\": " << r.queue_depth_peak
         << ", \"speedup\": " << r.qps / base_qps << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();

  // Process-wide metrics dump: engine counters and latency histogram from
  // every batch above plus this instance's buffer-pool/storage gauges.
  MetricsRegistry& registry = MetricsRegistry::Default();
  workbench.ExportMetrics(&registry);
  std::ofstream prom("BENCH_throughput_metrics.prom");
  prom << registry.RenderText();
  prom.close();

  for (const Row& r : rows) {
    std::printf("speedup @%zu workers: %.2fx\n", r.workers, r.qps / base_qps);
  }
  std::printf(
      "wrote BENCH_throughput.json, BENCH_throughput_metrics.prom, "
      "BENCH_throughput_querylog.jsonl\n");
  return 0;
}
