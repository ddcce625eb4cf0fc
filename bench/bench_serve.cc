// Network-server benchmark: drives a live `pcube serve` instance over
// loopback at 1x and 2x its measured capacity and reports what the
// admission controller does about it. Phase one calibrates — as many
// closed-loop clients as the server has workers measure the sustainable
// QPS. Phase two offers that load (1x: clients == workers, nothing to
// shed) and then doubles the offered concurrency past the queue capacity
// (2x), where the server MUST shed with ResourceExhausted while the
// requests it does admit keep a bounded queue wait.
//
// The sweep doubles as the ci.sh `serve` overload gate: the process exits
// non-zero when the 2x run sheds nothing (admission inert), when any
// client sees a non-shed/non-timeout failure, or when the 1x run sheds
// more than a quarter of its traffic (capacity model broken).
//
// Output: a table on stdout plus BENCH_serve.json in the working
// directory — per-run offered/achieved QPS, shed rate, and p50/p95/p99
// queue wait as reported by the server per admitted request.
//
// Environment knobs:
//   PCUBE_SERVE_ROWS       dataset size                   (default 60000)
//   PCUBE_SERVE_WORKERS    server executor threads        (default 2)
//   PCUBE_SERVE_QUEUE_CAP  admission queue capacity       (default 8)
//   PCUBE_SERVE_SECONDS    measured seconds per run       (default 2)
//   PCUBE_SERVE_SMOKE      when set, shrink rows/seconds for CI
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/mutex.h"
#include "common/random.h"
#include "data/generators.h"
#include "server/client.h"
#include "server/server.h"
#include "workbench/workbench.h"

using namespace pcube;
using pcube::bench::EnvU64;

namespace {

/// Deterministic mixed workload over the synthetic schema: skylines and
/// linear top-k spread across the boolean cells.
std::vector<QueryRequest> BuildWorkload(const SyntheticConfig& config) {
  Random rng(2024);
  auto ranking = std::make_shared<LinearRanking>(
      std::vector<double>(config.num_pref, 1.0));
  std::vector<QueryRequest> queries;
  for (int i = 0; i < 24; ++i) {
    PredicateSet preds;
    preds.Add({static_cast<int>(rng.Uniform(config.num_bool)),
               static_cast<uint32_t>(rng.Uniform(config.bool_cardinality))});
    if (i % 2 == 0) {
      queries.push_back(QueryRequest::Skyline(std::move(preds)));
    } else {
      queries.push_back(QueryRequest::TopK(std::move(preds), ranking, 10));
    }
  }
  return queries;
}

struct RunStats {
  double seconds = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t timeout = 0;
  uint64_t hard_failures = 0;
  std::vector<double> queue_waits;  // seconds, admitted requests only

  double OfferedQps() const {
    return static_cast<double>(ok + shed + timeout) / seconds;
  }
  double Qps() const { return static_cast<double>(ok) / seconds; }
  double ShedRate() const {
    uint64_t total = ok + shed + timeout;
    return total == 0 ? 0.0 : static_cast<double>(shed) / total;
  }
  double QueueWaitQuantile(double q) const {
    if (queue_waits.empty()) return 0.0;
    std::vector<double> sorted = queue_waits;
    std::sort(sorted.begin(), sorted.end());
    size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size()));
    return sorted[std::min(idx, sorted.size() - 1)];
  }
};

/// `clients` closed-loop connections hammer the server for `seconds`,
/// cycling through the workload. Offered load is set by the concurrency:
/// each client keeps exactly one request in flight at all times.
RunStats DriveLoad(uint16_t port, const std::vector<QueryRequest>& queries,
                   size_t clients, double seconds) {
  RunStats stats;
  stats.seconds = seconds;
  Mutex mu;
  const auto end =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = PCubeClient::Connect("127.0.0.1", port);
      RunStats local;
      if (!client.ok()) {
        local.hard_failures = 1;
      } else {
        size_t i = c;  // stagger the starting query per client
        while (std::chrono::steady_clock::now() < end) {
          PCubeClient::ServerStats server_stats;
          auto resp =
              (*client)->Run(queries[i++ % queries.size()], "bench",
                             &server_stats);
          if (resp.ok()) {
            ++local.ok;
            local.queue_waits.push_back(server_stats.queue_wait_seconds);
          } else if (resp.status().IsResourceExhausted()) {
            ++local.shed;
            // Shed answers are nearly free; without a beat of backoff a
            // rejected closed-loop client would re-offer at memory speed
            // and the "offered QPS" number would stop meaning anything.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          } else if (resp.status().IsTimeout()) {
            ++local.timeout;
          } else {
            ++local.hard_failures;
            break;  // a protocol/socket failure poisons this connection
          }
        }
      }
      MutexLock lock(&mu);
      stats.ok += local.ok;
      stats.shed += local.shed;
      stats.timeout += local.timeout;
      stats.hard_failures += local.hard_failures;
      stats.queue_waits.insert(stats.queue_waits.end(),
                               local.queue_waits.begin(),
                               local.queue_waits.end());
    });
  }
  for (std::thread& t : threads) t.join();
  return stats;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("PCUBE_SERVE_SMOKE") != nullptr;
  SyntheticConfig config;
  config.num_tuples = EnvU64("PCUBE_SERVE_ROWS", smoke ? 20000 : 60000, 1);
  config.num_bool = 3;
  config.num_pref = 2;
  config.bool_cardinality = 6;
  config.seed = 42;
  const size_t workers = EnvU64("PCUBE_SERVE_WORKERS", 2, 1);
  const size_t queue_cap = EnvU64("PCUBE_SERVE_QUEUE_CAP", 8, 1);
  const double seconds =
      static_cast<double>(EnvU64("PCUBE_SERVE_SECONDS", smoke ? 1 : 2, 1));

  WorkbenchOptions wo;
  // Every request must execute for the offered load to be real; a result
  // cache would answer the repeats in microseconds and hide the queue.
  wo.result_cache_mb = 0;
  std::printf("building workbench: %llu rows\n",
              static_cast<unsigned long long>(config.num_tuples));
  auto wb = Workbench::Build(GenerateSynthetic(config), wo);
  PCUBE_CHECK(wb.ok()) << wb.status().ToString();

  ServerOptions options;
  options.workers = workers;
  options.admission.queue_cap = queue_cap;
  PCubeServer server(wb->get(), options);
  Status started = server.Start();
  PCUBE_CHECK(started.ok()) << started.ToString();
  std::printf("pcube serve on 127.0.0.1:%u (%zu workers, queue cap %zu)\n",
              server.port(), workers, queue_cap);

  std::vector<QueryRequest> queries = BuildWorkload(config);

  // Untimed warm-up so calibration and the measured runs all see the same
  // steady buffer-pool state (the pool warms across the whole sweep).
  (void)DriveLoad(server.port(), queries, workers, seconds * 0.5);

  // Calibration: closed-loop concurrency == workers saturates the executor
  // without queueing — the measured QPS is the sustainable capacity.
  RunStats capacity = DriveLoad(server.port(), queries, workers, seconds);
  std::printf("capacity: %.1f qps at concurrency %zu\n", capacity.Qps(),
              workers);

  // 1x: same concurrency as capacity — nothing should be shed.
  // 2x: offered concurrency doubles past queue_cap + workers, so the
  //     instantaneous backlog exceeds the queue and the controller MUST
  //     shed rather than let the queue (and every deadline in it) grow.
  struct Run {
    const char* name;
    size_t clients;
    RunStats stats;
  };
  std::vector<Run> runs;
  runs.push_back({"1x", workers, {}});
  runs.push_back({"2x", 2 * (queue_cap + workers), {}});
  for (Run& run : runs) {
    run.stats = DriveLoad(server.port(), queries, run.clients, seconds);
    std::printf(
        "  %s (%2zu clients): %7.1f qps offered, %7.1f answered, "
        "shed %4.1f%%, queue wait p50 %.2f ms p95 %.2f ms p99 %.2f ms\n",
        run.name, run.clients, run.stats.OfferedQps(), run.stats.Qps(),
        run.stats.ShedRate() * 100, run.stats.QueueWaitQuantile(0.5) * 1e3,
        run.stats.QueueWaitQuantile(0.95) * 1e3,
        run.stats.QueueWaitQuantile(0.99) * 1e3);
  }
  server.Stop();

  std::ofstream json("BENCH_serve.json");
  json << "{\n  \"workload\": {\"rows\": " << config.num_tuples
       << ", \"workers\": " << workers << ", \"queue_cap\": " << queue_cap
       << ", \"seconds_per_run\": " << seconds
       << ", \"capacity_qps\": " << capacity.Qps() << "},\n  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunStats& s = runs[i].stats;
    json << "    {\"offered\": \"" << runs[i].name
         << "\", \"clients\": " << runs[i].clients
         << ", \"offered_qps\": " << s.OfferedQps()
         << ", \"qps\": " << s.Qps() << ", \"shed_rate\": " << s.ShedRate()
         << ", \"shed\": " << s.shed << ", \"timeouts\": " << s.timeout
         << ", \"queue_wait_p50\": " << s.QueueWaitQuantile(0.5)
         << ", \"queue_wait_p95\": " << s.QueueWaitQuantile(0.95)
         << ", \"queue_wait_p99\": " << s.QueueWaitQuantile(0.99) << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("wrote BENCH_serve.json\n");

  // Gates (ci.sh `serve` phase relies on the exit code).
  uint64_t hard = capacity.hard_failures;
  for (const Run& run : runs) hard += run.stats.hard_failures;
  if (hard != 0) {
    std::fprintf(stderr, "bench_serve: %llu hard failures\n",
                 static_cast<unsigned long long>(hard));
    return 1;
  }
  if (runs[1].stats.shed == 0) {
    std::fprintf(stderr,
                 "bench_serve: 2x overload shed nothing — admission inert\n");
    return 1;
  }
  if (runs[0].stats.ShedRate() > 0.25) {
    std::fprintf(stderr,
                 "bench_serve: 1x load shed %.0f%% — capacity model broken\n",
                 runs[0].stats.ShedRate() * 100);
    return 1;
  }
  return 0;
}
