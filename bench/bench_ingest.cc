// Write-path benchmark (DESIGN.md §15): sustained ingest through
// Workbench::Apply against a FILE-backed workbench — every commit is a
// real WAL append + fsync — first alone, then concurrent with query
// traffic. Reports inserts/sec, commit-latency quantiles (p50/p95/p99),
// and the group-commit amortization (commits per fsync), which is the
// number the whole design argues for: N writers, one disk flush. Beside
// ingest it also reports the reader side: query latency p50/p99, the
// queries' structure-lock wait (mean, p99) and how long maintenance held
// that lock exclusively per slice phase.
//
// Doubles as the scripts/ci.sh `ingest` smoke gate (non-zero exit) when:
//   - any Apply or query fails, or a commit comes back non-durable,
//   - barriered writers fail to coalesce into ONE fsync group (checked
//     deterministically against a throwaway WAL; the Apply phases' own
//     grouping is additionally gated on machines with >= 2 cores, where
//     commits can genuinely overlap),
//   - the final row count disagrees with what was acknowledged.
//
// Output: a table on stdout plus BENCH_ingest.json in the working
// directory. The database (BENCH_ingest.db[.wal]) is deleted on exit.
//
// Environment knobs:
//   PCUBE_INGEST_ROWS        base relation size      (default 20000)
//   PCUBE_INGEST_BATCHES     batches per phase       (default 150)
//   PCUBE_INGEST_BATCH_ROWS  inserts per batch       (default 64)
//   PCUBE_INGEST_WRITERS     writer threads          (default 4)
//   PCUBE_INGEST_READERS     reader threads, phase 2 (default 2)
//   PCUBE_INGEST_DB          database path           (default BENCH_ingest.db)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "data/generators.h"
#include "query/write_batch.h"
#include "storage/wal.h"
#include "workbench/workbench.h"

using namespace pcube;
using pcube::bench::EnvU64;

namespace {

double Quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t i = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[i];
}

struct PhaseStats {
  std::string name;
  double seconds = 0;
  double inserts_per_sec = 0;
  double commit_p50_ms = 0, commit_p95_ms = 0, commit_p99_ms = 0;
  double mean_group = 0;
  uint32_t max_group = 0;
  uint64_t batches = 0;
  uint64_t syncs = 0;  ///< fsyncs this phase (group commit amortizes these)
  double reader_qps = 0;
  uint64_t queries = 0;
  double reader_p50_ms = 0, reader_p99_ms = 0;
  /// pcube_struct_lock_wait_seconds{side="reader"} over the phase.
  double lock_wait_mean_ms = 0, lock_wait_p99_ms = 0;
  /// pcube_maintenance_hold_seconds{phase=...} over the phase: mean hold
  /// and number of holds per phase.
  double hold_tree_ms = 0, hold_install_ms = 0, hold_locked_ms = 0;
  uint64_t holds_tree = 0, holds_install = 0, holds_locked = 0;
};

}  // namespace

int main() {
  SyntheticConfig config;
  config.num_tuples = EnvU64("PCUBE_INGEST_ROWS", 20000, 1);
  config.num_bool = 3;
  config.num_pref = 3;
  config.bool_cardinality = 100;
  config.seed = 42;

  const uint64_t batches_per_phase = EnvU64("PCUBE_INGEST_BATCHES", 150, 1);
  const uint64_t batch_rows = EnvU64("PCUBE_INGEST_BATCH_ROWS", 64, 1);
  const size_t writers = EnvU64("PCUBE_INGEST_WRITERS", 4, 1);
  const size_t readers = EnvU64("PCUBE_INGEST_READERS", 2);
  const char* db_env = std::getenv("PCUBE_INGEST_DB");
  const std::string db_path = db_env != nullptr ? db_env : "BENCH_ingest.db";
  auto cleanup = [&] {
    std::remove(db_path.c_str());
    std::remove((db_path + ".wal").c_str());
    std::remove((db_path + ".chk").c_str());
  };
  cleanup();

  std::printf(
      "building file-backed workbench: %llu rows, %llu batches/phase x %llu "
      "rows, %zu writers, %zu readers\n",
      static_cast<unsigned long long>(config.num_tuples),
      static_cast<unsigned long long>(batches_per_phase),
      static_cast<unsigned long long>(batch_rows), writers, readers);
  WorkbenchOptions options;
  options.file_path = db_path;
  auto built = Workbench::Build(GenerateSynthetic(config), options);
  PCUBE_CHECK(built.ok()) << built.status().ToString();
  Workbench& wb = **built;

  // Pre-generate every row to ingest so the measured loop is Apply only.
  SyntheticConfig extra_config = config;
  extra_config.num_tuples = 2 * batches_per_phase * batch_rows;
  extra_config.seed = 4242;
  Dataset extra = GenerateSynthetic(extra_config);

  std::atomic<uint64_t> next_batch{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> not_durable{0};

  auto make_batch = [&](uint64_t index) {
    WriteBatch batch;
    batch.inserts.reserve(batch_rows);
    for (uint64_t r = 0; r < batch_rows; ++r) {
      TupleId t = static_cast<TupleId>(index * batch_rows + r);
      auto bools = extra.BoolRow(t);
      auto prefs = extra.PrefPoint(t);
      batch.inserts.push_back(
          {{bools.begin(), bools.end()}, {prefs.begin(), prefs.end()}});
    }
    return batch;
  };

  auto run_phase = [&](const std::string& name, bool with_queries) {
    PhaseStats stats;
    stats.name = name;
    const uint64_t end_batch = next_batch.load() + batches_per_phase;
    const uint64_t syncs_before = wb.wal()->sync_count();
    std::vector<std::vector<double>> commit_ms(writers);
    std::vector<std::vector<uint32_t>> groups(writers);
    std::atomic<bool> writers_done{false};
    std::atomic<uint64_t> queries_ok{0};
    std::vector<std::vector<double>> query_ms(readers);
    const StructLockMetrics& lock_metrics = StructLockMetrics::Default();
    for (Histogram* h :
         {lock_metrics.reader_wait, lock_metrics.hold_tree,
          lock_metrics.hold_install, lock_metrics.hold_locked}) {
      h->Reset();
    }

    Timer phase_timer;
    std::vector<std::thread> threads;
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        for (;;) {
          uint64_t index = next_batch.fetch_add(1);
          if (index >= end_batch) {
            next_batch.fetch_sub(1);  // hand the overshoot back
            return;
          }
          auto applied = wb.Apply(make_batch(index));
          if (!applied.ok()) {
            failures.fetch_add(1);
            return;
          }
          if (!applied->durable) not_durable.fetch_add(1);
          commit_ms[w].push_back(applied->commit_seconds * 1e3);
          groups[w].push_back(applied->group_size);
        }
      });
    }
    std::vector<std::thread> query_threads;
    for (size_t r = 0; with_queries && r < readers; ++r) {
      query_threads.emplace_back([&, r] {
        uint64_t i = r;
        while (!writers_done.load(std::memory_order_acquire)) {
          PredicateSet preds{
              {static_cast<int>(i % config.num_bool),
               static_cast<uint32_t>((i * 7) % config.bool_cardinality)}};
          Timer query_timer;
          auto resp = wb.RunShared(QueryRequest::Skyline(preds));
          if (!resp.ok()) {
            failures.fetch_add(1);
            return;
          }
          query_ms[r].push_back(query_timer.ElapsedMillis());
          queries_ok.fetch_add(1);
          ++i;
        }
      });
    }
    for (auto& t : threads) t.join();
    writers_done.store(true, std::memory_order_release);
    const double write_seconds = phase_timer.ElapsedSeconds();
    for (auto& t : query_threads) t.join();

    std::vector<double> all_ms;
    double group_sum = 0;
    uint64_t group_n = 0;
    for (size_t w = 0; w < writers; ++w) {
      all_ms.insert(all_ms.end(), commit_ms[w].begin(), commit_ms[w].end());
      for (uint32_t g : groups[w]) {
        group_sum += g;
        ++group_n;
        stats.max_group = std::max(stats.max_group, g);
      }
    }
    std::sort(all_ms.begin(), all_ms.end());
    stats.seconds = write_seconds;
    stats.batches = all_ms.size();
    stats.inserts_per_sec =
        static_cast<double>(stats.batches * batch_rows) / write_seconds;
    stats.commit_p50_ms = Quantile(all_ms, 0.50);
    stats.commit_p95_ms = Quantile(all_ms, 0.95);
    stats.commit_p99_ms = Quantile(all_ms, 0.99);
    stats.mean_group = group_n > 0 ? group_sum / static_cast<double>(group_n) : 0;
    stats.syncs = wb.wal()->sync_count() - syncs_before;
    stats.queries = queries_ok.load();
    stats.reader_qps = static_cast<double>(stats.queries) / write_seconds;
    std::vector<double> all_query_ms;
    for (const auto& v : query_ms) {
      all_query_ms.insert(all_query_ms.end(), v.begin(), v.end());
    }
    std::sort(all_query_ms.begin(), all_query_ms.end());
    stats.reader_p50_ms = Quantile(all_query_ms, 0.50);
    stats.reader_p99_ms = Quantile(all_query_ms, 0.99);
    stats.lock_wait_mean_ms = lock_metrics.reader_wait->Mean() * 1e3;
    stats.lock_wait_p99_ms = lock_metrics.reader_wait->Quantile(0.99) * 1e3;
    stats.hold_tree_ms = lock_metrics.hold_tree->Mean() * 1e3;
    stats.hold_install_ms = lock_metrics.hold_install->Mean() * 1e3;
    stats.hold_locked_ms = lock_metrics.hold_locked->Mean() * 1e3;
    stats.holds_tree = lock_metrics.hold_tree->Count();
    stats.holds_install = lock_metrics.hold_install->Count();
    stats.holds_locked = lock_metrics.hold_locked->Count();
    std::string query_note =
        with_queries
            ? " | " + std::to_string(stats.queries) + " concurrent queries"
            : "";
    std::printf(
        "  %-14s %9.0f inserts/s  commit p50/p95/p99 %6.2f/%6.2f/%6.2f ms  "
        "group mean %.2f max %u  %llu commits over %llu fsyncs%s\n",
        stats.name.c_str(), stats.inserts_per_sec, stats.commit_p50_ms,
        stats.commit_p95_ms, stats.commit_p99_ms, stats.mean_group,
        stats.max_group, static_cast<unsigned long long>(stats.batches),
        static_cast<unsigned long long>(stats.syncs), query_note.c_str());
    if (with_queries) {
      std::printf(
          "  %-14s query p50/p99 %.3f/%.3f ms  lock wait mean/p99 "
          "%.3f/%.3f ms\n",
          "", stats.reader_p50_ms, stats.reader_p99_ms,
          stats.lock_wait_mean_ms, stats.lock_wait_p99_ms);
    }
    std::printf(
        "  %-14s maintenance holds: tree %.2f ms x%llu, install %.2f ms "
        "x%llu, locked %.2f ms x%llu\n",
        "", stats.hold_tree_ms, static_cast<unsigned long long>(stats.holds_tree),
        stats.hold_install_ms,
        static_cast<unsigned long long>(stats.holds_install),
        stats.hold_locked_ms,
        static_cast<unsigned long long>(stats.holds_locked));
    return stats;
  };

  std::vector<PhaseStats> phases;
  phases.push_back(run_phase("ingest-only", false));
  phases.push_back(run_phase("ingest+query", true));

  PCUBE_CHECK_OK(wb.DrainWrites());

  // Deterministic group-commit check against a throwaway WAL: every stager
  // is barriered past Stage() before any calls WaitDurable(), so the first
  // waiter MUST become leader of all K records — K commits, one fsync — on
  // any machine, including a single core where the Apply phases above can
  // serialize and never overlap their commits.
  const uint32_t forced_writers = static_cast<uint32_t>(std::max<size_t>(writers, 4));
  uint32_t forced_group = 0;
  uint64_t forced_syncs = 0;
  {
    const std::string group_path = db_path + ".groupwal";
    std::remove(group_path.c_str());
    Wal::Options wal_options;
    wal_options.path = group_path;
    wal_options.truncate = true;
    auto wal = Wal::Open(wal_options);
    PCUBE_CHECK(wal.ok()) << wal.status().ToString();
    std::atomic<uint32_t> staged{0};
    std::atomic<uint32_t> max_group{0};
    std::vector<std::thread> stagers;
    for (uint32_t i = 0; i < forced_writers; ++i) {
      stagers.emplace_back([&] {
        auto lsn = (*wal)->Stage("bench-ingest group-commit probe");
        PCUBE_CHECK(lsn.ok()) << lsn.status().ToString();
        staged.fetch_add(1);
        while (staged.load() < forced_writers) std::this_thread::yield();
        uint32_t group = 0;
        PCUBE_CHECK_OK((*wal)->WaitDurable(*lsn, &group));
        uint32_t seen = max_group.load();
        while (group > seen && !max_group.compare_exchange_weak(seen, group)) {
        }
      });
    }
    for (auto& t : stagers) t.join();
    forced_group = max_group.load();
    forced_syncs = (*wal)->sync_count();
    wal->reset();
    std::remove(group_path.c_str());
    std::printf("  group-commit   %u staged writers -> group %u over %llu fsync(s)\n",
                forced_writers, forced_group,
                static_cast<unsigned long long>(forced_syncs));
  }
  const uint64_t expected_rows =
      config.num_tuples + 2 * batches_per_phase * batch_rows;
  const uint64_t final_rows = wb.data().num_tuples();

  std::ofstream json("BENCH_ingest.json");
  json << "{\n  \"config\": {\"base_rows\": " << config.num_tuples
       << ", \"batches_per_phase\": " << batches_per_phase
       << ", \"batch_rows\": " << batch_rows << ", \"writers\": " << writers
       << ", \"readers\": " << readers << "},\n  \"phases\": [\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseStats& p = phases[i];
    json << "    {\"phase\": \"" << p.name
         << "\", \"inserts_per_sec\": " << p.inserts_per_sec
         << ", \"commit_p50_ms\": " << p.commit_p50_ms
         << ", \"commit_p95_ms\": " << p.commit_p95_ms
         << ", \"commit_p99_ms\": " << p.commit_p99_ms
         << ", \"mean_group_size\": " << p.mean_group
         << ", \"max_group_size\": " << p.max_group
         << ", \"commits\": " << p.batches << ", \"fsyncs\": " << p.syncs
         << ", \"reader_qps\": " << p.reader_qps
         << ", \"queries\": " << p.queries
         << ", \"reader_p50_ms\": " << p.reader_p50_ms
         << ", \"reader_p99_ms\": " << p.reader_p99_ms
         << ", \"reader_lock_wait_mean_ms\": " << p.lock_wait_mean_ms
         << ", \"reader_lock_wait_p99_ms\": " << p.lock_wait_p99_ms
         << ", \"hold_tree_mean_ms\": " << p.hold_tree_ms
         << ", \"hold_tree_count\": " << p.holds_tree
         << ", \"hold_install_mean_ms\": " << p.hold_install_ms
         << ", \"hold_install_count\": " << p.holds_install
         << ", \"hold_locked_mean_ms\": " << p.hold_locked_ms
         << ", \"hold_locked_count\": " << p.holds_locked << "}"
         << (i + 1 < phases.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"forced_group\": {\"writers\": " << forced_writers
       << ", \"group_size\": " << forced_group
       << ", \"fsyncs\": " << forced_syncs << "},\n  \"final_rows\": "
       << final_rows << ",\n  \"expected_rows\": " << expected_rows << "\n}\n";
  json.close();
  std::printf("wrote BENCH_ingest.json\n");
  cleanup();

  // Smoke gates (scripts/ci.sh `ingest` phase).
  if (failures.load() > 0 || not_durable.load() > 0) {
    std::fprintf(stderr, "FAIL: %llu failed operations, %llu non-durable acks\n",
                 static_cast<unsigned long long>(failures.load()),
                 static_cast<unsigned long long>(not_durable.load()));
    return 1;
  }
  if (final_rows != expected_rows) {
    std::fprintf(stderr, "FAIL: %llu rows after drain, expected %llu\n",
                 static_cast<unsigned long long>(final_rows),
                 static_cast<unsigned long long>(expected_rows));
    return 1;
  }
  if (forced_group < forced_writers || forced_syncs != 1) {
    std::fprintf(stderr,
                 "FAIL: %u barriered writers got group %u over %llu fsyncs "
                 "(want %u over 1)\n",
                 forced_writers, forced_group,
                 static_cast<unsigned long long>(forced_syncs),
                 forced_writers);
    return 1;
  }
  // The Apply phases only coalesce when commits genuinely overlap, which a
  // single-core machine may never produce — gate there, report here.
  if (std::thread::hardware_concurrency() >= 2 && writers >= 2 &&
      phases[0].max_group < 2) {
    std::fprintf(stderr,
                 "FAIL: %zu concurrent writers never formed a commit group\n",
                 writers);
    return 1;
  }
  if (phases[1].queries == 0 && readers > 0) {
    std::fprintf(stderr, "FAIL: no queries completed during ingest\n");
    return 1;
  }
  return 0;
}
