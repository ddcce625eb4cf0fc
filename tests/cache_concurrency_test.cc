// Concurrency tests for the query cache, written for TSan (scripts/ci.sh
// runs them under -fsanitize=thread): batch workers race each other on the
// shared result cache while an updater thread applies Fig. 7 incremental
// maintenance between batches, and every answer is checked against the
// naive uncached reference over the data as it was when the query ran.
//
// Locking contract: the Workbench documents that the instance must not be
// mutated while a batch runs, so readers hold a shared lock for the
// duration of a batch (plus its verification — the data must not move
// under the reference computation) and the updater takes the lock
// exclusively per maintenance step. Everything else — cache fills, epoch
// bumps vs. lookups, SLRU promotion, buffer-pool traffic — races freely.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/epoch.h"
#include "cache/result_cache.h"
#include "common/metrics.h"
#include "data/generators.h"
#include "query/reference.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Default().GetCounter(name)->Value();
}

TEST(CacheConcurrencyTest, BatchWorkersRaceIncrementalUpdates) {
  SyntheticConfig config;
  config.num_tuples = 1500;
  config.num_bool = 3;
  config.num_pref = 2;
  config.bool_cardinality = 6;
  config.seed = 31;
  auto built = Workbench::Build(GenerateSynthetic(config), {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Workbench* wb = built->get();

  // Tuples the updater inserts, pre-generated with the same schema.
  SyntheticConfig extra_config = config;
  extra_config.num_tuples = 32;
  extra_config.seed = 77;
  Dataset extra = GenerateSynthetic(extra_config);

  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.6, 0.4});
  std::vector<BatchQuery> pool;
  for (uint32_t v = 0; v < 6; ++v) {
    pool.push_back(BatchQuery::Skyline({{0, v}}));
    pool.push_back(BatchQuery::TopK({{1, v}}, f, 8));
  }

  std::shared_mutex mu;
  std::atomic<uint64_t> mismatches{0};
  std::mutex first_mu;
  std::string first_error;
  auto report = [&](const std::string& msg) {
    mismatches.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(first_mu);
    if (first_error.empty()) first_error = msg;
  };

  uint64_t hits_before = CounterValue("pcube_result_cache_hits_total") +
                         CounterValue("pcube_result_cache_containment_total");

  auto reader = [&] {
    for (int iter = 0; iter < 10; ++iter) {
      std::shared_lock<std::shared_mutex> lock(mu);
      BatchOutput out = wb->RunBatch(pool, 2);
      // Verify under the same lock: the reference must see the same data
      // snapshot the batch answered against.
      for (size_t i = 0; i < pool.size(); ++i) {
        const BatchQueryResult& r = out.results[i];
        if (!r.status.ok()) {
          report("query failed: " + r.status.ToString());
          continue;
        }
        if (pool[i].kind == BatchQuery::Kind::kSkyline) {
          if (r.response.tids != NaiveSkyline(wb->data(), pool[i].preds)) {
            report("skyline mismatch vs naive reference");
          }
        } else {
          auto naive = NaiveTopK(wb->data(), pool[i].preds, *f, pool[i].k);
          bool ok = r.response.tids.size() == naive.size();
          for (size_t j = 0; ok && j < naive.size(); ++j) {
            ok = r.response.tids[j] == naive[j].first &&
                 r.response.scores[j] == naive[j].second;
          }
          if (!ok) report("top-k mismatch vs naive reference");
        }
      }
    }
  };

  auto updater = [&] {
    for (uint64_t t = 0; t < extra.num_tuples(); ++t) {
      // The exclusive lock keeps the REFERENCE computation stable (readers
      // verify under the shared side); Apply itself needs no external
      // synchronization.
      std::unique_lock<std::shared_mutex> lock(mu);
      WriteBatch batch;
      auto bools = extra.BoolRow(t);
      auto prefs = extra.PrefPoint(t);
      batch.inserts.push_back({{bools.begin(), bools.end()},
                               {prefs.begin(), prefs.end()}});
      auto applied = wb->Apply(batch);
      if (!applied.ok()) {
        report("Apply failed: " + applied.status().ToString());
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(reader);
  threads.emplace_back(updater);
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u) << first_error;
  // Repeated identical batches must actually have exercised the cache.
  EXPECT_GT(CounterValue("pcube_result_cache_hits_total") +
                CounterValue("pcube_result_cache_containment_total"),
            hits_before);
}

TEST(CacheConcurrencyTest, AckedWriteNeverServedStaleCachedAnswer) {
  // Differential test for the write-path epoch handshake (DESIGN.md §15):
  // once Apply(Ack::kApplied) has returned, NO subsequent query — cached or
  // not — may answer from a pre-write snapshot. The writer inserts a chain
  // of tuples each strictly dominating everything before it (so the skyline
  // for the probed predicate is exactly the newest applied insert), and the
  // readers hammer the SAME request so the L1 result cache serves it
  // whenever its stamps are current; a stale cached hit would return a tid
  // OLDER than the last acknowledged insert. Runs under TSan via ci.sh.
  SyntheticConfig config;
  config.num_tuples = 400;
  config.num_bool = 1;
  config.num_pref = 2;
  config.bool_cardinality = 4;
  config.seed = 93;
  auto built = Workbench::Build(GenerateSynthetic(config), {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Workbench* wb = built->get();

  constexpr uint32_t kTargetValue = 2;
  constexpr TupleId kNone = static_cast<TupleId>(-1);
  std::atomic<TupleId> last_acked{kNone};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> stale{0};
  std::mutex first_mu;
  std::string first_error;
  auto report = [&](const std::string& msg) {
    stale.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(first_mu);
    if (first_error.empty()) first_error = msg;
  };

  auto writer = [&] {
    for (int i = 0; i < 40; ++i) {
      WriteBatch batch;  // Ack::kApplied: read-your-writes on return
      batch.inserts.push_back(
          {{kTargetValue},
           {-1.0f - static_cast<float>(i), -1.0f - static_cast<float>(i)}});
      auto applied = wb->Apply(batch);
      if (!applied.ok()) {
        report("Apply failed: " + applied.status().ToString());
        break;
      }
      last_acked.store(applied->first_tid, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  };

  auto reader = [&] {
    QueryRequest request = QueryRequest::Skyline({{0, kTargetValue}});
    while (!done.load(std::memory_order_acquire)) {
      const TupleId expect = last_acked.load(std::memory_order_acquire);
      auto resp = wb->RunShared(request);
      if (!resp.ok()) {
        report("query failed: " + resp.status().ToString());
        return;
      }
      if (expect == kNone) continue;  // nothing acknowledged yet
      // Each insert dominates every earlier tuple, so the skyline is the
      // single newest APPLIED insert; anything older than the last insert
      // acknowledged before the query began is a stale answer.
      if (resp->tids.size() != 1) {
        report("skyline size " + std::to_string(resp->tids.size()) +
               " after dominating insert");
      } else if (resp->tids[0] < expect) {
        report("stale answer: tid " + std::to_string(resp->tids[0]) +
               " but insert " + std::to_string(expect) +
               " was already acknowledged");
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(reader);
  threads.emplace_back(writer);
  for (auto& t : threads) t.join();

  EXPECT_EQ(stale.load(), 0u) << first_error;
}

TEST(CacheConcurrencyTest, ResultCacheProtocolUnderRacingBumps) {
  // Pure cache/epoch unit race: inserts, lookups and epoch bumps with no
  // external synchronization at all. Correctness here is "TSan-clean and
  // the accounting converges"; answer-level correctness is covered above
  // and in cache_test.cc.
  SyntheticConfig config;
  config.num_tuples = 64;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 8;
  config.seed = 7;
  Dataset data = GenerateSynthetic(config);

  DataEpoch epoch;
  const size_t budget = 256 * 1024;
  ResultCache cache(budget, &epoch);

  auto worker = [&](int id) {
    for (int i = 0; i < 2000; ++i) {
      uint32_t v = static_cast<uint32_t>((i + id) % 8);
      uint32_t w = static_cast<uint32_t>((i / 8) % 8);
      QueryRequest request = QueryRequest::Skyline({{0, v}, {1, w}});
      if (i % 3 == 0) {
        QueryResponse resp;
        resp.tids = {static_cast<TupleId>(i), static_cast<TupleId>(i + 1)};
        cache.Insert(request, resp, cache.SnapshotStamps(request.preds));
      } else {
        (void)cache.Find(request, data);
      }
      if (i % 64 == 0) epoch.BumpCells({AtomicCellId(0, v)});
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(worker, i);
  for (auto& t : threads) t.join();

  EXPECT_LE(cache.bytes(), budget);
}

}  // namespace
}  // namespace pcube
