// Query cache tests (cache/): L1 semantic result cache semantics — exact
// repeats, top-k truncation, top-k containment (filter pass), skylines
// served only by exact repeats, epoch staleness after Fig. 7 incremental
// maintenance, capacity eviction — the same reuse through Workbench::Run
// and RunShared — plus plan-hint bypass and the corruption regression:
// degraded answers must never populate the result cache.
// Run under TSan and ASan by scripts/ci.sh.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/epoch.h"
#include "cache/result_cache.h"
#include "common/metrics.h"
#include "data/generators.h"
#include "query/reference.h"
#include "workbench/planner.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Default().GetCounter(name)->Value();
}

std::unique_ptr<Workbench> BuildBench(WorkbenchOptions options = {},
                                      uint64_t rows = 4000) {
  SyntheticConfig config;
  config.num_tuples = rows;
  config.num_bool = 3;
  config.num_pref = 2;
  config.bool_cardinality = 8;
  config.seed = 11;
  auto wb = Workbench::Build(GenerateSynthetic(config), std::move(options));
  PCUBE_CHECK(wb.ok()) << wb.status().ToString();
  return std::move(*wb);
}

/// Appends one tuple through the write path (Apply routes it into the
/// Fig. 7 incremental maintenance, falling back to a rebuild when the root
/// splits, which invalidates everything anyway).
void InsertTuple(Workbench* wb, std::vector<uint32_t> bool_row,
                 std::vector<float> pref) {
  WriteBatch batch;
  batch.inserts.push_back({std::move(bool_row), std::move(pref)});
  auto result = wb->Apply(batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

// --------------------------------------------------------------- L1 basics

TEST(ResultCacheTest, ExactSkylineRepeatHitsByteIdentical) {
  auto wb = BuildBench();
  QueryPlanner planner(wb.get());
  PredicateSet preds{{0, 3}};
  QueryRequest request = QueryRequest::Skyline(preds);

  auto r1 = planner.Run(request);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->cache, CacheOutcome::kMiss);
  EXPECT_EQ(r1->tids, NaiveSkyline(wb->data(), preds));
  EXPECT_EQ(wb->result_cache()->entries(), 1u);

  auto r2 = planner.Run(request);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->cache, CacheOutcome::kHit);
  EXPECT_EQ(r2->tids, r1->tids);
  // A hit reports the plan that produced the entry and does no page I/O.
  EXPECT_EQ(r2->estimate.choice, r1->estimate.choice);
  EXPECT_EQ(r2->io.TotalReads(), 0u);
}

TEST(ResultCacheTest, ExactTopKRepeatHitsByteIdentical) {
  auto wb = BuildBench();
  QueryPlanner planner(wb.get());
  PredicateSet preds{{1, 5}};
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.7, 0.3});
  QueryRequest request = QueryRequest::TopK(preds, f, 10);

  auto r1 = planner.Run(request);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->cache, CacheOutcome::kMiss);
  auto naive = NaiveTopK(wb->data(), preds, *f, 10);
  ASSERT_EQ(r1->tids.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(r1->tids[i], naive[i].first);
    EXPECT_DOUBLE_EQ(r1->scores[i], naive[i].second);
  }

  auto r2 = planner.Run(request);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->cache, CacheOutcome::kHit);
  EXPECT_EQ(r2->tids, r1->tids);
  EXPECT_EQ(r2->scores, r1->scores);  // bit-exact, not approximately equal
}

TEST(ResultCacheTest, TopKTruncationServesSmallerK) {
  auto wb = BuildBench();
  QueryPlanner planner(wb.get());
  PredicateSet preds{{2, 2}};
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.5, 0.5});

  auto r10 = planner.Run(QueryRequest::TopK(preds, f, 10));
  ASSERT_TRUE(r10.ok()) << r10.status().ToString();
  EXPECT_EQ(r10->cache, CacheOutcome::kMiss);

  // Smaller k: answered by prefix of the cached 10-list.
  auto r4 = planner.Run(QueryRequest::TopK(preds, f, 4));
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  EXPECT_EQ(r4->cache, CacheOutcome::kHit);
  ASSERT_EQ(r4->tids.size(), 4u);
  EXPECT_EQ(r4->tids,
            std::vector<TupleId>(r10->tids.begin(), r10->tids.begin() + 4));
  EXPECT_EQ(r4->scores,
            std::vector<double>(r10->scores.begin(), r10->scores.begin() + 4));

  // Larger k cannot be served (the entry was cut off at 10): re-executes
  // and replaces the family's entry.
  auto r16 = planner.Run(QueryRequest::TopK(preds, f, 16));
  ASSERT_TRUE(r16.ok()) << r16.status().ToString();
  EXPECT_EQ(r16->cache, CacheOutcome::kMiss);
  ASSERT_EQ(r16->tids.size(), 16u);

  // The replaced entry serves both the exact repeat and the original k.
  auto again16 = planner.Run(QueryRequest::TopK(preds, f, 16));
  ASSERT_TRUE(again16.ok());
  EXPECT_EQ(again16->cache, CacheOutcome::kHit);
  auto again10 = planner.Run(QueryRequest::TopK(preds, f, 10));
  ASSERT_TRUE(again10.ok());
  EXPECT_EQ(again10->cache, CacheOutcome::kHit);
  EXPECT_EQ(again10->tids, r10->tids);
}

TEST(ResultCacheTest, ExhaustedTopKAnswersAnyLargerK) {
  auto wb = BuildBench();
  QueryPlanner planner(wb.get());
  // Two predicates match ~ rows / 64 tuples, far fewer than k: the run
  // returns every matching tuple and the entry is marked exhausted.
  PredicateSet preds{{0, 3}, {1, 5}};
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.4, 0.6});

  auto all = planner.Run(QueryRequest::TopK(preds, f, 10000));
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->cache, CacheOutcome::kMiss);
  ASSERT_LT(all->tids.size(), 10000u);  // ran dry — the list is complete

  // An exhaustive list answers any k, including one above the entry's.
  auto more = planner.Run(QueryRequest::TopK(preds, f, 20000));
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_EQ(more->cache, CacheOutcome::kHit);
  EXPECT_EQ(more->tids, all->tids);
}

// --------------------------------------------------------- L1 containment

TEST(ResultCacheTest, NarrowSkylineAfterBroadOneRunsFresh) {
  auto wb = BuildBench();
  QueryPlanner planner(wb.get());
  PredicateSet broad{{0, 3}};
  PredicateSet narrow{{0, 3}, {1, 5}};

  auto base = planner.Run(QueryRequest::Skyline(broad));
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->cache, CacheOutcome::kMiss);

  uint64_t containment_before =
      CounterValue("pcube_result_cache_containment_total");
  auto narrowed = planner.Run(QueryRequest::Skyline(narrow));
  ASSERT_TRUE(narrowed.ok()) << narrowed.status().ToString();
  // A cached skyline never answers a narrower query: filtering the broad
  // skyline would lose tuples whose dominators stop qualifying.
  EXPECT_EQ(narrowed->cache, CacheOutcome::kMiss);
  EXPECT_EQ(CounterValue("pcube_result_cache_containment_total"),
            containment_before);
  EXPECT_EQ(narrowed->tids, NaiveSkyline(wb->data(), narrow));

  // The fresh answer was published: the narrow query now hits exactly.
  auto repeat = planner.Run(QueryRequest::Skyline(narrow));
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->cache, CacheOutcome::kHit);
  EXPECT_EQ(repeat->tids, narrowed->tids);
}

TEST(ResultCacheTest, TopKContainmentFiltersCachedList) {
  auto wb = BuildBench();
  QueryPlanner planner(wb.get());
  PredicateSet broad{{0, 3}};
  PredicateSet narrow{{0, 3}, {1, 5}};
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.3, 0.7});

  auto base = planner.Run(QueryRequest::TopK(broad, f, 60));
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->cache, CacheOutcome::kMiss);

  // The cached 60-list filtered by the extra predicate must keep >= 2
  // survivors for the reuse to be sound; the fixed seed guarantees it.
  auto narrow_naive = NaiveTopK(wb->data(), narrow, *f, 2);
  ASSERT_EQ(narrow_naive.size(), 2u);
  auto filtered = planner.Run(QueryRequest::TopK(narrow, f, 2));
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_EQ(filtered->cache, CacheOutcome::kContainment);
  ASSERT_EQ(filtered->tids.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(filtered->tids[i], narrow_naive[i].first);
    EXPECT_DOUBLE_EQ(filtered->scores[i], narrow_naive[i].second);
  }
}

// ------------------------------------- RunShared (the network server path)

TEST(ResultCacheTest, RunSharedServesSmallerKByTruncation) {
  auto wb = BuildBench();
  PredicateSet preds{{2, 2}};
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.5, 0.5});

  auto r10 = wb->RunShared(QueryRequest::TopK(preds, f, 10));
  ASSERT_TRUE(r10.ok()) << r10.status().ToString();
  EXPECT_EQ(r10->cache, CacheOutcome::kMiss);
  ASSERT_EQ(r10->tids.size(), 10u);

  auto r5 = wb->RunShared(QueryRequest::TopK(preds, f, 5));
  ASSERT_TRUE(r5.ok()) << r5.status().ToString();
  EXPECT_EQ(r5->cache, CacheOutcome::kHit);
  EXPECT_EQ(r5->tids,
            std::vector<TupleId>(r10->tids.begin(), r10->tids.begin() + 5));
  EXPECT_EQ(r5->scores,
            std::vector<double>(r10->scores.begin(), r10->scores.begin() + 5));

  // The k = 5 answer came from the k = 10 entry and did not replace it.
  auto again10 = wb->RunShared(QueryRequest::TopK(preds, f, 10));
  ASSERT_TRUE(again10.ok()) << again10.status().ToString();
  EXPECT_EQ(again10->cache, CacheOutcome::kHit);
  EXPECT_EQ(again10->tids, r10->tids);
  EXPECT_EQ(again10->scores, r10->scores);
}

TEST(ResultCacheTest, RunSharedFiltersCachedTopKForNarrowerPredicates) {
  auto wb = BuildBench();
  PredicateSet broad{{0, 3}};
  PredicateSet narrow{{0, 3}, {1, 5}};
  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.3, 0.7});

  auto base = wb->RunShared(QueryRequest::TopK(broad, f, 60));
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->cache, CacheOutcome::kMiss);

  auto naive = NaiveTopK(wb->data(), narrow, *f, 2);
  ASSERT_EQ(naive.size(), 2u);
  auto filtered = wb->RunShared(QueryRequest::TopK(narrow, f, 2));
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_EQ(filtered->cache, CacheOutcome::kContainment);
  ASSERT_EQ(filtered->tids.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(filtered->tids[i], naive[i].first);
    EXPECT_EQ(filtered->scores[i], naive[i].second);
  }
}

TEST(ResultCacheTest, RunSharedEntrySurvivesInsertOutsideItsCell) {
  auto wb = BuildBench();
  PredicateSet preds{{0, 3}};
  QueryRequest request = QueryRequest::Skyline(preds);

  auto cold = wb->RunShared(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->cache, CacheOutcome::kMiss);

  // The new row is in cell (0,4), not (0,3). The R-tree changes, but the
  // tuples the cached answer ranges over do not.
  const uint64_t cell_epoch = wb->epoch()->OfCell(AtomicCellId(0, 3));
  ASSERT_NO_FATAL_FAILURE(InsertTuple(wb.get(), {4, 1, 2}, {0.001f, 0.001f}));
  ASSERT_EQ(wb->epoch()->OfCell(AtomicCellId(0, 3)), cell_epoch)
      << "the insert moved tuples of cell (0,3); pick another row";

  auto after = wb->RunShared(request);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->cache, CacheOutcome::kHit);
  EXPECT_EQ(after->tids, cold->tids);
  EXPECT_EQ(after->tids, NaiveSkyline(wb->data(), preds));
}

// ------------------------------------------------------ epoch invalidation

TEST(ResultCacheTest, IncrementalInsertInvalidatesAffectedEntries) {
  auto wb = BuildBench();
  QueryPlanner planner(wb.get());
  PredicateSet preds{{0, 3}};
  QueryRequest request = QueryRequest::Skyline(preds);

  ASSERT_TRUE(planner.Run(request).ok());
  auto warm = planner.Run(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache, CacheOutcome::kHit);

  // Fig. 7 maintenance: the new tuple lands in cell (0,3), bumping its
  // epoch; the cached entry must not survive.
  ASSERT_NO_FATAL_FAILURE(InsertTuple(wb.get(), {3, 1, 2}, {0.001f, 0.001f}));

  uint64_t stale_before = CounterValue("pcube_result_cache_stale_total");
  auto after = planner.Run(request);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after->cache, CacheOutcome::kHit);
  EXPECT_EQ(CounterValue("pcube_result_cache_stale_total"), stale_before + 1);
  // The re-executed answer sees the new tuple (its point is near the
  // origin, so it must enter this skyline).
  EXPECT_EQ(after->tids, NaiveSkyline(wb->data(), preds));
  EXPECT_NE(after->tids, warm->tids);

  auto rewarmed = planner.Run(request);
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_EQ(rewarmed->cache, CacheOutcome::kHit);
}

TEST(ResultCacheUnitTest, OnlyAffectedCellsGoStale) {
  SyntheticConfig config;
  config.num_tuples = 64;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 8;
  config.seed = 7;
  Dataset data = GenerateSynthetic(config);

  DataEpoch epoch;
  ResultCache cache(1 << 20, &epoch);
  QueryRequest qa = QueryRequest::Skyline({{0, 3}});
  QueryRequest qb = QueryRequest::Skyline({{0, 4}});
  QueryResponse resp;
  resp.tids = {1, 2, 3};
  cache.Insert(qa, resp, cache.SnapshotStamps(qa.preds));
  cache.Insert(qb, resp, cache.SnapshotStamps(qb.preds));
  EXPECT_EQ(cache.Find(qa, data).outcome, CacheOutcome::kHit);
  EXPECT_EQ(cache.Find(qb, data).outcome, CacheOutcome::kHit);

  epoch.BumpCells({AtomicCellId(0, 3)});

  // qa's footprint was bumped — lazily evicted; qb's cell was not touched,
  // so its answer stays valid (tids don't depend on the tree shape).
  EXPECT_EQ(cache.Find(qa, data).outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cache.Find(qb, data).outcome, CacheOutcome::kHit);
  EXPECT_EQ(cache.entries(), 1u);
}

// ------------------------------------------------------- capacity / bypass

TEST(ResultCacheUnitTest, EvictionKeepsBytesWithinBudget) {
  SyntheticConfig config;
  config.num_tuples = 64;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 8;
  config.seed = 7;
  Dataset data = GenerateSynthetic(config);

  DataEpoch epoch;
  const size_t budget = 64 * 1024;
  ResultCache cache(budget, &epoch);
  uint64_t evictions_before = CounterValue("pcube_result_cache_evictions_total");

  QueryResponse fat;
  fat.tids.resize(500);  // ~4 KiB per entry; 64 entries overflow the budget
  for (size_t i = 0; i < fat.tids.size(); ++i) fat.tids[i] = i;
  QueryRequest last;
  for (uint32_t v = 0; v < 8; ++v) {
    for (uint32_t w = 0; w < 8; ++w) {
      last = QueryRequest::Skyline({{0, v}, {1, w}});
      cache.Insert(last, fat, cache.SnapshotStamps(last.preds));
    }
  }
  EXPECT_LE(cache.bytes(), budget);
  EXPECT_LT(cache.entries(), 64u);
  EXPECT_GT(CounterValue("pcube_result_cache_evictions_total"),
            evictions_before);
  // The most recent insert is MRU of its shard and must have survived.
  EXPECT_EQ(cache.Find(last, data).outcome, CacheOutcome::kHit);
}

TEST(ResultCacheTest, ForcedPlanHintBypassesBothDirections) {
  auto wb = BuildBench();
  QueryPlanner planner(wb.get());
  QueryRequest request = QueryRequest::Skyline({{0, 3}});
  request.hint = PlanHint::kSignature;

  uint64_t bypass_before = CounterValue("pcube_result_cache_bypass_total");
  auto r1 = planner.Run(request);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->cache, CacheOutcome::kBypass);
  auto r2 = planner.Run(request);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->cache, CacheOutcome::kBypass);  // never served from cache
  EXPECT_EQ(CounterValue("pcube_result_cache_bypass_total"),
            bypass_before + 2);
  EXPECT_EQ(wb->result_cache()->entries(), 0u);  // ...and never published

  // The auto-plan query finds nothing cached.
  auto r3 = planner.Run(QueryRequest::Skyline({{0, 3}}));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->cache, CacheOutcome::kMiss);
  EXPECT_EQ(r3->tids, r1->tids);
}

TEST(ResultCacheTest, DisabledCacheLeavesQueriesUntouched) {
  WorkbenchOptions options;
  options.result_cache_mb = 0;
  auto wb = BuildBench(std::move(options));
  EXPECT_EQ(wb->result_cache(), nullptr);
  QueryPlanner planner(wb.get());
  auto r1 = planner.Run(QueryRequest::Skyline({{0, 3}}));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->cache, CacheOutcome::kNone);
  auto r2 = planner.Run(QueryRequest::Skyline({{0, 3}}));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->cache, CacheOutcome::kNone);
  EXPECT_EQ(r2->tids, r1->tids);
}

// ------------------------------------------------- degradation regression

/// Flips one byte of every signature data page BELOW the checksum layer
/// (same fault as fault_injection_test.cc) so signature reads fail and the
/// planner degrades to the boolean-first plan.
void CorruptSignaturePages(Workbench* wb) {
  ASSERT_NE(wb->checksums(), nullptr);
  PageManager* below = wb->checksums()->inner();
  auto pages = wb->cube()->store().DataPages();
  ASSERT_TRUE(pages.ok()) << pages.status().ToString();
  ASSERT_FALSE(pages->empty());
  for (PageId pid : *pages) {
    Page page;
    ASSERT_TRUE(below->Read(pid, &page).ok());
    page.data()[17] ^= 0xFF;
    ASSERT_TRUE(below->Write(pid, page).ok());
  }
}

TEST(ResultCacheTest, DegradedAnswersAreNeverCached) {
  // PR 3's corruption gate with the cache ENABLED: a boolean-first answer
  // computed around corrupt signature pages must not be published — it
  // would outlive the corruption and mask it from later queries.
  auto wb = BuildBench();
  ASSERT_NO_FATAL_FAILURE(CorruptSignaturePages(wb.get()));
  ASSERT_TRUE(wb->ColdStart().ok());

  QueryPlanner planner(wb.get());
  PredicateSet preds{{0, 3}};
  uint64_t inserts_before = CounterValue("pcube_result_cache_inserts_total");

  auto r1 = planner.Run(QueryRequest::Skyline(preds));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1->degraded);
  EXPECT_EQ(r1->cache, CacheOutcome::kMiss);
  EXPECT_EQ(r1->tids, NaiveSkyline(wb->data(), preds));
  EXPECT_EQ(wb->result_cache()->entries(), 0u);

  // The repeat must degrade again — not hit a cached degraded answer.
  auto r2 = planner.Run(QueryRequest::Skyline(preds));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(r2->degraded);
  EXPECT_EQ(r2->cache, CacheOutcome::kMiss);
  EXPECT_EQ(r2->tids, r1->tids);
  EXPECT_EQ(wb->result_cache()->entries(), 0u);
  EXPECT_EQ(CounterValue("pcube_result_cache_inserts_total"), inserts_before);
}

}  // namespace
}  // namespace pcube
