// BatchExecutor tests: a concurrent batch must return exactly the results
// sequential execution returns (same skylines, same top-k, query by query),
// report per-query I/O that sums to the merged counters, and surface
// per-query failures without poisoning the batch. Run under TSan by
// scripts/ci.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "workbench/workbench.h"

namespace pcube {
namespace {

std::unique_ptr<Workbench> BuildBench(uint64_t rows,
                                      WorkbenchOptions options = {}) {
  SyntheticConfig config;
  config.num_tuples = rows;
  config.num_bool = 3;
  config.num_pref = 2;
  config.bool_cardinality = 8;
  config.seed = 7;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  PCUBE_CHECK(wb.ok()) << wb.status().ToString();
  return std::move(*wb);
}

/// Options that disable the result cache, for tests whose assertions
/// require every query to actually run its engine.
WorkbenchOptions NoCache() {
  WorkbenchOptions options;
  options.result_cache_mb = 0;
  return options;
}

std::vector<BatchQuery> MixedWorkload() {
  std::vector<BatchQuery> queries;
  auto linear = std::make_shared<LinearRanking>(std::vector<double>{1.0, 2.0});
  auto l2 = std::make_shared<WeightedL2Ranking>(
      std::vector<double>{0.5, 0.5}, std::vector<double>{1.0, 1.0});
  for (uint32_t v = 0; v < 8; ++v) {
    queries.push_back(BatchQuery::Skyline(PredicateSet{{0, v}}));
    queries.push_back(BatchQuery::TopK(PredicateSet{{1, v}}, linear, 5));
    queries.push_back(BatchQuery::TopK(PredicateSet{{2, v}}, l2, 3));
  }
  // Two-predicate queries and a predicate-free skyline for variety.
  queries.push_back(BatchQuery::Skyline(PredicateSet{{0, 1}, {1, 2}}));
  queries.push_back(BatchQuery::Skyline(PredicateSet{}));
  SkylineQueryOptions band;
  band.skyband_k = 2;
  queries.push_back(BatchQuery::Skyline(PredicateSet{{2, 3}}, band));
  return queries;
}

std::vector<TupleId> SortedIds(const std::vector<SearchEntry>& entries) {
  std::vector<TupleId> ids;
  ids.reserve(entries.size());
  for (const SearchEntry& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(BatchExecutorTest, BatchMatchesSequentialExecution) {
  auto wb = BuildBench(4000);
  std::vector<BatchQuery> queries = MixedWorkload();

  // Sequential reference answers, one engine at a time.
  std::vector<std::vector<TupleId>> expected_ids;
  std::vector<std::vector<double>> expected_scores;
  for (const BatchQuery& q : queries) {
    if (q.kind == BatchQuery::Kind::kSkyline) {
      auto probe = wb->cube()->MakeProbe(q.preds);
      ASSERT_TRUE(probe.ok());
      SkylineEngine engine(wb->tree(), probe->get(), nullptr, q.skyline);
      auto out = engine.Run();
      ASSERT_TRUE(out.ok());
      expected_ids.push_back(SortedIds(out->skyline));
      expected_scores.push_back({});
    } else {
      auto probe = wb->cube()->MakeProbe(q.preds);
      ASSERT_TRUE(probe.ok());
      TopKEngine engine(wb->tree(), probe->get(), nullptr, q.ranking.get(),
                        q.k);
      auto out = engine.Run();
      ASSERT_TRUE(out.ok());
      // Top-k is ordered; compare ids and exact scores positionally.
      std::vector<TupleId> ids;
      std::vector<double> scores;
      for (const SearchEntry& e : out->results) {
        ids.push_back(e.id);
        scores.push_back(e.key);
      }
      expected_ids.push_back(std::move(ids));
      expected_scores.push_back(std::move(scores));
    }
  }

  BatchOutput batch = wb->RunBatch(queries, /*num_workers=*/4);
  ASSERT_EQ(batch.results.size(), queries.size());
  EXPECT_EQ(batch.failed, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    const BatchQueryResult& r = batch.results[i];
    ASSERT_TRUE(r.status.ok()) << "query " << i << ": " << r.status.ToString();
    if (queries[i].kind == BatchQuery::Kind::kSkyline) {
      EXPECT_EQ(r.response.tids, expected_ids[i])
          << "skyline mismatch at query " << i;
      EXPECT_TRUE(r.response.scores.empty());
    } else {
      EXPECT_EQ(r.response.tids, expected_ids[i])
          << "top-k mismatch at query " << i;
      EXPECT_EQ(r.response.scores, expected_scores[i]);
    }
  }
}

TEST(BatchExecutorTest, RepeatedBatchesAreDeterministic) {
  auto wb = BuildBench(2000);
  std::vector<BatchQuery> queries = MixedWorkload();
  BatchOutput a = wb->RunBatch(queries, 4);
  BatchOutput b = wb->RunBatch(queries, 2);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_TRUE(a.results[i].status.ok());
    ASSERT_TRUE(b.results[i].status.ok());
    EXPECT_EQ(a.results[i].response.tids, b.results[i].response.tids);
    EXPECT_EQ(a.results[i].response.scores, b.results[i].response.scores);
  }
}

TEST(BatchExecutorTest, PerQueryIoSumsToMergedCounters) {
  auto wb = BuildBench(3000);
  ASSERT_TRUE(wb->ColdStart().ok());
  std::vector<BatchQuery> queries = MixedWorkload();
  BatchOutput batch = wb->RunBatch(queries, 4);

  IoStats merged;
  for (const BatchQueryResult& r : batch.results) merged.Merge(r.io);
  EXPECT_EQ(merged.TotalReads(), batch.io.TotalReads());
  // The batch's merged I/O is exactly what the shared pool observed since
  // the cold start: every physical read belongs to exactly one query.
  EXPECT_EQ(batch.io.TotalReads(), wb->IoSince().TotalReads());
  EXPECT_GT(batch.io.TotalReads(), 0u);
}

TEST(BatchExecutorTest, ResponsesCarryTracesAndLatencySummary) {
  // Caches off: the heap_expand assertion below requires every query to
  // run its engine, and the cache (exact hits, top-k truncation and
  // containment) can legitimately skip that for repeats and supersets.
  auto wb = BuildBench(3000, NoCache());
  std::vector<BatchQuery> queries = MixedWorkload();
  BatchOutput batch = wb->RunBatch(queries, 4);
  ASSERT_EQ(batch.failed, 0u);

  std::set<uint64_t> trace_ids;
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const QueryResponse& resp = batch.results[i].response;
    // The unified response mirrors the legacy per-result fields.
    EXPECT_EQ(resp.seconds, batch.results[i].seconds);
    EXPECT_EQ(resp.io.TotalReads(), batch.results[i].io.TotalReads());
    EXPECT_EQ(resp.estimate.choice, PlanChoice::kSignature);
    EXPECT_FALSE(resp.tids.empty()) << "query " << i;
    if (queries[i].kind == BatchQuery::Kind::kTopK) {
      EXPECT_EQ(resp.scores.size(), resp.tids.size());
    }
    // Every query ran the branch-and-bound, so every trace holds at least
    // the heap-expansion stage with nonzero time.
    EXPECT_GT(resp.trace.StageSeconds("heap_expand"), 0.0) << "query " << i;
    trace_ids.insert(resp.trace_id());
  }
  // Trace ids are process-unique — one distinct id per query.
  EXPECT_EQ(trace_ids.size(), batch.results.size());

  EXPECT_EQ(batch.latency.count, queries.size());
  EXPECT_GT(batch.latency.p50, 0.0);
  EXPECT_LE(batch.latency.p50, batch.latency.p95);
  EXPECT_LE(batch.latency.p95, batch.latency.p99);
  EXPECT_GT(batch.latency.mean, 0.0);
}

TEST(BatchExecutorTest, QueryLogGetsOneRecordPerQuery) {
  auto wb = BuildBench(2000);
  std::vector<BatchQuery> queries = MixedWorkload();
  std::ostringstream sink;
  QueryLog log(&sink);
  BatchOutput batch = wb->RunBatch(queries, 4, &log);
  ASSERT_EQ(batch.failed, 0u);
  EXPECT_EQ(log.records(), queries.size());

  std::istringstream in(sink.str());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    // Each record is one complete JSON object with the span map inside.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"trace_id\":"), std::string::npos);
    EXPECT_NE(line.find("\"spans\":"), std::string::npos);
    EXPECT_NE(line.find("\"heap_expand\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, queries.size());
}

TEST(BatchExecutorTest, PerQueryFailuresDoNotPoisonTheBatch) {
  auto wb = BuildBench(1000);
  std::vector<BatchQuery> queries;
  queries.push_back(BatchQuery::Skyline(PredicateSet{{0, 1}}));
  // Top-k with a null ranking function must fail cleanly.
  queries.push_back(BatchQuery::TopK(PredicateSet{{0, 1}}, nullptr, 5));
  queries.push_back(BatchQuery::Skyline(PredicateSet{{1, 2}}));

  BatchOutput batch = wb->RunBatch(queries, 2);
  ASSERT_EQ(batch.results.size(), 3u);
  EXPECT_EQ(batch.failed, 1u);
  EXPECT_TRUE(batch.results[0].status.ok());
  EXPECT_FALSE(batch.results[1].status.ok());
  EXPECT_TRUE(batch.results[2].status.ok());
  EXPECT_FALSE(batch.results[0].response.tids.empty());
  EXPECT_FALSE(batch.results[2].response.tids.empty());
}

}  // namespace
}  // namespace pcube
