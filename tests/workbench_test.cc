// End-to-end workbench tests: the assembled stack answers queries, and the
// I/O accounting matches the paper's qualitative claims (SSig << SBlock,
// signature expands fewer blocks than domination, P-Cube smaller than
// R-tree).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/metrics.h"
#include "data/generators.h"
#include "query/reference.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

std::unique_ptr<Workbench> MakeWorkbench(uint64_t n, uint64_t seed) {
  SyntheticConfig config;
  config.num_tuples = n;
  config.num_bool = 3;
  config.num_pref = 3;
  config.bool_cardinality = 100;  // the paper's default C
  config.seed = seed;
  WorkbenchOptions options;
  auto wb = Workbench::Build(GenerateSynthetic(config), options);
  PCUBE_CHECK(wb.ok());
  return std::move(*wb);
}

TEST(WorkbenchTest, EndToEndSkylineAndTopK) {
  auto wb = MakeWorkbench(20000, 700);
  PredicateSet preds{{0, 42}};
  auto sky = wb->SignatureSkyline(preds);
  ASSERT_TRUE(sky.ok());
  std::vector<TupleId> tids;
  for (const auto& e : sky->skyline) tids.push_back(e.id);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(tids, NaiveSkyline(wb->data(), preds));

  LinearRanking f({0.2, 0.5, 0.3});
  auto topk = wb->SignatureTopK(preds, f, 10);
  ASSERT_TRUE(topk.ok());
  auto naive = NaiveTopK(wb->data(), preds, f, 10);
  ASSERT_EQ(topk->results.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(topk->results[i].key, naive[i].second, 1e-9);
  }
}

TEST(WorkbenchTest, SignatureLoadIsSmallFractionOfIo) {
  // Paper §V.A / Fig. 9: Csig << CR-tree (they report <= 1%; we allow 30%
  // at this much smaller scale).
  auto wb = MakeWorkbench(30000, 701);
  ASSERT_TRUE(wb->ColdStart().ok());
  auto out = wb->SignatureSkyline({{1, 7}});
  ASSERT_TRUE(out.ok());
  IoStats io = wb->IoSince();
  EXPECT_GT(io.ReadCount(IoCategory::kRtreeBlock), 0u);
  EXPECT_LT(io.ReadCount(IoCategory::kSignature),
            std::max<uint64_t>(1, io.ReadCount(IoCategory::kRtreeBlock)));
}

TEST(WorkbenchTest, SignatureBeatsDominationOnBlocksAndHeap) {
  auto wb = MakeWorkbench(30000, 702);
  PredicateSet preds{{0, 3}};

  ASSERT_TRUE(wb->ColdStart().ok());
  auto sig = wb->SignatureSkyline(preds);
  ASSERT_TRUE(sig.ok());

  ASSERT_TRUE(wb->ColdStart().ok());
  auto dom = DominationFirstSkyline(*wb->tree(), *wb->table(), preds);
  ASSERT_TRUE(dom.ok());

  EXPECT_LE(sig->counters.nodes_expanded, dom->counters.nodes_expanded);
  EXPECT_LE(sig->counters.heap_peak, dom->counters.heap_peak);
}

TEST(WorkbenchTest, MaterializedSizesOrdering) {
  // Fig. 6's essential claim: the P-Cube is much smaller than both the
  // boolean B+-trees and the R-tree. (The paper additionally has B+-trees <
  // R-tree; our B+-tree entries are 16 B where 2008-era ones were ~8 B, so
  // the two are within ~20% of each other here.)
  auto wb = MakeWorkbench(30000, 703);
  uint64_t rtree_pages = wb->tree()->num_pages();
  uint64_t btree_pages = 0;
  for (const auto& index : wb->indices()) btree_pages += index.num_pages();
  uint64_t pcube_pages = wb->cube()->MaterializedPages();
  EXPECT_LT(pcube_pages, btree_pages / 2);
  EXPECT_LT(pcube_pages, rtree_pages / 2);
}

TEST(WorkbenchTest, ColdStartResetsAccounting) {
  auto wb = MakeWorkbench(5000, 704);
  ASSERT_TRUE(wb->ColdStart().ok());
  IoStats none = wb->IoSince();
  EXPECT_EQ(none.TotalReads(), 0u);
  ASSERT_TRUE(wb->SignatureSkyline({{0, 1}}).ok());
  EXPECT_GT(wb->IoSince().TotalReads(), 0u);
  ASSERT_TRUE(wb->ColdStart().ok());
  EXPECT_EQ(wb->IoSince().TotalReads(), 0u);
}

TEST(WorkbenchTest, QueryEntryPointsRecordOneReaderLockWait) {
  // pcube_struct_lock_wait_seconds{side="reader"} gets exactly one
  // observation per query: the wait for the structure lock.
  auto wb = MakeWorkbench(2000, 705);
  const Histogram* wait = MetricsRegistry::Default().GetHistogram(
      "pcube_struct_lock_wait_seconds{side=\"reader\"}");
  uint64_t before = wait->Count();
  ASSERT_TRUE(wb->RunShared(QueryRequest::Skyline({{0, 1}})).ok());
  EXPECT_EQ(wait->Count(), before + 1);
  before = wait->Count();
  ASSERT_TRUE(wb->Run(QueryRequest::Skyline({{0, 2}})).ok());
  EXPECT_EQ(wait->Count(), before + 1);
  before = wait->Count();
  ASSERT_TRUE(wb->Estimate({{0, 3}}).ok());
  EXPECT_EQ(wait->Count(), before + 1);
}

}  // namespace
}  // namespace pcube
