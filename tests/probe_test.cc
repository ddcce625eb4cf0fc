// Unit tests for the BooleanProbe family and the TupleVerifier.
#include <gtest/gtest.h>

#include "baselines/index_merge.h"
#include "common/random.h"
#include "core/pcube.h"
#include "data/generators.h"
#include "query/verifier.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

TEST(ProbeTest, TrueProbePassesEverything) {
  TrueProbe probe;
  EXPECT_TRUE(*probe.Test({1, 2, 3}));
  EXPECT_TRUE(*probe.TestData({1}, 42));
  EXPECT_TRUE(probe.exact());
  EXPECT_EQ(probe.partials_loaded(), 0u);
}

TEST(ProbeTest, RidSetProbeFiltersOnlyTuples) {
  RidSetProbe probe({5, 7, 9});
  EXPECT_TRUE(*probe.Test({1, 1}));  // nodes always pass
  EXPECT_TRUE(*probe.TestData({1, 1, 1}, 5));
  EXPECT_FALSE(*probe.TestData({1, 1, 2}, 6));
  EXPECT_TRUE(*probe.TestData({2, 2, 2}, 9));
}

class ProbeFixture : public ::testing::Test {
 protected:
  ProbeFixture() {
    SyntheticConfig config;
    config.num_tuples = 2000;
    config.num_bool = 2;
    config.num_pref = 2;
    config.bool_cardinality = 3;
    config.seed = 501;
    WorkbenchOptions options;
    options.rtree.max_entries = 8;
    options.pcube.build_bloom = true;
    auto wb = Workbench::Build(GenerateSynthetic(config), options);
    PCUBE_CHECK(wb.ok());
    wb_ = std::move(*wb);
  }

  std::unique_ptr<Workbench> wb_;
};

TEST_F(ProbeFixture, SignatureProbeAndsItsCursors) {
  PredicateSet both{{0, 1}, {1, 2}};
  auto combined = wb_->cube()->MakeProbe(both);
  ASSERT_TRUE(combined.ok());
  auto a = wb_->cube()->MakeProbe({{0, 1}});
  auto b = wb_->cube()->MakeProbe({{1, 2}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Random rng(502);
  int levels = wb_->cube()->levels();
  uint32_t m = wb_->cube()->fanout();
  for (int i = 0; i < 1000; ++i) {
    size_t len = 1 + rng.Uniform(levels);
    Path p(len);
    for (auto& s : p) s = static_cast<uint16_t>(1 + rng.Uniform(m));
    auto rc = (*combined)->Test(p);
    auto ra = (*a)->Test(p);
    auto rb = (*b)->Test(p);
    ASSERT_TRUE(rc.ok());
    EXPECT_EQ(*rc, *ra && *rb) << PathToString(p);
  }

  // Node-at-a-time: at every R-tree node the fused probe's FilterChildren
  // mask is the AND of the single-predicate probes' masks. A probe is asked
  // about a node only when the node passes it (FilterChildren's
  // precondition); a node that fails contributes the empty mask.
  const RStarTree& tree = *wb_->tree();
  auto mask = [](BooleanProbe* probe, const Path& path, const NodeView& node) {
    ChildMask m;
    for (uint32_t s = 0; s < node.max_entries(); ++s) {
      if (node.Valid(s)) m.Set(s);
    }
    if (!path.empty()) {
      auto pass = probe->Test(path);
      PCUBE_CHECK(pass.ok()) << pass.status().ToString();
      if (!*pass) return ChildMask();
    }
    PCUBE_CHECK_OK(probe->FilterChildren(path, node, &m));
    return m;
  };
  std::vector<std::pair<PageId, Path>> stack = {{tree.root(), Path()}};
  size_t nodes = 0;
  size_t surviving = 0;
  while (!stack.empty()) {
    auto [pid, path] = stack.back();
    stack.pop_back();
    auto handle = tree.ReadNode(pid);
    ASSERT_TRUE(handle.ok());
    NodeView node(handle->get(), tree.dims());
    const ChildMask fused = mask(combined->get(), path, node);
    const ChildMask ma = mask(a->get(), path, node);
    const ChildMask mb = mask(b->get(), path, node);
    ++nodes;
    for (uint32_t s = 0; s < node.max_entries(); ++s) {
      if (!node.Valid(s)) continue;
      EXPECT_EQ(fused.Get(s), ma.Get(s) && mb.Get(s))
          << PathToString(path) << " slot " << s;
      surviving += fused.Get(s);
      if (node.is_leaf()) continue;
      Path child = path;
      child.push_back(static_cast<uint16_t>(s + 1));
      stack.emplace_back(node.GetId(s), child);
    }
  }
  EXPECT_GT(nodes, 1u);
  EXPECT_GT(surviving, 0u);
}

TEST_F(ProbeFixture, SignatureProbeCountsPartialLoads) {
  auto probe = wb_->cube()->MakeProbe({{0, 0}, {1, 0}});
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ((*probe)->partials_loaded(), 0u);
  ASSERT_TRUE((*probe)->Test({1}).ok());
  EXPECT_GE((*probe)->partials_loaded(), 1u);
  EXPECT_TRUE((*probe)->exact());
}

TEST_F(ProbeFixture, BloomProbeNotExactButNeverFalseNegative) {
  PredicateSet preds{{0, 2}};
  auto bloom = wb_->cube()->MakeBloomProbe(preds);
  ASSERT_TRUE(bloom.ok());
  EXPECT_FALSE((*bloom)->exact());
  auto exact = wb_->cube()->MakeProbe(preds);
  ASSERT_TRUE(exact.ok());
  Random rng(503);
  int levels = wb_->cube()->levels();
  uint32_t m = wb_->cube()->fanout();
  for (int i = 0; i < 1000; ++i) {
    size_t len = 1 + rng.Uniform(levels);
    Path p(len);
    for (auto& s : p) s = static_cast<uint16_t>(1 + rng.Uniform(m));
    if (*(*exact)->Test(p)) {
      EXPECT_TRUE(*(*bloom)->Test(p)) << PathToString(p);
    }
  }
}

TEST_F(ProbeFixture, VerifierChecksAgainstHeapFile) {
  PredicateSet preds{{0, 1}};
  TupleVerifier verifier(wb_->table(), preds);
  int verified_true = 0;
  for (TupleId t = 0; t < 200; ++t) {
    auto r = verifier.Verify(t);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, wb_->data().BoolValue(t, 0) == 1u);
    if (*r) ++verified_true;
  }
  EXPECT_GT(verified_true, 0);
  // Verification I/O lands in the DBool category.
  ASSERT_TRUE(wb_->ColdStart().ok());
  ASSERT_TRUE(verifier.Verify(0).ok());
  EXPECT_EQ(wb_->IoSince().ReadCount(IoCategory::kBooleanVerify), 1u);
  // Out-of-range tuples fail cleanly.
  EXPECT_FALSE(verifier.Verify(999999).ok());
}

TEST_F(ProbeFixture, EmptyCellProbePrunesAll) {
  // Cardinality is 3; value 2 exists, value 99 cannot.
  Schema schema = wb_->data().schema();
  (void)schema;
  auto probe = wb_->cube()->MakeProbe({{0, 99}});
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(*(*probe)->Test({1}));
  EXPECT_FALSE(*(*probe)->Test({1, 1, 1}));
}

}  // namespace
}  // namespace pcube
