// Differential test of node-at-a-time boolean pruning (DESIGN.md §17).
// Every query runs on two identically built workbenches: once over the
// probe PCube::MakeProbe returns, whose FilterChildren answers all children
// of an expanded node from the parent's one signature array, and once over
// a forwarding decorator that overrides only Test/TestData, so the engines
// take BooleanProbe's per-child default. The answers, the Lemma 2 lists
// (id, path, key and order), every engine counter except sig_seconds, and
// the partial-signature loads must agree exactly. A third run of each
// query with set_keep_seeds(false), as the served paths run it, must give
// the same answer and counters with empty lists.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "query/incremental.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

/// Forwards Test/TestData only: FilterChildren stays the per-child default.
class ForwardingProbe : public BooleanProbe {
 public:
  explicit ForwardingProbe(BooleanProbe* inner) : inner_(inner) {}

  Result<bool> Test(const Path& path) override { return inner_->Test(path); }
  Result<bool> TestData(const Path& path, TupleId tid) override {
    return inner_->TestData(path, tid);
  }
  bool exact() const override { return inner_->exact(); }
  uint64_t partials_loaded() const override {
    return inner_->partials_loaded();
  }

 private:
  BooleanProbe* inner_;
};

void ExpectSameEntries(const std::vector<SearchEntry>& node_at_a_time,
                       const std::vector<SearchEntry>& per_child,
                       const std::string& what) {
  ASSERT_EQ(node_at_a_time.size(), per_child.size()) << what;
  for (size_t i = 0; i < per_child.size(); ++i) {
    const SearchEntry& a = node_at_a_time[i];
    const SearchEntry& b = per_child[i];
    ASSERT_EQ(a.id, b.id) << what << " #" << i;
    ASSERT_EQ(a.is_data, b.is_data) << what << " #" << i;
    ASSERT_EQ(a.path, b.path) << what << " #" << i << ": "
                              << PathToString(a.path) << " vs "
                              << PathToString(b.path);
    ASSERT_EQ(a.key, b.key) << what << " #" << i;
  }
}

void ExpectSameCounters(const EngineCounters& a, const EngineCounters& b,
                        const std::string& what) {
  EXPECT_EQ(a.heap_peak, b.heap_peak) << what;
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded) << what;
  EXPECT_EQ(a.pruned_boolean, b.pruned_boolean) << what;
  EXPECT_EQ(a.pruned_preference, b.pruned_preference) << what;
  EXPECT_EQ(a.verified, b.verified) << what;
  EXPECT_EQ(a.verify_failed, b.verify_failed) << what;
}

struct InstanceParam {
  const char* name;
  uint32_t max_entries;  // 0 = page-derived fanout
  int materialize_max_dims;
};

constexpr int kNumBool = 3;
constexpr int kNumPref = 3;
constexpr uint32_t kCardinality = 4;

/// Two workbenches over the same relation; each query runs on both.
class FilterChildrenTest : public ::testing::TestWithParam<InstanceParam> {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.num_tuples = 6000;
    config.num_bool = kNumBool;
    config.num_pref = kNumPref;
    config.bool_cardinality = kCardinality;
    config.seed = 1417;
    WorkbenchOptions options;
    options.rtree.max_entries = GetParam().max_entries;
    options.pcube.materialize_max_dims = GetParam().materialize_max_dims;
    options.result_cache_mb = 0;
    for (auto* wb : {&fast_, &slow_}) {
      auto built = Workbench::Build(GenerateSynthetic(config), options);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      *wb = std::move(*built);
    }
  }

  /// Runs one skyline on both workbenches (from `seed` when non-null),
  /// checks they agree, and returns the node-at-a-time output.
  SkylineOutput Skyline(const PredicateSet& preds,
                        const SkylineQueryOptions& options,
                        const std::vector<SearchEntry>* seed,
                        const std::string& what) {
    auto fast_probe = fast_->cube()->MakeProbe(preds);
    auto slow_inner = slow_->cube()->MakeProbe(preds);
    PCUBE_CHECK(fast_probe.ok() && slow_inner.ok());
    ForwardingProbe slow_probe(slow_inner->get());
    SkylineEngine fast(fast_->tree(), fast_probe->get(), nullptr, options);
    SkylineEngine slow(slow_->tree(), &slow_probe, nullptr, options);
    auto a = seed == nullptr ? fast.Run() : fast.RunFrom(*seed);
    auto b = seed == nullptr ? slow.Run() : slow.RunFrom(*seed);
    PCUBE_CHECK(a.ok()) << a.status().ToString();
    PCUBE_CHECK(b.ok()) << b.status().ToString();
    ExpectSameEntries(a->skyline, b->skyline, what + " skyline");
    ExpectSameEntries(a->b_list, b->b_list, what + " b_list");
    ExpectSameEntries(a->d_list, b->d_list, what + " d_list");
    ExpectSameCounters(a->counters, b->counters, what);
    EXPECT_EQ((*fast_probe)->partials_loaded(), slow_probe.partials_loaded())
        << what;
    Tally(a->counters, (*fast_probe)->partials_loaded());

    auto bare_probe = fast_->cube()->MakeProbe(preds);
    PCUBE_CHECK(bare_probe.ok());
    SkylineEngine bare(fast_->tree(), bare_probe->get(), nullptr, options);
    bare.set_keep_seeds(false);
    auto c = seed == nullptr ? bare.Run() : bare.RunFrom(*seed);
    PCUBE_CHECK(c.ok()) << c.status().ToString();
    ExpectSameEntries(c->skyline, a->skyline, what + " skyline, no seeds");
    EXPECT_TRUE(c->b_list.empty() && c->d_list.empty()) << what;
    ExpectSameCounters(c->counters, a->counters, what + ", no seeds");
    return std::move(*a);
  }

  TopKOutput TopK(const PredicateSet& preds, const RankingFunction& f,
                  size_t k, const std::vector<SearchEntry>* seed,
                  const std::string& what) {
    auto fast_probe = fast_->cube()->MakeProbe(preds);
    auto slow_inner = slow_->cube()->MakeProbe(preds);
    PCUBE_CHECK(fast_probe.ok() && slow_inner.ok());
    ForwardingProbe slow_probe(slow_inner->get());
    TopKEngine fast(fast_->tree(), fast_probe->get(), nullptr, &f, k);
    TopKEngine slow(slow_->tree(), &slow_probe, nullptr, &f, k);
    auto a = seed == nullptr ? fast.Run() : fast.RunFrom(*seed);
    auto b = seed == nullptr ? slow.Run() : slow.RunFrom(*seed);
    PCUBE_CHECK(a.ok()) << a.status().ToString();
    PCUBE_CHECK(b.ok()) << b.status().ToString();
    ExpectSameEntries(a->results, b->results, what + " results");
    ExpectSameEntries(a->b_list, b->b_list, what + " b_list");
    ExpectSameEntries(a->d_list, b->d_list, what + " d_list");
    ExpectSameEntries(a->remaining, b->remaining, what + " remaining");
    ExpectSameCounters(a->counters, b->counters, what);
    EXPECT_EQ((*fast_probe)->partials_loaded(), slow_probe.partials_loaded())
        << what;
    Tally(a->counters, (*fast_probe)->partials_loaded());

    auto bare_probe = fast_->cube()->MakeProbe(preds);
    PCUBE_CHECK(bare_probe.ok());
    TopKEngine bare(fast_->tree(), bare_probe->get(), nullptr, &f, k);
    bare.set_keep_seeds(false);
    auto c = seed == nullptr ? bare.Run() : bare.RunFrom(*seed);
    PCUBE_CHECK(c.ok()) << c.status().ToString();
    ExpectSameEntries(c->results, a->results, what + " results, no seeds");
    EXPECT_TRUE(c->b_list.empty() && c->d_list.empty() &&
                c->remaining.empty())
        << what;
    ExpectSameCounters(c->counters, a->counters, what + ", no seeds");
    return std::move(*a);
  }

  /// The first `n` predicates on dimensions 0, 1, 2 with random values.
  PredicateSet RandomPreds(int n, Random* rng) {
    PredicateSet preds;
    for (int d = 0; d < n; ++d) {
      preds.Add({d, static_cast<uint32_t>(rng->Uniform(kCardinality))});
    }
    return preds;
  }

  /// Both workbenches delete every tuple with value 0 on dimension 0 and
  /// rebuild the cube: cell (0, 0) keeps only a zero-width root array.
  void EmptyCellZeroAndRebuild() {
    for (Workbench* w : {fast_.get(), slow_.get()}) {
      WriteBatch deletes;
      for (TupleId t = 0; t < w->data().num_tuples(); ++t) {
        if (w->data().BoolValue(t, 0) == 0) deletes.deletes.push_back(t);
      }
      ASSERT_FALSE(deletes.deletes.empty());
      ASSERT_TRUE(w->Apply(deletes).ok());
      ASSERT_TRUE(w->RebuildCube().ok());
    }
  }

  /// Guards against a vacuous pass: the queries so far must have pruned
  /// by the predicate, loaded partial signatures and, when asked, pruned by
  /// preference (a top-k run stops once it has k results, so it rarely
  /// score-prunes a child).
  void ExpectExercised(bool preference_prunes) const {
    EXPECT_GT(pruned_boolean_, 0u);
    EXPECT_GT(partials_, 0u);
    if (preference_prunes) {
      EXPECT_GT(pruned_preference_, 0u);
    }
  }

 private:
  void Tally(const EngineCounters& c, uint64_t partials) {
    pruned_boolean_ += c.pruned_boolean;
    pruned_preference_ += c.pruned_preference;
    partials_ += partials;
  }

  std::unique_ptr<Workbench> fast_;
  std::unique_ptr<Workbench> slow_;
  uint64_t pruned_boolean_ = 0;
  uint64_t pruned_preference_ = 0;
  uint64_t partials_ = 0;
};

// 0 predicates (no cursor), 1 (one cursor), 2 (the fused pair, or one
// composite cell), 3 (a third cursor ANDed in); skyline, 2-skyband, dynamic
// skyline and a preference-dimension subset.
TEST_P(FilterChildrenTest, SkylineVariantsMatchPerChildPruning) {
  Random rng(31);
  for (int n = 0; n <= kNumBool; ++n) {
    for (int variant = 0; variant < 4; ++variant) {
      SkylineQueryOptions options;
      if (variant == 1) options.skyband_k = 2;
      if (variant == 2) {
        for (int d = 0; d < kNumPref; ++d) {
          options.origin.push_back(static_cast<float>(rng.NextDouble()));
        }
      }
      if (variant == 3) options.pref_dims = {0, 2};
      Skyline(RandomPreds(n, &rng), options, nullptr,
              "preds=" + std::to_string(n) +
                  " variant=" + std::to_string(variant));
    }
  }
  ExpectExercised(true);
}

TEST_P(FilterChildrenTest, TopKRankingsMatchPerChildPruning) {
  Random rng(32);
  for (int n = 0; n <= kNumBool; ++n) {
    std::vector<double> weights;
    std::vector<double> target;
    for (int d = 0; d < kNumPref; ++d) {
      weights.push_back(0.1 + rng.NextDouble());
      target.push_back(rng.NextDouble());
    }
    const LinearRanking linear(weights);
    const WeightedL2Ranking l2(target, weights);
    TopK(RandomPreds(n, &rng), linear, 10, nullptr,
         "linear preds=" + std::to_string(n));
    TopK(RandomPreds(n, &rng), l2, 10, nullptr,
         "weighted-L2 preds=" + std::to_string(n));
  }
  ExpectExercised(false);
}

// Chained drill-downs: each run starts from the previous run's seed, so
// heap entries re-enter through Prune's per-entry Test before their
// children are filtered node-at-a-time.
TEST_P(FilterChildrenTest, ChainedDrillDownsMatchPerChildPruning) {
  Random rng(33);
  SkylineOutput sky = Skyline({}, {}, nullptr, "skyline chain 0");
  const LinearRanking f({0.5, 0.3, 0.2});
  TopKOutput topk = TopK({}, f, 10, nullptr, "top-k chain 0");
  PredicateSet preds;
  for (int d = 0; d < kNumBool; ++d) {
    preds.Add({d, static_cast<uint32_t>(rng.Uniform(kCardinality))});
    const std::string step = "chain " + std::to_string(d + 1);
    const auto sky_seed = DrillDownSeed(sky);
    sky = MergeAfterDrillDown(
        Skyline(preds, {}, &sky_seed, "skyline " + step), sky);
    const auto topk_seed = DrillDownSeed(topk);
    topk = MergeAfterDrillDown(TopK(preds, f, 10, &topk_seed, "top-k " + step),
                               topk);
  }
  ExpectExercised(true);
}

// A cell emptied before a rebuild has a zero-width root array: filtering
// the root's children against it must prune them all, alone and fused.
TEST_P(FilterChildrenTest, ZeroWidthRootArrayPrunesEveryChild) {
  EmptyCellZeroAndRebuild();
  const LinearRanking f({0.4, 0.4, 0.2});
  for (const PredicateSet& preds :
       {PredicateSet{{0, 0}}, PredicateSet{{0, 0}, {1, 1}},
        PredicateSet{{1, 1}, {0, 0}, {2, 2}}}) {
    const std::string what = "emptied cell, preds=" +
                             std::to_string(preds.size());
    SkylineOutput sky = Skyline(preds, {}, nullptr, what);
    EXPECT_TRUE(sky.skyline.empty()) << what;
    TopKOutput topk = TopK(preds, f, 5, nullptr, what);
    EXPECT_TRUE(topk.results.empty()) << what;
  }
  // Cells that kept their tuples still answer after the rebuild.
  Random rng(34);
  Skyline(PredicateSet{{0, 1}, {1, 2}}, {}, nullptr, "rebuilt cube, fused");
  TopK(RandomPreds(1, &rng), f, 5, nullptr, "rebuilt cube, one cursor");
}

INSTANTIATE_TEST_SUITE_P(
    Instances, FilterChildrenTest,
    ::testing::Values(InstanceParam{"PageFanout", 0, 1},
                      InstanceParam{"DeepTree", 6, 1},
                      InstanceParam{"DeepTreeComposite", 6, 2}),
    [](const ::testing::TestParamInfo<InstanceParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pcube
