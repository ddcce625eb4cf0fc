// Incremental maintenance tests (paper §IV.B.3): after any interleaving of
// inserts and deletes — including ones that trigger node splits and forced
// re-insertion — every stored signature equals a from-scratch rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/random.h"
#include "core/pcube.h"
#include "core/signature_builder.h"
#include "data/generators.h"
#include "query/reference.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

WriteBatch::Row MakeRow(const Dataset& data, TupleId t) {
  auto bools = data.BoolRow(t);
  auto prefs = data.PrefPoint(t);
  return {{bools.begin(), bools.end()}, {prefs.begin(), prefs.end()}};
}

/// Compares every atomic cell's stored signature against a fresh build
/// from the tree's current paths.
void ExpectStoreMatchesRebuild(Workbench& w, const std::vector<bool>& alive) {
  auto paths = PathTable::Collect(*w.tree());
  ASSERT_TRUE(paths.ok());
  const Dataset& data = w.data();
  for (int dim = 0; dim < data.num_bool(); ++dim) {
    for (uint32_t v = 0; v < data.schema().bool_cardinality[dim]; ++v) {
      Signature expect(w.tree()->fanout(), w.cube()->levels());
      for (TupleId t = 0; t < data.num_tuples(); ++t) {
        if (t < alive.size() && !alive[t]) continue;
        if (data.BoolValue(t, dim) == v) expect.SetPath(paths->path(t));
      }
      auto got = w.cube()->store().LoadFull(AtomicCellId(dim, v),
                                            w.tree()->fanout(),
                                            w.cube()->levels());
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->Equals(expect))
          << "dim=" << dim << " v=" << v << "\nstored:\n"
          << got->ToString() << "\nexpected:\n"
          << expect.ToString();
    }
  }
}

class MaintenanceTest : public ::testing::TestWithParam<int> {};

TEST_P(MaintenanceTest, InsertBatchesMatchRebuild) {
  SyntheticConfig config;
  config.num_tuples = 1200;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 60 + GetParam();
  Dataset full = GenerateSynthetic(config);

  // Start the workbench from the first 800 tuples.
  Dataset initial(full.schema(), 0);
  for (TupleId t = 0; t < 800; ++t) {
    initial.Append(full.BoolRow(t), full.PrefPoint(t));
  }
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  options.rtree_by_insertion = true;
  auto wb = Workbench::Build(std::move(initial), options);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;

  // Apply 4 batches of 100 inserts; the write path maintains the cube
  // (falling back to a rebuild internally when the root splits).
  for (int batch = 0; batch < 4; ++batch) {
    WriteBatch wbatch;
    for (int i = 0; i < 100; ++i) {
      wbatch.inserts.push_back(MakeRow(full, 800 + batch * 100 + i));
    }
    auto applied = w.Apply(wbatch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    std::vector<bool> alive(w.data().num_tuples(), true);
    ExpectStoreMatchesRebuild(w, alive);
  }
}

TEST_P(MaintenanceTest, MixedInsertDeleteMatchesRebuild) {
  SyntheticConfig config;
  config.num_tuples = 1000;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 70 + GetParam();
  Dataset full = GenerateSynthetic(config);

  Dataset initial(full.schema(), 0);
  for (TupleId t = 0; t < 600; ++t) {
    initial.Append(full.BoolRow(t), full.PrefPoint(t));
  }
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  options.rtree_by_insertion = true;
  auto wb = Workbench::Build(std::move(initial), options);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;

  std::vector<bool> alive(600, true);
  Random rng(GetParam());
  for (int batch = 0; batch < 3; ++batch) {
    WriteBatch wbatch;
    // Insert 80 new tuples...
    for (int i = 0; i < 80; ++i) {
      wbatch.inserts.push_back(MakeRow(full, 600 + batch * 80 + i));
      alive.push_back(true);
    }
    // ... and delete 40 random live ones (avoiding the not-yet-applied
    // inserts: a batch's deletes may only name existing tuples).
    const size_t existing = alive.size() - 80;
    for (int i = 0; i < 40; ++i) {
      TupleId victim = rng.Uniform(existing);
      if (!alive[victim]) continue;
      alive[victim] = false;
      wbatch.deletes.push_back(victim);
    }
    auto applied = w.Apply(wbatch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ExpectStoreMatchesRebuild(w, alive);
  }
}

TEST(MaintenanceTest, PerTupleMaintenanceMatchesRebuild) {
  // Tuple-at-a-time maintenance (the paper's non-batched mode, Fig. 7).
  SyntheticConfig config;
  config.num_tuples = 700;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 80;
  Dataset full = GenerateSynthetic(config);
  Dataset initial(full.schema(), 0);
  for (TupleId t = 0; t < 650; ++t) {
    initial.Append(full.BoolRow(t), full.PrefPoint(t));
  }
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  options.rtree_by_insertion = true;
  auto wb = Workbench::Build(std::move(initial), options);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;

  for (TupleId src = 650; src < 700; ++src) {
    WriteBatch wbatch;
    wbatch.inserts.push_back(MakeRow(full, src));
    auto applied = w.Apply(wbatch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }
  // Final state must equal a rebuild.
  auto paths = PathTable::Collect(*w.tree());
  ASSERT_TRUE(paths.ok());
  for (int dim = 0; dim < 2; ++dim) {
    for (uint32_t v = 0; v < 3; ++v) {
      Signature expect = BuildCellSignature(w.data(), *paths, {{dim, v}},
                                            w.tree()->fanout(),
                                            w.cube()->levels());
      auto got = w.cube()->store().LoadFull(AtomicCellId(dim, v),
                                            w.tree()->fanout(),
                                            w.cube()->levels());
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->Equals(expect));
    }
  }
}

TEST(MaintenanceTest, CompositeCellsMaintainedToo) {
  // With materialize_max_dims = 2 the 2-d composite cells must also track
  // inserts/deletes; combos first seen after the build fall back to the
  // lazy atomic AND (which stays exact at tuple level).
  SyntheticConfig config;
  config.num_tuples = 900;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = 85;
  Dataset full = GenerateSynthetic(config);
  Dataset initial(full.schema(), 0);
  for (TupleId t = 0; t < 700; ++t) {
    initial.Append(full.BoolRow(t), full.PrefPoint(t));
  }
  WorkbenchOptions options;
  options.rtree.max_entries = 8;
  options.pcube.materialize_max_dims = 2;
  auto wb = Workbench::Build(std::move(initial), options);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;

  WriteBatch wbatch;
  for (TupleId src = 700; src < 900; ++src) {
    wbatch.inserts.push_back(MakeRow(full, src));
  }
  for (TupleId victim = 0; victim < 80; ++victim) {
    wbatch.deletes.push_back(victim);
  }
  auto applied = w.Apply(wbatch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  // Two-predicate queries exercise the composite signatures.
  for (uint32_t va = 0; va < 3; ++va) {
    for (uint32_t vb = 0; vb < 3; ++vb) {
      PredicateSet preds{{0, va}, {1, vb}};
      auto probe = w.cube()->MakeProbe(preds);
      ASSERT_TRUE(probe.ok());
      SkylineEngine engine(w.tree(), probe->get(), nullptr);
      auto out = engine.Run();
      ASSERT_TRUE(out.ok());
      std::vector<TupleId> got;
      for (const SearchEntry& e : out->skyline) got.push_back(e.id);
      std::sort(got.begin(), got.end());
      // Oracle over live tuples (deleted tids 0..79).
      std::vector<TupleId> cand;
      for (TupleId t = 80; t < w.data().num_tuples(); ++t) {
        if (preds.Matches(w.data(), t)) cand.push_back(t);
      }
      std::vector<int> dims = {0, 1};
      auto expect = SortFilterSkyline(w.data(), cand, dims);
      EXPECT_EQ(got, expect) << preds.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceTest, ::testing::Range(0, 4));

/// The leaf holding the entry at `path`: the path without its last slot.
Path LeafOf(Path path) {
  path.pop_back();
  return path;
}

uint64_t HoldCount(const char* phase) {
  return MetricsRegistry::Default()
      .GetHistogram(std::string("pcube_maintenance_hold_seconds{phase=\"") +
                    phase + "\"}")
      ->Count();
}

class DeferredMaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/pcube_maintenance_flush.db";
    RemoveFiles();
    SyntheticConfig config;
    config.num_tuples = 700;
    config.num_bool = 2;
    config.num_pref = 2;
    config.bool_cardinality = 3;
    config.seed = 90;
    full_ = GenerateSynthetic(config);
    options_.file_path = path_;
    options_.rtree.max_entries = 8;
    options_.rtree_by_insertion = true;
  }
  void TearDown() override { RemoveFiles(); }
  void RemoveFiles() {
    for (const char* suffix : {"", ".wal", ".chk"}) {
      std::remove((path_ + suffix).c_str());
    }
  }

  /// Opens the file, replaying the un-checkpointed WAL as one slice (it
  /// holds far fewer rows than the slice bound).
  std::unique_ptr<Workbench> Reopen() {
    auto reopened = Workbench::Open(path_, options_);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    return reopened.ok() ? std::move(*reopened) : nullptr;
  }

  std::string path_;
  Dataset full_;
  WorkbenchOptions options_;
};

TEST_F(DeferredMaintenanceTest, SplitAfterDeferredInsertFlushesItFirst) {
  // A pure-insert batch defers its cube work past the exclusive tree phase.
  // When a later batch of the same slice splits the leaf and moves the new
  // entry, the deferred bits must land first: otherwise the move clears a
  // bit that was never set and the deferred insert then sets its stale
  // old path. Replay makes the slice deterministic: both batches are in it.
  Dataset initial(full_.schema(), 0);
  for (TupleId t = 0; t < 600; ++t) {
    initial.Append(full_.BoolRow(t), full_.PrefPoint(t));
  }
  constexpr size_t kSplitRows = 6;
  TupleId fill_tid = 0;
  {
    auto built = Workbench::Build(std::move(initial), options_);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Workbench& w = **built;
    ASSERT_TRUE(w.Save().ok());  // checkpoint: the WAL holds only what follows

    auto before = PathTable::Collect(*w.tree());
    ASSERT_TRUE(before.ok());
    std::map<Path, std::vector<TupleId>> leaves;
    for (TupleId t = 0; t < w.data().num_tuples(); ++t) {
      leaves[LeafOf(before->path(t))].push_back(t);
    }
    // A leaf one entry short of full, and its point farthest from the
    // leaf's centre: a copy of it fits the leaf, and on the next overflow
    // R* forced re-insertion removes the two farthest entries, the copy
    // among them.
    TupleId anchor = 0;
    Path anchor_leaf;
    for (const auto& [leaf, tids] : leaves) {
      if (tids.size() != options_.rtree.max_entries - 1) continue;
      const Dataset& data = w.data();
      std::vector<float> lo(data.PrefPoint(tids[0]).begin(),
                            data.PrefPoint(tids[0]).end());
      std::vector<float> hi = lo;
      for (TupleId t : tids) {
        for (int d = 0; d < data.num_pref(); ++d) {
          lo[d] = std::min(lo[d], data.PrefValue(t, d));
          hi[d] = std::max(hi[d], data.PrefValue(t, d));
        }
      }
      double farthest = -1;
      for (TupleId t : tids) {
        double dist = 0;
        for (int d = 0; d < data.num_pref(); ++d) {
          const double off = data.PrefValue(t, d) - (lo[d] + hi[d]) / 2;
          dist += off * off;
        }
        if (dist > farthest) {
          farthest = dist;
          anchor = t;
        }
      }
      anchor_leaf = leaf;
      break;
    }
    ASSERT_FALSE(anchor_leaf.empty()) << "no leaf one entry short of full";

    WriteBatch fill;
    fill.inserts.push_back(MakeRow(w.data(), anchor));
    auto filled = w.Apply(fill);
    ASSERT_TRUE(filled.ok()) << filled.status().ToString();
    fill_tid = filled->first_tid;
    auto after_fill = PathTable::Collect(*w.tree());
    ASSERT_TRUE(after_fill.ok());
    ASSERT_EQ(LeafOf(after_fill->path(fill_tid)), anchor_leaf);
    for (TupleId t = 0; t < fill_tid; ++t) {
      ASSERT_EQ(after_fill->path(t), before->path(t)) << "fill moved " << t;
    }

    WriteBatch split;  // copies of the same point: the leaf must split
    for (size_t i = 0; i < kSplitRows; ++i) {
      split.inserts.push_back(MakeRow(w.data(), anchor));
    }
    ASSERT_TRUE(w.Apply(split).ok());
    auto after_split = PathTable::Collect(*w.tree());
    ASSERT_TRUE(after_split.ok());
    ASSERT_NE(after_split->path(fill_tid), after_fill->path(fill_tid))
        << "the split must move the deferred insert's entry";
  }  // destroyed WITHOUT Save: both batches exist only in the WAL

  const uint64_t locked = HoldCount("locked");
  const uint64_t installs = HoldCount("install");
  std::unique_ptr<Workbench> w = Reopen();
  ASSERT_NE(w, nullptr);
  ASSERT_EQ(w->data().num_tuples(), fill_tid + 1 + kSplitRows);
  // One slice, flushed under the lock by the split: no separate install.
  EXPECT_EQ(HoldCount("locked"), locked + 1);
  EXPECT_EQ(HoldCount("install"), installs);
  ExpectStoreMatchesRebuild(*w, std::vector<bool>(w->data().num_tuples(), true));
}

TEST_F(DeferredMaintenanceTest, SliceMixingPureInsertsAndDeletes) {
  Dataset initial(full_.schema(), 0);
  for (TupleId t = 0; t < 600; ++t) {
    initial.Append(full_.BoolRow(t), full_.PrefPoint(t));
  }
  std::vector<bool> alive(600, true);
  {
    auto built = Workbench::Build(std::move(initial), options_);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Workbench& w = **built;
    ASSERT_TRUE(w.Save().ok());
    // Pure inserts, then deletes, then pure inserts again: replayed as one
    // slice, the first inserts are flushed before the deletes' cube
    // changes and the last ones are installed after the compute phase.
    for (TupleId src : {600, 601}) {
      WriteBatch insert;
      insert.inserts.push_back(MakeRow(full_, src));
      ASSERT_TRUE(w.Apply(insert).ok());
      alive.push_back(true);
    }
    WriteBatch removal;
    for (TupleId victim : {3, 150, 299, 600}) {
      removal.deletes.push_back(victim);
      alive[victim] = false;
    }
    ASSERT_TRUE(w.Apply(removal).ok());
    for (TupleId src : {602, 603}) {
      WriteBatch insert;
      insert.inserts.push_back(MakeRow(full_, src));
      ASSERT_TRUE(w.Apply(insert).ok());
      alive.push_back(true);
    }
  }  // destroyed WITHOUT Save

  const uint64_t locked = HoldCount("locked");
  const uint64_t installs = HoldCount("install");
  std::unique_ptr<Workbench> w = Reopen();
  ASSERT_NE(w, nullptr);
  ASSERT_EQ(w->data().num_tuples(), alive.size());
  EXPECT_EQ(HoldCount("locked"), locked + 1);
  EXPECT_EQ(HoldCount("install"), installs + 1);
  ExpectStoreMatchesRebuild(*w, alive);
}


}  // namespace
}  // namespace pcube
