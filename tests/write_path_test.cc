// End-to-end tests of the write path (DESIGN.md §15): Apply() semantics on
// the Workbench (read-your-writes, validation, ack modes), crash recovery
// through WAL replay in Workbench::Open — including a deterministically torn
// commit via scripted fault injection. TSan-labeled: the maintenance thread
// and the group-commit handshake run under these tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "data/generators.h"
#include "query/reference.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

SyntheticConfig SmallConfig(uint64_t seed) {
  SyntheticConfig config;
  config.num_tuples = 800;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 3;
  config.seed = seed;
  return config;
}

WriteBatch::Row MakeRow(const Dataset& data, TupleId t) {
  auto bools = data.BoolRow(t);
  auto prefs = data.PrefPoint(t);
  return {{bools.begin(), bools.end()}, {prefs.begin(), prefs.end()}};
}

/// A row that strictly dominates every synthetic tuple (generator values
/// are in [0, 1); smaller is better), so the skyline of its cell is just it.
WriteBatch::Row DominatingRow(uint32_t bool_value, int num_bool,
                              int num_pref) {
  WriteBatch::Row row;
  row.bools.assign(static_cast<size_t>(num_bool), bool_value);
  row.prefs.assign(static_cast<size_t>(num_pref), -1.5f);
  return row;
}

/// Naive skyline over the LIVE tuples only (NaiveSkyline knows nothing of
/// tombstones), sorted ascending like the engines' answers.
std::vector<TupleId> LiveSkyline(const Workbench& w,
                                 const PredicateSet& preds) {
  const Dataset& data = w.data();
  std::vector<TupleId> tids;
  for (TupleId t = 0; t < data.num_tuples(); ++t) {
    if (w.tombstones().count(t) > 0) continue;
    bool match = true;
    for (const Predicate& p : preds.predicates()) {
      if (data.BoolValue(t, p.dim) != p.value) {
        match = false;
        break;
      }
    }
    if (match) tids.push_back(t);
  }
  std::vector<int> dims;  // SortFilterSkyline does not expand {} to all dims
  for (int d = 0; d < data.num_pref(); ++d) dims.push_back(d);
  std::vector<TupleId> sky = SortFilterSkyline(data, std::move(tids), dims);
  std::sort(sky.begin(), sky.end());
  return sky;
}

std::string FirstProblem(const Workbench::IntegrityReport& report) {
  return report.ok() ? std::string() : report.errors.front().second;
}

TEST(WritePathTest, ApplyAcksAndReadsItsOwnWrites) {
  auto built = Workbench::Build(GenerateSynthetic(SmallConfig(11)), {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Workbench& w = **built;
  const TupleId base = w.data().num_tuples();

  WriteBatch batch;
  batch.inserts.push_back(DominatingRow(1, 2, 2));
  auto applied = w.Apply(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->first_tid, base);
  EXPECT_GT(applied->lsn, 0u);
  EXPECT_GE(applied->group_size, 1u);
  EXPECT_FALSE(applied->durable);  // RAM-backed WAL: no crash durability

  // kApplied means the return IS the visibility barrier: no drain needed.
  auto sky = w.RunShared(QueryRequest::Skyline({{0, 1}}));
  ASSERT_TRUE(sky.ok());
  ASSERT_EQ(sky->tids.size(), 1u);
  EXPECT_EQ(sky->tids[0], base);

  // Deleting the dominator restores the pre-insert skyline.
  WriteBatch erase;
  erase.deletes.push_back(base);
  ASSERT_TRUE(w.Apply(erase).ok());
  auto after = w.RunShared(QueryRequest::Skyline({{0, 1}}));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(std::count(after->tids.begin(), after->tids.end(), base), 0);
  EXPECT_EQ(after->tids, LiveSkyline(w, {{0, 1}}));
}

TEST(WritePathTest, ApplyRejectsMalformedBatches) {
  auto built = Workbench::Build(GenerateSynthetic(SmallConfig(12)), {});
  ASSERT_TRUE(built.ok());
  Workbench& w = **built;
  const TupleId base = w.data().num_tuples();

  {
    WriteBatch batch;  // wrong boolean arity (schema has 2 dims)
    batch.inserts.push_back({{1}, {0.5f, 0.5f}});
    EXPECT_TRUE(w.Apply(batch).status().IsInvalidArgument());
  }
  {
    WriteBatch batch;  // boolean value beyond the cardinality (3)
    batch.inserts.push_back({{1, 7}, {0.5f, 0.5f}});
    EXPECT_TRUE(w.Apply(batch).status().IsInvalidArgument());
  }
  {
    WriteBatch batch;  // non-finite preference coordinate
    batch.inserts.push_back(
        {{1, 1}, {std::numeric_limits<float>::quiet_NaN(), 0.5f}});
    EXPECT_TRUE(w.Apply(batch).status().IsInvalidArgument());
  }
  {
    WriteBatch batch;  // delete of a tuple that does not exist
    batch.deletes.push_back(base + 1000);
    EXPECT_FALSE(w.Apply(batch).ok());
  }
  {
    WriteBatch batch;  // empty batches are a no-op error, not a WAL record
    EXPECT_TRUE(w.Apply(batch).status().IsInvalidArgument());
  }
  // A rejected batch must not have perturbed the instance.
  EXPECT_EQ(w.data().num_tuples(), base);
  auto report = w.VerifyIntegrity();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << FirstProblem(*report);
}

TEST(WritePathTest, RejectedBatchAppliesNothingAndNeverReachesTheWal) {
  auto built = Workbench::Build(GenerateSynthetic(SmallConfig(23)), {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Workbench& w = **built;
  const TupleId base = w.data().num_tuples();
  const uint64_t next_lsn = w.wal()->next_lsn();

  // Valid inserts riding with an out-of-range delete: all-or-nothing means
  // the inserts must not land either, and no WAL record may exist.
  WriteBatch bad;
  bad.inserts.push_back(DominatingRow(1, 2, 2));
  bad.deletes.push_back(base + 1000);
  EXPECT_TRUE(w.Apply(bad).status().IsInvalidArgument());
  EXPECT_EQ(w.data().num_tuples(), base);
  EXPECT_EQ(w.wal()->next_lsn(), next_lsn);

  // Duplicate delete within one batch: same contract, NotFound.
  WriteBatch dup;
  dup.inserts.push_back(DominatingRow(1, 2, 2));
  dup.deletes.push_back(0);
  dup.deletes.push_back(0);
  EXPECT_TRUE(w.Apply(dup).status().IsNotFound());
  EXPECT_EQ(w.data().num_tuples(), base);
  EXPECT_EQ(w.wal()->next_lsn(), next_lsn);

  // The rejected batches left the write cursor alone: the next good batch
  // gets the tids they would have taken.
  WriteBatch first;
  first.inserts.push_back(DominatingRow(1, 2, 2));
  first.deletes.push_back(1);
  auto applied = w.Apply(first);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->first_tid, base);
  EXPECT_EQ(w.data().num_tuples(), base + 1);

  // Deleting the same tuple in two batches: the second is refused at stage
  // time, before the WAL sees it — even while the first may still be
  // pending in the maintenance queue.
  WriteBatch second;
  second.deletes.push_back(1);
  EXPECT_TRUE(w.Apply(second).status().IsNotFound());

  auto report = w.VerifyIntegrity();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << FirstProblem(*report);
}

TEST(WritePathTest, RejectedDeleteCannotBrickRecovery) {
  // Regression: a delete-of-unknown-tuple batch used to be staged durably
  // and only then refused at apply time, so a crash left the WAL holding a
  // batch replay could not apply — and Open refused the whole database.
  const std::string path = testing::TempDir() + "/pcube_wp_reject.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  TupleId expect_rows = 0;
  {
    WorkbenchOptions options;
    options.file_path = path;
    auto built = Workbench::Build(GenerateSynthetic(SmallConfig(24)), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Workbench& w = **built;
    ASSERT_TRUE(w.Save().ok());  // checkpoint: WAL now empty

    WriteBatch bad;
    bad.inserts.push_back(DominatingRow(1, 2, 2));
    bad.deletes.push_back(w.data().num_tuples() + 1000);
    EXPECT_TRUE(w.Apply(bad).status().IsInvalidArgument());

    WriteBatch good;
    good.inserts.push_back(DominatingRow(2, 2, 2));
    good.deletes.push_back(3);
    ASSERT_TRUE(w.Apply(good).ok());
    expect_rows = w.data().num_tuples();
  }  // crash WITHOUT Save: recovery has only the WAL to go on

  // The rejected batch left no record; the acknowledged one is the log's
  // whole content, and reopening replays it without tripping.
  auto inspected = Wal::Inspect(path + ".wal");
  ASSERT_TRUE(inspected.ok());
  EXPECT_TRUE(inspected->ok());
  EXPECT_EQ(inspected->num_records, 1u);
  auto reopened = Workbench::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->data().num_tuples(), expect_rows);
  EXPECT_EQ((*reopened)->tombstones().count(3), 1u);
  auto report = (*reopened)->VerifyIntegrity();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << FirstProblem(*report);

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".chk").c_str());
}

TEST(WritePathTest, DurableAckVisibleAfterDrain) {
  const std::string path = testing::TempDir() + "/pcube_wp_durable.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  WorkbenchOptions options;
  options.file_path = path;
  auto built = Workbench::Build(GenerateSynthetic(SmallConfig(13)), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Workbench& w = **built;
  const TupleId base = w.data().num_tuples();

  WriteBatch batch;
  batch.ack = WriteBatch::Ack::kDurable;
  batch.inserts.push_back(DominatingRow(2, 2, 2));
  auto applied = w.Apply(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE(applied->durable);  // file-backed: the fsync happened
  EXPECT_EQ(w.wal()->durable_lsn(), applied->lsn);

  // kDurable does not promise visibility; DrainWrites() does.
  ASSERT_TRUE(w.DrainWrites().ok());
  auto sky = w.RunShared(QueryRequest::Skyline({{0, 2}}));
  ASSERT_TRUE(sky.ok());
  ASSERT_EQ(sky->tids.size(), 1u);
  EXPECT_EQ(sky->tids[0], base);

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".chk").c_str());
}

TEST(WritePathTest, OpenReplaysUncheckpointedBatches) {
  const std::string path = testing::TempDir() + "/pcube_wp_replay.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::vector<TupleId> expect_sky;
  TupleId expect_rows = 0;
  size_t expect_tombstones = 0;
  {
    WorkbenchOptions options;
    options.file_path = path;
    auto built = Workbench::Build(GenerateSynthetic(SmallConfig(14)), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Workbench& w = **built;
    ASSERT_TRUE(w.Save().ok());  // checkpoint: WAL now empty

    // Two batches AFTER the checkpoint: their only record is the WAL.
    Dataset extra = GenerateSynthetic(SmallConfig(15));
    WriteBatch first;
    for (TupleId t = 0; t < 30; ++t) first.inserts.push_back(MakeRow(extra, t));
    ASSERT_TRUE(w.Apply(first).ok());
    WriteBatch second;
    for (TupleId t = 30; t < 50; ++t) {
      second.inserts.push_back(MakeRow(extra, t));
    }
    second.deletes.push_back(5);
    second.deletes.push_back(17);
    ASSERT_TRUE(w.Apply(second).ok());

    expect_rows = w.data().num_tuples();
    expect_tombstones = w.tombstones().size();
    auto sky = w.RunShared(QueryRequest::Skyline({{1, 0}}));
    ASSERT_TRUE(sky.ok());
    expect_sky = sky->tids;
  }  // destroyed WITHOUT Save: the batches exist only in the WAL

  auto reopened = Workbench::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Workbench& w = **reopened;
  EXPECT_EQ(w.data().num_tuples(), expect_rows);
  EXPECT_EQ(w.tombstones().size(), expect_tombstones);
  EXPECT_EQ(w.tombstones().count(5), 1u);
  EXPECT_EQ(w.tombstones().count(17), 1u);
  auto sky = w.RunShared(QueryRequest::Skyline({{1, 0}}));
  ASSERT_TRUE(sky.ok());
  EXPECT_EQ(sky->tids, expect_sky);
  auto report = w.VerifyIntegrity();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << FirstProblem(*report);

  // Idempotence across the Save()/checkpoint boundary: replay again after a
  // Save — the WAL is empty now, so a third Open sees the same state.
  ASSERT_TRUE(w.Save().ok());
  reopened->reset();
  auto third = Workbench::Open(path);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ((*third)->data().num_tuples(), expect_rows);
  EXPECT_EQ((*third)->tombstones().size(), expect_tombstones);

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".chk").c_str());
}

TEST(WritePathTest, ReadersSeeABatchPrefixDuringPureInsertIngest) {
  // Differential test of the deferred maintenance window (write_path.h):
  // between a slice's tree phase and its install phase, a query with
  // predicates answers on the relation before the slice and one without
  // answers on the relation after it. So while one writer applies small
  // kApplied batches, every RunShared answer must equal the naive answer
  // on the relation after some batch j, where j lies between the last
  // batch acknowledged before the query began and the last batch issued
  // when it returned.
  constexpr size_t kBatches = 40;
  constexpr size_t kBatchRows = 2;
  const Dataset base = GenerateSynthetic(SmallConfig(21));
  const Dataset extra = GenerateSynthetic(SmallConfig(22));
  Dataset copy(base.schema(), 0);
  for (TupleId t = 0; t < base.num_tuples(); ++t) {
    copy.Append(base.BoolRow(t), base.PrefPoint(t));
  }
  // No result cache: every query runs the engine against the structures
  // (AckedWriteNeverServedStaleCachedAnswer covers the cache). Small nodes
  // make some batches split a leaf, so both maintenance paths run.
  WorkbenchOptions options;
  options.result_cache_mb = 0;
  options.rtree.max_entries = 16;
  auto built = Workbench::Build(std::move(copy), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Workbench* wb = built->get();

  auto f = std::make_shared<LinearRanking>(std::vector<double>{0.3, 0.7});
  const std::vector<QueryRequest> queries = {
      QueryRequest::Skyline({{0, 1}}), QueryRequest::Skyline({}),
      QueryRequest::TopK({{1, 2}}, f, 5), QueryRequest::TopK({}, f, 5)};
  // expected[q][j]: the answer (tids, scores) after j batches.
  using Answer = std::pair<std::vector<TupleId>, std::vector<double>>;
  std::vector<std::vector<Answer>> expected(queries.size());
  {
    Dataset relation(base.schema(), 0);
    for (TupleId t = 0; t < base.num_tuples(); ++t) {
      relation.Append(base.BoolRow(t), base.PrefPoint(t));
    }
    for (size_t j = 0; j <= kBatches; ++j) {
      for (size_t q = 0; q < queries.size(); ++q) {
        Answer a;
        if (queries[q].kind == QueryRequest::Kind::kSkyline) {
          a.first = NaiveSkyline(relation, queries[q].preds);
        } else {
          for (const auto& [tid, score] :
               NaiveTopK(relation, queries[q].preds, *f, queries[q].k)) {
            a.first.push_back(tid);
            a.second.push_back(score);
          }
        }
        expected[q].push_back(std::move(a));
      }
      for (size_t r = 0; j < kBatches && r < kBatchRows; ++r) {
        const TupleId src = static_cast<TupleId>(j * kBatchRows + r);
        relation.Append(extra.BoolRow(src), extra.PrefPoint(src));
      }
    }
  }

  const uint64_t installs_before =
      MetricsRegistry::Default()
          .GetHistogram("pcube_maintenance_hold_seconds{phase=\"install\"}")
          ->Count();
  std::atomic<size_t> acked{0};
  std::atomic<size_t> issued{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> answers{0};
  std::mutex error_mu;
  std::string first_error;
  auto report = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.empty()) first_error = msg;
  };

  auto writer = [&] {
    for (size_t j = 0; j < kBatches; ++j) {
      WriteBatch batch;  // Ack::kApplied
      for (size_t r = 0; r < kBatchRows; ++r) {
        batch.inserts.push_back(MakeRow(extra, j * kBatchRows + r));
      }
      issued.store(j + 1);
      auto applied = wb->Apply(batch);
      if (!applied.ok()) {
        report("Apply failed: " + applied.status().ToString());
        break;
      }
      acked.store(j + 1);
    }
    done.store(true);
  };
  auto reader = [&](size_t first) {
    for (size_t i = first; !done.load(); ++i) {
      const size_t q = i % queries.size();
      const size_t low = acked.load();
      auto resp = wb->RunShared(queries[q]);
      const size_t high = issued.load();
      if (!resp.ok()) {
        report("query failed: " + resp.status().ToString());
        return;
      }
      bool matched = false;
      for (size_t j = low; j <= high && !matched; ++j) {
        const Answer& a = expected[q][j];
        matched = resp->tids == a.first &&
                  (a.second.empty() || resp->scores == a.second);
      }
      if (!matched) {
        report(queries[q].Canonical() + " matches no relation between batch " +
               std::to_string(low) + " and batch " + std::to_string(high));
      }
      answers.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(reader, 0);
  threads.emplace_back(reader, 1);
  threads.emplace_back(writer);
  for (auto& t : threads) t.join();

  EXPECT_TRUE(first_error.empty()) << first_error;
  EXPECT_GT(answers.load(), 0u);
  EXPECT_EQ(acked.load(), kBatches);
  // Some batches fit their leaves and took the deferred path; others split.
  EXPECT_GT(MetricsRegistry::Default()
                .GetHistogram(
                    "pcube_maintenance_hold_seconds{phase=\"install\"}")
                ->Count(),
            installs_before);
}

TEST(WritePathTest, TornCommitIsDiscardedOnReopen) {
  // Deterministic crash-mid-commit: a scripted torn write persists only a
  // prefix of the WAL's first record page while the process runs on none
  // the wiser. The batch spans >1 page so the torn page is guaranteed to
  // truncate the record; on reopen its CRC fails, Replay classifies a torn
  // tail, and ONLY that final batch is gone — the pre-crash state answers.
  const std::string path = testing::TempDir() + "/pcube_wp_torn.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  TupleId base_rows = 0;
  {
    WorkbenchOptions options;
    options.file_path = path;
    ScriptedFault tear;
    tear.pid = 1;  // first record page (page 0 is the WAL header)
    tear.op = ScriptedFault::Op::kWrite;
    tear.kind = ScriptedFault::Kind::kTornWrite;
    options.wal_fault_plan.seed = 91;
    options.wal_fault_plan.script.push_back(tear);
    auto built = Workbench::Build(GenerateSynthetic(SmallConfig(16)), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Workbench& w = **built;
    ASSERT_TRUE(w.Save().ok());
    base_rows = w.data().num_tuples();

    Dataset extra = GenerateSynthetic(SmallConfig(17));
    WriteBatch batch;  // ~400 rows * ~20 bytes: well past one 4 KiB page
    for (TupleId t = 0; t < 400; ++t) batch.inserts.push_back(MakeRow(extra, t));
    auto applied = w.Apply(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_TRUE(applied->durable);  // the tear is silent, like a real crash
  }

  auto reopened = Workbench::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->data().num_tuples(), base_rows);
  auto report = (*reopened)->VerifyIntegrity();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << FirstProblem(*report);
  // The heal zeroed the torn suffix: the log is clean again and writable.
  auto inspected = Wal::Inspect(path + ".wal");
  ASSERT_TRUE(inspected.ok());
  EXPECT_TRUE(inspected->ok());
  EXPECT_FALSE(inspected->torn_tail);
  WriteBatch redo;
  redo.inserts.push_back(DominatingRow(0, 2, 2));
  EXPECT_TRUE((*reopened)->Apply(redo).ok());

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".chk").c_str());
}

TEST(WritePathTest, ConcurrentWritersFormCommitGroups) {
  const std::string path = testing::TempDir() + "/pcube_wp_group.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  WorkbenchOptions options;
  options.file_path = path;
  auto built = Workbench::Build(GenerateSynthetic(SmallConfig(20)), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Workbench& w = **built;
  const TupleId base = w.data().num_tuples();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::atomic<int> failures{0};
  std::atomic<uint32_t> max_group{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        WriteBatch batch;
        batch.inserts.push_back(DominatingRow(0, 2, 2));
        auto applied = w.Apply(batch);
        if (!applied.ok()) {
          failures.fetch_add(1);
          return;
        }
        uint32_t g = applied->group_size;
        uint32_t seen = max_group.load();
        while (g > seen && !max_group.compare_exchange_weak(seen, g)) {
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(w.data().num_tuples(),
            base + static_cast<TupleId>(kThreads * kPerThread));
  EXPECT_GE(max_group.load(), 1u);
  ASSERT_TRUE(w.DrainWrites().ok());
  auto report = w.VerifyIntegrity();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << FirstProblem(*report);

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".chk").c_str());
}

TEST(WritePathTest, RebuildCubeAfterWritesKeepsAnswers) {
  auto built = Workbench::Build(GenerateSynthetic(SmallConfig(21)), {});
  ASSERT_TRUE(built.ok());
  Workbench& w = **built;
  Dataset extra = GenerateSynthetic(SmallConfig(22));
  WriteBatch batch;
  for (TupleId t = 0; t < 100; ++t) batch.inserts.push_back(MakeRow(extra, t));
  batch.deletes.push_back(7);
  ASSERT_TRUE(w.Apply(batch).ok());
  ASSERT_TRUE(w.RebuildCube().ok());
  for (uint32_t v = 0; v < 3; ++v) {
    auto sky = w.RunShared(QueryRequest::Skyline({{0, v}}));
    ASSERT_TRUE(sky.ok());
    EXPECT_EQ(sky->tids, LiveSkyline(w, {{0, v}}))
        << "v=" << v;
  }
}

TEST(WritePathTest, CellEmptiedBeforeRebuildStaysQueryable) {
  auto built = Workbench::Build(GenerateSynthetic(SmallConfig(23)), {});
  ASSERT_TRUE(built.ok());
  Workbench& w = **built;
  // Delete every tuple with value 0 on dimension 0, then rebuild in place:
  // the rebuild stores cell (0, 0)'s empty signature, which tombstones
  // every partial the cell had, and the cell must still load, answer
  // queries alone and ANDed with another cell, pass the integrity walk and
  // take new tuples.
  WriteBatch deletes;
  for (TupleId t = 0; t < w.data().num_tuples(); ++t) {
    if (w.data().BoolValue(t, 0) == 0) deletes.deletes.push_back(t);
  }
  ASSERT_FALSE(deletes.deletes.empty());
  ASSERT_TRUE(w.Apply(deletes).ok());
  ASSERT_TRUE(w.RebuildCube().ok());
  auto partials = w.cube()->store().ListPartials(AtomicCellId(0, 0));
  ASSERT_TRUE(partials.ok());
  EXPECT_TRUE(partials->empty());
  auto stored = w.cube()->store().LoadFull(
      AtomicCellId(0, 0), w.cube()->fanout(), w.cube()->levels());
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_TRUE(stored->Empty());

  const PredicateSet one{{0, 0}};
  const PredicateSet two{{0, 0}, {1, 1}};
  const LinearRanking f({0.5, 0.5});
  for (const PredicateSet& preds : {one, two}) {
    auto sky = w.SignatureSkyline(preds);
    ASSERT_TRUE(sky.ok()) << sky.status().ToString();
    EXPECT_TRUE(sky->skyline.empty());
    auto topk = w.SignatureTopK(preds, f, 5);
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
    EXPECT_TRUE(topk->results.empty());
  }
  auto report = w.VerifyIntegrity();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << FirstProblem(*report);

  // Maintenance loads the empty signature and sets the new tuple's path.
  WriteBatch insert;
  insert.inserts.push_back(DominatingRow(0, 2, 2));
  auto applied = w.Apply(insert);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const TupleId tid = w.data().num_tuples() - 1;
  for (const PredicateSet& preds : {one, PredicateSet{{0, 0}, {1, 0}}}) {
    auto sky = w.SignatureSkyline(preds);
    ASSERT_TRUE(sky.ok()) << sky.status().ToString();
    ASSERT_EQ(sky->skyline.size(), 1u);
    EXPECT_EQ(sky->skyline[0].id, tid);
  }
  auto sky = w.SignatureSkyline(two);
  ASSERT_TRUE(sky.ok()) << sky.status().ToString();
  EXPECT_TRUE(sky->skyline.empty());
}

}  // namespace
}  // namespace pcube
