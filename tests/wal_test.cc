// WAL tests (DESIGN.md §15, storage/wal.h): stage/commit round trips across
// restarts, group commit coalescing concurrent writers into one fsync, the
// checkpoint life cycle, and the recovery taxonomy — torn tail (expected
// crash residue: discarded), stale records (skipped), LSN gaps (corruption).
// Labeled asan (raw page buffers) and tsan (the leader/follower handshake)
// for scripts/ci.sh.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bit_util.h"
#include "storage/page_manager.h"
#include "storage/wal.h"

namespace pcube {
namespace {

class WalTest : public ::testing::Test {
 protected:
  std::string path_ = testing::TempDir() + "/pcube_wal_test.wal";

  void SetUp() override { std::remove(path_.c_str()); }
  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<Wal> OpenFresh(bool truncate = true) {
    Wal::Options options;
    options.path = path_;
    options.truncate = truncate;
    auto wal = Wal::Open(options);
    PCUBE_CHECK(wal.ok()) << wal.status().ToString();
    return std::move(*wal);
  }

  /// Flips one byte of the raw log file (fault model: at-rest rot / torn
  /// page). `offset` is an absolute file offset.
  void FlipByte(uint64_t offset) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  }
};

TEST_F(WalTest, CommitSurvivesReopen) {
  {
    auto wal = OpenFresh();
    for (int i = 0; i < 3; ++i) {
      auto lsn = wal->Stage("record-" + std::to_string(i));
      ASSERT_TRUE(lsn.ok());
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
    }
    ASSERT_TRUE(wal->WaitDurable(3).ok());
    EXPECT_EQ(wal->durable_lsn(), 3u);
    EXPECT_TRUE(wal->durable());
  }
  auto wal = OpenFresh(/*truncate=*/false);
  std::vector<Wal::Record> replayed;
  auto report = wal->Replay([&](const Wal::Record& r) {
    replayed.push_back(r);
    return Status::OK();
  });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok());
  EXPECT_FALSE(report->torn_tail);
  ASSERT_EQ(replayed.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(replayed[i].lsn, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(replayed[i].payload, "record-" + std::to_string(i));
  }
  // The append cursor continues the sequence.
  auto lsn = wal->Stage("after-reopen");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 4u);
  EXPECT_TRUE(wal->WaitDurable(4).ok());
}

TEST_F(WalTest, StagedGroupCommitsInOneSync) {
  auto wal = OpenFresh();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wal->Stage(std::string("r").append(std::to_string(i))).ok());
  }
  const uint64_t syncs_before = wal->sync_count();
  uint32_t group = 0;
  // The first waiter leads and flushes EVERY staged record: one sync.
  ASSERT_TRUE(wal->WaitDurable(8, &group).ok());
  EXPECT_EQ(group, 8u);
  EXPECT_EQ(wal->sync_count(), syncs_before + 1);
  EXPECT_EQ(wal->durable_lsn(), 8u);
}

TEST_F(WalTest, ConcurrentWritersAllCommit) {
  auto wal = OpenFresh();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string record = "t";
        record += std::to_string(t);
        record += '-';
        record += std::to_string(i);
        auto lsn = wal->Stage(record);
        if (!lsn.ok() || !wal->WaitDurable(*lsn).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal->durable_lsn(), static_cast<uint64_t>(kThreads * kPerThread));
  // Coalescing is opportunistic, but the sync count can never exceed the
  // commit count (and the group-size histogram metric tracks the rest).
  EXPECT_LE(wal->sync_count(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(WalTest, TornTailDiscardedStaleSkippedOnInspect) {
  {
    auto wal = OpenFresh();
    ASSERT_TRUE(wal->Stage("first-record").ok());   // lsn 1
    ASSERT_TRUE(wal->Stage("second-record").ok());  // lsn 2
    ASSERT_TRUE(wal->WaitDurable(2).ok());
  }
  // Damage the SECOND record's payload. Record 1 spans region bytes
  // [0, 16 + 12); record 2 starts at 28; its payload starts at 44. The
  // record region begins at file offset kPageSize (page 0 is the header).
  FlipByte(kPageSize + 16 + std::string("first-record").size() + 16 + 2);
  auto inspected = Wal::Inspect(path_);
  ASSERT_TRUE(inspected.ok()) << inspected.status().ToString();
  EXPECT_TRUE(inspected->ok()) << inspected->errors.front();
  EXPECT_TRUE(inspected->torn_tail);  // CRC failure at the tail: discarded
  EXPECT_EQ(inspected->num_records, 1u);
  EXPECT_EQ(inspected->last_lsn, 1u);

  // Replay agrees, heals the tail, and the next commit reuses lsn 2.
  auto wal = OpenFresh(/*truncate=*/false);
  std::vector<uint64_t> lsns;
  auto report = wal->Replay([&](const Wal::Record& r) {
    lsns.push_back(r.lsn);
    return Status::OK();
  });
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->torn_tail);
  EXPECT_EQ(lsns, std::vector<uint64_t>{1});
  auto lsn = wal->Stage("rewritten");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
  ASSERT_TRUE(wal->WaitDurable(2).ok());
  auto clean = Wal::Inspect(path_);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->torn_tail);
  EXPECT_EQ(clean->num_records, 2u);
}

TEST_F(WalTest, StaleRecordsBehindHeaderSkipped) {
  // A crash BETWEEN the checkpoint's header rewrite and the region zeroing
  // leaves pre-checkpoint records on disk with LSNs below the header's
  // start_lsn. Simulate by advancing start_lsn by hand: the scan must skip
  // the stale prefix without error and count only current records.
  {
    auto wal = OpenFresh();
    ASSERT_TRUE(wal->Stage("one").ok());
    ASSERT_TRUE(wal->Stage("two").ok());
    ASSERT_TRUE(wal->Stage("three").ok());
    ASSERT_TRUE(wal->WaitDurable(3).ok());
  }
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    uint8_t lsn_le[8];
    bit_util::StoreLE(lsn_le, static_cast<uint64_t>(3));
    f.seekp(8);  // header: u32 magic | u32 version | u64 start_lsn
    f.write(reinterpret_cast<const char*>(lsn_le), sizeof(lsn_le));
  }
  auto inspected = Wal::Inspect(path_);
  ASSERT_TRUE(inspected.ok());
  EXPECT_TRUE(inspected->ok());
  EXPECT_EQ(inspected->start_lsn, 3u);
  EXPECT_EQ(inspected->num_records, 1u);  // "three" alone; "one"/"two" stale
  EXPECT_EQ(inspected->last_lsn, 3u);

  auto wal = OpenFresh(/*truncate=*/false);
  std::vector<std::string> payloads;
  auto report = wal->Replay([&](const Wal::Record& r) {
    payloads.push_back(r.payload);
    return Status::OK();
  });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(payloads, std::vector<std::string>{"three"});
}

TEST_F(WalTest, CheckpointEmptiesLog) {
  {
    auto wal = OpenFresh();
    ASSERT_TRUE(wal->Stage("before-checkpoint").ok());
    ASSERT_TRUE(wal->WaitDurable(1).ok());
    ASSERT_TRUE(wal->Checkpoint().ok());
    EXPECT_EQ(wal->next_lsn(), 2u);
    // Post-checkpoint commits land at the head of the emptied region.
    ASSERT_TRUE(wal->Stage("after-checkpoint").ok());
    ASSERT_TRUE(wal->WaitDurable(2).ok());
  }
  auto inspected = Wal::Inspect(path_);
  ASSERT_TRUE(inspected.ok());
  EXPECT_TRUE(inspected->ok());
  EXPECT_EQ(inspected->start_lsn, 2u);
  EXPECT_EQ(inspected->num_records, 1u);
  EXPECT_EQ(inspected->last_lsn, 2u);
}

TEST_F(WalTest, LsnGapBehindValidRecordsIsCorruption) {
  {
    auto wal = OpenFresh();
    ASSERT_TRUE(wal->Stage("one").ok());
    ASSERT_TRUE(wal->WaitDurable(1).ok());
    ASSERT_TRUE(wal->Checkpoint().ok());       // header start_lsn -> 2
    ASSERT_TRUE(wal->Stage("two").ok());       // lsn 2 at the region head
    ASSERT_TRUE(wal->WaitDurable(2).ok());
  }
  // Rewind the header's start_lsn to 1: the scan now EXPECTS lsn 1 but
  // finds an intact record claiming lsn 2 — a gap, i.e. lost records.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    uint8_t lsn_le[8];
    bit_util::StoreLE(lsn_le, static_cast<uint64_t>(1));
    f.seekp(8);  // header: u32 magic | u32 version | u64 start_lsn
    f.write(reinterpret_cast<const char*>(lsn_le), sizeof(lsn_le));
  }
  auto inspected = Wal::Inspect(path_);
  ASSERT_TRUE(inspected.ok());
  ASSERT_FALSE(inspected->ok());
  EXPECT_NE(inspected->errors.front().find("LSN gap"), std::string::npos);

  // Replay refuses outright: acknowledged records are missing.
  Wal::Options options;
  options.path = path_;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  auto report = (*wal)->Replay([](const Wal::Record&) { return Status::OK(); });
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCorruption());
}

TEST_F(WalTest, RamBackedLogCommitsButIsNotDurable) {
  Wal::Options options;  // empty path: in-memory
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE((*wal)->durable());
  auto lsn = (*wal)->Stage("ephemeral");
  ASSERT_TRUE(lsn.ok());
  uint32_t group = 0;
  EXPECT_TRUE((*wal)->WaitDurable(*lsn, &group).ok());
  EXPECT_EQ(group, 1u);
}

TEST_F(WalTest, WaitDurableRejectsUnstagedLsn) {
  // An LSN past the append cursor could never become durable; waiting on it
  // must fail fast instead of looping on empty group commits forever.
  auto wal = OpenFresh();
  EXPECT_TRUE(wal->WaitDurable(1).IsInvalidArgument());  // nothing staged
  auto lsn = wal->Stage("only-record");
  ASSERT_TRUE(lsn.ok());
  EXPECT_TRUE(wal->WaitDurable(*lsn + 1).IsInvalidArgument());
  EXPECT_TRUE(wal->WaitDurable(*lsn).ok());
}

TEST_F(WalTest, OversizedPayloadRejected) {
  auto wal = OpenFresh();
  std::string huge(kMaxWalPayload + 1, 'x');
  EXPECT_TRUE(wal->Stage(huge).status().IsInvalidArgument());
}

}  // namespace
}  // namespace pcube
