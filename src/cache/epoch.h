// Monotone data epochs: the invalidation backbone of the result cache.
// The Workbench owns one DataEpoch; every incremental maintenance step
// (PCube::ApplyChanges, the paper's Fig. 7 path) bumps the epoch of each
// affected cell, and full rebuilds bump everything. Cache entries record
// the epochs they were computed under and are compared at lookup — stale
// entries are evicted lazily, so the read path takes no lock beyond one
// sharded mutex per probed cell.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "cube/cell.h"

namespace pcube {

/// Thread-safe epoch registry. Epochs only grow; 0 is the initial epoch of
/// every cell and of the whole dataset.
class DataEpoch {
 public:
  DataEpoch() = default;
  DataEpoch(const DataEpoch&) = delete;
  DataEpoch& operator=(const DataEpoch&) = delete;

  /// Epoch of one cell: the per-cell record if newer than the floor set by
  /// the last BumpAll, else that floor.
  uint64_t OfCell(CellId cell) const {
    uint64_t floor = floor_.load(std::memory_order_acquire);
    const Shard& s = shards_[ShardOf(cell)];
    MutexLock lock(&s.mu);
    auto it = s.cells.find(cell);
    uint64_t e = it == s.cells.end() ? 0 : it->second;
    return e > floor ? e : floor;
  }

  /// Dataset-wide epoch: bumped by every mutation anywhere. Entries for
  /// predicate-free queries (no cells to stamp) validate against this.
  uint64_t global() const { return global_.load(std::memory_order_acquire); }

  /// Records a mutation touching `cells`: all of them move to a fresh
  /// dataset epoch.
  void BumpCells(const std::vector<CellId>& cells) {
    uint64_t e = global_.fetch_add(1, std::memory_order_acq_rel) + 1;
    for (CellId cell : cells) {
      Shard& s = shards_[ShardOf(cell)];
      MutexLock lock(&s.mu);
      uint64_t& slot = s.cells[cell];
      if (slot < e) slot = e;
    }
  }

  /// Records a mutation whose footprint is unknown (full rebuild, bulk
  /// load): every cell's epoch advances at once via the floor.
  void BumpAll() {
    uint64_t e = global_.fetch_add(1, std::memory_order_acq_rel) + 1;
    uint64_t f = floor_.load(std::memory_order_relaxed);
    while (f < e &&
           !floor_.compare_exchange_weak(f, e, std::memory_order_acq_rel)) {
    }
  }

 private:
  static constexpr size_t kShards = 16;
  static size_t ShardOf(CellId cell) {
    // Cells of one dimension share the high bits; mix before sharding.
    uint64_t x = cell * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(x >> 60) & (kShards - 1);
  }

  struct Shard {
    mutable Mutex mu;
    std::unordered_map<CellId, uint64_t> cells GUARDED_BY(mu);
  };

  std::atomic<uint64_t> global_{0};
  std::atomic<uint64_t> floor_{0};
  Shard shards_[kShards];
};

}  // namespace pcube
