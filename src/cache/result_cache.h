// L1 of the query cache: a semantic result cache over the unified
// QueryRequest. An entry holds only the answer (tids, scores, the plan
// that produced it and the epoch stamps it was computed under). Entries
// are keyed by the request's *family* fingerprint (request.h: canonical
// form with top-k's k stripped), so one entry serves
//   * exact repeats — same canonical query;
//   * truncation   — a cached top-k with entry.k >= k' (or one that
//     exhausted all matching tuples) answers k' by taking a prefix;
//   * containment  — a top-k query for predicates P' ⊇ P is answered by
//     filtering the list cached for P by the extra predicates (sound when
//     enough survivors remain or the list was exhaustive).
// A skyline is only ever served by an exact repeat: a point outside the
// subset relation's skyline may enter the superset-predicate skyline when
// its dominators stop qualifying, so filtering is unsound, and re-searching
// from a cached skyline (Lemma 2) lost to a fresh run (DESIGN.md §10).
//
// Freshness is epoch-based (epoch.h): entries carry the epoch of each
// predicate's atomic cell (the global epoch when predicate-free) read
// BEFORE execution, and are compared at lookup; mismatches evict lazily.
// An answer depends only on the tuples its predicates select, so R-tree
// changes outside those cells leave it valid. Degraded responses are never
// inserted: a boolean-first answer computed around corrupt signature pages
// would outlive the corruption.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/epoch.h"
#include "cache/slru.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "cube/relation.h"
#include "query/request.h"

namespace pcube {

/// One cached answer (immutable once published; shared by snapshot).
struct CachedResult {
  std::string family;  ///< canonical family string (hash-collision check)
  QueryRequest::Kind kind = QueryRequest::Kind::kSkyline;
  PredicateSet preds;
  size_t k = 0;  ///< top-k: the k the entry was computed with

  std::vector<TupleId> tids;    ///< skyline: ascending; top-k: rank order
  std::vector<double> scores;   ///< top-k only, aligned with tids
  PlanChoice plan = PlanChoice::kSignature;

  /// Epoch stamps read before the producing execution.
  std::vector<std::pair<CellId, uint64_t>> cell_stamps;
  uint64_t global_stamp = 0;  ///< used when preds is empty

  size_t charge = 0;

  /// True when the run returned every matching tuple (top-k that ran dry):
  /// such a list answers any k and survives any predicate filtering.
  bool Exhausted() const { return tids.size() < k; }
};

/// Thread-safe sharded SLRU result cache.
class ResultCache {
 public:
  ResultCache(size_t capacity_bytes, const DataEpoch* epoch);

  /// Epoch stamps for a request's footprint — its predicates' atomic cells
  /// plus the global epoch. MUST be read before the execution whose result
  /// will be inserted, so concurrent updates can only make the entry look
  /// stale, never wrongly fresh.
  struct Stamps {
    std::vector<std::pair<CellId, uint64_t>> cells;
    uint64_t global = 0;
  };
  Stamps SnapshotStamps(const PredicateSet& preds) const;

  /// Outcome of a lookup: kMiss (nothing usable), or kHit / kContainment
  /// (top-k only) with `tids`/`scores` holding the final answer and `plan`
  /// the plan that produced the entry it came from.
  struct Lookup {
    CacheOutcome outcome = CacheOutcome::kMiss;
    std::vector<TupleId> tids;
    std::vector<double> scores;
    PlanChoice plan = PlanChoice::kSignature;
  };

  /// Probes the exact family, then — top-k only — predicate subsets in
  /// decreasing size. `data` backs the containment filter pass.
  Lookup Find(const QueryRequest& request, const Dataset& data);

  /// Publishes an executed answer. No-op for degraded responses and
  /// non-canonicalizable requests. `stamps` must be the SnapshotStamps
  /// taken before the execution.
  void Insert(const QueryRequest& request, const QueryResponse& response,
              const Stamps& stamps);

  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }
  const DataEpoch* epoch() const { return epoch_; }

 private:
  static constexpr size_t kShards = 8;
  /// Containment probing enumerates proper predicate subsets (2^n - 1
  /// probes); above this many predicates it is skipped.
  static constexpr size_t kMaxContainmentPreds = 6;

  /// Lock order: shard mutexes are leaves and never nested — containment
  /// probing touches one shard at a time, releasing before the next probe.
  struct Shard {
    Mutex mu;
    SlruShard<uint64_t, std::shared_ptr<const CachedResult>> slru
        GUARDED_BY(mu);
  };
  Shard& ShardOf(uint64_t fp) { return shards_[fp >> 61 & (kShards - 1)]; }

  /// Fetches a fresh (answer-level) entry for a family fingerprint, lazily
  /// evicting stale ones. Collision-checked against `family`.
  std::shared_ptr<const CachedResult> GetFresh(uint64_t fp,
                                               const std::string& family);
  bool AnswerFresh(const CachedResult& entry) const;

  const DataEpoch* epoch_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> entries_{0};

  Counter* hits_;
  Counter* misses_;
  Counter* containment_;
  Counter* stale_;
  Counter* evictions_;
  Counter* inserts_;
};

}  // namespace pcube
