// Concurrent query driver (the throughput path of the ROADMAP's
// production-scale goal). A batch of QueryRequests fans out over a
// ThreadPool; every query runs Algorithm 1 independently against ONE
// shared, immutable PCube + RStarTree through the striped BufferPool. Each
// worker builds its own BooleanProbe and engine (those stay single-threaded
// per query); the only cross-thread state is the buffer pool, the IoStats
// counters and the optional QueryLog, all thread-safe. Results come back in
// input order together with per-query QueryResponses (counters, I/O,
// per-stage trace), merged physical-I/O counters and a latency summary
// aggregated through a log-bucketed histogram.
#pragma once

#include <memory>
#include <vector>

#include "cache/result_cache.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/pcube.h"
#include "query/query_types.h"
#include "query/ranking.h"
#include "query/request.h"
#include "query/skyline_engine.h"
#include "query/topk_engine.h"
#include "rtree/rstar_tree.h"

namespace pcube {

/// One parsed query of a batch — the unified request type; batches always
/// run the signature engines, so the plan hint is ignored here.
using BatchQuery = QueryRequest;

/// Outcome of one query of a batch (exactly one of skyline/topk is set on
/// success, matching the query's kind).
struct BatchQueryResult {
  Status status;
  /// The unified summary: result tids/scores, engine counters, physical
  /// I/O, per-stage trace and wall time.
  QueryResponse response;
  /// Full engine outputs (b_list/d_list, remaining frontier) for callers
  /// that seed incremental queries from batch results. Immutable and
  /// shared with the L1 result cache: a miss publishes this very object
  /// and a hit hands out the cached one, so neither copies the lists.
  std::shared_ptr<const SkylineOutput> skyline;
  std::shared_ptr<const TopKOutput> topk;
  /// Physical page I/O performed by this query (per-thread attribution; a
  /// page one query faults in and another then hits is charged to the
  /// faulting query, exactly like the sequential accounting). Mirrors
  /// response.io.
  IoStats io;
  double seconds = 0;  ///< wall time of this query on its worker
};

/// Latency quantiles of one batch, estimated from a log-bucketed Histogram
/// of per-query wall times (common/metrics.h).
struct LatencySummary {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double mean = 0;
  uint64_t count = 0;
};

/// Per-query bookkeeping every finished query reports into the process-wide
/// registry: volume, latency and the engine counters behind Figs. 8-16.
void ReportQueryMetrics(const BatchQuery& query, const QueryResponse& resp,
                        const Status& status);

/// A completed batch: per-query results in input order plus merged counters.
struct BatchOutput {
  std::vector<BatchQueryResult> results;
  IoStats io;              ///< sum of every query's physical I/O
  uint64_t failed = 0;     ///< queries whose status is not OK
  uint64_t timed_out = 0;  ///< subset of `failed` with Status::Timeout
  double seconds = 0;      ///< wall time of the whole batch
  LatencySummary latency;  ///< per-query wall-time quantiles
};

/// Fans batches of queries out over a thread pool. The tree, cube and pool
/// must outlive the executor and must not be mutated while a batch runs.
class BatchExecutor {
 public:
  /// `query_log`, when non-null, receives one JSONL record per finished
  /// query (thread-safe; must outlive the executor). `cache` + `data`,
  /// when non-null, enable the L1 result cache for the batch: a query is
  /// served from cache only when the entry can reconstruct the full engine
  /// output (BatchQueryResult promises skyline/topk on success), and every
  /// executed query publishes its answer back. Both must outlive the
  /// executor.
  BatchExecutor(const RStarTree* tree, const PCube* cube, ThreadPool* pool,
                QueryLog* query_log = nullptr, ResultCache* cache = nullptr,
                const Dataset* data = nullptr)
      : tree_(tree),
        cube_(cube),
        pool_(pool),
        query_log_(query_log),
        cache_(cache),
        data_(data) {}

  /// Runs every query to completion; individual failures are reported in the
  /// per-query status, never by aborting the batch.
  BatchOutput Execute(const std::vector<BatchQuery>& queries);

  /// Runs ONE query on the calling thread: L1 lookup, private probe +
  /// signature engine, per-thread I/O attribution — exactly what one batch
  /// worker does. Thread-safe (the shared tree/cube/pool/caches all are),
  /// so concurrent callers — the network server's workers — use this
  /// without a pool. The executor may have been built with a null pool when
  /// only this entry point is used.
  BatchQueryResult ExecuteOne(const BatchQuery& query) const;

 private:
  const RStarTree* tree_;
  const PCube* cube_;
  ThreadPool* pool_;
  QueryLog* query_log_;
  ResultCache* cache_;
  const Dataset* data_;
};

}  // namespace pcube
