#include "workbench/batch_executor.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/metrics.h"
#include "common/timer.h"

namespace pcube {

void ReportQueryMetrics(const BatchQuery& query, const QueryResponse& resp,
                        const Status& status) {
  // Resolved once: every served query reports here, and a registry lookup
  // takes the registry's exclusive lock.
  struct Handles {
    Counter* skylines;
    Counter* topks;
    Counter* failures;
    Counter* timeouts;
    Histogram* seconds;
    Counter* nodes_expanded;
    Counter* pruned_boolean;
    Counter* pruned_preference;
    Counter* verified;
    Gauge* heap_peak;
  };
  static const Handles h = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return Handles{r.GetCounter("pcube_queries_total{kind=\"skyline\"}"),
                   r.GetCounter("pcube_queries_total{kind=\"topk\"}"),
                   r.GetCounter("pcube_query_failures_total"),
                   r.GetCounter("pcube_query_timeouts_total"),
                   r.GetHistogram("pcube_query_seconds"),
                   r.GetCounter("pcube_engine_nodes_expanded_total"),
                   r.GetCounter("pcube_engine_pruned_boolean_total"),
                   r.GetCounter("pcube_engine_pruned_preference_total"),
                   r.GetCounter("pcube_engine_verified_total"),
                   r.GetGauge("pcube_engine_heap_peak")};
  }();
  (query.kind == BatchQuery::Kind::kSkyline ? h.skylines : h.topks)
      ->Increment();
  if (!status.ok()) {
    h.failures->Increment();
    if (status.IsTimeout()) h.timeouts->Increment();
    return;
  }
  h.seconds->Observe(resp.seconds);
  h.nodes_expanded->Increment(resp.counters.nodes_expanded);
  h.pruned_boolean->Increment(resp.counters.pruned_boolean);
  h.pruned_preference->Increment(resp.counters.pruned_preference);
  h.verified->Increment(resp.counters.verified);
  h.heap_peak->Set(static_cast<double>(resp.counters.heap_peak));
}

BatchQueryResult BatchExecutor::ExecuteOne(const BatchQuery& query) const {
  BatchQueryResult result;
  // Batches always execute the signature plan over the shared cube.
  result.response.estimate.choice = PlanChoice::kSignature;
  // Per-thread I/O attribution: every physical read this worker performs
  // while the query runs lands in result.io. The trace binding routes the
  // BufferPool's io_wait spans to this query's trace the same way.
  BufferPool::ScopedThreadStats scope(&result.io);
  Trace::ScopedBind bind(&result.response.trace);
  Timer timer;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (query.deadline_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(query.deadline_ms);
  }
  // L1 result cache. Batches ignore plan hints (they always run the
  // signature plan), so only canonicalizability gates cache use; a lookup
  // is served exactly as QueryPlanner::Run serves it.
  const bool use_cache =
      cache_ != nullptr && data_ != nullptr && query.Canonicalizable();
  if (cache_ != nullptr && !use_cache) {
    result.response.cache = CacheOutcome::kBypass;
    MetricsRegistry::Default()
        .GetCounter("pcube_result_cache_bypass_total")
        ->Increment();
  }
  if (use_cache) {
    ResultCache::Lookup found;
    {
      ScopedSpan span(&result.response.trace, "cache_lookup");
      found = cache_->Find(query, *data_);
    }
    result.response.cache = found.outcome;
    if (found.outcome != CacheOutcome::kMiss) {
      // kHit and top-k kContainment both carry the final answer.
      result.response.tids = std::move(found.tids);
      result.response.scores = std::move(found.scores);
      result.response.estimate.choice = found.plan;
      result.seconds = timer.ElapsedSeconds();
      result.response.seconds = result.seconds;
      result.response.io = result.io;
      return result;
    }
  }
  ResultCache::Stamps stamps;
  if (use_cache) stamps = cache_->SnapshotStamps(query.preds);

  auto probe = cube_->MakeProbe(query.preds);
  if (!probe.ok()) {
    result.status = probe.status();
    return result;
  }
  switch (query.kind) {
    case BatchQuery::Kind::kSkyline: {
      SkylineEngine engine(tree_, probe->get(), nullptr, query.skyline);
      engine.set_trace(&result.response.trace);
      engine.set_keep_seeds(false);
      if (deadline) engine.set_deadline(*deadline);
      auto out = engine.Run();
      if (out.ok()) {
        result.response.counters = out->counters;
        for (const SearchEntry& e : out->skyline) {
          result.response.tids.push_back(e.id);
        }
        std::sort(result.response.tids.begin(), result.response.tids.end());
      } else {
        result.status = out.status();
      }
      break;
    }
    case BatchQuery::Kind::kTopK: {
      if (query.ranking == nullptr) {
        result.status = Status::InvalidArgument("top-k query without ranking");
        break;
      }
      TopKEngine engine(tree_, probe->get(), nullptr, query.ranking.get(),
                        query.k);
      engine.set_trace(&result.response.trace);
      engine.set_keep_seeds(false);
      if (deadline) engine.set_deadline(*deadline);
      auto out = engine.Run();
      if (out.ok()) {
        result.response.counters = out->counters;
        for (const SearchEntry& e : out->results) {
          result.response.tids.push_back(e.id);
          result.response.scores.push_back(e.key);
        }
      } else {
        result.status = out.status();
      }
      break;
    }
  }
  result.seconds = timer.ElapsedSeconds();
  result.response.seconds = result.seconds;
  result.response.io = result.io;
  if (use_cache && result.status.ok()) {
    cache_->Insert(query, result.response, stamps);
  }
  return result;
}

BatchOutput BatchExecutor::Execute(const std::vector<BatchQuery>& queries) {
  Timer timer;
  BatchOutput out;
  out.results.resize(queries.size());
  std::vector<std::future<void>> futures;
  futures.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    futures.push_back(pool_->Submit([this, &queries, &out, i] {
      out.results[i] = ExecuteOne(queries[i]);
      const BatchQueryResult& r = out.results[i];
      ReportQueryMetrics(queries[i], r.response, r.status);
      if (query_log_ != nullptr && r.status.ok()) {
        query_log_->Append(QueryLogRecord(queries[i], r.response));
      }
    }));
  }
  for (auto& f : futures) f.get();
  Histogram latency;
  for (const BatchQueryResult& r : out.results) {
    out.io.Merge(r.io);
    if (!r.status.ok()) {
      ++out.failed;  // includes timeouts, itemised separately below
      if (r.status.IsTimeout()) ++out.timed_out;
    } else {
      latency.Observe(r.seconds);
    }
  }
  out.latency.p50 = latency.Quantile(0.50);
  out.latency.p95 = latency.Quantile(0.95);
  out.latency.p99 = latency.Quantile(0.99);
  out.latency.mean = latency.Mean();
  out.latency.count = latency.Count();
  out.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace pcube
