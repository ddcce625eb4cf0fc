#include "workbench/planner.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"

namespace pcube {

Result<PlanEstimate> QueryPlanner::Estimate(const PredicateSet& preds) const {
  PlanEstimate est;
  const uint64_t total = wb_->data().num_tuples();

  // Exact per-predicate counts from the boolean indices (an index-only
  // scan; cheap relative to either plan).
  uint64_t min_count = total;
  double combined_selectivity = 1.0;
  for (const Predicate& p : preds.predicates()) {
    auto count = wb_->indices()[p.dim].Count(p.value);
    if (!count.ok()) return count.status();
    min_count = std::min(min_count, *count);
    combined_selectivity *=
        total == 0 ? 0.0 : static_cast<double>(*count) / total;
  }
  est.matching_tuples = preds.empty()
                            ? total
                            : static_cast<uint64_t>(combined_selectivity *
                                                    static_cast<double>(total));

  // Boolean-first: fetch the most selective predicate's postings (one
  // random page per tuple) or scan the table, whichever is cheaper — the
  // same rule BooleanFirstExecutor applies.
  uint64_t scan_pages = wb_->table()->num_pages();
  est.boolean_pages = preds.empty() ? scan_pages : std::min(min_count, scan_pages);

  // Signature plan: the branch-and-bound visits the root path plus the
  // leaf-region around the selected subset's skyline. Model: the traversal
  // touches the fraction of R-tree pages holding matching tuples, discounted
  // by preference pruning (empirically ~2/3 of the subset's pages are
  // pruned), plus one signature page and its directory lookup per predicate.
  double match_fraction =
      preds.empty() ? 1.0
                    : std::max(combined_selectivity,
                               1.0 / static_cast<double>(std::max<uint64_t>(
                                         1, wb_->tree()->num_pages())));
  constexpr double kPreferencePruning = 1.0 / 3.0;
  est.signature_pages =
      static_cast<uint64_t>(wb_->tree()->height() + 1 +
                            match_fraction * kPreferencePruning *
                                static_cast<double>(wb_->tree()->num_pages())) +
      2 * preds.size();

  est.choice = est.signature_pages <= est.boolean_pages
                   ? PlanChoice::kSignature
                   : PlanChoice::kBooleanFirst;
  return est;
}

Status QueryPlanner::ExecuteSignature(
    const QueryRequest& request,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    QueryResponse* resp) {
  auto probe = wb_->cube()->MakeProbe(request.preds);
  if (!probe.ok()) return probe.status();
  if (request.kind == QueryRequest::Kind::kSkyline) {
    SkylineEngine engine(wb_->tree(), probe->get(), nullptr, request.skyline);
    engine.set_trace(&resp->trace);
    engine.set_keep_seeds(false);
    if (deadline) engine.set_deadline(*deadline);
    auto run = engine.Run();
    if (!run.ok()) return run.status();
    resp->counters = run->counters;
    for (const SearchEntry& e : run->skyline) resp->tids.push_back(e.id);
  } else {
    TopKEngine engine(wb_->tree(), probe->get(), nullptr,
                      request.ranking.get(), request.k);
    engine.set_trace(&resp->trace);
    engine.set_keep_seeds(false);
    if (deadline) engine.set_deadline(*deadline);
    auto run = engine.Run();
    if (!run.ok()) return run.status();
    resp->counters = run->counters;
    for (const SearchEntry& e : run->results) {
      resp->tids.push_back(e.id);
      resp->scores.push_back(e.key);
    }
  }
  return Status::OK();
}

Status QueryPlanner::ExecuteBoolean(const QueryRequest& request,
                                    QueryResponse* resp) {
  ScopedSpan span(&resp->trace, "boolean_first");
  BooleanFirstExecutor boolean(&wb_->indices(), wb_->table(),
                               &wb_->tombstones());
  if (request.kind == QueryRequest::Kind::kSkyline) {
    auto run = boolean.Skyline(request.preds, request.skyline.pref_dims);
    if (!run.ok()) return run.status();
    resp->counters = run->counters;
    resp->tids = run->tids;
  } else {
    auto run = boolean.TopK(request.preds, *request.ranking, request.k);
    if (!run.ok()) return run.status();
    resp->counters = run->counters;
    resp->tids = run->tids;
    resp->scores = run->scores;
  }
  return Status::OK();
}

bool QueryPlanner::CanDegrade(const QueryRequest& request) {
  if (request.kind == QueryRequest::Kind::kTopK) return true;
  // The boolean baseline implements only the plain skyline.
  return request.skyline.skyband_k == 1 && request.skyline.origin.empty();
}

Result<QueryResponse> QueryPlanner::Run(const QueryRequest& request) {
  if (request.kind == QueryRequest::Kind::kTopK && request.ranking == nullptr) {
    return Status::InvalidArgument("top-k query without ranking");
  }
  QueryResponse resp;
  MetricsRegistry& registry = MetricsRegistry::Default();

  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (request.deadline_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(request.deadline_ms);
  }

  // L1 result cache. A forced plan hint bypasses it entirely (lookup AND
  // insert): the caller demands a specific execution — regression tests
  // compare both plans on one query — and an answer produced under duress
  // should not masquerade as the cost-based one later. Queries without a
  // canonical form (custom rankings) cannot be keyed and bypass too.
  ResultCache* cache = wb_->result_cache();
  bool use_cache = cache != nullptr && request.hint == PlanHint::kAuto &&
                   request.Canonicalizable();
  if (cache != nullptr && !use_cache) {
    resp.cache = CacheOutcome::kBypass;
    registry.GetCounter("pcube_result_cache_bypass_total")->Increment();
  }
  if (use_cache) {
    ResultCache::Lookup found;
    {
      ScopedSpan span(&resp.trace, "cache_lookup");
      found = cache->Find(request, wb_->data());
    }
    resp.cache = found.outcome;
    if (found.outcome != CacheOutcome::kMiss) {
      // kHit and top-k kContainment both carry the final answer.
      Timer timer;
      resp.tids = std::move(found.tids);
      resp.scores = std::move(found.scores);
      resp.estimate.choice = found.plan;
      resp.seconds = timer.ElapsedSeconds();
      registry.GetHistogram("pcube_query_seconds")->Observe(resp.seconds);
      return resp;
    }
  }
  ResultCache::Stamps stamps;
  if (use_cache) stamps = cache->SnapshotStamps(request.preds);

  {
    ScopedSpan span(&resp.trace, "plan_estimate");
    auto est = Estimate(request.preds);
    if (!est.ok()) return est.status();
    resp.estimate = *est;
  }
  if (request.hint == PlanHint::kSignature) {
    resp.estimate.choice = PlanChoice::kSignature;
  } else if (request.hint == PlanHint::kBooleanFirst) {
    resp.estimate.choice = PlanChoice::kBooleanFirst;
  }
  // The boolean-first baseline only implements the plain skyline; skybands
  // and dynamic skylines are signature-engine queries regardless of cost.
  if (request.kind == QueryRequest::Kind::kSkyline &&
      (request.skyline.skyband_k > 1 || !request.skyline.origin.empty())) {
    resp.estimate.choice = PlanChoice::kSignature;
  }

  PCUBE_RETURN_NOT_OK(wb_->ColdStart());
  Timer timer;
  // Bind the trace to this thread so the BufferPool attributes `io_wait`.
  Trace::ScopedBind bind(&resp.trace);

  if (resp.estimate.choice == PlanChoice::kSignature) {
    Status st = ExecuteSignature(request, deadline, &resp);
    if (!st.ok()) {
      // Signatures and the R-tree are derived, redundant state: when their
      // pages are corrupt or unreadable, the base relation can still answer
      // the query through the boolean-first plan. Timeouts and other
      // failures are not storage damage and propagate unchanged.
      if (!(st.IsCorruption() || st.IsIoError()) || !CanDegrade(request)) {
        if (st.IsTimeout()) {
          registry.GetCounter("pcube_query_timeouts_total")->Increment();
        }
        return st;
      }
      resp.tids.clear();
      resp.scores.clear();
      resp.counters = EngineCounters();
      resp.degraded = true;
      resp.degraded_reason = st.ToString();
      resp.estimate.choice = PlanChoice::kBooleanFirst;
      registry.GetCounter("pcube_queries_degraded_total")->Increment();
      Status fallback = ExecuteBoolean(request, &resp);
      if (!fallback.ok()) return fallback;
    }
  } else {
    PCUBE_RETURN_NOT_OK(ExecuteBoolean(request, &resp));
  }
  if (request.kind == QueryRequest::Kind::kSkyline) {
    std::sort(resp.tids.begin(), resp.tids.end());
  }
  resp.seconds = timer.ElapsedSeconds();
  resp.io = wb_->IoSince();

  // Publish the executed answer. Insert() itself refuses degraded
  // responses — a boolean-first answer computed around corrupt pages must
  // not outlive the corruption.
  if (use_cache) cache->Insert(request, resp, stamps);

  registry
      .GetCounter(resp.estimate.choice == PlanChoice::kSignature
                      ? "pcube_planner_plans_total{plan=\"signature\"}"
                      : "pcube_planner_plans_total{plan=\"boolean_first\"}")
      ->Increment();
  registry.GetHistogram("pcube_query_seconds")->Observe(resp.seconds);
  return resp;
}

}  // namespace pcube
