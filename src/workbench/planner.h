// Cost-based method selection. Fig. 11 of the paper shows a crossover: for
// highly selective predicates (large C) the Boolean-first plan approaches —
// and can beat — the signature plan, because fetching a handful of matching
// tuples is cheaper than any space traversal. A production system should
// therefore pick the method per query. This planner estimates page costs
// from the boolean indices' exact match counts and a simple R-tree traversal
// model, runs the cheaper plan (or the one forced by the request's
// PlanHint), and reports the estimates, the executed plan's EngineCounters
// and I/O, and a per-stage Trace in one QueryResponse.
#pragma once

#include <chrono>
#include <optional>

#include "query/request.h"
#include "workbench/workbench.h"

namespace pcube {

/// Chooses and executes plans against one workbench.
class QueryPlanner {
 public:
  /// `wb` must outlive the planner and have indices + cube built.
  explicit QueryPlanner(Workbench* wb) : wb_(wb) {}

  /// Estimates both plans for `preds` without executing anything
  /// (index-only match counting).
  Result<PlanEstimate> Estimate(const PredicateSet& preds) const;

  /// The single entry point: consults the workbench's result cache (L1),
  /// then — on a miss — estimates, picks a plan (honouring request.hint),
  /// cold-starts the buffer pool and executes, publishing the answer back
  /// into the cache. The response's estimate.choice is the plan that ran
  /// (for a cache hit, the plan that produced the cached entry) and
  /// response.cache records how the cache participated. Forced plan hints
  /// bypass the cache in both directions: the caller asked for a specific
  /// execution, so neither a cached answer nor publishing one is wanted.
  Result<QueryResponse> Run(const QueryRequest& request);

 private:
  /// Runs the branch-and-bound signature plan into `resp`.
  Status ExecuteSignature(const QueryRequest& request,
                          const std::optional<std::chrono::steady_clock::
                                                  time_point>& deadline,
                          QueryResponse* resp);
  /// Runs the boolean-first baseline plan into `resp`.
  Status ExecuteBoolean(const QueryRequest& request, QueryResponse* resp);
  /// True when the boolean plan can answer this request (it implements
  /// plain skylines and top-k, but not skybands or dynamic skylines).
  static bool CanDegrade(const QueryRequest& request);

  Workbench* wb_;
};

}  // namespace pcube
