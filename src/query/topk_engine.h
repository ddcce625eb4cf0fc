// Top-k query processing with Algorithm 1 (paper §V.B): identical framework
// to the skyline engine, but the candidate heap is ordered best-first by the
// ranking function's lower bound f(n) = min_{x in n} f(x), and preference
// pruning drops an entry when k results at least as good already exist.
// Because entries pop in ascending bound order and data objects carry exact
// scores, the first k accepted data objects are exactly the top-k.
#pragma once

#include <chrono>
#include <optional>

#include "common/trace.h"
#include "core/probe.h"
#include "query/query_types.h"
#include "query/ranking.h"
#include "query/verifier.h"
#include "rtree/rstar_tree.h"

namespace pcube {

/// Executes top-k queries against one R-tree + boolean probe.
class TopKEngine {
 public:
  /// `f` and the probe/verifier must outlive the engine. `verifier` works as
  /// in SkylineEngine (minimal probing / lossy-probe safety).
  TopKEngine(const RStarTree* tree, BooleanProbe* probe,
             const TupleVerifier* verifier, const RankingFunction* f,
             size_t k);

  /// Runs from the root.
  Result<TopKOutput> Run();

  /// Runs with a reconstructed candidate heap (Lemma 2 seeds).
  Result<TopKOutput> RunFrom(const std::vector<SearchEntry>& seed);

  /// Optional per-stage timing sink (signature_probe, heap_expand,
  /// boolean_verify). Must outlive the run; null disables tracing.
  void set_trace(Trace* trace) { trace_ = trace; }

  /// Optional wall-clock deadline, checked once per heap pop: when it
  /// passes, the run stops with Status::Timeout (results found so far are
  /// the best-scored prefix, but a partial top-k is not the top-k).
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }

  /// Whether the output keeps b_list, d_list and remaining (on by default).
  /// Callers that read only the answer turn it off: the run then counts
  /// pruned entries without copying them, and its result is unchanged.
  void set_keep_seeds(bool keep) { keep_seeds_ = keep; }

 private:
  /// True when k results scoring at most `key` are already found.
  bool ScorePruned(double key) const;
  /// Files `e` into d_list when ScorePruned; returns whether it was.
  bool PruneByPreference(const SearchEntry& e);
  /// The paper's prune() on one entry: preference first, boolean second.
  /// Seeds take this path; expanded children are pruned node-at-a-time
  /// (node_expansion.h).
  Result<bool> Prune(const SearchEntry& e);

  const RStarTree* tree_;
  BooleanProbe* probe_;
  const TupleVerifier* verifier_;
  Trace* trace_ = nullptr;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  bool keep_seeds_ = true;
  const RankingFunction* f_;
  size_t k_;
  TopKOutput out_;
  /// Children of the node being expanded, reused across expansions.
  std::vector<SearchEntry> children_;
};

}  // namespace pcube
