// Skyline query processing with Algorithm 1 (paper §V.A): branch-and-bound
// over the R-tree in ascending d(n) = coordinate-sum order [9], pruning each
// candidate first by domination against the skyline found so far, then by
// the boolean probe (signatures). Entries pruned by domination go to d_list,
// entries pruned by the boolean predicate to b_list — the seeds of
// drill-down / roll-up queries (Lemma 2, incremental.h).
#pragma once

#include <chrono>
#include <optional>

#include <vector>

#include "common/trace.h"
#include "core/probe.h"
#include "query/dominance_kernels.h"
#include "query/query_types.h"
#include "query/verifier.h"
#include "rtree/rstar_tree.h"

namespace pcube {

/// Executes skyline queries against one R-tree + boolean probe.
/// (SkylineQueryOptions lives in query_types.h with the other shared query
/// framework types.)
class SkylineEngine {
 public:
  /// `probe` supplies boolean pruning (TrueProbe for the Domination
  /// baseline). `verifier`, when non-null, re-checks every accepted data
  /// object against the base table (minimal probing [3]; also required for
  /// non-exact probes). Both must outlive the engine.
  SkylineEngine(const RStarTree* tree, BooleanProbe* probe,
                const TupleVerifier* verifier,
                SkylineQueryOptions options = {});

  /// Runs Algorithm 1 from the root.
  Result<SkylineOutput> Run();

  /// Runs Algorithm 1 with a reconstructed candidate heap (Lemma 2): the
  /// seed replaces the root, everything else is unchanged.
  Result<SkylineOutput> RunFrom(const std::vector<SearchEntry>& seed);

  /// Optional per-stage timing sink (signature_probe, heap_expand,
  /// boolean_verify). Must outlive the run; null disables tracing.
  void set_trace(Trace* trace) { trace_ = trace; }

  /// Optional wall-clock deadline, checked once per heap pop: when it
  /// passes, the run stops with Status::Timeout instead of partial results
  /// (a partial skyline would be silently wrong — supersets are fine,
  /// missing members are not).
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }

  /// Whether the output keeps b_list and d_list (on by default). Callers
  /// that read only the answer turn it off: the run then counts pruned
  /// entries without copying them, and its result is unchanged.
  void set_keep_seeds(bool keep) { keep_seeds_ = keep; }

 private:
  double EntryKey(const RectF& rect) const;
  /// Optimistic transformed coordinate of `rect` on dimension d: the least
  /// value any point inside can attain (identity without an origin; minimal
  /// |x - origin_d| with one).
  double LowCoord(const RectF& rect, int d) const;
  /// True when the entry's optimistic corner is dominated by >= skyband_k
  /// current results (batched kernel over the SoA window).
  bool Dominated(const RectF& rect) const;
  /// Writes the transformed coordinates of `rect` on the preference
  /// dimensions into cand_scratch_.
  void TransformInto(const RectF& rect) const;
  /// Files `e` into d_list when Dominated; returns whether it was.
  bool PruneByPreference(const SearchEntry& e);
  /// Applies the paper's prune() (lines 14-20) to one entry: preference
  /// first, boolean second; files the entry into the appropriate list.
  /// Seeds take this path; expanded children are pruned node-at-a-time
  /// (node_expansion.h).
  Result<bool> Prune(const SearchEntry& e);

  const RStarTree* tree_;
  BooleanProbe* probe_;
  const TupleVerifier* verifier_;
  Trace* trace_ = nullptr;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  bool keep_seeds_ = true;
  SkylineQueryOptions options_;
  std::vector<int> dims_;
  SkylineOutput out_;
  /// Column-major transformed coordinates of out_.skyline, appended as
  /// members are accepted, so every dominance test runs the batched kernel
  /// instead of re-deriving coordinates from each member's rect.
  DominanceWindow window_;
  mutable std::vector<double> cand_scratch_;
  /// Children of the node being expanded, reused across expansions.
  std::vector<SearchEntry> children_;
};

}  // namespace pcube
