// Node-at-a-time expansion shared by the skyline and top-k engines
// (Algorithm 1's expansion step, DESIGN.md §17). An engine expanding an
// R-tree node builds every valid child with its key and preference-prunes
// each one — the skyline window and the k-th score change only when an
// entry is popped, so every child sees the same state whenever it is
// tested. FileChildren then asks the boolean probe about all preference
// survivors in one FilterChildren call and files each child, in slot order,
// into d_list (preference-pruned), b_list (boolean-pruned) or the candidate
// heap: the lists and the heap's push order are those of the paper's
// per-child prune(). A run that does not keep its Lemma 2 seeds only counts
// the pruned children.
#pragma once

#include <algorithm>
#include <queue>
#include <vector>

#include "common/timer.h"
#include "common/trace.h"
#include "core/probe.h"
#include "query/query_types.h"
#include "rtree/node.h"

namespace pcube {

struct KeyGreater {
  bool operator()(const SearchEntry& a, const SearchEntry& b) const {
    return a.key > b.key;
  }
};

/// Min-heap of candidates by key.
using CandidateHeap =
    std::priority_queue<SearchEntry, std::vector<SearchEntry>, KeyGreater>;

/// Files the children of `node`, the R-tree node at `parent`. `children`
/// holds every valid child in slot order (path and key set); `survivors`
/// marks the slots that survived preference pruning. `Output` is
/// SkylineOutput or TopKOutput. The probe call is timed once into
/// counters.sig_seconds and the trace's `signature_probe` stage, and is
/// skipped when no child survived preference pruning. With `keep_seeds`
/// false the pruned children are counted but not copied into the lists.
template <typename Output>
Status FileChildren(BooleanProbe* probe, Trace* trace, const Path& parent,
                    const NodeView& node, const ChildMask& survivors,
                    const std::vector<SearchEntry>& children,
                    CandidateHeap* heap, Output* out, bool keep_seeds) {
  ChildMask pass = survivors;
  if (!pass.None()) {
    Timer t;
    Status status = probe->FilterChildren(parent, node, &pass);
    double dt = t.ElapsedSeconds();
    out->counters.sig_seconds += dt;
    if (trace != nullptr) trace->Record("signature_probe", dt);
    PCUBE_RETURN_NOT_OK(status);
  }
  for (const SearchEntry& child : children) {
    const uint32_t s = child.path.back() - 1u;
    if (!survivors.Get(s)) {
      if (keep_seeds) out->d_list.push_back(child);
      ++out->counters.pruned_preference;
    } else if (!pass.Get(s)) {
      if (keep_seeds) out->b_list.push_back(child);
      ++out->counters.pruned_boolean;
    } else {
      heap->push(child);
      out->counters.heap_peak =
          std::max<uint64_t>(out->counters.heap_peak, heap->size());
    }
  }
  return Status::OK();
}

}  // namespace pcube
