#include "query/skyline_engine.h"

#include <limits>

#include "common/timer.h"
#include "query/node_expansion.h"
#include "rtree/node.h"

namespace pcube {

SkylineEngine::SkylineEngine(const RStarTree* tree, BooleanProbe* probe,
                             const TupleVerifier* verifier,
                             SkylineQueryOptions options)
    : tree_(tree), probe_(probe), verifier_(verifier),
      options_(std::move(options)) {
  if (options_.pref_dims.empty()) {
    for (int d = 0; d < tree_->dims(); ++d) dims_.push_back(d);
  } else {
    dims_ = options_.pref_dims;
  }
  PCUBE_CHECK_GE(options_.skyband_k, size_t{1});
  PCUBE_CHECK(options_.origin.empty() ||
              options_.origin.size() == static_cast<size_t>(tree_->dims()))
      << "dynamic-skyline origin needs one coordinate per tree dimension";
  window_.Reset(dims_.size());
  cand_scratch_.resize(dims_.size());
}

double SkylineEngine::LowCoord(const RectF& rect, int d) const {
  if (options_.origin.empty()) return rect.min[d];
  // Dynamic skyline: least |x - origin_d| for x in [min, max].
  double q = options_.origin[d];
  if (q < rect.min[d]) return rect.min[d] - q;
  if (q > rect.max[d]) return q - rect.max[d];
  return 0.0;
}

double SkylineEngine::EntryKey(const RectF& rect) const {
  double s = 0;
  for (int d : dims_) s += LowCoord(rect, d);
  return s;
}

void SkylineEngine::TransformInto(const RectF& rect) const {
  for (size_t i = 0; i < dims_.size(); ++i) {
    cand_scratch_[i] = LowCoord(rect, dims_[i]);
  }
}

bool SkylineEngine::Dominated(const RectF& rect) const {
  // One batched pass over the SoA window (4 members per AVX2 step),
  // saturating at skyband_k dominators — the same count the scalar
  // member-at-a-time loop produced.
  TransformInto(rect);
  return window_.CountDominators(cand_scratch_.data(), options_.skyband_k) >=
         options_.skyband_k;
}

bool SkylineEngine::PruneByPreference(const SearchEntry& e) {
  if (!Dominated(e.rect)) return false;
  if (keep_seeds_) out_.d_list.push_back(e);
  ++out_.counters.pruned_preference;
  return true;
}

Result<bool> SkylineEngine::Prune(const SearchEntry& e) {
  // Preference (domination) pruning first, boolean pruning second — the
  // order of the paper's prune() procedure, which determines which list a
  // doubly-pruned entry lands in.
  if (PruneByPreference(e)) return true;
  if (!e.path.empty()) {
    Timer t;
    auto pass = e.is_data ? probe_->TestData(e.path, e.id)
                           : probe_->Test(e.path);
    double dt = t.ElapsedSeconds();
    out_.counters.sig_seconds += dt;
    if (trace_ != nullptr) trace_->Record("signature_probe", dt);
    if (!pass.ok()) return pass.status();
    if (!*pass) {
      if (keep_seeds_) out_.b_list.push_back(e);
      ++out_.counters.pruned_boolean;
      return true;
    }
  }
  return false;
}

Result<SkylineOutput> SkylineEngine::Run() {
  SearchEntry root;
  root.key = -std::numeric_limits<double>::infinity();
  root.is_data = false;
  root.id = tree_->root();
  root.rect = RectF::Empty(tree_->dims());
  return RunFrom({root});
}

Result<SkylineOutput> SkylineEngine::RunFrom(
    const std::vector<SearchEntry>& seed) {
  out_ = SkylineOutput();
  window_.Reset(dims_.size());
  CandidateHeap heap;
  for (const SearchEntry& e : seed) {
    SearchEntry copy = e;
    copy.key = copy.path.empty() ? -std::numeric_limits<double>::infinity()
                                 : EntryKey(copy.rect);
    auto pruned = Prune(copy);
    if (!pruned.ok()) return pruned.status();
    if (!*pruned) heap.push(std::move(copy));
  }
  out_.counters.heap_peak = std::max<uint64_t>(out_.counters.heap_peak,
                                               heap.size());

  while (!heap.empty()) {
    if (deadline_ && std::chrono::steady_clock::now() > *deadline_) {
      return Status::Timeout("skyline query deadline exceeded");
    }
    SearchEntry e = heap.top();
    heap.pop();
    // Re-check: the skyline may have grown since e entered the heap. Only
    // dominance can have changed — e already passed the boolean probe, as
    // a seed through Prune or as a child through FilterChildren.
    if (PruneByPreference(e)) continue;

    if (e.is_data) {
      if (verifier_ != nullptr) {
        ScopedSpan span(trace_, "boolean_verify");
        auto ok = verifier_->Verify(e.id);
        if (!ok.ok()) return ok.status();
        ++out_.counters.verified;
        if (!*ok) {
          ++out_.counters.verify_failed;
          if (keep_seeds_) out_.b_list.push_back(e);
          ++out_.counters.pruned_boolean;
          continue;
        }
      }
      // Accepted results are points (min == max), so LowCoord is their
      // exact transformed coordinate; the window caches it column-major so
      // later dominance tests never touch the member rects again.
      TransformInto(e.rect);
      window_.Append(cand_scratch_.data());
      out_.skyline.push_back(e);
      continue;
    }

    ScopedSpan expand_span(trace_, "heap_expand");
    auto node_handle = tree_->ReadNode(e.id);
    if (!node_handle.ok()) return node_handle.status();
    ++out_.counters.nodes_expanded;
    NodeView node(node_handle->get(), tree_->dims());
    children_.clear();
    ChildMask survivors;
    for (uint32_t s = 0; s < node.max_entries(); ++s) {
      if (!node.Valid(s)) continue;
      SearchEntry& child = children_.emplace_back();
      child.is_data = node.is_leaf();
      child.id = node.GetId(s);
      child.rect = node.GetRect(s);
      child.path = e.path;
      child.path.push_back(static_cast<uint16_t>(s + 1));
      child.key = EntryKey(child.rect);
      if (!Dominated(child.rect)) survivors.Set(s);
    }
    PCUBE_RETURN_NOT_OK(FileChildren(probe_, trace_, e.path, node, survivors,
                                     children_, &heap, &out_, keep_seeds_));
  }
  return std::move(out_);
}

}  // namespace pcube
