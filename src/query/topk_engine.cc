#include "query/topk_engine.h"

#include <limits>

#include "common/timer.h"
#include "query/node_expansion.h"
#include "rtree/node.h"

namespace pcube {

TopKEngine::TopKEngine(const RStarTree* tree, BooleanProbe* probe,
                       const TupleVerifier* verifier, const RankingFunction* f,
                       size_t k)
    : tree_(tree), probe_(probe), verifier_(verifier), f_(f), k_(k) {}

bool TopKEngine::ScorePruned(double key) const {
  // k results with scores <= key already found.
  return out_.results.size() >= k_ && !out_.results.empty() &&
         key >= out_.results.back().key;
}

bool TopKEngine::PruneByPreference(const SearchEntry& e) {
  if (!ScorePruned(e.key)) return false;
  if (keep_seeds_) out_.d_list.push_back(e);
  ++out_.counters.pruned_preference;
  return true;
}

Result<bool> TopKEngine::Prune(const SearchEntry& e) {
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

Result<TopKOutput> TopKEngine::Run() {
  SearchEntry root;
  root.key = -std::numeric_limits<double>::infinity();
  root.is_data = false;
  root.id = tree_->root();
  root.rect = RectF::Empty(tree_->dims());
  return RunFrom({root});
}

Result<TopKOutput> TopKEngine::RunFrom(const std::vector<SearchEntry>& seed) {
  out_ = TopKOutput();
  CandidateHeap heap;
  auto span_of = [&](const RectF& r) {
    return std::span<const float>(r.min.data(),
                                  static_cast<size_t>(tree_->dims()));
  };
  for (const SearchEntry& e : seed) {
    SearchEntry copy = e;
    if (!copy.path.empty() || copy.is_data) {
      copy.key = copy.is_data ? f_->Score(span_of(copy.rect))
                              : f_->LowerBound(copy.rect);
    } else {
      copy.key = -std::numeric_limits<double>::infinity();
    }
    auto pruned = Prune(copy);
    if (!pruned.ok()) return pruned.status();
    if (!*pruned) heap.push(std::move(copy));
  }
  out_.counters.heap_peak =
      std::max<uint64_t>(out_.counters.heap_peak, heap.size());

  while (!heap.empty()) {
    if (out_.results.size() >= k_) break;
    if (deadline_ && std::chrono::steady_clock::now() > *deadline_) {
      return Status::Timeout("top-k query deadline exceeded");
    }
    SearchEntry e = heap.top();
    heap.pop();
    // Re-check: the k-th score may have improved since e entered the heap.
    // Only that can have changed — e already passed the boolean probe, as
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
      out_.results.push_back(e);  // ascending-score arrival order
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
      child.key = child.is_data ? f_->Score(span_of(child.rect))
                                : f_->LowerBound(child.rect);
      if (!ScorePruned(child.key)) survivors.Set(s);
    }
    PCUBE_RETURN_NOT_OK(FileChildren(probe_, trace_, e.path, node, survivors,
                                     children_, &heap, &out_, keep_seeds_));
  }

  // Preserve the unexamined frontier for incremental queries (Lemma 2).
  while (keep_seeds_ && !heap.empty()) {
    out_.remaining.push_back(heap.top());
    heap.pop();
  }
  return std::move(out_);
}

}  // namespace pcube
