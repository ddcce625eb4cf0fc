// Boolean pruning interface used by the query engines (Algorithm 1's
// boolean_prune step). Given the path of a candidate entry — an R-tree node
// or a tuple — a probe answers whether the target subset of data may appear
// there:
//   SignatureProbe  one cursor per predicate, bits ANDed lazily (exact at
//                   tuple level; at inner levels an upper bound of the
//                   recursive intersection, so pruning is sound);
//   BloomProbe      §VII lossy variant (false positives possible even at
//                   tuple level -> results need table verification);
//   TrueProbe       no boolean pruning (the Domination baseline and BBS).
//
// Engines ask node-at-a-time (DESIGN.md §17): when they expand an R-tree
// node they call FilterChildren once with the mask of children that survived
// preference pruning. A signature holds one bit array per node whose bit s
// answers child s, so SignatureProbe answers every child with one node
// lookup; other probes fall back to one Test/TestData per child. Test stays
// the entry-at-a-time form, used for Lemma 2 seeds that enter a run with no
// expanded parent.
//
// Thread-safety: probes memoise loaded signature state, so a probe instance
// belongs to exactly one query and must not be shared across threads.
// Concurrent queries each call PCube::MakeProbe for their own instance —
// that is cheap and safe (see pcube.h).
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "bitmap/bloom_filter.h"
#include "core/sid_table.h"
#include "core/signature_cursor.h"
#include "rtree/node.h"

namespace pcube {

/// One bit per slot (0-based) of an R-tree node: the children a
/// FilterChildren call is asked about and, on return, those that pass.
class ChildMask {
 public:
  static constexpr uint32_t kMaxSlots = 256;

  void Set(uint32_t slot) {
    PCUBE_DCHECK_LT(slot, kMaxSlots);
    words_[slot / 64] |= uint64_t{1} << (slot % 64);
  }
  void Clear(uint32_t slot) {
    PCUBE_DCHECK_LT(slot, kMaxSlots);
    words_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
  }
  bool Get(uint32_t slot) const {
    PCUBE_DCHECK_LT(slot, kMaxSlots);
    return words_[slot / 64] >> (slot % 64) & 1;
  }
  bool None() const {
    uint64_t any = 0;
    for (uint64_t w : words_) any |= w;
    return any == 0;
  }

  /// Keeps only the slots whose bit is set in `bits`; slots at or past
  /// bits.size() (a zero-width root array has none) are cleared.
  void IntersectWith(const BitVector& bits) {
    const size_t n = std::min(bits.words().size(), kWords);
    for (size_t i = 0; i < n; ++i) words_[i] &= bits.words()[i];
    for (size_t i = n; i < kWords; ++i) words_[i] = 0;
  }

 private:
  static constexpr size_t kWords = kMaxSlots / 64;
  uint64_t words_[kWords] = {};
};

static_assert(NodeView::MaxEntries(1) <= ChildMask::kMaxSlots,
              "a ChildMask must cover the widest node");

/// Answers "may the target cell contain data under this path?".
class BooleanProbe {
 public:
  virtual ~BooleanProbe() = default;

  /// `path` addresses an R-tree node (length <= levels-1) or a tuple entry
  /// (length == levels). A false return proves the subtree/tuple disjoint
  /// from the queried cell.
  virtual Result<bool> Test(const Path& path) = 0;

  /// Tuple-level check. Signature probes answer from the leaf bit (the path
  /// identifies the entry exactly); probes keyed by tuple id — e.g. the
  /// index-merge baseline's RID set — override this instead.
  virtual Result<bool> TestData(const Path& path, TupleId) {
    return Test(path);
  }

  /// Node-at-a-time pruning of the children of `node`, the R-tree node at
  /// `parent`. On entry `survivors` holds the slots that survived
  /// preference pruning; on return it keeps only those whose child may
  /// hold the target data. The caller guarantees that `parent` itself
  /// passes this probe (it came out of an earlier FilterChildren or a
  /// positive Test), so an override may answer from the parent's own node
  /// without re-testing its ancestors. The default tests each survivor
  /// with TestData (leaf nodes) or Test, so probes that define only those
  /// behave exactly as entry-at-a-time pruning.
  virtual Status FilterChildren(const Path& parent, const NodeView& node,
                                ChildMask* survivors);

  /// Whether a positive Test at tuple level is exact (signatures: yes;
  /// Bloom filters: no — the engine must verify results against the table).
  virtual bool exact() const { return true; }

  /// Signature pages loaded so far (the paper's SSig count), if applicable.
  virtual uint64_t partials_loaded() const { return 0; }
};

/// Probe that never prunes.
class TrueProbe : public BooleanProbe {
 public:
  Result<bool> Test(const Path&) override { return true; }
};

/// Lazy AND over one signature cursor per boolean predicate.
///
/// With a single cursor, Test delegates straight to it. With two or more,
/// the probe fuses the cursors' node arrays level by level: at each path
/// prefix it materialises every cursor's node, ANDs the decoded arrays
/// (BitVector::InplaceAnd) and memoises the fused array under the node's
/// SID so deeper probes of the same subtree test one bit array instead of
/// one per predicate. Pruning decisions are identical to the cursor-major
/// loop — a path passes iff every cursor's bit is set at every level — only
/// the order partial signatures are faulted in differs.
///
/// FilterChildren looks up the parent's node once — the cursor's array,
/// or the fused array with two or more cursors — and ANDs it into the
/// survivors. That is the one lookup a Test of the first surviving child
/// would fault in (the ancestors are already materialised, since the
/// parent passed), so partial signatures load in the same order and number
/// as entry-at-a-time pruning.
class SignatureProbe : public BooleanProbe {
 public:
  explicit SignatureProbe(std::vector<SignatureCursor> cursors)
      : cursors_(std::move(cursors)) {}

  Result<bool> Test(const Path& path) override;
  Status FilterChildren(const Path& parent, const NodeView& node,
                        ChildMask* survivors) override;

  uint64_t partials_loaded() const override {
    uint64_t n = 0;
    for (const auto& c : cursors_) n += c.partials_loaded();
    return n;
  }

 private:
  /// The intersection of every cursor's array for the node whose SID is
  /// `sid`, memoised; null when any cursor's signature lacks the node or
  /// holds it with no slots (either proves the fused subtree empty). Valid
  /// until the next FusedNode call.
  Result<const BitVector*> FusedNode(uint64_t sid);

  std::vector<SignatureCursor> cursors_;
  /// Memo of fused node arrays by SID; nullopt records "absent in some
  /// cursor".
  SidTable<std::optional<BitVector>> fused_;
};

/// AND over per-predicate Bloom filters on present-SIDs (paper §VII).
class BloomProbe : public BooleanProbe {
 public:
  BloomProbe(std::vector<BloomFilter> filters, uint32_t fanout,
             uint64_t pages_loaded)
      : filters_(std::move(filters)),
        fanout_(fanout),
        pages_loaded_(pages_loaded) {}

  Result<bool> Test(const Path& path) override {
    uint64_t sid = PathToSid(path, fanout_);
    for (const auto& f : filters_) {
      if (!f.MayContain(sid)) return false;
    }
    return true;
  }

  bool exact() const override { return false; }
  uint64_t partials_loaded() const override { return pages_loaded_; }

 private:
  std::vector<BloomFilter> filters_;
  uint32_t fanout_;
  uint64_t pages_loaded_;
};

}  // namespace pcube
