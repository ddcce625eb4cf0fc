// Lazy signature retrieval during query processing (paper §IV.B.2).
//
// A cursor materialises one cell's signature incrementally: it starts from
// the partial signature referenced by the R-tree root (SID 0) and, whenever
// the query requests a node that is not yet present, loads further partials
// following the paper's probing rule — "use the first level node in the path
// from the root to n as reference to load the next partial signature; if
// that partial has already been loaded, check the second-level node, and so
// on". Each partial load costs exactly one signature-page read (SSig).
//
// Thread-safety: a cursor is mutable per-query state (the set of loaded
// partials grows as the query probes). One cursor serves one query on one
// thread; concurrent queries get independent cursors via PCube::MakeProbe.
//
// Every node is addressed by its SID: Test extends the SID one level at a
// time (SID' = SID * (M+1) + slot) and does one fragment lookup per level;
// the partials already probed are a SidSet.
#pragma once

#include "core/sid_table.h"
#include "core/signature_codec.h"
#include "core/signature_store.h"

namespace pcube {

/// Incremental reader of one cell's stored signature.
class SignatureCursor {
 public:
  SignatureCursor(const SignatureStore* store, CellId cell, uint32_t fanout,
                  int levels)
      : store_(store), cell_(cell), fragment_(fanout, levels), levels_(levels) {}

  /// True iff the node/tuple addressed by `path` (length in [1, levels]) is
  /// marked present for this cell. Loads partial signatures on demand.
  Result<bool> Test(const Path& path);

  /// Number of partial-signature pages loaded so far.
  uint64_t partials_loaded() const { return partials_loaded_; }

  const SignatureFragment& fragment() const { return fragment_; }

  /// Bits of the node whose SID is `sid`, loading partials on demand; null
  /// when the cell's signature provably lacks the node. The array is
  /// fanout-wide, or zero-wide for the root of a cell emptied before a
  /// rebuild. The pointer is valid until the next call that may load a
  /// partial into this cursor.
  Result<const BitVector*> NodeAt(uint64_t sid) {
    if (const BitVector* bits = fragment_.Node(sid)) return bits;
    return LoadNode(sid);
  }

  /// Decoded bit array of a materialised node, or null.
  const BitVector* NodeBits(uint64_t sid) const { return fragment_.Node(sid); }

  uint32_t fanout() const { return fragment_.fanout(); }

 private:
  /// NodeAt's miss path: the paper's probing rule, loading the partials
  /// rooted at the root and then at successively deeper prefixes of the
  /// node's path until one supplies the node.
  Result<const BitVector*> LoadNode(uint64_t sid);
  Status LoadPartialAt(uint64_t sid);

  const SignatureStore* store_;
  CellId cell_;
  SignatureFragment fragment_;
  int levels_;
  SidSet attempted_;  // partial SIDs already probed (hit or miss)
  uint64_t partials_loaded_ = 0;
  bool root_loaded_ = false;
};

}  // namespace pcube
