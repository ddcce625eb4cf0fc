// Compression and decomposition of signatures into page-sized *partial
// signatures* (paper §IV.B.1) and the symmetric reassembly used at query
// time (§IV.B.2).
//
// Encoding walks the signature tree breadth-first from the root, appending
// each node's adaptively-compressed bit array (bitmap/codec.h) until the
// page payload is full: that prefix becomes the partial signature referenced
// by the root's SID. Remaining nodes are emitted the same way from partials
// rooted at the first uncovered subtrees, in BFS order of their roots — the
// paper's "start from the first child N1 of the root ... nodes coded by
// previous partial signatures will be skipped".
//
// Decoding is exactly symmetric: to decode a partial rooted at SID S, walk
// subtree(S) breadth-first, skipping nodes already decoded from
// earlier-generated partials (ascending SID == generation order, which the
// cursor guarantees by loading root-to-leaf prefixes in order), and consume
// one compressed array per remaining node until the payload is exhausted.
// Every node is addressed by its SID alone — the decoder derives child SIDs
// arithmetically and never builds a path.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/sid_table.h"
#include "core/signature.h"

namespace pcube {

/// One page-sized fragment of a cell's signature.
struct PartialSignature {
  uint64_t root_sid = 0;
  std::vector<uint8_t> bytes;
};

/// Fragment of a signature being reassembled at query time: the set of
/// node arrays decoded so far, keyed by node SID.
class SignatureFragment {
 public:
  SignatureFragment(uint32_t fanout, int levels)
      : m_(fanout), levels_(levels) {}

  uint32_t fanout() const { return m_; }
  int levels() const { return levels_; }

  const BitVector* Node(uint64_t sid) const { return nodes_.Find(sid); }

  /// Adds node `sid` unless the fragment already holds it (then a no-op).
  /// Returns the stored bits, valid until the next AddNode.
  const BitVector* AddNode(uint64_t sid, BitVector bits) {
    return nodes_.TryEmplace(sid, std::move(bits)).first;
  }

  size_t num_nodes() const { return nodes_.size(); }

  /// Converts the (complete) fragment back into a Signature; used by
  /// maintenance and round-trip tests.
  Signature ToSignature() const;

 private:
  uint32_t m_;
  int levels_;
  SidTable<BitVector> nodes_;
};

/// Splits `sig` into compressed partial signatures, each with payload size
/// <= max_payload bytes (one disk page each in the store).
std::vector<PartialSignature> DecomposeSignature(const Signature& sig,
                                                 size_t max_payload);

/// Decodes one partial signature (rooted at node `root_sid`) into
/// `fragment`, skipping nodes the fragment already contains. Fails with
/// Corruption when the payload does not align with the fragment's current
/// state — which happens if ancestor partials were not decoded first.
Status DecodePartialSignature(uint64_t root_sid,
                              const std::vector<uint8_t>& bytes,
                              SignatureFragment* fragment);

}  // namespace pcube
