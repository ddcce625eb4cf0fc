// Dynamic fixed-length bit vector. This is the in-memory form of one
// signature node's bit array (one bit per R-tree child slot); the codecs in
// bitmap/codec.h compress it for storage inside partial signatures.
//
// Storage is 32-byte aligned (common/simd/aligned.h) and the bulk algebra
// (And/Or/AndNot/Count) dispatches to the kernel layer of DESIGN.md §12, so
// every vector — fragment nodes, fused probe arrays, codec scratch — is a
// legal SIMD operand without copies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/simd/aligned.h"

namespace pcube {

/// Fixed-length sequence of bits with bulk boolean algebra.
class BitVector {
 public:
  BitVector() = default;

  /// All-zero vector of `num_bits` bits.
  explicit BitVector(size_t num_bits)
      : num_bits_(num_bits), words_(bit_util::Words64(num_bits), 0) {}

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  bool Get(size_t i) const {
    PCUBE_DCHECK_LT(i, num_bits_);
    return bit_util::GetBit(words_.data(), i);
  }

  void Set(size_t i) {
    PCUBE_DCHECK_LT(i, num_bits_);
    bit_util::SetBit(words_.data(), i);
  }

  void Clear(size_t i) {
    PCUBE_DCHECK_LT(i, num_bits_);
    bit_util::ClearBit(words_.data(), i);
  }

  void Assign(size_t i, bool v) {
    if (v) {
      Set(i);
    } else {
      Clear(i);
    }
  }

  /// Number of set bits (hardware popcount via the kernel layer).
  size_t Count() const;

  bool AnySet() const;

  /// Index of the first set bit at or after `from`, or size() if none.
  size_t FindNextSet(size_t from) const;

  /// In-place bitwise algebra with an equally sized vector. InplaceAnd
  /// returns whether any bit survives (fused with the AND — signature
  /// intersection's liveness check costs no second pass).
  bool InplaceAnd(const BitVector& other);
  void InplaceOr(const BitVector& other);
  /// this &= ~other.
  void InplaceAndNot(const BitVector& other);

  /// |this & other| without materialising the intersection.
  size_t AndCount(const BitVector& other) const;

  bool operator==(const BitVector& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

  const simd::AlignedVector<uint64_t>& words() const { return words_; }

  /// Mutable backing words, for codec fast paths that assemble the vector
  /// word-at-a-time. Callers must keep the pad bits of the last word zero.
  uint64_t* mutable_words() { return words_.data(); }

  /// Positions of all set bits, ascending.
  std::vector<uint32_t> SetPositions() const;

  /// e.g. "10110" (bit 0 first), for tests and debugging.
  std::string ToString() const;

 private:
  size_t num_bits_ = 0;
  simd::AlignedVector<uint64_t> words_;
};

}  // namespace pcube
