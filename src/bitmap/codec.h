// Node-level bitmap compression (paper §IV.B.1, "Compressing and Decomposing
// Signature"). Each signature node's bit array is compressed independently,
// which lets the store decompress only the nodes a query actually requests
// and lets each node pick the scheme that suits its density:
//
//   kVerbatim  raw bits                    (dense arrays)
//   kWah       32-bit word-aligned hybrid   (long runs)
//   kSparse    varint-coded set positions   (very sparse arrays,
//                                            Fraenkel & Klein style)
//
// Encode() tries all schemes and keeps the smallest ("adaptively choosing
// different compression scheme", paper §IV.B.1 reason (2)).
//
// Wire format of one encoded node:
//   u8 scheme | u16 bit count | payload
#pragma once

#include <cstdint>
#include <vector>

#include "bitmap/bitvector.h"
#include "common/status.h"

namespace pcube {

/// Identifies the compression scheme of an encoded bit array.
enum class BitmapScheme : uint8_t {
  kVerbatim = 0,
  kWah = 1,
  kSparse = 2,
};

/// Compresses/decompresses node bit arrays.
class BitmapCodec {
 public:
  /// Maximum bit-array length the 2-byte header supports.
  static constexpr size_t kMaxBits = 65535;

  /// Appends the adaptively-compressed encoding of `bits` to `out`.
  static void Encode(const BitVector& bits, std::vector<uint8_t>* out);

  /// Appends an encoding with a forced scheme (for tests and ablations).
  static void EncodeWith(BitmapScheme scheme, const BitVector& bits,
                         std::vector<uint8_t>* out);

  /// Decodes one encoded bit array starting at data[*offset]; advances
  /// *offset past it. Fails with Corruption on malformed input.
  static Status Decode(const uint8_t* data, size_t size, size_t* offset,
                       BitVector* out);

  /// Size in bytes the encoding of `bits` would occupy (header included).
  static size_t EncodedSize(const BitVector& bits);

  /// Scheme tag of an encoded array (first byte); for tests.
  static Result<BitmapScheme> PeekScheme(const uint8_t* data, size_t size);
};

}  // namespace pcube
