#include "bitmap/codec.h"

#include <algorithm>

#include "common/bit_util.h"

namespace pcube {

namespace {

constexpr uint32_t kWahGroupBits = 31;
constexpr uint32_t kWahFillFlag = 0x80000000u;
constexpr uint32_t kWahFillValue = 0x40000000u;
constexpr uint32_t kWahMaxRun = 0x3FFFFFFFu;
constexpr uint32_t kWahPayloadMask = 0x7FFFFFFFu;

void PutVarint(uint32_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

bool GetVarint(const uint8_t* data, size_t size, size_t* offset, uint32_t* v) {
  uint32_t result = 0;
  int shift = 0;
  while (*offset < size && shift <= 28) {
    uint8_t byte = data[(*offset)++];
    result |= static_cast<uint32_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

// --- word-level bit manipulation (the codec's per-bit loops were the
// cardinality-style hot spots named by ROADMAP item 3; everything below
// moves whole words or 31-bit groups per step) ---------------------------

/// OR the low `count` (<= 31) bits of `v` into `words` at bit offset `pos`.
/// Callers guarantee pos + count fits the allocated words.
void OrGroupAt(uint64_t* words, size_t pos, uint32_t v, size_t count) {
  uint64_t val = v & (count >= kWahGroupBits
                          ? kWahPayloadMask
                          : ((uint32_t{1} << count) - 1));
  size_t wi = pos >> 6;
  size_t off = pos & 63;
  words[wi] |= val << off;
  if (off + count > 64) words[wi + 1] |= val >> (64 - off);
}

/// Sets every bit of [begin, end).
void SetBitRange(uint64_t* words, size_t begin, size_t end) {
  if (begin >= end) return;
  size_t wb = begin >> 6;
  size_t we = (end - 1) >> 6;
  uint64_t first = ~uint64_t{0} << (begin & 63);
  uint64_t last = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (wb == we) {
    words[wb] |= first & last;
    return;
  }
  words[wb] |= first;
  for (size_t i = wb + 1; i < we; ++i) words[i] = ~uint64_t{0};
  words[we] |= last;
}

/// Zeroes the pad bits above `nbits` in the final word (defence against
/// corrupt payloads — the all-pad-bits-zero invariant must survive Decode).
void MaskTailWord(uint64_t* words, size_t nbits) {
  if ((nbits & 63) != 0) {
    words[(nbits - 1) >> 6] &= ~uint64_t{0} >> (64 - (nbits & 63));
  }
}

/// Reads 31 bits of `bits` starting at group `g` (zero-padded at the tail).
uint32_t WahGroup(const BitVector& bits, size_t g) {
  size_t base = g * kWahGroupBits;
  const uint64_t* words = bits.words().data();
  size_t wi = base >> 6;
  size_t off = base & 63;
  uint64_t v = words[wi] >> off;
  if (off + kWahGroupBits > 64 && wi + 1 < bits.words().size()) {
    v |= words[wi + 1] << (64 - off);
  }
  uint32_t out = static_cast<uint32_t>(v) & kWahPayloadMask;
  size_t avail = bits.size() - base;
  if (avail < kWahGroupBits) out &= (uint32_t{1} << avail) - 1;
  return out;
}

void EncodeVerbatim(const BitVector& bits, std::vector<uint8_t>* out) {
  size_t nbytes = bit_util::Bytes(bits.size());
  size_t start = out->size();
  out->resize(start + nbytes);
  uint8_t* dst = out->data() + start;
  const uint64_t* words = bits.words().data();
  size_t full = nbytes / 8;
  for (size_t w = 0; w < full; ++w) {
    bit_util::StoreLE<uint64_t>(dst + w * 8, words[w]);
  }
  for (size_t b = full * 8; b < nbytes; ++b) {
    dst[b] = static_cast<uint8_t>(words[b >> 3] >> ((b & 7) * 8));
  }
}

void EncodeWah(const BitVector& bits, std::vector<uint8_t>* out) {
  size_t groups = bit_util::CeilDiv(bits.size(), kWahGroupBits);
  std::vector<uint32_t> words;
  uint32_t run_len = 0;
  bool run_val = false;
  auto flush_run = [&]() {
    while (run_len > 0) {
      uint32_t chunk = std::min(run_len, kWahMaxRun);
      words.push_back(kWahFillFlag | (run_val ? kWahFillValue : 0) | chunk);
      run_len -= chunk;
    }
  };
  for (size_t g = 0; g < groups; ++g) {
    uint32_t v = WahGroup(bits, g);
    if (v == 0 || v == kWahPayloadMask) {
      bool val = (v != 0);
      if (run_len > 0 && val != run_val) flush_run();
      run_val = val;
      ++run_len;
    } else {
      flush_run();
      words.push_back(v);
    }
  }
  flush_run();
  for (uint32_t w : words) {
    size_t p = out->size();
    out->resize(p + 4);
    bit_util::StoreLE<uint32_t>(out->data() + p, w);
  }
}

void EncodeSparse(const BitVector& bits, std::vector<uint8_t>* out) {
  std::vector<uint32_t> pos = bits.SetPositions();
  PutVarint(static_cast<uint32_t>(pos.size()), out);
  uint32_t prev = 0;
  for (uint32_t p : pos) {
    PutVarint(p - prev, out);
    prev = p;
  }
}

size_t SparseSize(const BitVector& bits) {
  std::vector<uint8_t> tmp;
  EncodeSparse(bits, &tmp);
  return tmp.size();
}

size_t WahSize(const BitVector& bits) {
  std::vector<uint8_t> tmp;
  EncodeWah(bits, &tmp);
  return tmp.size();
}

// --- decode bodies (header already consumed) ----------------------------

Status DecodeVerbatimBody(const uint8_t* data, size_t size, size_t* offset,
                          size_t nbits, BitVector* out) {
  size_t nbytes = bit_util::Bytes(nbits);
  if (*offset + nbytes > size) {
    return Status::Corruption("verbatim body truncated");
  }
  const uint8_t* src = data + *offset;
  uint64_t* words = out->mutable_words();
  size_t full = nbytes / 8;
  for (size_t w = 0; w < full; ++w) {
    words[w] = bit_util::LoadLE<uint64_t>(src + w * 8);
  }
  for (size_t b = full * 8; b < nbytes; ++b) {
    words[b >> 3] |= uint64_t{src[b]} << ((b & 7) * 8);
  }
  if (nbits > 0) MaskTailWord(words, nbits);
  *offset += nbytes;
  return Status::OK();
}

Status DecodeWahBody(const uint8_t* data, size_t size, size_t* offset,
                     size_t nbits, BitVector* out) {
  uint64_t* words = out->mutable_words();
  size_t bit = 0;
  size_t total_groups = bit_util::CeilDiv(nbits, kWahGroupBits);
  size_t groups_done = 0;
  while (groups_done < total_groups) {
    if (*offset + 4 > size) return Status::Corruption("WAH body truncated");
    uint32_t w = bit_util::LoadLE<uint32_t>(data + *offset);
    *offset += 4;
    if (w & kWahFillFlag) {
      uint32_t run = w & kWahMaxRun;
      if (groups_done + run > total_groups) {
        return Status::Corruption("WAH run overflows bit count");
      }
      if ((w & kWahFillValue) != 0) {
        SetBitRange(words, bit,
                    std::min(bit + run * size_t{kWahGroupBits}, nbits));
      }
      bit += run * size_t{kWahGroupBits};
      groups_done += run;
    } else {
      OrGroupAt(words, bit, w, std::min<size_t>(kWahGroupBits, nbits - bit));
      bit += kWahGroupBits;
      ++groups_done;
    }
  }
  return Status::OK();
}

Status DecodeSparseBody(const uint8_t* data, size_t size, size_t* offset,
                        size_t nbits, BitVector* out) {
  uint32_t count = 0;
  if (!GetVarint(data, size, offset, &count)) {
    return Status::Corruption("sparse count truncated");
  }
  uint32_t pos = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    if (!GetVarint(data, size, offset, &delta)) {
      return Status::Corruption("sparse delta truncated");
    }
    pos += delta;
    if (pos >= nbits) return Status::Corruption("sparse position out of range");
    out->Set(pos);
  }
  return Status::OK();
}

Status DecodeBody(BitmapScheme scheme, const uint8_t* data, size_t size,
                  size_t* offset, size_t nbits, BitVector* out) {
  switch (scheme) {
    case BitmapScheme::kVerbatim:
      return DecodeVerbatimBody(data, size, offset, nbits, out);
    case BitmapScheme::kWah:
      return DecodeWahBody(data, size, offset, nbits, out);
    case BitmapScheme::kSparse:
      return DecodeSparseBody(data, size, offset, nbits, out);
  }
  return Status::Corruption("unreachable");
}

/// Parses the u8 scheme | u16 bit-count header.
Status ParseHeader(const uint8_t* data, size_t size, size_t* offset,
                   BitmapScheme* scheme, uint16_t* nbits) {
  if (*offset + 3 > size) return Status::Corruption("bitmap header truncated");
  uint8_t tag = data[*offset];
  if (tag > static_cast<uint8_t>(BitmapScheme::kSparse)) {
    return Status::Corruption("unknown bitmap scheme tag");
  }
  *scheme = static_cast<BitmapScheme>(tag);
  *nbits = bit_util::LoadLE<uint16_t>(data + *offset + 1);
  *offset += 3;
  return Status::OK();
}

}  // namespace

void BitmapCodec::EncodeWith(BitmapScheme scheme, const BitVector& bits,
                             std::vector<uint8_t>* out) {
  PCUBE_CHECK_LE(bits.size(), kMaxBits);
  out->push_back(static_cast<uint8_t>(scheme));
  size_t p = out->size();
  out->resize(p + 2);
  bit_util::StoreLE<uint16_t>(out->data() + p, static_cast<uint16_t>(bits.size()));
  switch (scheme) {
    case BitmapScheme::kVerbatim:
      EncodeVerbatim(bits, out);
      break;
    case BitmapScheme::kWah:
      EncodeWah(bits, out);
      break;
    case BitmapScheme::kSparse:
      EncodeSparse(bits, out);
      break;
  }
}

void BitmapCodec::Encode(const BitVector& bits, std::vector<uint8_t>* out) {
  size_t verbatim = bit_util::Bytes(bits.size());
  size_t wah = WahSize(bits);
  size_t sparse = SparseSize(bits);
  BitmapScheme best = BitmapScheme::kVerbatim;
  size_t best_size = verbatim;
  if (wah < best_size) {
    best = BitmapScheme::kWah;
    best_size = wah;
  }
  if (sparse < best_size) {
    best = BitmapScheme::kSparse;
  }
  EncodeWith(best, bits, out);
}

size_t BitmapCodec::EncodedSize(const BitVector& bits) {
  size_t body = std::min({bit_util::Bytes(bits.size()), WahSize(bits),
                          SparseSize(bits)});
  return 3 + body;  // scheme byte + u16 length
}

Result<BitmapScheme> BitmapCodec::PeekScheme(const uint8_t* data, size_t size) {
  if (size < 1) return Status::Corruption("empty bitmap encoding");
  uint8_t tag = data[0];
  if (tag > static_cast<uint8_t>(BitmapScheme::kSparse)) {
    return Status::Corruption("unknown bitmap scheme tag");
  }
  return static_cast<BitmapScheme>(tag);
}

Status BitmapCodec::Decode(const uint8_t* data, size_t size, size_t* offset,
                           BitVector* out) {
  BitmapScheme scheme{};
  uint16_t nbits = 0;
  PCUBE_RETURN_NOT_OK(ParseHeader(data, size, offset, &scheme, &nbits));
  *out = BitVector(nbits);
  return DecodeBody(scheme, data, size, offset, nbits, out);
}

}  // namespace pcube
