// On-page R-tree node layout. Entries live in fixed slots with a validity
// bitmap; deleting an entry leaves a hole that a later insert reuses (the
// paper's free-entry tracking, §IV.B.3), so slot positions — and therefore
// tuple paths — stay stable unless a node splits or re-inserts.
//
// Layout (page = 4096 B):
//   u8  is_leaf | u8 pad | u16 count | u16 level | u16 pad
//   valid bitmap: ceil(M/8) bytes
//   entries: M * (2*dims*4 rect bytes + 8 id bytes)
//
// `id` is a child PageId in internal nodes and a TupleId in leaves.
#pragma once

#include <cstdint>

#include "common/bit_util.h"
#include "rtree/geometry.h"
#include "rtree/path.h"
#include "storage/page.h"

namespace pcube {

/// Read/write view over a node page. Cheap to construct; does not own the
/// page.
class NodeView {
 public:
  static constexpr size_t kHeaderSize = 8;

  /// Maximum entries per node for `dims` preference dimensions: the largest
  /// M with kHeaderSize + ceil(M/8) + M * entry_size <= kPageSize.
  static constexpr uint32_t MaxEntries(int dims) {
    size_t esize = EntrySize(dims);
    uint32_t m = static_cast<uint32_t>((kPageSize - kHeaderSize) * 8 / (esize * 8 + 1));
    while (kHeaderSize + (m + 7) / 8 + m * esize > kPageSize) --m;
    return m;
  }

  static constexpr size_t EntrySize(int dims) { return 2 * dims * 4 + 8; }

  NodeView(Page* page, int dims)
      : page_(page), dims_(dims), m_(MaxEntries(dims)), esize_(EntrySize(dims)) {}

  /// Zeroes and initialises the header of a fresh node.
  void Init(bool is_leaf, uint16_t level) {
    page_->Zero();
    page_->bytes[0] = is_leaf ? 1 : 0;
    SetCount(0);
    bit_util::StoreLE<uint16_t>(page_->data() + 4, level);
  }

  bool is_leaf() const { return page_->bytes[0] == 1; }
  uint16_t count() const { return bit_util::LoadLE<uint16_t>(page_->data() + 2); }
  /// 0 for leaves, increasing toward the root.
  uint16_t level() const { return bit_util::LoadLE<uint16_t>(page_->data() + 4); }
  uint32_t max_entries() const { return m_; }
  int dims() const { return dims_; }

  /// Slots are 0-based internally; paper paths are 1-based (slot + 1).
  bool Valid(uint32_t slot) const {
    PCUBE_DCHECK_LT(slot, m_);
    return page_->bytes[kHeaderSize + slot / 8] >> (slot % 8) & 1;
  }

  RectF GetRect(uint32_t slot) const {
    RectF r;
    r.dims = dims_;
    const uint8_t* p = EntryPtr(slot);
    for (int d = 0; d < dims_; ++d) {
      r.min[d] = bit_util::LoadLE<float>(p + 4 * d);
      r.max[d] = bit_util::LoadLE<float>(p + 4 * (dims_ + d));
    }
    return r;
  }

  uint64_t GetId(uint32_t slot) const {
    return bit_util::LoadLE<uint64_t>(EntryPtr(slot) + 8 * dims_);
  }

  /// Writes entry data into `slot` and marks it valid (adjusting count).
  void SetEntry(uint32_t slot, const RectF& rect, uint64_t id) {
    PCUBE_DCHECK_EQ(rect.dims, dims_);
    uint8_t* p = MutableEntryPtr(slot);
    for (int d = 0; d < dims_; ++d) {
      bit_util::StoreLE<float>(p + 4 * d, rect.min[d]);
      bit_util::StoreLE<float>(p + 4 * (dims_ + d), rect.max[d]);
    }
    bit_util::StoreLE<uint64_t>(p + 8 * dims_, id);
    if (!Valid(slot)) {
      page_->bytes[kHeaderSize + slot / 8] |= uint8_t{1} << (slot % 8);
      SetCount(count() + 1);
    }
  }

  /// Marks `slot` free (the hole is reused by a later insert).
  void ClearEntry(uint32_t slot) {
    if (Valid(slot)) {
      page_->bytes[kHeaderSize + slot / 8] &=
          static_cast<uint8_t>(~(uint8_t{1} << (slot % 8)));
      SetCount(count() - 1);
    }
  }

  /// First free slot, or max_entries() when full.
  uint32_t FirstFreeSlot() const {
    for (uint32_t s = 0; s < m_; ++s) {
      if (!Valid(s)) return s;
    }
    return m_;
  }

  /// MBR of all valid entries (Empty if none).
  RectF Mbr() const {
    RectF r = RectF::Empty(dims_);
    for (uint32_t s = 0; s < m_; ++s) {
      if (Valid(s)) r.Expand(GetRect(s));
    }
    return r;
  }

 private:
  void SetCount(uint16_t c) { bit_util::StoreLE<uint16_t>(page_->data() + 2, c); }

  const uint8_t* EntryPtr(uint32_t slot) const {
    PCUBE_DCHECK_LT(slot, m_);
    return page_->data() + kHeaderSize + (m_ + 7) / 8 + slot * esize_;
  }
  uint8_t* MutableEntryPtr(uint32_t slot) {
    PCUBE_DCHECK_LT(slot, m_);
    return page_->data() + kHeaderSize + (m_ + 7) / 8 + slot * esize_;
  }

  Page* page_;
  int dims_;
  uint32_t m_;
  size_t esize_;
};

}  // namespace pcube
