// Persistent home of all signatures: partial signatures live one-per-page,
// indexed by a B+-tree on the composite key <cell id, SID> (paper §VI.A:
// "Signatures are compressed, decomposed and indexed (using B+-tree) by cell
// IDs and SID's"). Loads of partial-signature pages are charged to
// IoCategory::kSignature — the paper's "SSig" disk accesses.
//
// Thread-safety: after construction the store is read-only; LoadPartial and
// ListPartials are const, cache nothing locally, and may be called from any
// number of threads (the BufferPool serialises same-page access). Put /
// PutPartials / Compact are build- and maintenance-time only and must not
// overlap any reader (the Workbench holds its structure lock exclusively).
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/signature.h"
#include "core/signature_codec.h"
#include "cube/cell.h"
#include "storage/bplus_tree.h"

namespace pcube {

/// Page-backed store of decomposed signatures.
class SignatureStore {
 public:
  /// SID values must fit in 40 bits (tree heights seen in practice give
  /// SIDs far below this; PathToSid guards the general overflow).
  static constexpr int kSidBits = 40;
  static constexpr uint64_t kMaxSid = (uint64_t{1} << kSidBits) - 1;
  /// Maximum partial-signature payload: one page. Partials from different
  /// cells are packed into shared pages; the directory value carries
  /// (page, offset, length), so loading any partial is one page read.
  static constexpr size_t kMaxPayload = kPageSize;

  static Result<SignatureStore> Create(BufferPool* pool);

  /// Re-attaches to a previously populated store (catalog-driven reopen).
  static SignatureStore Attach(BufferPool* pool, PageId index_root,
                               uint64_t index_entries, uint64_t index_pages,
                               std::map<CellId, uint32_t> dense,
                               uint64_t num_partials, uint64_t num_pages,
                               PageId append_page, uint32_t append_offset) {
    SignatureStore store(
        BPlusTree::Attach(pool, index_root, index_entries, index_pages), pool);
    store.dense_ = std::move(dense);
    store.next_dense_ = store.dense_.empty()
                            ? 0
                            : 1 + std::max_element(store.dense_.begin(),
                                                   store.dense_.end(),
                                                   [](auto& a, auto& b) {
                                                     return a.second < b.second;
                                                   })
                                      ->second;
    store.num_partials_ = num_partials;
    store.num_pages_ = num_pages;
    store.append_page_ = append_page;
    store.append_offset_ = append_offset;
    return store;
  }

  /// Reopen support: the in-memory cell directory and append cursor.
  const std::map<CellId, uint32_t>& dense_cells() const { return dense_; }
  PageId append_page() const { return append_page_; }
  uint32_t append_offset() const { return append_offset_; }
  uint64_t num_index_entries() const { return index_.num_entries(); }

  /// Writes the decomposed form of `sig` for `cell`, replacing any previous
  /// version: partials with the same SID are overwritten in place, removed
  /// SIDs are tombstoned, new SIDs get fresh pages.
  Status Put(CellId cell, const Signature& sig) {
    return PutPartials(cell, DecomposeSignature(sig, kMaxPayload));
  }

  /// The write half of Put: installs an already decomposed signature
  /// (DecomposeSignature(sig, kMaxPayload)). Maintenance decomposes while
  /// queries run and holds the structure lock exclusively only for this.
  Status PutPartials(CellId cell, const std::vector<PartialSignature>& partials);

  /// Loads the payload of the partial signature <cell, sid>; NotFound when
  /// the cell has no partial rooted there.
  Result<std::vector<uint8_t>> LoadPartial(CellId cell, uint64_t sid) const;

  /// SIDs of all partials of `cell`, ascending (== generation order).
  Result<std::vector<uint64_t>> ListPartials(CellId cell) const;

  /// Reassembles the full signature of `cell` (empty signature when the cell
  /// was never stored). Used by incremental maintenance and tests.
  Result<Signature> LoadFull(CellId cell, uint32_t fanout, int levels) const;

  /// True when at least one partial exists for `cell`.
  Result<bool> HasCell(CellId cell) const;

  /// Rewrites every live partial into freshly packed pages and returns the
  /// old data pages to the page manager's free list. Run after heavy
  /// maintenance: in-place updates leak slot space when partials grow or
  /// are tombstoned. (After a catalog reopen the old page list is unknown,
  /// so compaction repacks but cannot reclaim — compact before Save().)
  Status Compact();

  uint64_t num_partials() const { return num_partials_; }
  uint64_t num_pages() const { return num_pages_; }
  const BPlusTree& index() const { return index_; }

  /// Distinct page ids holding at least one live partial (full directory
  /// scan). Integrity checking and fault-injection tooling use this to
  /// enumerate — or deliberately damage — every signature data page.
  Result<std::vector<PageId>> DataPages() const;

 private:
  explicit SignatureStore(BPlusTree index, BufferPool* pool)
      : index_(std::move(index)), pool_(pool) {}

  /// CellIds are sparse 64-bit values; the index key packs a dense 24-bit
  /// cell number with the 40-bit SID. The dense map is in-memory metadata
  /// (rebuildable from the cuboid list).
  static uint64_t MakeKey(uint32_t dense_cell, uint64_t sid);
  Result<uint32_t> DenseId(CellId cell) const;
  uint32_t InternCell(CellId cell);
  /// Appends a blob to the packed data pages; returns its packed location.
  Result<uint64_t> AppendBlob(const std::vector<uint8_t>& bytes);

  BPlusTree index_;
  BufferPool* pool_;
  std::map<CellId, uint32_t> dense_;
  uint32_t next_dense_ = 0;
  uint64_t num_partials_ = 0;
  uint64_t num_pages_ = 0;
  PageId append_page_ = kInvalidPageId;
  uint32_t append_offset_ = 0;
  /// Data pages owned by this store (for Compact's reclamation).
  std::vector<PageId> data_pages_;
};

}  // namespace pcube
