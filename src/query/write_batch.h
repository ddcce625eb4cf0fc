// The mutation surface of the Workbench (DESIGN.md §15):
// one WriteBatch carries a set of row inserts and tuple deletes that commit
// and become visible ATOMICALLY — either every row of the batch is durable
// and applied, or none is. Apply() enforces this by validating the whole
// batch (schema, value ranges AND delete tids, the latter against the
// staged-write cursors) before it is staged in the WAL or any structure is
// touched: a logically invalid batch is rejected wholly and leaves no
// trace. The one caveat is a storage fault (I/O error, injected or real)
// striking mid-apply: Apply() then returns that error and the batch's
// state is indeterminate — it remains in the WAL, a prefix of it may be
// applied in memory, and recovery may re-apply it after a restart.
// Workbench::Apply(WriteBatch) is the only public mutation entry point; the
// raw structure mutators (RStarTree::Insert, PCube::ApplyChanges, ...) are
// internal so the WAL + epoch-stamping contract cannot be bypassed.
//
// The binary encoding here is shared by the two places a batch crosses a
// trust or durability boundary: the WAL record payload (storage/wal.h) and
// the kWrite wire frame (server/protocol.h). Decoding therefore follows the
// same defensive discipline as the query wire codec — every count is capped,
// every float must be finite, trailing bytes are an error — because a WAL
// page can be torn by a crash and a wire frame can come from a hostile peer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "cube/relation.h"

namespace pcube {

/// Hard caps the batch decoder enforces (both WAL replay and the wire).
inline constexpr size_t kMaxBatchRows = 1u << 16;  ///< inserts + deletes
inline constexpr size_t kMaxBatchDims = 64;        ///< per attribute class

/// One atomic set of mutations against a Workbench.
struct WriteBatch {
  /// When Apply() returns to the caller.
  enum class Ack : uint8_t {
    /// Batch is durable AND the maintenance thread has applied it to every
    /// structure — the caller reads its own writes. The default.
    kApplied = 0,
    /// Batch is durable (WAL fsynced) but may not be queryable yet; the
    /// maintenance thread applies it shortly after. Highest ingest rate.
    kDurable = 1,
  };

  /// One row to insert, in schema order.
  struct Row {
    std::vector<uint32_t> bools;
    std::vector<float> prefs;
  };

  std::vector<Row> inserts;
  std::vector<TupleId> deletes;  ///< tids into the service's global Dataset
  Ack ack = Ack::kApplied;

  bool empty() const { return inserts.empty() && deletes.empty(); }
  size_t num_rows() const { return inserts.size() + deletes.size(); }
};

/// What Apply() acknowledged.
struct WriteResult {
  uint64_t lsn = 0;          ///< WAL sequence number of the batch
  TupleId first_tid = 0;     ///< tid of inserts[0]; rows get consecutive ids
  uint64_t epoch = 0;        ///< global data epoch at acknowledgement
  /// Stage → acknowledgement wall time: the WAL fsync wait and, for
  /// kApplied, the wait for maintenance to apply the batch.
  double commit_seconds = 0;
  uint32_t group_size = 1;   ///< writers coalesced into the batch's fsync
  bool durable = false;      ///< false for RAM-backed services (no WAL file)
};

/// Validates `batch` against `schema`: caps, dimension widths, value ranges
/// (bool values < cardinality), finite preference coordinates.
Status ValidateWriteBatch(const WriteBatch& batch, const Schema& schema);

/// Serializes a batch (caps enforced; an unrepresentable batch is
/// InvalidArgument, not truncation). The ack mode travels with the batch.
Result<std::string> EncodeWriteBatch(const WriteBatch& batch);

/// Decodes an encoded batch, trusting nothing: counts are capped, widths
/// must be consistent, floats finite, no trailing bytes. Schema-level
/// validation (cardinalities) is separate — call ValidateWriteBatch.
Status DecodeWriteBatch(const uint8_t* data, size_t size, WriteBatch* out);

}  // namespace pcube
