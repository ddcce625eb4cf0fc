// The structure-mutation half of the write path (DESIGN.md §15).
//
// WriteApplier is the ONLY code that calls the raw structure mutators
// (Dataset/TableStore/BooleanIndex appends, RStarTree::Insert/Delete,
// PCube::ApplyChanges/InstallChanges/Rebuild — the cube's are private to
// PCube with this class as their sole friend). Routing every mutation
// through one class is what makes the epoch-stamping contract
// unbypassable: the cube bumps the affected cells' DataEpochs when it
// installs new signatures, and a cube-less
// workbench gets the equivalent bump here, so the result cache invalidates
// exactly no matter how the batch reached the structures.
//
// Two callers, same code path (ApplySlice):
//   * the Workbench maintenance thread, applying durable batches in bounded
//     slices (readers keep running between and beside the phases below);
//   * WAL replay inside Workbench::Open, with `replay` mode tolerating the
//     idempotence cases a crash between Save() and the WAL checkpoint
//     creates (re-deleting an already-deleted tuple).
//
// A slice runs in three phases and holds the exclusive side of the
// Workbench's structure lock only for the first and the last:
//   1. tree (exclusive): heap/table/boolean-index appends, R-tree inserts
//      and deletes for every batch, in order. A batch whose every path
//      change is a fresh insert (no old path, no delete, no root split, no
//      error) defers its cube maintenance; any other batch first maintains
//      the cube for the deferred batches before it, then for itself, under
//      this same lock, so cube changes stay in batch order.
//   2. compute (shared, beside queries): the deferred batches' affected
//      signatures are loaded, their new paths set, and decomposed.
//   3. install (exclusive): the partials are written and the epochs bumped.
// Between 1 and 3 the new entries' signature bits are still 0 in every
// cell, so a query with predicates prunes them and answers on the relation
// before the slice, while a predicate-free query answers on the relation
// after it: either way one whole relation state. No kApplied ack is given
// before 3 ends. Cubes with Bloom signatures never defer.
#pragma once

#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "query/write_batch.h"
#include "rtree/path.h"

namespace pcube {

class Workbench;

/// The structure-lock instruments in the default registry, resolved once:
/// how long queries and the maintenance thread wait for the Workbench's
/// structure lock, and how long each maintenance phase holds it exclusively.
struct StructLockMetrics {
  /// pcube_struct_lock_wait_seconds{side="reader"}: query entry points.
  Histogram* reader_wait;
  /// pcube_struct_lock_wait_seconds{side="maintenance"}: each exclusive
  /// acquisition of the maintenance slice.
  Histogram* maintenance_wait;
  /// pcube_maintenance_hold_seconds{phase=...}: the exclusive tree phase of
  /// a slice that deferred all its cube work ("tree"), the install phase
  /// ("install"), and a first phase that maintained the cube under the
  /// lock ("locked").
  Histogram* hold_tree;
  Histogram* hold_install;
  Histogram* hold_locked;

  static const StructLockMetrics& Default();
};

/// Applies WriteBatches to every structure of one Workbench.
class WriteApplier {
 public:
  explicit WriteApplier(Workbench* wb) : wb_(wb) {}

  /// Applies `batches` in order as one slice and returns one Status per
  /// batch: inserts get consecutive tids starting at the dataset's current
  /// row count, deletes are removed from the R-tree and tombstoned for the
  /// boolean-first plan, and the cube's signatures are maintained
  /// incrementally (paper Fig. 7), falling back to a full signature rebuild
  /// when a batch split the root. Takes the structure lock itself, per
  /// phase (see the file comment); the caller must hold no side of it. In
  /// `replay` mode a delete of an already-missing tuple is skipped, not an
  /// error.
  std::vector<Status> ApplySlice(const std::vector<const WriteBatch*>& batches,
                                 bool replay);

  /// Recomputes every materialised signature from the tree's current state
  /// (the PCube::Rebuild gateway; bumps every epoch). The caller holds the
  /// structure lock exclusively.
  Status RebuildCube();

 private:
  /// Checks `batch`'s deletes before anything is mutated and returns the
  /// ones to apply (see the .cc for the replay rules).
  Status ScreenDeletes(const WriteBatch& batch, bool replay,
                       std::vector<TupleId>* deletes) const;
  /// The tree phase of one batch; `changes` collects its path changes even
  /// when it fails part way.
  Status ApplyTree(const WriteBatch& batch, const std::vector<TupleId>& deletes,
                   bool replay, PathChangeSet* changes);
  /// Cube maintenance of one batch under the exclusive lock (rebuild on a
  /// root split; epoch bump only, when there is no cube).
  Status MaintainCube(const PathChangeSet& changes, TupleId first_new_tid,
                      const std::vector<TupleId>& deletes);

  Workbench* wb_;
};

/// WAL record payload codec: the Workbench logs `u64 base_rows` (the row
/// count the dataset must have for the batch to apply — the idempotence
/// cursor replay checks) followed by the encoded batch.
Result<std::string> EncodeWalPayload(uint64_t base_rows,
                                     const WriteBatch& batch);
Status DecodeWalPayload(const std::string& payload, uint64_t* base_rows,
                        WriteBatch* batch);

}  // namespace pcube
