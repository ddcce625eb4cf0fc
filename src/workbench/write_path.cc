#include "workbench/write_path.h"

#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bit_util.h"
#include "common/timer.h"
#include "workbench/workbench.h"

namespace pcube {

namespace {

/// True when every path change is a fresh insert: such a batch only sets
/// signature bits, none of which any existing tuple shares, so its cube
/// work may run after the exclusive tree phase.
bool PureInsert(const PathChangeSet& changes) {
  if (changes.root_split) return false;
  for (const PathChange& c : changes.changes) {
    if (c.has_old || c.deleted || !c.has_new) return false;
  }
  return true;
}

}  // namespace

const StructLockMetrics& StructLockMetrics::Default() {
  static const StructLockMetrics metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return StructLockMetrics{
        r.GetHistogram("pcube_struct_lock_wait_seconds{side=\"reader\"}"),
        r.GetHistogram("pcube_struct_lock_wait_seconds{side=\"maintenance\"}"),
        r.GetHistogram("pcube_maintenance_hold_seconds{phase=\"tree\"}"),
        r.GetHistogram("pcube_maintenance_hold_seconds{phase=\"install\"}"),
        r.GetHistogram("pcube_maintenance_hold_seconds{phase=\"locked\"}")};
  }();
  return metrics;
}

std::vector<Status> WriteApplier::ApplySlice(
    const std::vector<const WriteBatch*>& batches, bool replay) {
  const StructLockMetrics& metrics = StructLockMetrics::Default();
  const Dataset& data = wb_->data();
  PCube* cube = wb_->cube_.get();
  const bool may_defer = cube != nullptr && !cube->has_bloom();
  std::vector<Status> results(batches.size());
  // Fresh-insert path changes whose cube work waits for the compute phase,
  // and the batches they came from.
  PathChangeSet deferred;
  std::vector<size_t> deferred_batches;
  auto fail_deferred = [&](const Status& st) {
    if (st.ok()) return;
    for (size_t i : deferred_batches) results[i] = st;
  };

  {
    Timer wait;
    WriterLock structure_lock(&wb_->struct_mu_);
    metrics.maintenance_wait->Observe(wait.ElapsedSeconds());
    Timer hold;
    bool cube_locked = false;
    for (size_t i = 0; i < batches.size(); ++i) {
      const WriteBatch& batch = *batches[i];
      std::vector<TupleId> deletes;
      results[i] = ScreenDeletes(batch, replay, &deletes);
      if (!results[i].ok()) continue;  // nothing was mutated
      const TupleId first_new_tid = data.num_tuples();
      PathChangeSet changes;
      Status tree = ApplyTree(batch, deletes, replay, &changes);
      if (may_defer && tree.ok() && PureInsert(changes)) {
        deferred.changes.insert(deferred.changes.end(),
                                std::make_move_iterator(changes.changes.begin()),
                                std::make_move_iterator(changes.changes.end()));
        deferred_batches.push_back(i);
        continue;
      }
      // Cube changes stay in batch order: this batch may move an entry a
      // deferred one inserted, so the deferred bits must land first.
      cube_locked = true;
      if (!deferred_batches.empty()) {
        fail_deferred(cube->ApplyChanges(data, deferred));
        deferred.Clear();
        deferred_batches.clear();
      }
      Status maintained = MaintainCube(changes, first_new_tid, deletes);
      results[i] = tree.ok() ? maintained : tree;
    }
    (cube_locked ? metrics.hold_locked : metrics.hold_tree)
        ->Observe(hold.ElapsedSeconds());
  }
  if (deferred_batches.empty()) return results;

  // Compute beside queries: they cannot see the new entries through any
  // signature until the install below.
  PCube::CubeUpdate update;
  {
    ReaderLock structure_lock(&wb_->struct_mu_);
    update = cube->ComputeChanges(data, deferred);
  }
  Timer wait;
  WriterLock structure_lock(&wb_->struct_mu_);
  metrics.maintenance_wait->Observe(wait.ElapsedSeconds());
  Timer hold;
  fail_deferred(cube->InstallChanges(update));
  metrics.hold_install->Observe(hold.ElapsedSeconds());
  return results;
}

Status WriteApplier::ScreenDeletes(const WriteBatch& batch, bool replay,
                                   std::vector<TupleId>* deletes) const {
  // Screen every delete BEFORE any structure mutation. Workbench::Apply
  // already rejected logically invalid deletes at stage time, so finding
  // one here means the record predates that validation or raced a
  // checkpoint: under replay such entries are skipped — recovery must never
  // refuse to open over a delete the original run already refused — and
  // outside replay the whole batch is rejected with nothing applied
  // (WriteBatch's all-or-nothing contract for malformed batches).
  deletes->reserve(batch.deletes.size());
  const TupleId tid_limit =
      wb_->data().num_tuples() + static_cast<TupleId>(batch.inserts.size());
  std::unordered_set<TupleId> in_batch;
  for (const TupleId tid : batch.deletes) {
    if (tid >= tid_limit) {
      if (replay) continue;
      return Status::InvalidArgument("delete of unknown tuple " +
                                     std::to_string(tid));
    }
    if (wb_->tombstones_.count(tid) > 0 || !in_batch.insert(tid).second) {
      if (replay) continue;  // crash between Save() and the WAL checkpoint
      return Status::NotFound("tuple " + std::to_string(tid) +
                              " is already deleted");
    }
    deletes->push_back(tid);
  }
  return Status::OK();
}

Status WriteApplier::ApplyTree(const WriteBatch& batch,
                               const std::vector<TupleId>& deletes,
                               bool replay, PathChangeSet* changes) {
  // Stop at the first failure, but keep the changes that DID land: they
  // must still flow into the cube maintenance, or the signatures would
  // disagree with the tree and the engines could prune live results.
  Dataset& data = *wb_->mutable_data();
  for (const WriteBatch::Row& row : batch.inserts) {
    TupleId tid = data.Append(row.bools, row.prefs);
    if (wb_->table_ != nullptr) {
      auto appended = wb_->table_->Append(row.bools, row.prefs);
      if (!appended.ok()) return appended.status();
      PCUBE_CHECK_EQ(*appended, tid);
    }
    for (size_t d = 0; d < wb_->indices_.size(); ++d) {
      PCUBE_RETURN_NOT_OK(wb_->indices_[d].Add(row.bools[d], tid));
    }
    PCUBE_RETURN_NOT_OK(wb_->tree_->Insert(data.PrefPoint(tid), tid, changes));
  }
  for (const TupleId tid : deletes) {
    Status removed = wb_->tree_->Delete(data.PrefPoint(tid), tid, changes);
    if (!removed.ok()) {
      if (replay && removed.code() == StatusCode::kNotFound) continue;
      return removed;
    }
    wb_->tombstones_.insert(tid);
  }
  return Status::OK();
}

Status WriteApplier::MaintainCube(const PathChangeSet& changes,
                                  TupleId first_new_tid,
                                  const std::vector<TupleId>& deletes) {
  const Dataset& data = wb_->data();
  if (wb_->cube_ != nullptr) {
    Status maintained = wb_->cube_->ApplyChanges(data, changes);
    if (maintained.code() == StatusCode::kNotSupported) {
      // Root split: every path changed, re-derive all signatures.
      maintained = wb_->cube_->Rebuild(data, *wb_->tree_);
    }
    return maintained;
  }
  // No cube: the epoch bump ApplyChanges would have issued happens here
  // so the L1 cache still invalidates exactly.
  std::vector<CellId> cells;
  auto collect = [&](TupleId tid) {
    for (int d = 0; d < data.num_bool(); ++d) {
      cells.push_back(AtomicCellId(d, data.BoolValue(tid, d)));
    }
  };
  for (TupleId tid = first_new_tid; tid < data.num_tuples(); ++tid) {
    collect(tid);
  }
  for (TupleId tid : deletes) collect(tid);
  wb_->epoch_.BumpCells(cells);
  return Status::OK();
}

Status WriteApplier::RebuildCube() {
  if (wb_->cube_ == nullptr) {
    return Status::InvalidArgument("instance was built without a cube");
  }
  return wb_->cube_->Rebuild(*wb_->mutable_data(), *wb_->tree_);
}

Result<std::string> EncodeWalPayload(uint64_t base_rows,
                                     const WriteBatch& batch) {
  auto encoded = EncodeWriteBatch(batch);
  if (!encoded.ok()) return encoded.status();
  std::string payload;
  payload.reserve(8 + encoded->size());
  uint8_t buf[8];
  bit_util::StoreLE(buf, base_rows);
  payload.append(reinterpret_cast<const char*>(buf), sizeof(buf));
  payload.append(*encoded);
  return payload;
}

Status DecodeWalPayload(const std::string& payload, uint64_t* base_rows,
                        WriteBatch* batch) {
  if (payload.size() < 8) {
    return Status::Corruption("WAL payload shorter than its row cursor");
  }
  *base_rows =
      bit_util::LoadLE<uint64_t>(reinterpret_cast<const uint8_t*>(payload.data()));
  return DecodeWriteBatch(
      reinterpret_cast<const uint8_t*>(payload.data()) + 8, payload.size() - 8,
      batch);
}

}  // namespace pcube
