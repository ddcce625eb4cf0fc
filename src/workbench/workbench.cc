#include "workbench/workbench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_set>

#include "common/timer.h"
#include "workbench/catalog.h"
#include "workbench/planner.h"

namespace pcube {

namespace {
/// Rows per maintenance slice (and per WAL replay slice): bounds how long
/// a slice's exclusive phases can stall readers (fork_gc-style batching).
constexpr size_t kMaintenanceSliceRows = 4096;
}  // namespace

Result<std::unique_ptr<Workbench>> Workbench::Build(Dataset data,
                                                    WorkbenchOptions options) {
  std::unique_ptr<Workbench> wb(new Workbench());
  wb->data_ = std::move(data);
  if (options.file_path.empty()) {
    wb->pm_ = std::make_unique<MemoryPageManager>();
  } else {
    auto fpm = FilePageManager::Open(options.file_path, /*truncate=*/true);
    if (!fpm.ok()) return fpm.status();
    wb->pm_ = std::move(*fpm);
    // A stale sidecar from a previous database at this path must not
    // survive the truncation.
    std::remove((options.file_path + ".chk").c_str());
  }
  // Decorator stack, bottom-up: base -> fault injection -> checksums ->
  // latency. Faults sit below the checksum layer so injected corruption is
  // detected exactly like real corruption would be.
  if (options.fault_plan.enabled()) {
    auto wrapped = std::make_unique<FaultInjectingPageManager>(
        std::move(wb->pm_), options.fault_plan);
    wb->faults_ = wrapped.get();
    wb->faults_->set_armed(false);  // armed below, after construction
    wb->pm_ = std::move(wrapped);
  }
  if (options.verify_checksums) {
    auto wrapped = std::make_unique<ChecksumPageManager>(
        std::move(wb->pm_),
        options.file_path.empty() ? std::string() : options.file_path + ".chk");
    wb->checksums_ = wrapped.get();
    wb->pm_ = std::move(wrapped);
  }
  LatencyPageManager* latency = nullptr;
  if (options.read_latency_us > 0) {
    // Wrap at zero latency so the build itself stays fast; enabled below.
    auto wrapped = std::make_unique<LatencyPageManager>(std::move(wb->pm_));
    latency = wrapped.get();
    wb->pm_ = std::move(wrapped);
  }
  wb->pool_ = std::make_unique<BufferPool>(wb->pm_.get(), options.pool_pages,
                                           &wb->stats_, options.pool_stripes);
  if (!options.file_path.empty()) {
    // Reserve the catalog root before anything else so Open() can find it.
    auto handle = wb->pool_->New(IoCategory::kBtree, &wb->catalog_root_);
    if (!handle.ok()) return handle.status();
    PCUBE_CHECK_EQ(wb->catalog_root_, PageId{0});
  }
  if (options.build_table) {
    auto table = TableStore::Build(wb->pool_.get(), wb->data_);
    if (!table.ok()) return table.status();
    wb->table_ = std::make_unique<TableStore>(std::move(*table));
  }
  if (options.build_indices) {
    for (int d = 0; d < wb->data_.num_bool(); ++d) {
      auto index = BooleanIndex::Build(wb->pool_.get(), wb->data_, d);
      if (!index.ok()) return index.status();
      wb->indices_.push_back(std::move(*index));
    }
  }
  RTreeOptions rtree_options = options.rtree;
  rtree_options.dims = wb->data_.num_pref();
  wb->rtree_options_ = rtree_options;
  auto tree =
      options.grid_cells_per_dim > 0
          ? RStarTree::BuildGridPartition(wb->pool_.get(), wb->data_,
                                          rtree_options,
                                          options.grid_cells_per_dim)
          : (options.rtree_by_insertion
                 ? RStarTree::BuildByInsertion(wb->pool_.get(), wb->data_,
                                               rtree_options)
                 : RStarTree::BulkLoad(wb->pool_.get(), wb->data_,
                                       rtree_options));
  if (!tree.ok()) return tree.status();
  wb->tree_ = std::make_unique<RStarTree>(std::move(*tree));
  if (options.build_cube) {
    auto cube = PCube::Build(wb->pool_.get(), wb->data_, *wb->tree_,
                             options.pcube);
    if (!cube.ok()) return cube.status();
    wb->cube_ = std::make_unique<PCube>(std::move(*cube));
  }
  wb->SetUpCaches(options);
  PCUBE_RETURN_NOT_OK(wb->ColdStart());
  Wal::Options wal_options;
  if (!options.file_path.empty()) wal_options.path = options.file_path + ".wal";
  wal_options.truncate = true;
  wal_options.fault_plan = options.wal_fault_plan;
  auto wal = Wal::Open(wal_options);
  if (!wal.ok()) return wal.status();
  wb->wal_ = std::move(*wal);
  if (latency != nullptr) latency->set_read_latency_us(options.read_latency_us);
  if (wb->faults_ != nullptr) wb->faults_->set_armed(true);
  if (wb->wal_->faults() != nullptr) wb->wal_->faults()->set_armed(true);
  wb->StartMaintenance();
  return wb;
}

Workbench::~Workbench() {
  if (maintenance_.joinable()) {
    {
      MutexLock lock(&write_mu_);
      stop_maintenance_ = true;
    }
    pending_cv_.SignalAll();
    maintenance_.join();
  }
}

void Workbench::StartMaintenance() {
  {
    MutexLock lock(&write_mu_);
    staged_rows_ = data_.num_tuples();
    staged_deletes_ = tombstones_;
    applied_lsn_ = wal_->durable_lsn();
  }
  maintenance_ = std::thread([this] { MaintenanceLoop(); });
}

void Workbench::MaintenanceLoop() {
  MutexLock lock(&write_mu_);
  while (true) {
    pending_cv_.Wait(&write_mu_, [this]() REQUIRES(write_mu_) {
      return stop_maintenance_ || !pending_writes_.empty();
    });
    if (stop_maintenance_) return;

    // Only DURABLE batches may touch the structures (apply-before-fsync
    // would make a crash forget an already-visible write). The writer's own
    // group commit usually beats us here; when it has not, lead one.
    const uint64_t head_lsn = pending_writes_.front().lsn;
    if (wal_->durable_lsn() < head_lsn) {
      lock.Unlock();
      Status commit = wal_->WaitDurable(head_lsn);
      lock.Lock();
      if (stop_maintenance_) return;
      if (!commit.ok()) {
        // The log is poisoned (sticky commit failure): the head batch can
        // never become durable. Dispose of it so its waiters unblock with
        // the commit error instead of hanging.
        if (!pending_writes_.empty() &&
            pending_writes_.front().lsn == head_lsn) {
          pending_writes_.pop_front();
          apply_errors_[head_lsn] = commit;
          applied_lsn_ = std::max(applied_lsn_, head_lsn);
          applied_cv_.SignalAll();
        }
        continue;
      }
    }

    // Take a bounded slice of durable batches so each exclusive phase of
    // ApplySlice holds the structure lock for a bounded stretch.
    const uint64_t durable_upper = wal_->durable_lsn();
    std::vector<PendingWrite> slice;
    size_t slice_rows = 0;
    while (!pending_writes_.empty() &&
           pending_writes_.front().lsn <= durable_upper &&
           (slice.empty() || slice_rows < kMaintenanceSliceRows)) {
      slice_rows += pending_writes_.front().batch.num_rows();
      slice.push_back(std::move(pending_writes_.front()));
      pending_writes_.pop_front();
    }
    if (slice.empty()) continue;
    lock.Unlock();

    std::vector<const WriteBatch*> batches;
    batches.reserve(slice.size());
    for (const PendingWrite& w : slice) batches.push_back(&w.batch);
    std::vector<Status> applied =
        WriteApplier(this).ApplySlice(batches, /*replay=*/false);

    lock.Lock();
    for (size_t i = 0; i < slice.size(); ++i) {
      if (!applied[i].ok()) apply_errors_[slice[i].lsn] = std::move(applied[i]);
    }
    applied_lsn_ = std::max(applied_lsn_, slice.back().lsn);
    applied_cv_.SignalAll();
  }
}

Result<WriteResult> Workbench::Apply(const WriteBatch& batch) {
  if (tree_ == nullptr) {
    return Status::NotSupported("instance was built without an R-tree");
  }
  PCUBE_RETURN_NOT_OK(ValidateWriteBatch(batch, data_.schema()));
  const auto start = std::chrono::steady_clock::now();

  WriteResult result;
  uint64_t lsn = 0;
  {
    // Staging order fixes everything downstream: LSN order == queue order
    // == tid assignment order, so replay and maintenance agree on which
    // rows a batch created.
    MutexLock lock(&write_mu_);
    // Deletes are validated here, against the staged cursors and before the
    // batch touches the WAL: a batch the log accepts can no longer fail a
    // logical check at apply time, so recovery never has to replay (or
    // refuse to open over) a batch this call already rejected. Inserts
    // staged ahead of this batch are deletable (tid_limit covers them, and
    // the maintenance thread applies strictly in LSN order), as are this
    // batch's own inserts (they land before its deletes).
    const uint64_t tid_limit = staged_rows_ + batch.inserts.size();
    std::unordered_set<TupleId> batch_deletes;
    for (TupleId tid : batch.deletes) {
      if (tid >= tid_limit) {
        return Status::InvalidArgument("delete of unknown tuple " +
                                       std::to_string(tid));
      }
      if (staged_deletes_.count(tid) > 0 || !batch_deletes.insert(tid).second) {
        return Status::NotFound("tuple " + std::to_string(tid) +
                                " is already deleted");
      }
    }
    auto payload = EncodeWalPayload(staged_rows_, batch);
    if (!payload.ok()) return payload.status();
    auto staged = wal_->Stage(*payload);
    if (!staged.ok()) return staged.status();
    lsn = *staged;
    result.first_tid = staged_rows_;
    staged_rows_ += batch.inserts.size();
    staged_deletes_.insert(batch.deletes.begin(), batch.deletes.end());
    pending_writes_.push_back(PendingWrite{lsn, batch});
    pending_cv_.Signal();
  }

  Status commit = wal_->WaitDurable(lsn, &result.group_size);
  result.durable = commit.ok() && wal_->durable();

  // kApplied waits for read-your-writes; a failed commit also waits so the
  // maintenance thread's disposal of the poisoned batch is consumed here
  // rather than leaking into apply_errors_.
  Status apply_status;
  if (!commit.ok() || batch.ack == WriteBatch::Ack::kApplied) {
    MutexLock lock(&write_mu_);
    applied_cv_.Wait(&write_mu_, [this, lsn]() REQUIRES(write_mu_) {
      return applied_lsn_ >= lsn;
    });
    auto it = apply_errors_.find(lsn);
    if (it != apply_errors_.end()) {
      apply_status = it->second;
      apply_errors_.erase(it);
    }
  }
  if (!commit.ok()) return commit;
  if (!apply_status.ok()) return apply_status;

  result.lsn = lsn;
  result.epoch = epoch_.global();
  result.commit_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  MetricsRegistry& registry = MetricsRegistry::Default();
  registry.GetCounter("pcube_write_batches_total")->Increment();
  registry.GetCounter("pcube_write_rows_total")->Increment(batch.num_rows());
  registry.GetHistogram("pcube_write_commit_seconds")
      ->Observe(result.commit_seconds);
  return result;
}

Status Workbench::DrainWrites() {
  const uint64_t target = wal_->next_lsn() - 1;
  MutexLock lock(&write_mu_);
  applied_cv_.Wait(&write_mu_, [this, target]() REQUIRES(write_mu_) {
    return applied_lsn_ >= target;
  });
  // Surface (and clear) failures no kDurable waiter was around to consume.
  Status first;
  auto it = apply_errors_.begin();
  while (it != apply_errors_.end() && it->first <= target) {
    if (first.ok()) first = it->second;
    it = apply_errors_.erase(it);
  }
  return first;
}

Status Workbench::RebuildCube() {
  if (cube_ == nullptr) {
    return Status::InvalidArgument("instance was built without a cube");
  }
  PCUBE_RETURN_NOT_OK(DrainWrites());
  WriterLock structure_lock(&struct_mu_);
  WriteApplier applier(this);
  return applier.RebuildCube();
}

Status Workbench::Save() {
  if (catalog_root_ == kInvalidPageId) {
    return Status::InvalidArgument(
        "Save() requires a file-backed workbench (options.file_path)");
  }
  if (table_ == nullptr) {
    return Status::InvalidArgument("Save() requires build_table");
  }
  // Every staged batch must be applied before the catalog snapshots the
  // structures, and nothing may mutate them while pages flush.
  PCUBE_RETURN_NOT_OK(DrainWrites());
  WriterLock structure_lock(&struct_mu_);
  {
    // A batch staged after the drain may sit between its slice's phases
    // (rows in the tree, signature bits not yet installed); a snapshot and
    // a checkpoint then would persist that gap.
    MutexLock lock(&write_mu_);
    if (applied_lsn_ + 1 < wal_->next_lsn()) {
      return Status::InvalidArgument(
          "Save() with writes in flight; drain writers first");
    }
  }
  CatalogData c;
  c.num_bool = data_.num_bool();
  c.num_pref = data_.num_pref();
  c.bool_cardinality = data_.schema().bool_cardinality;
  c.num_tuples = table_->num_tuples();
  c.table_pages = table_->page_ids();
  for (const BooleanIndex& index : indices_) {
    CatalogData::IndexInfo info;
    info.root = index.tree().root();
    info.num_entries = index.tree().num_entries();
    info.num_pages = index.tree().num_pages();
    info.next_seq = index.next_seq();
    c.indices.push_back(info);
  }
  c.rtree_root = tree_->root();
  c.rtree_height = tree_->height();
  c.rtree_fanout = tree_->fanout();
  c.rtree_entries = tree_->num_entries();
  c.rtree_pages = tree_->num_pages();
  if (cube_ != nullptr) {
    c.has_cube = true;
    const SignatureStore& store = cube_->store();
    c.sig_index_root = store.index().root();
    c.sig_index_entries = store.num_index_entries();
    c.sig_index_pages = store.index().num_pages();
    c.sig_dense = store.dense_cells();
    c.sig_num_partials = store.num_partials();
    c.sig_num_pages = store.num_pages();
    c.sig_append_page = store.append_page();
    c.sig_append_offset = store.append_offset();
    c.cube_cells = cube_->num_cells();
    c.cube_levels = cube_->levels();
  }
  c.dictionaries = dictionaries_;
  c.tombstones.assign(tombstones_.begin(), tombstones_.end());
  std::sort(c.tombstones.begin(), c.tombstones.end());
  PCUBE_RETURN_NOT_OK(SaveCatalog(pool_.get(), catalog_root_, c));
  PCUBE_RETURN_NOT_OK(pool_->FlushAll());
  if (checksums_ != nullptr) PCUBE_RETURN_NOT_OK(checksums_->SyncSidecar());
  // Durability order: page file on stable storage FIRST, then the WAL
  // checkpoint that declares its records folded in. A crash between the
  // two replays records whose effects are already present — the replay
  // cursor (base_rows) and replay-mode delete idempotence absorb that.
  PCUBE_RETURN_NOT_OK(pm_->Sync());
  return wal_->Checkpoint();
}

void Workbench::SetUpCaches(const WorkbenchOptions& options) {
  if (options.result_cache_mb > 0) {
    result_cache_ = std::make_unique<ResultCache>(
        options.result_cache_mb << 20, &epoch_);
  }
  if (cube_ != nullptr) cube_->AttachEpoch(&epoch_);
  if (cube_ != nullptr && tree_ != nullptr) {
    shared_executor_ = std::make_unique<BatchExecutor>(
        tree_.get(), cube_.get(), /*pool=*/nullptr, /*query_log=*/nullptr,
        result_cache_.get(), &data_);
  }
}

Result<std::unique_ptr<Workbench>> Workbench::Open(
    const std::string& path, const WorkbenchOptions& options) {
  std::unique_ptr<Workbench> wb(new Workbench());
  auto fpm = FilePageManager::Open(path, /*truncate=*/false);
  if (!fpm.ok()) return fpm.status();
  wb->pm_ = std::move(*fpm);
  if (options.fault_plan.enabled()) {
    auto wrapped = std::make_unique<FaultInjectingPageManager>(
        std::move(wb->pm_), options.fault_plan);
    wb->faults_ = wrapped.get();
    wb->faults_->set_armed(false);  // armed below, after re-attaching
    wb->pm_ = std::move(wrapped);
  }
  if (options.verify_checksums) {
    auto wrapped = std::make_unique<ChecksumPageManager>(std::move(wb->pm_),
                                                         path + ".chk");
    wb->checksums_ = wrapped.get();
    wb->pm_ = std::move(wrapped);
  }
  LatencyPageManager* latency = nullptr;
  if (options.read_latency_us > 0) {
    // Wrap at zero latency so re-attaching and the table re-scan below stay
    // fast; enabled just before returning, like Build().
    auto wrapped = std::make_unique<LatencyPageManager>(std::move(wb->pm_));
    latency = wrapped.get();
    wb->pm_ = std::move(wrapped);
  }
  wb->pool_ = std::make_unique<BufferPool>(wb->pm_.get(), options.pool_pages,
                                           &wb->stats_, options.pool_stripes);
  wb->catalog_root_ = 0;
  auto catalog = LoadCatalog(wb->pool_.get(), wb->catalog_root_);
  if (!catalog.ok()) return catalog.status();
  const CatalogData& c = *catalog;

  wb->table_ = std::make_unique<TableStore>(TableStore::Attach(
      wb->pool_.get(), c.num_bool, c.num_pref, c.num_tuples, c.table_pages));
  for (size_t d = 0; d < c.indices.size(); ++d) {
    wb->indices_.push_back(BooleanIndex::Attach(
        wb->pool_.get(), static_cast<int>(d), c.indices[d].root,
        c.indices[d].num_entries, c.indices[d].num_pages,
        c.indices[d].next_seq));
  }
  RTreeOptions rtree_options;
  rtree_options.dims = c.num_pref;
  rtree_options.max_entries = c.rtree_fanout;
  wb->rtree_options_ = rtree_options;
  auto tree = RStarTree::Attach(wb->pool_.get(), rtree_options, c.rtree_root,
                                c.rtree_height, c.rtree_entries,
                                c.rtree_pages);
  if (!tree.ok()) return tree.status();
  wb->tree_ = std::make_unique<RStarTree>(std::move(*tree));
  if (c.has_cube) {
    auto store = std::make_unique<SignatureStore>(SignatureStore::Attach(
        wb->pool_.get(), c.sig_index_root, c.sig_index_entries,
        c.sig_index_pages, c.sig_dense, c.sig_num_partials, c.sig_num_pages,
        c.sig_append_page, c.sig_append_offset));
    wb->cube_ = std::make_unique<PCube>(
        PCube::Attach(std::move(store), c.rtree_fanout, c.cube_levels,
                      c.num_bool, c.cube_cells));
  }

  wb->dictionaries_ = c.dictionaries;
  wb->tombstones_.insert(c.tombstones.begin(), c.tombstones.end());

  // Rebuild the in-memory Dataset from the heap file.
  Schema schema;
  schema.num_bool = c.num_bool;
  schema.num_pref = c.num_pref;
  schema.bool_cardinality = c.bool_cardinality;
  wb->data_ = Dataset(schema, 0);
  Status scan = wb->table_->Scan([&](const TupleData& row) {
    wb->data_.Append(row.bools, row.prefs);
    return true;
  });
  if (!scan.ok()) return scan;

  // Crash recovery: replay acked-but-uncheckpointed batches from the WAL
  // before the first query can observe the structures. Each record carries
  // the row count it was staged against (base_rows), which doubles as the
  // replay cursor: records the last checkpoint already folded into the page
  // file sit BEHIND the heap's current count and are skipped; delete-only
  // records never advance the count and re-apply idempotently.
  Wal::Options wal_options;
  wal_options.path = path + ".wal";
  wal_options.truncate = false;
  wal_options.fault_plan = options.wal_fault_plan;
  auto wal = Wal::Open(wal_options);
  if (!wal.ok()) return wal.status();
  wb->wal_ = std::move(*wal);
  // Replayed batches go through the maintenance thread's slice routine in
  // slices of the same bound; `rows` is the row count once the collected
  // slice is applied.
  bool replay_applied = false;
  std::vector<WriteBatch> slice;
  size_t slice_rows = 0;
  uint64_t rows = wb->data_.num_tuples();
  auto apply_slice = [&]() -> Status {
    std::vector<const WriteBatch*> batches;
    for (const WriteBatch& b : slice) batches.push_back(&b);
    std::vector<Status> applied =
        WriteApplier(wb.get()).ApplySlice(batches, /*replay=*/true);
    slice.clear();
    slice_rows = 0;
    for (const Status& st : applied) PCUBE_RETURN_NOT_OK(st);
    return Status::OK();
  };
  auto replayed = wb->wal_->Replay([&](const Wal::Record& record) -> Status {
    uint64_t base_rows = 0;
    WriteBatch batch;
    PCUBE_RETURN_NOT_OK(DecodeWalPayload(record.payload, &base_rows, &batch));
    if (base_rows > rows) {
      return Status::Corruption(
          "WAL record " + std::to_string(record.lsn) + ": row cursor " +
          std::to_string(base_rows) + " is ahead of the heap file (" +
          std::to_string(rows) + " rows)");
    }
    if (base_rows < rows) return Status::OK();
    PCUBE_RETURN_NOT_OK(ValidateWriteBatch(batch, wb->data_.schema()));
    replay_applied = true;
    rows += batch.inserts.size();
    slice_rows += batch.num_rows();
    slice.push_back(std::move(batch));
    return slice_rows < kMaintenanceSliceRows ? Status::OK() : apply_slice();
  });
  if (!replayed.ok()) return replayed.status();
  if (!slice.empty()) PCUBE_RETURN_NOT_OK(apply_slice());

  wb->SetUpCaches(options);
  PCUBE_RETURN_NOT_OK(wb->ColdStart());
  if (latency != nullptr) latency->set_read_latency_us(options.read_latency_us);
  if (wb->faults_ != nullptr) wb->faults_->set_armed(true);
  if (wb->wal_->faults() != nullptr) wb->wal_->faults()->set_armed(true);
  wb->StartMaintenance();
  if (replay_applied) {
    // Recovery ends with a checkpoint. The replayed batches mutated pages
    // in the buffer pool only; without folding them into the page file now,
    // a later eviction could write some of them back while the on-disk
    // catalog and checksum sidecar still describe the pre-crash state —
    // leaving a file that LOOKS corrupt to the next open even though no
    // data was lost. Checkpointing here makes recovery idempotent and the
    // file consistent before the first query runs.
    PCUBE_RETURN_NOT_OK(wb->Save());
  }
  return wb;
}

Status Workbench::ColdStart() {
  PCUBE_RETURN_NOT_OK(pool_->Clear());
  snapshot_ = stats_;
  return Status::OK();
}

Result<QueryResponse> Workbench::Run(const QueryRequest& request) {
  // Exclusive side of the structure lock: the planner cold-starts the
  // buffer pool, which no other page user may overlap — neither a shared
  // query nor the maintenance thread's compute phase, which reads
  // signature pages beside queries. It also keeps the query's I/O counts
  // its own.
  Timer wait;
  WriterLock structure_lock(&struct_mu_);
  StructLockMetrics::Default().reader_wait->Observe(wait.ElapsedSeconds());
  QueryPlanner planner(this);
  return planner.Run(request);
}

Result<QueryResponse> Workbench::RunShared(const QueryRequest& request) {
  if (shared_executor_ == nullptr) {
    return Status::NotSupported("instance was built without a cube");
  }
  // Shared side of the structure lock: the maintenance thread mutates the
  // structures only under the exclusive side, so a query observes one
  // consistent state for its whole execution.
  Timer wait;
  ReaderLock structure_lock(&struct_mu_);
  StructLockMetrics::Default().reader_wait->Observe(wait.ElapsedSeconds());
  BatchQueryResult result = shared_executor_->ExecuteOne(request);
  ReportQueryMetrics(request, result.response, result.status);
  if (!result.status.ok()) return result.status;
  return std::move(result.response);
}

Result<PlanEstimate> Workbench::Estimate(const PredicateSet& preds) {
  Timer wait;
  ReaderLock structure_lock(&struct_mu_);
  StructLockMetrics::Default().reader_wait->Observe(wait.ElapsedSeconds());
  QueryPlanner planner(this);
  return planner.Estimate(preds);
}

Result<SkylineOutput> Workbench::SignatureSkyline(const PredicateSet& preds,
                                                  std::vector<int> pref_dims) {
  PCUBE_CHECK(cube_ != nullptr);
  ReaderLock structure_lock(&struct_mu_);
  auto probe = cube_->MakeProbe(preds);
  if (!probe.ok()) return probe.status();
  SkylineQueryOptions options;
  options.pref_dims = std::move(pref_dims);
  SkylineEngine engine(tree_.get(), probe->get(), nullptr, options);
  return engine.Run();
}

Result<TopKOutput> Workbench::SignatureTopK(const PredicateSet& preds,
                                            const RankingFunction& f,
                                            size_t k) {
  PCUBE_CHECK(cube_ != nullptr);
  ReaderLock structure_lock(&struct_mu_);
  auto probe = cube_->MakeProbe(preds);
  if (!probe.ok()) return probe.status();
  TopKEngine engine(tree_.get(), probe->get(), nullptr, &f, k);
  return engine.Run();
}

BatchOutput Workbench::RunBatch(const std::vector<BatchQuery>& queries,
                                size_t num_workers, QueryLog* query_log) {
  PCUBE_CHECK(cube_ != nullptr);
  Timer wait;
  ReaderLock structure_lock(&struct_mu_);
  StructLockMetrics::Default().reader_wait->Observe(wait.ElapsedSeconds());
  ThreadPool pool(num_workers);
  BatchExecutor executor(tree_.get(), cube_.get(), &pool, query_log,
                         result_cache_.get(), &data_);
  return executor.Execute(queries);
}

Result<Workbench::IntegrityReport> Workbench::VerifyIntegrity() {
  // The walk checks structural invariants (entry counts, key order), so
  // half-applied batches would read as damage: drain first, then freeze.
  PCUBE_RETURN_NOT_OK(DrainWrites());
  WriterLock structure_lock(&struct_mu_);
  IntegrityReport report;

  // 1. Page sweep: every allocated page must read back — through the
  // checksum layer when enabled, so bit rot surfaces as Corruption here.
  const uint64_t num_pages = pm_->NumPages();
  for (PageId pid = 0; pid < num_pages; ++pid) {
    auto handle = pool_->Get(pid, IoCategory::kHeapFile);
    ++report.pages_checked;
    if (!handle.ok()) {
      report.errors.emplace_back(pid, handle.status().ToString());
    }
  }

  // 2. Boolean indices: a full range scan must succeed, visit keys in
  // ascending order and agree with the recorded entry count.
  for (const BooleanIndex& index : indices_) {
    uint64_t seen = 0;
    uint64_t prev_key = 0;
    bool ordered = true;
    Status scan = index.tree().RangeScan(
        0, ~uint64_t{0}, [&](uint64_t key, uint64_t) {
          if (seen > 0 && key <= prev_key) ordered = false;
          prev_key = key;
          ++seen;
          return true;
        });
    std::string label = "bool index " + std::to_string(index.dim());
    if (!scan.ok()) {
      report.errors.emplace_back(kInvalidPageId,
                                 label + ": " + scan.ToString());
      continue;
    }
    if (!ordered) {
      report.errors.emplace_back(kInvalidPageId,
                                 label + ": keys out of order");
    }
    if (seen != index.tree().num_entries()) {
      report.errors.emplace_back(
          kInvalidPageId, label + ": scanned " + std::to_string(seen) +
                              " entries, recorded " +
                              std::to_string(index.tree().num_entries()));
    }
  }

  // 3. R-tree structural invariants.
  if (tree_ != nullptr) {
    std::vector<std::string> problems;
    Status walk = tree_->CheckStructure(&problems);
    if (!walk.ok()) {
      report.errors.emplace_back(kInvalidPageId, walk.ToString());
    }
    for (std::string& p : problems) {
      report.errors.emplace_back(kInvalidPageId, std::move(p));
    }
  }

  // 4. Signature store: every stored cell's signature must reassemble.
  if (cube_ != nullptr) {
    const SignatureStore& store = cube_->store();
    for (const auto& [cell, dense] : store.dense_cells()) {
      auto sig = store.LoadFull(cell, cube_->fanout(), cube_->levels());
      if (!sig.ok()) {
        report.errors.emplace_back(
            kInvalidPageId, "signature cell " + std::to_string(dense) + ": " +
                                sig.status().ToString());
      }
    }
  }

  PCUBE_RETURN_NOT_OK(ColdStart());
  return report;
}

void Workbench::ExportMetrics(MetricsRegistry* registry) const {
  ReaderLock structure_lock(&struct_mu_);
  pool_->ExportTo(registry, "pcube_bufferpool");
  registry->GetGauge("pcube_pages_total")
      ->Set(static_cast<double>(pm_->NumPages()));
  if (table_ != nullptr) {
    registry->GetGauge("pcube_table_pages")
        ->Set(static_cast<double>(table_->num_pages()));
  }
  if (tree_ != nullptr) {
    registry->GetGauge("pcube_rtree_pages")
        ->Set(static_cast<double>(tree_->num_pages()));
  }
  if (cube_ != nullptr) {
    registry->GetGauge("pcube_cube_pages")
        ->Set(static_cast<double>(cube_->MaterializedPages()));
    registry->GetGauge("pcube_cube_cells")
        ->Set(static_cast<double>(cube_->num_cells()));
  }
  registry->GetGauge("pcube_io_reads_total")
      ->Set(static_cast<double>(stats_.TotalReads()));
  registry->GetGauge("pcube_io_writes_total")
      ->Set(static_cast<double>(stats_.TotalWrites()));
  registry->GetGauge("pcube_tombstones")
      ->Set(static_cast<double>(tombstones_.size()));
  if (wal_ != nullptr) {
    registry->GetGauge("pcube_wal_durable_lsn")
        ->Set(static_cast<double>(wal_->durable_lsn()));
    registry->GetGauge("pcube_wal_syncs")
        ->Set(static_cast<double>(wal_->sync_count()));
  }

  // Result-cache occupancy plus its hit rate. The cache reports its event
  // counters into the process-wide default registry; the rate here is
  // derived from those so one scrape shows both.
  if (result_cache_ != nullptr) {
    MetricsRegistry& events = MetricsRegistry::Default();
    registry->GetGauge("pcube_result_cache_bytes")
        ->Set(static_cast<double>(result_cache_->bytes()));
    registry->GetGauge("pcube_result_cache_entries")
        ->Set(static_cast<double>(result_cache_->entries()));
    double hits =
        events.GetCounter("pcube_result_cache_hits_total")->Value() +
        events.GetCounter("pcube_result_cache_containment_total")->Value();
    double lookups =
        hits + events.GetCounter("pcube_result_cache_misses_total")->Value();
    registry->GetGauge("pcube_result_cache_hit_rate")
        ->Set(lookups > 0 ? hits / lookups : 0.0);
  }
}

}  // namespace pcube
