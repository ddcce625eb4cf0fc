// End-to-end assembly of one experimental instance: a simulated disk
// (MemoryPageManager + BufferPool + IoStats), the heap file, the boolean
// B+-tree indices, the shared R*-tree partition and the P-Cube built over
// it. Tests, benchmarks and examples all start from here so they measure
// the same storage stack the paper describes in §VI.A.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <unordered_set>

#include "baselines/boolean_first.h"
#include "baselines/domination_first.h"
#include "baselines/index_merge.h"
#include "cache/epoch.h"
#include "cache/fragment_cache.h"
#include "cache/result_cache.h"
#include "common/metrics.h"
#include "core/pcube.h"
#include "data/generators.h"
#include "query/incremental.h"
#include "query/skyline_engine.h"
#include "query/topk_engine.h"
#include "common/mutex.h"
#include "query/write_batch.h"
#include "storage/checksum.h"
#include "storage/fault_injection.h"
#include "storage/table_store.h"
#include "storage/wal.h"
#include "workbench/batch_executor.h"
#include "workbench/write_path.h"

namespace pcube {

/// Every knob of a Workbench instance, for both entry points — this struct
/// is the single documented surface: Build(data, options) honours all
/// fields; Open(path, options) honours the runtime fields (pool_pages,
/// pool_stripes, read_latency_us, verify_checksums, fault_plan and the
/// cache knobs) and ignores the build-time ones (rtree, pcube, grid/build_*
/// flags, file_path) because the structures already exist on disk.
struct WorkbenchOptions {
  /// Buffer-pool capacity in pages (default 64Ki pages = 256 MiB of frames).
  size_t pool_pages = size_t{1} << 16;
  /// Lock stripes for the buffer pool; 0 = automatic (see BufferPool).
  /// Concurrency benchmarks set this explicitly so small eviction-pressure
  /// pools still get parallel stripes.
  size_t pool_stripes = 0;
  /// R*-tree shape (fanout etc.; dims is overwritten from the schema).
  RTreeOptions rtree;
  /// P-Cube materialisation (cuboid depth, Bloom signatures).
  PCubeOptions pcube;
  /// Build the R-tree by repeated R* insertion (construction benchmarks)
  /// instead of STR bulk loading.
  bool rtree_by_insertion = false;
  /// When > 0, use an equi-width grid partition with this many cells per
  /// dimension as the P-Cube template instead of an R-tree clustering.
  int grid_cells_per_dim = 0;
  bool build_indices = true;
  bool build_cube = true;
  bool build_table = true;
  /// When > 0, wrap the page manager in a LatencyPageManager sleeping this
  /// long per physical read. The latency is enabled only AFTER construction,
  /// so building stays fast; queries then pay real blocked time per page
  /// miss (throughput benchmarks overlap these stalls across workers).
  double read_latency_us = 0;
  /// When non-empty, back everything by a file instead of RAM; the instance
  /// can then be persisted with Save() and reopened with Workbench::Open().
  std::string file_path;
  /// Verify a CRC-32 per page on every physical read (storage/checksum.h).
  /// File-backed instances persist the checksums to `<file_path>.chk` on
  /// Save(); files from before this layer open fine (adopt-on-read).
  bool verify_checksums = true;
  /// Storage fault injection (storage/fault_injection.h). Injection is
  /// disarmed while Build/Open construct the structures and armed just
  /// before returning, so faults hit queries, not construction.
  FaultPlan fault_plan;
  /// Separate fault plan for the write-ahead log's own page stack (crash
  /// tests tear the WAL tail deterministically without perturbing the main
  /// store). Disarmed during Open's replay, armed before returning.
  FaultPlan wal_fault_plan;
  /// L1 semantic result cache budget in MiB (cache/result_cache.h); 0
  /// disables the level. Served through QueryPlanner::Run and RunBatch.
  size_t result_cache_mb = 16;
  /// L2 decoded-signature fragment cache budget in MiB
  /// (cache/fragment_cache.h); 0 disables the level.
  size_t fragment_cache_mb = 16;
  /// Allow L1 containment reuse: answer predicates P' ⊇ P from the entry
  /// cached for P (top-k filter pass / skyline Lemma 2 drill-down).
  /// Exact-repeat and truncation hits work regardless.
  bool enable_containment = true;
};

/// One fully built experimental instance and the front door for preference
/// queries: the CLI, the network server, the benchmarks and the batch
/// drivers all answer through Run/RunShared/RunBatch and mutate through
/// Apply. Heap-allocated and pinned (the maintenance thread and the lock
/// members make it immovable); always held behind a unique_ptr.
class Workbench {
 public:
  /// Builds every structure for `data` (the R-tree dims follow the schema).
  static Result<std::unique_ptr<Workbench>> Build(Dataset data,
                                                  WorkbenchOptions options);

  /// Stops the maintenance thread. Durable-acked batches it had not applied
  /// yet survive in the WAL and are replayed by the next Open().
  ~Workbench();

  /// Writes the catalog and flushes all pages; only valid for file-backed
  /// instances (options.file_path). Requires build_table and build_indices;
  /// the cube must use atomic cuboids without Bloom signatures. Drains the
  /// write path, syncs the page file, then truncates the WAL (checkpoint).
  Status Save();

  /// Reopens a previously Save()d file: re-attaches every structure and
  /// reconstructs the in-memory Dataset from the heap file. The single
  /// open path — `options` defaults cover the common case; see
  /// WorkbenchOptions for which fields apply to reopen.
  static Result<std::unique_ptr<Workbench>> Open(
      const std::string& path, const WorkbenchOptions& options = {});

  /// Flushes and empties the buffer pool and snapshots IoStats — queries run
  /// after this observe cold-cache disk-access counts.
  Status ColdStart();

  /// I/O performed since the last ColdStart().
  IoStats IoSince() const { return stats_.Delta(snapshot_); }

  const Dataset& data() const { return data_; }
  Dataset* mutable_data() { return &data_; }
  BufferPool* pool() { return pool_.get(); }
  IoStats* stats() { return &stats_; }
  TableStore* table() { return table_.get(); }
  const std::vector<BooleanIndex>& indices() const { return indices_; }
  std::vector<BooleanIndex>* mutable_indices() { return &indices_; }
  RStarTree* tree() { return tree_.get(); }
  PCube* cube() { return cube_.get(); }
  PageManager* page_manager() { return pm_.get(); }
  /// The fault-injection layer, or null when options.fault_plan is empty.
  FaultInjectingPageManager* faults() { return faults_; }
  /// The checksum layer, or null when options.verify_checksums is false.
  ChecksumPageManager* checksums() { return checksums_; }

  /// The invalidation epochs every mutation bumps (always present).
  DataEpoch* epoch() { return &epoch_; }
  /// L1 result cache, or null when options.result_cache_mb == 0.
  ResultCache* result_cache() { return result_cache_.get(); }
  /// L2 fragment cache, or null when options.fragment_cache_mb == 0.
  FragmentCache* fragment_cache() { return fragment_cache_.get(); }

  /// Optional value dictionaries for the boolean dimensions (set by CSV
  /// importers); persisted with Save() and restored by Open().
  void set_dictionaries(std::vector<std::vector<std::string>> dicts) {
    dictionaries_ = std::move(dicts);
  }
  const std::vector<std::vector<std::string>>& dictionaries() const {
    return dictionaries_;
  }

  /// The single-query entry point: plans via QueryPlanner — L1 lookup,
  /// cost-based plan choice honouring request.hint, cold-start execution,
  /// cache publish. See workbench/planner.h for the contract.
  Result<QueryResponse> Run(const QueryRequest& request);

  /// Thread-safe single-query entry for concurrent callers (the network
  /// server's worker pool). Answers are byte-identical to Run(), but it
  /// executes on the calling thread with RunBatch's contract — signature
  /// engines, warm measurements, L1 consulted, no boolean-first degradation
  /// on storage damage — via a long-lived BatchExecutor over this
  /// instance's shared structures. The instance must not be mutated while
  /// shared queries run.
  Result<QueryResponse> RunShared(const QueryRequest& request);

  /// Index-only cost estimates for both plans (QueryPlanner::Estimate).
  Result<PlanEstimate> Estimate(const PredicateSet& preds);

  /// The mutation entry point (DESIGN.md §15) and the ONLY public way to
  /// mutate an instance — the raw structure mutators are internal so the
  /// WAL + epoch contract cannot be bypassed. Fully validates the batch
  /// (schema AND delete tids, against the staged-write cursors), stages it
  /// in the WAL under the write lock, joins a group
  /// commit (one fsync per concurrent writer group), then either returns at
  /// durability (Ack::kDurable) or waits for the maintenance thread to apply
  /// the batch (Ack::kApplied — read-your-writes). A rejected batch never
  /// reaches the WAL, so a batch the log accepted can only fail to apply on
  /// a storage fault — replay after a crash never trips over a batch the
  /// original run already refused. Thread-safe; runs concurrently with
  /// queries, which only ever block for the bounded slice the maintenance
  /// thread holds the structure writer lock.
  Result<WriteResult> Apply(const WriteBatch& batch);

  /// The write cursor: row count including every staged insert — the tid
  /// the next Apply()'s first insert would receive. Thread-safe.
  uint64_t staged_rows() const {
    MutexLock lock(&write_mu_);
    return staged_rows_;
  }

  /// Blocks until every batch staged so far is durable AND applied.
  Status DrainWrites();

  /// Recomputes every cube signature from the current tree — the public
  /// gateway to the internal PCube::Rebuild (bench_fig7's rebuild arm).
  /// Drains the write path first; bumps every epoch.
  Status RebuildCube();

  /// Tuples deleted since the heap file was built: Apply() removes deletes
  /// from the R-tree immediately but the heap file and boolean indices keep
  /// their rows, so the boolean-first plan filters through this set. Stable
  /// only while no Apply() is in flight.
  const std::unordered_set<TupleId>& tombstones() const { return tombstones_; }

  /// The write-ahead log (always present; RAM-backed when file_path empty).
  Wal* wal() { return wal_.get(); }

  /// Convenience: signature-based skyline with cold-cache accounting.
  Result<SkylineOutput> SignatureSkyline(const PredicateSet& preds,
                                         std::vector<int> pref_dims = {});
  /// Convenience: signature-based top-k.
  Result<TopKOutput> SignatureTopK(const PredicateSet& preds,
                                   const RankingFunction& f, size_t k);

  /// Convenience: answers `queries` concurrently on `num_workers` threads
  /// over this instance's shared tree + cube (see batch_executor.h). The
  /// instance must not be mutated while the batch runs. `query_log`, when
  /// non-null, receives one JSONL record per query.
  BatchOutput RunBatch(const std::vector<BatchQuery>& queries,
                       size_t num_workers,
                       QueryLog* query_log = nullptr);

  /// Publishes this instance's storage gauges — buffer pool per-stripe
  /// hit/miss/eviction/load-wait plus structure page counts — into
  /// `registry` (pass &MetricsRegistry::Default() for the process dump).
  void ExportMetrics(MetricsRegistry* registry) const;

  /// What VerifyIntegrity found. ok() means every page read back with a
  /// valid checksum and every structure held its invariants.
  struct IntegrityReport {
    uint64_t pages_checked = 0;
    /// One (page id or kInvalidPageId, description) per problem.
    std::vector<std::pair<PageId, std::string>> errors;
    bool ok() const { return errors.empty(); }
  };

  /// Full integrity walk (the engine behind `pcube verify`): reads every
  /// allocated page through the checksum layer, range-scans each boolean
  /// B+-tree checking key order and entry counts, walks the R-tree
  /// structure (RStarTree::CheckStructure) and reassembles every stored
  /// cell signature. Read-only; ends with a ColdStart so the verification
  /// traffic does not pollute later measurements.
  Result<IntegrityReport> VerifyIntegrity();

 private:
  friend class WriteApplier;

  Workbench() : pool_(nullptr) {}

  /// Creates the configured cache levels and attaches them (and the epoch
  /// registry) to the cube; shared tail of Build() and Open().
  void SetUpCaches(const WorkbenchOptions& options);

  /// Seeds the write-path cursors from the (possibly replayed) WAL and
  /// starts the maintenance thread; shared tail of Build() and Open().
  void StartMaintenance();

  /// One staged-but-unapplied batch, queued in LSN order.
  struct PendingWrite {
    uint64_t lsn = 0;
    WriteBatch batch;
  };

  /// Background maintenance: takes bounded slices of DURABLE pending
  /// batches, applies them under the structure writer lock (readers run
  /// between slices), records per-batch failures, advances applied_lsn_.
  void MaintenanceLoop();

  // pcube-lint: begin-lock-free(the structural members are synchronized by
  // struct_mu_'s whole-execution protocol: queries hold the shared side for
  // their entire run, the maintenance thread takes the exclusive side per
  // bounded slice — a discipline GUARDED_BY cannot express because reads
  // reach these fields through layers that never see the lock)
  Dataset data_;
  IoStats stats_;
  IoStats snapshot_;
  std::unique_ptr<PageManager> pm_;
  FaultInjectingPageManager* faults_ = nullptr;   // owned via pm_ chain
  ChecksumPageManager* checksums_ = nullptr;      // owned via pm_ chain
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<TableStore> table_;
  std::vector<BooleanIndex> indices_;
  std::unique_ptr<RStarTree> tree_;
  std::unique_ptr<PCube> cube_;
  DataEpoch epoch_;
  std::unique_ptr<FragmentCache> fragment_cache_;
  std::unique_ptr<ResultCache> result_cache_;
  /// Poolless executor behind RunShared (created with the caches; null when
  /// the instance was built without a cube).
  std::unique_ptr<BatchExecutor> shared_executor_;
  PageId catalog_root_ = kInvalidPageId;
  RTreeOptions rtree_options_;
  std::vector<std::vector<std::string>> dictionaries_;
  // pcube-lint: end-lock-free

  // ---- Write path (DESIGN.md §15) ----------------------------------------
  // pcube-lint: lock-free(the Wal is internally synchronized; the pointer
  // itself is fixed by Build()/Open() before the maintenance thread starts)
  std::unique_ptr<Wal> wal_;
  /// Structure lock: queries hold it shared for their whole execution, the
  /// maintenance thread holds it exclusive per bounded slice. Mutable so
  /// const observers (ExportMetrics) can take the shared side.
  mutable SharedMutex struct_mu_;
  /// Deleted tuples (see tombstones()); written under struct_mu_ exclusive,
  /// read by the boolean-first plan under the shared side.
  // pcube-lint: lock-free(same whole-execution struct_mu_ protocol as the
  // structural members above)
  std::unordered_set<TupleId> tombstones_;
  /// Mutable so the const staged_rows() observer can lock it.
  mutable Mutex write_mu_;
  std::deque<PendingWrite> pending_writes_ GUARDED_BY(write_mu_);
  /// Logical row count including every staged insert: the next batch's
  /// first_tid and its WAL replay cursor (base_rows).
  uint64_t staged_rows_ GUARDED_BY(write_mu_) = 0;
  /// Tids deleted by any staged batch (tombstones_ plus batches not yet
  /// applied): Apply() rejects a delete against this set BEFORE the batch
  /// reaches the WAL, so logically invalid deletes are refused wholly and
  /// the log never holds a batch that replay would have to refuse.
  std::unordered_set<TupleId> staged_deletes_ GUARDED_BY(write_mu_);
  uint64_t applied_lsn_ GUARDED_BY(write_mu_) = 0;
  /// Failures of applied batches, keyed by LSN; consumed by the kApplied
  /// waiter (kDurable failures surface in metrics and DrainWrites).
  std::map<uint64_t, Status> apply_errors_ GUARDED_BY(write_mu_);
  bool stop_maintenance_ GUARDED_BY(write_mu_) = false;
  CondVar pending_cv_;  ///< maintenance waits: work arrived / stop
  CondVar applied_cv_;  ///< writers wait: applied_lsn_ advanced
  // pcube-lint: lock-free(started last in StartMaintenance(), joined in
  // Stop()/the destructor; the handle is never touched in between)
  std::thread maintenance_;
};

}  // namespace pcube
