// P-Cube: the data cube for preference queries (paper §IV). One shared
// R*-tree partitions the preference dimensions; for every cell of the
// materialised cuboids (by default the atomic, one-dimensional cuboids) a
// compressed, decomposed *signature* summarises which tree regions hold the
// cell's tuples. Query processing (src/query) combines these signatures with
// branch-and-bound preference search to push boolean and preference pruning
// simultaneously.
//
// Life cycle implemented here, mirroring the paper:
//   * generation  — Build(): partition -> summarise -> compress -> decompose
//   * retrieval   — MakeProbe(): lazy cursors with per-partial page loads
//   * maintenance — ApplyChanges(): flip affected cells' signature bits for
//                   every path change the R-tree reports
//   * §VII extras — optional Bloom-filter signatures (MakeBloomProbe)
//
// Thread-safety: a built cube is immutable at query time. MakeProbe /
// MakeBloomProbe are const and safe to call from any number of threads —
// each returned probe owns its private cursors and must be confined to the
// query (thread) that made it. Build and ApplyChanges are single-threaded
// by contract (DESIGN.md "Concurrency model").
#pragma once

#include <memory>

#include "cache/epoch.h"
#include "cache/fragment_cache.h"
#include "core/bloom_store.h"
#include "core/probe.h"
#include "core/signature_builder.h"
#include "core/signature_store.h"
#include "cube/cuboid.h"
#include "rtree/rstar_tree.h"

namespace pcube {

/// Materialisation knobs.
struct PCubeOptions {
  /// Materialise all cuboids with at most this many dimensions. 1 = atomic
  /// cuboids only (the paper's default; Fig. 15 argues it suffices).
  int materialize_max_dims = 1;
  /// Also build the lossy Bloom-filter signatures of §VII.
  bool build_bloom = false;
  double bloom_bits_per_key = 10.0;
};

/// Signature-based materialisation over one dataset + R-tree.
class PCube {
 public:
  /// Computes and stores signatures for every cell of the materialised
  /// cuboids (all values of all boolean dimensions for the atomic ones).
  static Result<PCube> Build(BufferPool* pool, const Dataset& data,
                             const RStarTree& tree, const PCubeOptions& options);

  /// Re-attaches to a previously built cube (catalog-driven reopen). Only
  /// atomic-cuboid cubes without Bloom signatures are persistable.
  static PCube Attach(std::unique_ptr<SignatureStore> store, uint32_t fanout,
                      int levels, int num_bool_dims, uint64_t num_cells) {
    PCube cube(std::move(store), fanout, levels, PCubeOptions{});
    cube.num_bool_dims_ = num_bool_dims;
    cube.num_cells_ = num_cells;
    return cube;
  }

  int num_bool_dims() const { return num_bool_dims_; }

  /// Creates a boolean probe for a predicate set: a single cursor when the
  /// exact cell is materialised, otherwise one cursor per atomic predicate
  /// ANDed lazily (paper §IV.B.2). Empty predicate sets yield a TrueProbe.
  Result<std::unique_ptr<BooleanProbe>> MakeProbe(const PredicateSet& preds) const;

  /// §VII variant: probe over per-predicate Bloom filters. The caller must
  /// verify final results against the base table (probe->exact() == false).
  Result<std::unique_ptr<BooleanProbe>> MakeBloomProbe(
      const PredicateSet& preds) const;

  /// Attaches the cache layer (both optional, owned by the Workbench and
  /// outliving the cube). When set, MakeProbe hands the fragment cache to
  /// every cursor, and ApplyChanges/Rebuild bump `epoch` so stale cache
  /// entries (both levels) are detected at lookup.
  void AttachCaches(DataEpoch* epoch, FragmentCache* fragment_cache) {
    epoch_ = epoch;
    fragment_cache_ = fragment_cache;
  }

  uint32_t fanout() const { return fanout_; }
  int levels() const { return levels_; }
  const SignatureStore& store() const { return *store_; }
  SignatureStore* mutable_store() { return store_.get(); }
  uint64_t num_cells() const { return num_cells_; }

  /// Pages owned by signatures + directory (+ bloom store), for Fig. 6.
  uint64_t MaterializedPages() const;

 private:
  /// The write path's applier (workbench/write_path.h) is the only caller
  /// of the maintenance mutators below: every mutation must flow through
  /// Workbench::Apply so the WAL + epoch-stamping contract holds.
  friend class WriteApplier;

  /// Incremental maintenance (paper §IV.B.3): applies the path changes of
  /// one insert/delete batch to every affected cell's stored signature.
  /// Fails with NotSupported when the batch included a root split — callers
  /// should Rebuild() (every path changed).
  Status ApplyChanges(const Dataset& data, const PathChangeSet& changes);

  /// Recomputes every materialised signature from the tree's current state.
  Status Rebuild(const Dataset& data, const RStarTree& tree);

  PCube(std::unique_ptr<SignatureStore> store, uint32_t fanout, int levels,
        PCubeOptions options)
      : store_(std::move(store)),
        fanout_(fanout),
        levels_(levels),
        options_(options) {}

  Status BuildAllCuboids(const Dataset& data, const PathTable& paths);
  std::vector<CellId> AffectedCells(const Dataset& data, TupleId tid) const;

  std::unique_ptr<SignatureStore> store_;
  std::unique_ptr<BloomStore> bloom_;
  CellRegistry registry_;
  uint32_t fanout_;
  int levels_;
  PCubeOptions options_;
  int num_bool_dims_ = 0;
  uint64_t num_cells_ = 0;
  DataEpoch* epoch_ = nullptr;
  FragmentCache* fragment_cache_ = nullptr;
};

}  // namespace pcube
