// Ablations for the design choices behind P-Cube:
//
//   compression/*       node-level codec choice (verbatim / WAH / sparse /
//                       adaptive): total signature bytes and encode time —
//                       the paper's rationale for adaptive node-level
//                       compression (§IV.B.1 reason (2));
//   materialization/*   atomic cuboids only vs. also materialising 2-d
//                       composite cells: cube size and build time vs. the
//                       multi-predicate query cost (the paper's Fig. 15
//                       argument that atomic cuboids suffice);
//   rtree/*             R* forced re-insertion on/off and STR bulk load:
//                       build time vs. query-time block reads;
//   bloom/*             §VII lossy Bloom signatures (+ tuple verification)
//                       vs. exact signatures: store size, loads, query I/O.
#include "bench_common.h"

#include "bitmap/codec.h"
#include "core/signature_builder.h"
#include "workbench/planner.h"

namespace pcube::bench {
namespace {

// ---------------------------------------------------------------- codecs

void BM_CompressionScheme(benchmark::State& state, const char* scheme_name) {
  Workbench* wb = CachedWorkbench2("ablation", [] {
    return GenerateSynthetic(PaperConfig(TupleSweep()[0]));
  });
  auto paths = PathTable::Collect(*wb->tree());
  PCUBE_CHECK(paths.ok());
  // All signatures of the first atomic cuboid.
  std::vector<Signature> sigs = BuildAtomicCuboidSignatures(
      wb->data(), *paths, 0, wb->tree()->fanout(), wb->cube()->levels());

  std::string scheme(scheme_name);
  uint64_t total_bytes = 0;
  for (auto _ : state) {
    total_bytes = 0;
    Timer t;
    for (const Signature& sig : sigs) {
      // Walk every node array and encode it with the chosen scheme.
      std::vector<const SignatureNode*> stack{&sig.root()};
      while (!stack.empty()) {
        const SignatureNode* node = stack.back();
        stack.pop_back();
        if (node->bits.empty()) continue;
        std::vector<uint8_t> buf;
        if (scheme == "adaptive") {
          BitmapCodec::Encode(node->bits, &buf);
        } else if (scheme == "verbatim") {
          BitmapCodec::EncodeWith(BitmapScheme::kVerbatim, node->bits, &buf);
        } else if (scheme == "wah") {
          BitmapCodec::EncodeWith(BitmapScheme::kWah, node->bits, &buf);
        } else {
          BitmapCodec::EncodeWith(BitmapScheme::kSparse, node->bits, &buf);
        }
        total_bytes += buf.size();
        for (const auto& [slot, child] : node->children) {
          stack.push_back(child.get());
        }
      }
    }
    state.SetIterationTime(t.ElapsedSeconds());
  }
  state.counters["total_KB"] = static_cast<double>(total_bytes) / 1024.0;
}

// -------------------------------------------------------- materialization

void BM_Materialization(benchmark::State& state, int max_dims) {
  uint64_t n = TupleSweep()[0];
  SyntheticConfig config = PaperConfig(n);
  config.bool_cardinality = 10;  // keep the 2-d cuboids tractable
  Dataset data = GenerateSynthetic(config);

  MemoryPageManager pm;
  IoStats stats;
  BufferPool pool(&pm, size_t{1} << 16, &stats);
  RTreeOptions rtree_options;
  rtree_options.dims = data.num_pref();
  auto tree = RStarTree::BulkLoad(&pool, data, rtree_options);
  PCUBE_CHECK(tree.ok());

  PCubeOptions cube_options;
  cube_options.materialize_max_dims = max_dims;
  double build_ms = 0;
  std::unique_ptr<PCube> cube;
  {
    Timer t;
    auto built = PCube::Build(&pool, data, *tree, cube_options);
    PCUBE_CHECK(built.ok());
    build_ms = t.ElapsedMillis();
    cube = std::make_unique<PCube>(std::move(*built));
  }

  // Two-predicate skyline: with max_dims = 2 the composite cell's exact
  // signature is used; with 1, two atomic cursors are ANDed lazily.
  PredicateSet preds{{0, 3}, {1, 7}};
  IoStats before;
  uint64_t blocks = 0, sig_pages = 0;
  for (auto _ : state) {
    PCUBE_CHECK_OK(pool.Clear());
    before = stats;
    auto probe = cube->MakeProbe(preds);
    PCUBE_CHECK(probe.ok());
    SkylineEngine engine(&*tree, probe->get(), nullptr);
    Timer t;
    auto out = engine.Run();
    PCUBE_CHECK(out.ok());
    state.SetIterationTime(t.ElapsedSeconds());
    IoStats delta = stats.Delta(before);
    blocks = delta.ReadCount(IoCategory::kRtreeBlock);
    sig_pages = delta.ReadCount(IoCategory::kSignature);
  }
  state.counters["build_ms"] = build_ms;
  state.counters["cube_pages"] = static_cast<double>(cube->MaterializedPages());
  state.counters["cells"] = static_cast<double>(cube->num_cells());
  state.counters["rtree_blocks"] = static_cast<double>(blocks);
  state.counters["sig_pages"] = static_cast<double>(sig_pages);
}

// ------------------------------------------------------------------ rtree

void BM_RTreeVariant(benchmark::State& state, const char* variant) {
  uint64_t n = TupleSweep()[0];
  Dataset data = GenerateSynthetic(PaperConfig(n));
  MemoryPageManager pm;
  IoStats stats;
  BufferPool pool(&pm, size_t{1} << 16, &stats);
  RTreeOptions options;
  options.dims = data.num_pref();
  std::string v(variant);
  options.forced_reinsert = (v == "rstar");

  double build_ms = 0;
  std::unique_ptr<RStarTree> tree;
  {
    Timer t;
    auto built = (v == "bulk") ? RStarTree::BulkLoad(&pool, data, options)
                               : RStarTree::BuildByInsertion(&pool, data,
                                                             options);
    PCUBE_CHECK(built.ok());
    build_ms = t.ElapsedMillis();
    tree = std::make_unique<RStarTree>(std::move(*built));
  }
  auto cube = PCube::Build(&pool, data, *tree, PCubeOptions{});
  PCUBE_CHECK(cube.ok());

  PredicateSet preds = OnePredicate(100);
  uint64_t blocks = 0;
  for (auto _ : state) {
    PCUBE_CHECK_OK(pool.Clear());
    IoStats before = stats;
    auto probe = cube->MakeProbe(preds);
    PCUBE_CHECK(probe.ok());
    SkylineEngine engine(&*tree, probe->get(), nullptr);
    Timer t;
    auto out = engine.Run();
    PCUBE_CHECK(out.ok());
    state.SetIterationTime(t.ElapsedSeconds());
    blocks = stats.Delta(before).ReadCount(IoCategory::kRtreeBlock);
  }
  state.counters["build_ms"] = build_ms;
  state.counters["rtree_pages"] = static_cast<double>(tree->num_pages());
  state.counters["query_blocks"] = static_cast<double>(blocks);
}

// ------------------------------------------------------------------ bloom

void BM_BloomVsExact(benchmark::State& state, const char* mode) {
  static Workbench* wb = [] {
    WorkbenchOptions options;
    options.pcube.build_bloom = true;
    auto built = Workbench::Build(
        GenerateSynthetic(PaperConfig(TupleSweep()[0])), options);
    PCUBE_CHECK(built.ok());
    return built->release();
  }();
  PredicateSet preds = OnePredicate(100);
  std::string m(mode);
  MeasuredRun last;
  for (auto _ : state) {
    PCUBE_CHECK_OK(wb->ColdStart());
    Timer t;
    if (m == "exact") {
      auto probe = wb->cube()->MakeProbe(preds);
      PCUBE_CHECK(probe.ok());
      SkylineEngine engine(wb->tree(), probe->get(), nullptr);
      auto out = engine.Run();
      PCUBE_CHECK(out.ok());
      last.result_size = out->skyline.size();
      last.heap_peak = out->counters.heap_peak;
    } else {
      auto probe = wb->cube()->MakeBloomProbe(preds);
      PCUBE_CHECK(probe.ok());
      TupleVerifier verifier(wb->table(), preds);
      SkylineEngine engine(wb->tree(), probe->get(), &verifier);
      auto out = engine.Run();
      PCUBE_CHECK(out.ok());
      last.result_size = out->skyline.size();
      last.heap_peak = out->counters.heap_peak;
    }
    last.seconds = t.ElapsedSeconds();
    last.io = wb->IoSince();
    state.SetIterationTime(CostSeconds(last));
  }
  ReportRun(state, last);
}

// ------------------------------------------------------------ partition

void BM_PartitionTemplate(benchmark::State& state, const char* kind) {
  // The paper's third proposal shares ONE partition template across all
  // cells; this ablation swaps the template: R* clustering vs STR bulk
  // load vs equi-width grids (the ranking cube's partition [12]).
  uint64_t n = TupleSweep()[0];
  Dataset data = GenerateSynthetic(PaperConfig(n));
  MemoryPageManager pm;
  IoStats stats;
  BufferPool pool(&pm, size_t{1} << 16, &stats);
  RTreeOptions options;
  options.dims = data.num_pref();
  std::string k(kind);
  Result<RStarTree> built = Status::Internal("unset");
  if (k == "grid8") {
    built = RStarTree::BuildGridPartition(&pool, data, options, 8);
  } else if (k == "grid16") {
    built = RStarTree::BuildGridPartition(&pool, data, options, 16);
  } else {
    built = RStarTree::BulkLoad(&pool, data, options);
  }
  PCUBE_CHECK(built.ok());
  RStarTree tree = std::move(*built);
  auto cube = PCube::Build(&pool, data, tree, PCubeOptions{});
  PCUBE_CHECK(cube.ok());

  PredicateSet preds = OnePredicate(100);
  uint64_t blocks = 0, sig_pages = 0;
  for (auto _ : state) {
    PCUBE_CHECK_OK(pool.Clear());
    IoStats before = stats;
    auto probe = cube->MakeProbe(preds);
    PCUBE_CHECK(probe.ok());
    SkylineEngine engine(&tree, probe->get(), nullptr);
    Timer t;
    auto out = engine.Run();
    PCUBE_CHECK(out.ok());
    state.SetIterationTime(t.ElapsedSeconds());
    IoStats delta = stats.Delta(before);
    blocks = delta.ReadCount(IoCategory::kRtreeBlock);
    sig_pages = delta.ReadCount(IoCategory::kSignature);
  }
  state.counters["tree_pages"] = static_cast<double>(tree.num_pages());
  state.counters["cube_pages"] = static_cast<double>(cube->MaterializedPages());
  state.counters["query_blocks"] = static_cast<double>(blocks);
  state.counters["sig_pages"] = static_cast<double>(sig_pages);
}

// ---------------------------------------------------------------- planner

void BM_Planner(benchmark::State& state, const char* mode) {
  // Sweep the Fig. 11 cardinalities; the planner should track the winner
  // at both ends of the crossover.
  uint32_t c = static_cast<uint32_t>(state.range(0));
  uint64_t n = TupleSweep()[0] * 2;
  // The ablation measures plan selection + execution per iteration; the L1
  // result cache would answer every repeat instantly, so it stays off.
  WorkbenchOptions options;
  options.result_cache_mb = 0;
  Workbench* wb = CachedWorkbench2(
      std::string("ablation_planner_").append(std::to_string(c)),
      [n, c] {
        SyntheticConfig config = PaperConfig(n);
        config.bool_cardinality = c;
        return GenerateSynthetic(config);
      },
      options);
  PredicateSet preds = OnePredicate(c);
  std::string m(mode);
  MeasuredRun last;
  for (auto _ : state) {
    if (m == "planner") {
      QueryPlanner planner(wb);
      Timer t;
      auto out = planner.Run(QueryRequest::Skyline(preds));
      PCUBE_CHECK(out.ok());
      last.seconds = t.ElapsedSeconds();
      last.io = out->io;
      last.result_size = out->tids.size();
      state.counters["chose_boolean"] =
          out->estimate.choice == PlanChoice::kBooleanFirst ? 1 : 0;
    } else if (m == "signature") {
      last = RunSignatureSkyline(wb, preds);
    } else {
      last = RunBooleanSkyline(wb, preds);
    }
    state.SetIterationTime(CostSeconds(last));
  }
  state.counters["disk"] = static_cast<double>(last.io.TotalReads());
}

void RegisterAll() {
  for (const char* scheme : {"verbatim", "wah", "sparse", "adaptive"}) {
    benchmark::RegisterBenchmark(
        (std::string("ablation/compression/") + scheme).c_str(),
        BM_CompressionScheme, scheme)
        ->Iterations(3)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (int max_dims : {1, 2}) {
    benchmark::RegisterBenchmark("ablation/materialization",
                                 BM_Materialization, max_dims)
        ->Arg(max_dims)
        ->Iterations(3)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (const char* variant : {"rstar", "no_reinsert", "bulk"}) {
    benchmark::RegisterBenchmark(
        (std::string("ablation/rtree/") + variant).c_str(), BM_RTreeVariant,
        variant)
        ->Iterations(3)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (const char* mode : {"exact", "bloom"}) {
    benchmark::RegisterBenchmark(
        (std::string("ablation/bloom/") + mode).c_str(), BM_BloomVsExact, mode)
        ->Iterations(3)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (const char* kind : {"str", "grid8", "grid16"}) {
    benchmark::RegisterBenchmark(
        (std::string("ablation/partition/") + kind).c_str(),
        BM_PartitionTemplate, kind)
        ->Iterations(3)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (uint32_t c : {10u, 100u, 2000u}) {
    for (const char* mode : {"signature", "boolean", "planner"}) {
      benchmark::RegisterBenchmark(
          (std::string("ablation/planner/") + mode).c_str(), BM_Planner, mode)
          ->Arg(c)
          ->Iterations(3)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace pcube::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  pcube::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
