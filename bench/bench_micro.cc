// Micro-benchmarks for the P-Cube building blocks: bitmap codecs, signature
// probing, B+-tree operations, R-tree node access, and the SIMD kernel
// layer of DESIGN.md §12 (intersect / union / cardinality / dominance,
// scalar vs vector, several densities). These quantify the constants behind
// the figure-level results (e.g. why Csig << CR-tree).
//
// Smoke mode: PCUBE_SIMD_SMOKE=1 skips the google-benchmark harness and
// instead times the kernel pairs directly (best-of-N so the measurement
// survives a noisy single-core CI box), writes BENCH_simd.json to the
// working directory, and — when the active dispatch level is AVX2 — exits
// non-zero unless verbatim intersection beats scalar by >= 2x and batched
// dominance by >= 1.5x. On scalar-only machines (or PCUBE_SIMD_LEVEL=scalar
// / -DPCUBE_SIMD=OFF builds) the speedups are report-only. scripts/ci.sh
// runs this as the `simd` phase.
#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

#include "bitmap/codec.h"
#include "common/simd/aligned.h"
#include "common/simd/simd.h"
#include "common/simd/word_kernels.h"
#include "core/probe.h"
#include "core/signature_cursor.h"
#include "query/dominance_kernels.h"

namespace pcube::bench {
namespace {

void BM_BitmapEncode(benchmark::State& state) {
  Random rng(1);
  size_t nbits = static_cast<size_t>(state.range(0));
  int density_pct = static_cast<int>(state.range(1));
  BitVector bits(nbits);
  for (size_t i = 0; i < nbits; ++i) {
    if (rng.Uniform(100) < static_cast<uint64_t>(density_pct)) bits.Set(i);
  }
  for (auto _ : state) {
    std::vector<uint8_t> buf;
    BitmapCodec::Encode(bits, &buf);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_BitmapEncode)
    ->Args({128, 5})
    ->Args({128, 50})
    ->Args({2048, 5})
    ->Args({2048, 50});

void BM_BitmapDecode(benchmark::State& state) {
  Random rng(2);
  size_t nbits = static_cast<size_t>(state.range(0));
  BitVector bits(nbits);
  for (size_t i = 0; i < nbits; ++i) {
    if (rng.Uniform(100) < 20) bits.Set(i);
  }
  std::vector<uint8_t> buf;
  BitmapCodec::Encode(bits, &buf);
  for (auto _ : state) {
    size_t offset = 0;
    BitVector out;
    PCUBE_CHECK_OK(BitmapCodec::Decode(buf.data(), buf.size(), &offset, &out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BitmapDecode)->Arg(128)->Arg(2048);

void BM_SignatureProbe(benchmark::State& state) {
  Workbench* wb = CachedWorkbench2("micro", [] {
    return GenerateSynthetic(PaperConfig(50000));
  });
  auto probe = wb->cube()->MakeProbe(OnePredicate(100));
  PCUBE_CHECK(probe.ok());
  // Collect some real tuple paths to probe.
  std::vector<Path> paths;
  PCUBE_CHECK_OK(wb->tree()->CollectPaths(
      [&](TupleId tid, const Path& p, std::span<const float>) {
        if (tid % 997 == 0) paths.push_back(p);
      }));
  size_t i = 0;
  for (auto _ : state) {
    auto r = (*probe)->Test(paths[i++ % paths.size()]);
    PCUBE_CHECK(r.ok());
    benchmark::DoNotOptimize(*r);
  }
}
BENCHMARK(BM_SignatureProbe);

// Node-at-a-time pruning (DESIGN.md §17): one FilterChildren call per leaf
// node of the micro cube, every valid slot asked about, over one cursor
// (Arg 1) or the fused pair (Arg 2). `time_per_child` is the time per
// child slot answered (google-benchmark prints it with an SI prefix, e.g.
// "260ps"), comparable with BM_SignatureProbe's time per Test.
void BM_FilterChildren(benchmark::State& state) {
  Workbench* wb = CachedWorkbench2("micro", [] {
    return GenerateSynthetic(PaperConfig(50000));
  });
  PredicateSet preds = OnePredicate(100);
  if (state.range(0) == 2) preds.Add({1, 50});
  auto probe = wb->cube()->MakeProbe(preds);
  PCUBE_CHECK(probe.ok());
  // Every leaf node's path and a private copy of its page.
  std::vector<Path> leaf_paths;
  PCUBE_CHECK_OK(wb->tree()->CollectPaths(
      [&](TupleId, const Path& p, std::span<const float>) {
        Path leaf(p.begin(), p.end() - 1);
        if (leaf_paths.empty() || leaf_paths.back() != leaf) {
          leaf_paths.push_back(leaf);
        }
      }));
  std::vector<Page> pages(leaf_paths.size());
  std::vector<ChildMask> all_valid(leaf_paths.size());
  uint64_t children = 0;
  for (size_t i = 0; i < leaf_paths.size(); ++i) {
    auto pid = wb->tree()->ResolvePath(leaf_paths[i], IoCategory::kRtreeBlock);
    PCUBE_CHECK(pid.ok());
    auto handle = wb->tree()->ReadNode(*pid);
    PCUBE_CHECK(handle.ok());
    pages[i] = *handle->get();
    NodeView node(&pages[i], wb->tree()->dims());
    for (uint32_t s = 0; s < node.max_entries(); ++s) {
      if (!node.Valid(s)) continue;
      all_valid[i].Set(s);
      ++children;
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    NodeView node(&pages[i], wb->tree()->dims());
    ChildMask survivors = all_valid[i];
    PCUBE_CHECK_OK((*probe)->FilterChildren(leaf_paths[i], node, &survivors));
    benchmark::DoNotOptimize(survivors);
    i = (i + 1) % leaf_paths.size();
  }
  const double per_call =
      static_cast<double>(children) / static_cast<double>(leaf_paths.size());
  state.counters["time_per_child"] = benchmark::Counter(
      per_call * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FilterChildren)->Arg(1)->Arg(2);

void BM_BPlusTreeGet(benchmark::State& state) {
  static MemoryPageManager* pm = new MemoryPageManager();
  static IoStats* stats = new IoStats();
  static BufferPool* pool = new BufferPool(pm, 1 << 14, stats);
  static BPlusTree* tree = [] {
    std::vector<std::pair<uint64_t, uint64_t>> sorted;
    for (uint64_t k = 0; k < 200000; ++k) sorted.emplace_back(k * 3, k);
    auto t = BPlusTree::BulkLoad(pool, sorted);
    PCUBE_CHECK(t.ok());
    return new BPlusTree(std::move(*t));
  }();
  Random rng(3);
  for (auto _ : state) {
    uint64_t k = rng.Uniform(200000) * 3;
    auto v = tree->Get(k);
    PCUBE_CHECK(v.ok());
    benchmark::DoNotOptimize(*v);
  }
}
BENCHMARK(BM_BPlusTreeGet);

void BM_RTreeNodeRead(benchmark::State& state) {
  Workbench* wb = CachedWorkbench2("micro", [] {
    return GenerateSynthetic(PaperConfig(50000));
  });
  for (auto _ : state) {
    auto handle = wb->tree()->ReadNode(wb->tree()->root());
    PCUBE_CHECK(handle.ok());
    benchmark::DoNotOptimize(handle->get());
  }
}
BENCHMARK(BM_RTreeNodeRead);

void BM_SkylineQueryEndToEnd(benchmark::State& state) {
  Workbench* wb = CachedWorkbench2("micro", [] {
    return GenerateSynthetic(PaperConfig(50000));
  });
  PredicateSet preds = OnePredicate(100);
  for (auto _ : state) {
    auto out = wb->SignatureSkyline(preds);
    PCUBE_CHECK(out.ok());
    benchmark::DoNotOptimize(out->skyline.size());
  }
}
BENCHMARK(BM_SkylineQueryEndToEnd)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ SIMD kernels

simd::AlignedVector<uint64_t> RandomKernelWords(Random* rng, size_t n,
                                                int density_pct) {
  simd::AlignedVector<uint64_t> w(n);
  for (auto& x : w) {
    uint64_t v = 0;
    for (int bit = 0; bit < 64; ++bit) {
      if (rng->Uniform(100) < static_cast<uint64_t>(density_pct)) {
        v |= uint64_t{1} << bit;
      }
    }
    x = v;
  }
  return w;
}

// range(0) = words, range(1) = 0 scalar / 1 vector.
void BM_KernelIntersect(benchmark::State& state) {
  bool vec = state.range(1) != 0;
#if defined(PCUBE_SIMD_HAVE_AVX2)
  if (vec && !simd::CpuSupportsAvx2()) {
    state.SkipWithError("no AVX2 on this CPU");
    return;
  }
#else
  if (vec) {
    state.SkipWithError("SIMD compiled out");
    return;
  }
#endif
  Random rng(17);
  size_t n = static_cast<size_t>(state.range(0));
  auto a = RandomKernelWords(&rng, n, 50);
  auto b = RandomKernelWords(&rng, n, 50);
  simd::AlignedVector<uint64_t> dst(n);
  for (auto _ : state) {
    bool any;
#if defined(PCUBE_SIMD_HAVE_AVX2)
    if (vec) {
      any = simd::AndWordsAvx2(dst.data(), a.data(), b.data(), n);
    } else {
      any = simd::AndWordsScalar(dst.data(), a.data(), b.data(), n);
    }
#else
    any = simd::AndWordsScalar(dst.data(), a.data(), b.data(), n);
#endif
    benchmark::DoNotOptimize(any);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * 8 * 2);
}
BENCHMARK(BM_KernelIntersect)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1});

void BM_KernelUnion(benchmark::State& state) {
  bool vec = state.range(1) != 0;
#if defined(PCUBE_SIMD_HAVE_AVX2)
  if (vec && !simd::CpuSupportsAvx2()) {
    state.SkipWithError("no AVX2 on this CPU");
    return;
  }
#else
  if (vec) {
    state.SkipWithError("SIMD compiled out");
    return;
  }
#endif
  Random rng(18);
  size_t n = static_cast<size_t>(state.range(0));
  auto a = RandomKernelWords(&rng, n, 5);
  auto b = RandomKernelWords(&rng, n, 5);
  simd::AlignedVector<uint64_t> dst(n);
  for (auto _ : state) {
#if defined(PCUBE_SIMD_HAVE_AVX2)
    if (vec) {
      simd::OrWordsAvx2(dst.data(), a.data(), b.data(), n);
    } else {
      simd::OrWordsScalar(dst.data(), a.data(), b.data(), n);
    }
#else
    simd::OrWordsScalar(dst.data(), a.data(), b.data(), n);
#endif
    benchmark::DoNotOptimize(dst.data());
  }
}
BENCHMARK(BM_KernelUnion)->Args({1024, 0})->Args({1024, 1});

void BM_KernelCardinality(benchmark::State& state) {
  bool vec = state.range(1) != 0;
#if defined(PCUBE_SIMD_HAVE_AVX2)
  if (vec && !simd::CpuSupportsAvx2()) {
    state.SkipWithError("no AVX2 on this CPU");
    return;
  }
#else
  if (vec) {
    state.SkipWithError("SIMD compiled out");
    return;
  }
#endif
  Random rng(19);
  size_t n = static_cast<size_t>(state.range(0));
  auto a = RandomKernelWords(&rng, n, 50);
  for (auto _ : state) {
    uint64_t c;
#if defined(PCUBE_SIMD_HAVE_AVX2)
    c = vec ? simd::PopcountWordsAvx2(a.data(), n)
            : simd::PopcountWordsScalar(a.data(), n);
#else
    c = simd::PopcountWordsScalar(a.data(), n);
#endif
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_KernelCardinality)->Args({1024, 0})->Args({1024, 1});

// range(0) = skyline members, range(1) = 0 scalar / 1 vector. Candidate is
// dominated by every member and the limit is never reached, so both paths
// do the full streaming pass (worst case, no early exit).
void BM_KernelDominance(benchmark::State& state) {
  bool vec = state.range(1) != 0;
#if defined(PCUBE_SIMD_HAVE_AVX2)
  if (vec && !simd::CpuSupportsAvx2()) {
    state.SkipWithError("no AVX2 on this CPU");
    return;
  }
#else
  if (vec) {
    state.SkipWithError("SIMD compiled out");
    return;
  }
#endif
  Random rng(20);
  const size_t dims = 4;
  size_t members = static_cast<size_t>(state.range(0));
  DominanceWindow window(dims);
  double coords[dims];
  for (size_t i = 0; i < members; ++i) {
    for (auto& c : coords) c = rng.NextDouble();
    window.Append(coords);
  }
  double cand[dims] = {2.0, 2.0, 2.0, 2.0};
  for (auto _ : state) {
    size_t c;
#if defined(PCUBE_SIMD_HAVE_AVX2)
    c = vec ? window.CountDominatorsAvx2(cand, members + 1)
            : window.CountDominatorsScalar(cand, members + 1);
#else
    c = window.CountDominatorsScalar(cand, members + 1);
#endif
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_KernelDominance)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({512, 0})
    ->Args({512, 1});

// ------------------------------------------------------- SIMD smoke gate

/// Minimum of `reps` timings of `iters` calls of `body` — seconds per call.
template <typename Body>
double BestSecondsPerCall(int reps, int iters, Body body) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (int i = 0; i < iters; ++i) body();
    best = std::min(best, t.ElapsedSeconds() / iters);
  }
  return best;
}

int RunSimdSmoke() {
  const int kReps = 9;
  const int kIters = 4000;
  const size_t kWords = 1024;  // 64 Kbit: L1-resident, past all tail paths
  Random rng(29);
  auto a = RandomKernelWords(&rng, kWords, 50);
  auto b = RandomKernelWords(&rng, kWords, 50);
  simd::AlignedVector<uint64_t> dst(kWords);

  const size_t kMembers = 512;
  const size_t kDims = 4;
  DominanceWindow window(kDims);
  double coords[kDims];
  for (size_t i = 0; i < kMembers; ++i) {
    for (auto& c : coords) c = rng.NextDouble();
    window.Append(coords);
  }
  double cand[kDims] = {2.0, 2.0, 2.0, 2.0};

  double intersect_scalar = BestSecondsPerCall(kReps, kIters, [&] {
    benchmark::DoNotOptimize(
        simd::AndWordsScalar(dst.data(), a.data(), b.data(), kWords));
  });
  double union_scalar = BestSecondsPerCall(kReps, kIters, [&] {
    simd::OrWordsScalar(dst.data(), a.data(), b.data(), kWords);
    benchmark::DoNotOptimize(dst.data());
  });
  double card_scalar = BestSecondsPerCall(kReps, kIters, [&] {
    benchmark::DoNotOptimize(simd::PopcountWordsScalar(a.data(), kWords));
  });
  double dom_scalar = BestSecondsPerCall(kReps, kIters, [&] {
    benchmark::DoNotOptimize(
        window.CountDominatorsScalar(cand, kMembers + 1));
  });

  double intersect_vec = intersect_scalar;
  double union_vec = union_scalar;
  double card_vec = card_scalar;
  double dom_vec = dom_scalar;
  bool have_avx2 = false;
#if defined(PCUBE_SIMD_HAVE_AVX2)
  have_avx2 = simd::CpuSupportsAvx2();
  if (have_avx2) {
    intersect_vec = BestSecondsPerCall(kReps, kIters, [&] {
      benchmark::DoNotOptimize(
          simd::AndWordsAvx2(dst.data(), a.data(), b.data(), kWords));
    });
    union_vec = BestSecondsPerCall(kReps, kIters, [&] {
      simd::OrWordsAvx2(dst.data(), a.data(), b.data(), kWords);
      benchmark::DoNotOptimize(dst.data());
    });
    card_vec = BestSecondsPerCall(kReps, kIters, [&] {
      benchmark::DoNotOptimize(simd::PopcountWordsAvx2(a.data(), kWords));
    });
    dom_vec = BestSecondsPerCall(kReps, kIters, [&] {
      benchmark::DoNotOptimize(
          window.CountDominatorsAvx2(cand, kMembers + 1));
    });
  }
#endif

  double intersect_speedup = intersect_scalar / intersect_vec;
  double union_speedup = union_scalar / union_vec;
  double card_speedup = card_scalar / card_vec;
  double dom_speedup = dom_scalar / dom_vec;
  const char* level = simd::SimdLevelName(simd::ActiveSimdLevel());

  std::printf("simd smoke: level=%s cpu_avx2=%d\n", level, have_avx2 ? 1 : 0);
  std::printf("  intersect   scalar %8.1f ns  vector %8.1f ns  %.2fx\n",
              intersect_scalar * 1e9, intersect_vec * 1e9, intersect_speedup);
  std::printf("  union       scalar %8.1f ns  vector %8.1f ns  %.2fx\n",
              union_scalar * 1e9, union_vec * 1e9, union_speedup);
  std::printf("  cardinality scalar %8.1f ns  vector %8.1f ns  %.2fx\n",
              card_scalar * 1e9, card_vec * 1e9, card_speedup);
  std::printf("  dominance   scalar %8.1f ns  vector %8.1f ns  %.2fx\n",
              dom_scalar * 1e9, dom_vec * 1e9, dom_speedup);

  {
    std::ofstream json("BENCH_simd.json");
    json << "{\n"
         << "  \"simd_level\": \"" << level << "\",\n"
         << "  \"cpu_avx2\": " << (have_avx2 ? "true" : "false") << ",\n"
         << "  \"words\": " << kWords << ",\n"
         << "  \"dominance_members\": " << kMembers << ",\n"
         << "  \"intersect_scalar_ns\": " << intersect_scalar * 1e9 << ",\n"
         << "  \"intersect_vector_ns\": " << intersect_vec * 1e9 << ",\n"
         << "  \"intersect_speedup\": " << intersect_speedup << ",\n"
         << "  \"union_speedup\": " << union_speedup << ",\n"
         << "  \"cardinality_speedup\": " << card_speedup << ",\n"
         << "  \"dominance_scalar_ns\": " << dom_scalar * 1e9 << ",\n"
         << "  \"dominance_vector_ns\": " << dom_vec * 1e9 << ",\n"
         << "  \"dominance_speedup\": " << dom_speedup << "\n"
         << "}\n";
  }

  // Gate only when the AVX2 kernels are actually dispatched: a scalar-only
  // machine (or a clamped / SIMD-off build) reports but cannot regress.
  if (simd::ActiveSimdLevel() == simd::SimdLevel::kAvx2) {
    if (intersect_speedup < 2.0) {
      std::fprintf(stderr,
                   "simd smoke: verbatim intersect speedup %.2fx < 2.0x\n",
                   intersect_speedup);
      return 1;
    }
    if (dom_speedup < 1.5) {
      std::fprintf(stderr,
                   "simd smoke: batched dominance speedup %.2fx < 1.5x\n",
                   dom_speedup);
      return 1;
    }
  }
  std::printf("simd smoke: ok\n");
  return 0;
}

}  // namespace

int SimdSmokeMain() { return RunSimdSmoke(); }

}  // namespace pcube::bench

int main(int argc, char** argv) {
  const char* smoke = std::getenv("PCUBE_SIMD_SMOKE");
  if (smoke != nullptr && smoke[0] == '1') {
    return pcube::bench::SimdSmokeMain();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
