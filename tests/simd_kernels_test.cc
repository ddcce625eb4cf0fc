// Differential property tests for the SIMD kernel layer (DESIGN.md §12):
// the scalar implementations are the ground truth, and every dispatched or
// AVX2 path must match them bit for bit on randomized inputs. Covers the
// word kernels (with the dst-aliases-a in-place case) and the batched
// dominance window (with deliberate coordinate ties). Runs under asan and
// ubsan labels so lifetime and arithmetic bugs in the intrinsics paths
// surface in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/simd/simd.h"
#include "common/simd/word_kernels.h"
#include "query/dominance_kernels.h"

namespace pcube {
namespace {

std::vector<uint64_t> RandomWords(Random* rng, size_t n) {
  std::vector<uint64_t> w(n);
  for (auto& x : w) {
    // Mix densities: all-zero, all-one and random words exercise the
    // any-nonzero fast exits and the popcount extremes.
    switch (rng->Uniform(4)) {
      case 0: x = 0; break;
      case 1: x = ~uint64_t{0}; break;
      default: x = rng->Next(); break;
    }
  }
  return w;
}

TEST(WordKernelTest, ScalarVsDispatchAndAvx2) {
  Random rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = rng.Uniform(41);  // 0..40 words spans all block/tail splits
    auto a = RandomWords(&rng, n);
    auto b = RandomWords(&rng, n);

    std::vector<uint64_t> ref(n), got(n);
    bool ref_any = simd::AndWordsScalar(ref.data(), a.data(), b.data(), n);
    bool got_any = simd::AndWords(got.data(), a.data(), b.data(), n);
    EXPECT_EQ(got, ref);
    EXPECT_EQ(got_any, ref_any);

    simd::OrWordsScalar(ref.data(), a.data(), b.data(), n);
    simd::OrWords(got.data(), a.data(), b.data(), n);
    EXPECT_EQ(got, ref);

    simd::AndNotWordsScalar(ref.data(), a.data(), b.data(), n);
    simd::AndNotWords(got.data(), a.data(), b.data(), n);
    EXPECT_EQ(got, ref);

    EXPECT_EQ(simd::PopcountWords(a.data(), n),
              simd::PopcountWordsScalar(a.data(), n));
    EXPECT_EQ(simd::AndPopcountWords(a.data(), b.data(), n),
              simd::AndPopcountWordsScalar(a.data(), b.data(), n));
    EXPECT_EQ(simd::AnyWords(a.data(), n), simd::AnyWordsScalar(a.data(), n));

#if defined(PCUBE_SIMD_HAVE_AVX2)
    if (simd::CpuSupportsAvx2()) {
      simd::AndWordsScalar(ref.data(), a.data(), b.data(), n);
      EXPECT_EQ(simd::AndWordsAvx2(got.data(), a.data(), b.data(), n),
                ref_any);
      EXPECT_EQ(got, ref);
      simd::OrWordsAvx2(got.data(), a.data(), b.data(), n);
      simd::OrWordsScalar(ref.data(), a.data(), b.data(), n);
      EXPECT_EQ(got, ref);
      simd::AndNotWordsAvx2(got.data(), a.data(), b.data(), n);
      simd::AndNotWordsScalar(ref.data(), a.data(), b.data(), n);
      EXPECT_EQ(got, ref);
      EXPECT_EQ(simd::PopcountWordsAvx2(a.data(), n),
                simd::PopcountWordsScalar(a.data(), n));
      EXPECT_EQ(simd::AndPopcountWordsAvx2(a.data(), b.data(), n),
                simd::AndPopcountWordsScalar(a.data(), b.data(), n));
      EXPECT_EQ(simd::AnyWordsAvx2(a.data(), n),
                simd::AnyWordsScalar(a.data(), n));
    }
#endif

    // In-place form: dst aliases a (the documented aliasing contract).
    auto inplace = a;
    simd::AndWordsScalar(ref.data(), a.data(), b.data(), n);
    simd::AndWords(inplace.data(), inplace.data(), b.data(), n);
    EXPECT_EQ(inplace, ref);
  }
}

// Naive dominance count, saturated: what both kernel paths must return.
size_t ReferenceDominators(const std::vector<std::vector<double>>& members,
                           const std::vector<double>& cand, size_t limit) {
  size_t count = 0;
  for (const auto& m : members) {
    bool all_le = true, one_lt = false;
    for (size_t d = 0; d < cand.size(); ++d) {
      if (m[d] > cand[d]) all_le = false;
      if (m[d] < cand[d]) one_lt = true;
    }
    if (all_le && one_lt) ++count;
  }
  return std::min(count, limit);
}

TEST(DominanceWindowTest, ScalarAvx2AndDispatchAgree) {
  Random rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    size_t dims = 1 + rng.Uniform(6);
    size_t size = rng.Uniform(41);
    DominanceWindow window(dims);
    std::vector<std::vector<double>> members;
    for (size_t i = 0; i < size; ++i) {
      std::vector<double> m(dims);
      // Coordinates from a small discrete set force exact ties, the edge
      // where <= vs < discipline matters.
      for (auto& x : m) x = static_cast<double>(rng.Uniform(5));
      window.Append(m.data());
      members.push_back(std::move(m));
    }
    ASSERT_EQ(window.size(), size);
    std::vector<double> cand(dims);
    for (auto& x : cand) x = static_cast<double>(rng.Uniform(5));
    size_t limit = 1 + rng.Uniform(5);

    size_t expected = ReferenceDominators(members, cand, limit);
    EXPECT_EQ(window.CountDominatorsScalar(cand.data(), limit), expected);
    EXPECT_EQ(window.CountDominators(cand.data(), limit), expected);
#if defined(PCUBE_SIMD_HAVE_AVX2)
    if (simd::CpuSupportsAvx2()) {
      EXPECT_EQ(window.CountDominatorsAvx2(cand.data(), limit), expected);
    }
#endif
  }
}

TEST(DominanceWindowTest, ResetClearsAndSurvivesGrowth) {
  DominanceWindow window(2);
  double origin[2] = {0.0, 0.0};
  double cand[2] = {1.0, 1.0};
  for (int i = 0; i < 100; ++i) window.Append(origin);  // forces Grow
  EXPECT_EQ(window.CountDominators(cand, 1000), 100u);
  window.Reset(3);
  EXPECT_EQ(window.size(), 0u);
  double cand3[3] = {1.0, 1.0, 1.0};
  EXPECT_EQ(window.CountDominators(cand3, 5), 0u);
}

TEST(SimdLevelTest, ParseAndNames) {
  simd::SimdLevel level;
  EXPECT_TRUE(simd::ParseSimdLevel("scalar", &level));
  EXPECT_EQ(level, simd::SimdLevel::kScalar);
  EXPECT_TRUE(simd::ParseSimdLevel("avx2", &level));
  EXPECT_EQ(level, simd::SimdLevel::kAvx2);
  EXPECT_FALSE(simd::ParseSimdLevel("sse9", &level));
  EXPECT_FALSE(simd::ParseSimdLevel("", &level));
  EXPECT_STREQ(simd::SimdLevelName(simd::SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::SimdLevelName(simd::SimdLevel::kAvx2), "avx2");
}

TEST(SimdLevelTest, ActiveLevelIsExecutable) {
  simd::SimdLevel level = simd::ActiveSimdLevel();
  if (level == simd::SimdLevel::kAvx2) {
    EXPECT_TRUE(simd::CpuSupportsAvx2());
  }
}

}  // namespace
}  // namespace pcube
