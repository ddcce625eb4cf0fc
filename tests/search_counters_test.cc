// Counter-pinning differential for Algorithm 1. A fixed relation and query
// list are run through the signature engines, and every query's
// EngineCounters, its partial-signature page loads and a hash of its answer
// are compared with golden values. The golden table was captured from the
// engine as it stood before the SID-keyed hot path (inline Path, SID-keyed
// fragment/probe/cursor state) replaced the vector-keyed maps, so any change
// to the search order, the prunes or the probing rule shows up here as a
// counter that moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/random.h"
#include "data/generators.h"
#include "query/verifier.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

struct Pinned {
  uint64_t heap_peak;
  uint64_t nodes_expanded;
  uint64_t pruned_boolean;
  uint64_t pruned_preference;
  uint64_t verified;
  uint64_t verify_failed;
  uint64_t partials_loaded;
  uint64_t answer_hash;

  bool operator==(const Pinned&) const = default;
};

std::string Row(const Pinned& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%llu, %llu, %llu, %llu, %llu, %llu, %llu, 0x%016llxull},",
                static_cast<unsigned long long>(p.heap_peak),
                static_cast<unsigned long long>(p.nodes_expanded),
                static_cast<unsigned long long>(p.pruned_boolean),
                static_cast<unsigned long long>(p.pruned_preference),
                static_cast<unsigned long long>(p.verified),
                static_cast<unsigned long long>(p.verify_failed),
                static_cast<unsigned long long>(p.partials_loaded),
                static_cast<unsigned long long>(p.answer_hash));
  return buf;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashEntries(const std::vector<SearchEntry>& entries) {
  uint64_t h = entries.size();
  for (const SearchEntry& e : entries) {
    h = Mix(h, e.id);
    uint64_t key_bits;
    static_assert(sizeof(key_bits) == sizeof(e.key));
    std::memcpy(&key_bits, &e.key, sizeof(key_bits));
    h = Mix(h, key_bits);
  }
  return h;
}

Pinned Observe(const EngineCounters& c, uint64_t partials, uint64_t hash) {
  return {c.heap_peak,      c.nodes_expanded,    c.pruned_boolean,
          c.pruned_preference, c.verified,       c.verify_failed,
          partials,         hash};
}

/// One instance of the pinned workload: its relation and engine options.
struct Instance {
  SyntheticConfig data;
  WorkbenchOptions options;
};

/// Runs a deterministic list of skyline, skyband, dynamic-skyline and top-k
/// queries with 0-3 predicates; on instances with Bloom signatures every
/// eighth query goes through the lossy Bloom probe plus table verification.
std::vector<Pinned> RunPinnedWorkload(const Instance& inst, uint64_t seed) {
  auto wb = Workbench::Build(GenerateSynthetic(inst.data), inst.options);
  PCUBE_CHECK(wb.ok()) << wb.status().ToString();
  Workbench* w = wb->get();
  const int num_bool = inst.data.num_bool;
  const int num_pref = inst.data.num_pref;
  Random rng(seed);
  std::vector<Pinned> out;
  for (int q = 0; q < 24; ++q) {
    PredicateSet preds;
    const int npreds = q % 4;
    for (int d = 0; d < npreds && d < num_bool; ++d) {
      preds.Add({d, static_cast<uint32_t>(
                        rng.Uniform(inst.data.bool_cardinality))});
    }
    const bool bloom = inst.options.pcube.build_bloom && q % 8 == 7;
    auto probe = bloom ? w->cube()->MakeBloomProbe(preds)
                       : w->cube()->MakeProbe(preds);
    PCUBE_CHECK(probe.ok()) << probe.status().ToString();
    TupleVerifier verifier(w->table(), preds);
    const TupleVerifier* verify = bloom ? &verifier : nullptr;
    switch (q % 5) {
      case 0:
      case 1:
      case 2: {
        SkylineQueryOptions o;
        if (q % 5 == 1) o.skyband_k = 2;
        if (q % 5 == 2) {
          for (int d = 0; d < num_pref; ++d) {
            o.origin.push_back(static_cast<float>(rng.NextDouble()));
          }
        }
        SkylineEngine engine(w->tree(), probe->get(), verify, o);
        auto run = engine.Run();
        PCUBE_CHECK(run.ok()) << run.status().ToString();
        out.push_back(Observe(run->counters, (*probe)->partials_loaded(),
                              HashEntries(run->skyline)));
        break;
      }
      default: {
        std::vector<double> weights;
        for (int d = 0; d < num_pref; ++d) {
          weights.push_back(0.1 + rng.NextDouble());
        }
        std::unique_ptr<RankingFunction> f;
        if (q % 5 == 3) {
          f = std::make_unique<LinearRanking>(weights);
        } else {
          std::vector<double> target;
          for (int d = 0; d < num_pref; ++d) {
            target.push_back(rng.NextDouble());
          }
          f = std::make_unique<WeightedL2Ranking>(target, weights);
        }
        TopKEngine engine(w->tree(), probe->get(), verify, f.get(), 10);
        auto run = engine.Run();
        PCUBE_CHECK(run.ok()) << run.status().ToString();
        out.push_back(Observe(run->counters, (*probe)->partials_loaded(),
                              HashEntries(run->results)));
        break;
      }
    }
  }
  return out;
}

void ExpectPinned(const std::vector<Pinned>& observed,
                  const std::vector<Pinned>& golden) {
  bool same = observed.size() == golden.size();
  for (size_t i = 0; i < observed.size() && i < golden.size(); ++i) {
    EXPECT_EQ(observed[i], golden[i])
        << "query " << i << ": observed " << Row(observed[i]) << " golden "
        << Row(golden[i]);
    same = same && observed[i] == golden[i];
  }
  EXPECT_EQ(observed.size(), golden.size());
  if (!same) {
    std::string all;
    for (const Pinned& p : observed) all += "      " + Row(p) + "\n";
    ADD_FAILURE() << "observed table:\n" << all;
  }
}

// Page-derived fanout, atomic cuboids only: every partial load is a store
// read.
TEST(SearchCountersTest, PageFanoutAtomicCells) {
  Instance inst;
  inst.data.num_tuples = 20000;
  inst.data.num_bool = 3;
  inst.data.num_pref = 3;
  inst.data.bool_cardinality = 6;
  inst.data.seed = 9101;
  inst.options.result_cache_mb = 0;
  const std::vector<Pinned> golden = {
      {204, 20, 0, 2054, 0, 0, 0, 0xb03d7a051cfb4278ull},
      {122, 59, 342, 6017, 0, 0, 1, 0xa7147c5990347edcull},
      {115, 101, 2334, 8543, 0, 0, 2, 0x7b3c3d4b9126503eull},
      {167, 51, 5433, 0, 0, 0, 3, 0xe9c49a109ea45152ull},
      {286, 4, 0, 0, 0, 0, 0, 0xc9e64b3bf7079a1aull},
      {113, 39, 374, 3803, 0, 0, 1, 0x1e9a2dce71eeeb85ull},
      {131, 82, 1972, 6938, 0, 0, 2, 0xc9c01fd029562103ull},
      {174, 109, 4891, 7009, 0, 0, 3, 0x5a9f1f587db9492aull},
      {204, 3, 0, 0, 0, 0, 0, 0xa12ab5bf55ae9ef1ull},
      {238, 10, 753, 0, 0, 0, 1, 0x989a790128d7f71aull},
      {113, 71, 730, 6954, 0, 0, 2, 0x8f9bf50006ce3111ull},
      {129, 85, 5116, 4148, 0, 0, 3, 0xe2ad83ff9d0d630bull},
      {190, 83, 0, 8645, 0, 0, 0, 0xfcc9685e1da577e1ull},
      {190, 8, 570, 0, 0, 0, 1, 0xc2773e4886adf374ull},
      {100, 14, 1250, 0, 0, 0, 2, 0x4a3d5f9e8a814956ull},
      {125, 87, 3681, 5870, 0, 0, 3, 0x7acb2a6312417469ull},
      {204, 23, 0, 2366, 0, 0, 0, 0xcb43a9452983380full},
      {171, 83, 463, 8564, 0, 0, 1, 0x1a128812db9c661eull},
      {101, 9, 777, 0, 0, 0, 2, 0x7dd2beb4538a5acdull},
      {176, 39, 4089, 0, 0, 0, 3, 0x331b648f53cba207ull},
      {204, 20, 0, 2054, 0, 0, 0, 0xb03d7a051cfb4278ull},
      {155, 58, 624, 5628, 0, 0, 1, 0x5a670808e0f108b8ull},
      {202, 93, 2083, 8060, 0, 0, 2, 0x85c35d03f414a234ull},
      {160, 58, 6242, 0, 0, 0, 3, 0xdf34f6d94a0f3427ull},
  };
  ExpectPinned(RunPinnedWorkload(inst, 9102), golden);
}

// Small fanout (a deep tree, many partials), composite cells for pairs of
// predicates, and Bloom signatures. Every partial load is a store read. The
// partials_loaded column is what the engine printed for this instance with
// its former decoded-fragment cache switched off; the other columns and the
// answer hashes are unchanged from the table captured with it on.
TEST(SearchCountersTest, DeepTreeCompositeCells) {
  Instance inst;
  inst.data.num_tuples = 30000;
  inst.data.num_bool = 3;
  inst.data.num_pref = 2;
  inst.data.bool_cardinality = 3;
  inst.data.seed = 9201;
  inst.options.rtree.max_entries = 5;
  inst.options.pcube.materialize_max_dims = 2;
  inst.options.pcube.build_bloom = true;
  inst.options.result_cache_mb = 0;
  const std::vector<Pinned> golden = {
      {24, 48, 0, 130, 0, 0, 0, 0xd9b1135dd3f7409bull},
      {22, 118, 46, 284, 0, 0, 7, 0xa47ad6b0e9b223e2ull},
      {37, 225, 108, 550, 0, 0, 7, 0x902e1137c5f17262ull},
      {35, 67, 163, 0, 0, 0, 6, 0x63af763f30868d13ull},
      {69, 27, 0, 0, 0, 0, 0, 0xceb525e7e2728a90ull},
      {20, 77, 25, 196, 0, 0, 4, 0x802486500cd88133ull},
      {23, 144, 94, 313, 0, 0, 6, 0x7a915eec952646c3ull},
      {50, 312, 167, 757, 8, 1, 18, 0x5bae373c92285a15ull},
      {26, 10, 0, 0, 0, 0, 0, 0xc70e9cb6a85bdc24ull},
      {47, 29, 31, 0, 0, 0, 3, 0x847fa3230da7999eull},
      {24, 96, 56, 217, 0, 0, 4, 0x223e197bc2feff18ull},
      {30, 231, 301, 367, 0, 0, 24, 0x51a9aa2f87ed2243ull},
      {30, 272, 0, 801, 0, 0, 0, 0x790472997d523a89ull},
      {24, 13, 8, 0, 0, 0, 2, 0x54d6e54fb991e971ull},
      {59, 50, 79, 0, 0, 0, 4, 0x6ec05f320bd65cb9ull},
      {20, 115, 84, 255, 6, 0, 18, 0x554a562948e5d642ull},
      {26, 57, 0, 153, 0, 0, 0, 0xd5122320fdfad807ull},
      {22, 297, 42, 837, 0, 0, 7, 0x9c87b150d4d18ea5ull},
      {34, 33, 56, 0, 0, 0, 2, 0x737ca8ed60f0f76eull},
      {65, 61, 110, 0, 0, 0, 9, 0xb12bfd68d0281876ull},
      {24, 48, 0, 130, 0, 0, 0, 0xd9b1135dd3f7409bull},
      {22, 118, 46, 284, 0, 0, 7, 0xa47ad6b0e9b223e2ull},
      {24, 206, 80, 526, 0, 0, 4, 0xe4bd35a1206ca33bull},
      {36, 97, 251, 0, 11, 1, 18, 0x150689d41a9066efull},
  };
  ExpectPinned(RunPinnedWorkload(inst, 9202), golden);
}

}  // namespace
}  // namespace pcube
