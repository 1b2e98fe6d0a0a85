// Differential testing: every dictionary implementation in the repository is
// driven through the SAME pseudo-random operation sequence and must return
// bit-identical results at every step. A divergence pins the bug to a single
// implementation rather than to the harness or the oracle.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "baselines/coarse_bst.hpp"
#include "baselines/cow_bst.hpp"
#include "baselines/finelock_bst.hpp"
#include "baselines/harris_list.hpp"
#include "baselines/locked_map.hpp"
#include "baselines/set_interface.hpp"
#include "baselines/skiplist.hpp"
#include "core/chromatic.hpp"
#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "reclaim/hazard.hpp"
#include "shard/sharded_map.hpp"
#include "util/rng.hpp"

namespace efrb {
namespace {

/// Range router sized to the scripts' key universe so the differential
/// actually exercises cross-shard routing (the stock default of 2^16 would
/// park every scripted key in shard 0).
struct SmallRangeRouter : shard::RangeRouter {
  SmallRangeRouter() noexcept : RangeRouter(/*shards=*/4, /*key_range=*/4096) {}
};

struct Step {
  int op;  // 0 = insert, 1 = erase, 2 = contains
  int key;
};

std::vector<Step> make_script(std::uint64_t seed, int n,
                              std::uint64_t range) {
  std::vector<Step> script;
  script.reserve(static_cast<std::size_t>(n));
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i) {
    script.push_back(Step{static_cast<int>(rng.next_below(3)),
                          static_cast<int>(rng.next_below(range))});
  }
  return script;
}

/// kViaHandle drives the script through one Handle: the path whose epoch
/// sweeps recycle retired blocks into later nodes (reclaim/recycle.hpp).
template <typename Set, bool kViaHandle = false>
std::vector<bool> run_script(const std::vector<Step>& script) {
  Set set;
  auto run = [&](auto& s) {
    std::vector<bool> results;
    results.reserve(script.size());
    for (const Step& step : script) {
      switch (step.op) {
        case 0: results.push_back(s.insert(step.key)); break;
        case 1: results.push_back(s.erase(step.key)); break;
        default: results.push_back(s.contains(step.key));
      }
    }
    return results;
  };
  if constexpr (kViaHandle) {
    auto h = set.handle();
    return run(h);
  } else {
    return run(set);
  }
}

class DifferentialSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {
};

TEST_P(DifferentialSweep, AllImplementationsAgreeStepByStep) {
  const auto [seed, range] = GetParam();
  const auto script = make_script(seed, 4000, range);

  const auto reference = run_script<EfrbTreeSet<int>>(script);
  const struct {
    const char* name;
    std::vector<bool> results;
  } others[] = {
      {"efrb-helping-search",
       run_script<EfrbTreeSet<int, std::less<int>, EpochReclaimer,
                              HelpingSearchTraits>>(script)},
      {"chromatic", run_script<ChromaticTreeSet<int>>(script)},
      {"chromatic-handle",
       run_script<ChromaticTreeSet<int>, /*kViaHandle=*/true>(script)},
      {"coarse", run_script<CoarseLockBst<int>>(script)},
      {"finelock", run_script<FineLockBst<int>>(script)},
      {"stdmap", run_script<LockedStdSet<int>>(script)},
      {"harris", run_script<HarrisList<int>>(script)},
      {"skiplist", run_script<LockFreeSkipList<int>>(script)},
      {"cow", run_script<CowBst<int>>(script)},
      {"sharded-hash-efrb",
       run_script<shard::ShardedSet<EfrbTreeSet<int>>>(script)},
      {"sharded-range-chromatic",
       run_script<shard::ShardedSet<ChromaticTreeSet<int>, SmallRangeRouter>>(
           script)},
  };

  for (const auto& other : others) {
    ASSERT_EQ(other.results.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(other.results[i], reference[i])
          << other.name << " diverges at step " << i << " (op "
          << script[i].op << " key " << script[i].key << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByRange, DifferentialSweep,
    ::testing::Values(std::make_tuple(1, 8), std::make_tuple(2, 8),
                      std::make_tuple(3, 128), std::make_tuple(4, 128),
                      std::make_tuple(5, 4096), std::make_tuple(6, 4096)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_range" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Map-level differential: the same idea over the full ConcurrentMap surface
// (get / insert(k,v) / insert_or_assign / replace / erase). The template is
// constrained by the concept itself, so only genuine ConcurrentMap models can
// even be instantiated.
// ---------------------------------------------------------------------------

struct MapStep {
  int op;  // 0 ins, 1 ioa, 2 replace, 3 erase, 4 get, 5 contains
  int key;
  int value;
  int expected;  // for replace
};

std::vector<MapStep> make_map_script(std::uint64_t seed, int n,
                                     std::uint64_t range) {
  std::vector<MapStep> script;
  script.reserve(static_cast<std::size_t>(n));
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i) {
    script.push_back(MapStep{static_cast<int>(rng.next_below(6)),
                             static_cast<int>(rng.next_below(range)),
                             static_cast<int>(rng.next_below(8)),
                             static_cast<int>(rng.next_below(8))});
  }
  return script;
}

/// Step results encoded as ints so bool and optional<int> outcomes compare
/// uniformly (-1 = absent).
template <ConcurrentMap Map>
std::vector<int> run_map_script(const std::vector<MapStep>& script) {
  Map m;
  std::vector<int> results;
  results.reserve(script.size());
  for (const MapStep& s : script) {
    switch (s.op) {
      case 0: results.push_back(m.insert(s.key, s.value)); break;
      case 1: results.push_back(m.insert_or_assign(s.key, s.value)); break;
      case 2: results.push_back(m.replace(s.key, s.expected, s.value)); break;
      case 3: results.push_back(m.erase(s.key)); break;
      case 4: results.push_back(m.get(s.key).value_or(-1)); break;
      default: results.push_back(m.contains(s.key));
    }
  }
  return results;
}

class MapDifferentialSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {
};

TEST_P(MapDifferentialSweep, AllMapsAgreeStepByStep) {
  const auto [seed, range] = GetParam();
  const auto script = make_map_script(seed, 4000, range);

  const auto reference = run_map_script<LockedStdMap<int, int>>(script);
  const struct {
    const char* name;
    std::vector<int> results;
  } others[] = {
      {"efrb-map", run_map_script<EfrbTreeMap<int, int>>(script)},
      {"efrb-map-hazard",
       run_map_script<EfrbTreeMap<int, int, std::less<int>, HazardReclaimer>>(
           script)},
      {"efrb-map-stats",
       run_map_script<EfrbTreeMap<int, int, std::less<int>, EpochReclaimer,
                                  StatsTraits>>(script)},
      {"chromatic-map", run_map_script<ChromaticTreeMap<int, int>>(script)},
      {"chromatic-map-hazard",
       run_map_script<
           ChromaticTreeMap<int, int, std::less<int>, HazardReclaimer>>(
           script)},
      {"chromatic-map-stats",
       run_map_script<ChromaticTreeMap<int, int, std::less<int>,
                                       EpochReclaimer, StatsTraits>>(script)},
      {"sharded-hash-efrb",
       run_map_script<shard::ShardedMap<EfrbTreeMap<int, int>>>(script)},
      {"sharded-hash-chromatic-hazard",
       run_map_script<shard::ShardedMap<
           ChromaticTreeMap<int, int, std::less<int>, HazardReclaimer>>>(
           script)},
      {"sharded-range-efrb-hazard",
       run_map_script<shard::ShardedMap<
           EfrbTreeMap<int, int, std::less<int>, HazardReclaimer>,
           SmallRangeRouter>>(script)},
      {"sharded-range-chromatic",
       run_map_script<shard::ShardedMap<ChromaticTreeMap<int, int>,
                                        SmallRangeRouter>>(script)},
  };

  for (const auto& other : others) {
    ASSERT_EQ(other.results.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(other.results[i], reference[i])
          << other.name << " diverges at step " << i << " (op "
          << script[i].op << " key " << script[i].key << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByRange, MapDifferentialSweep,
    ::testing::Values(std::make_tuple(11, 8), std::make_tuple(12, 128),
                      std::make_tuple(13, 4096)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_range" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace efrb
