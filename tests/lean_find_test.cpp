// The lean read path: contains()/get() descend with find_path (the
// default, Traits::kLeanFind) instead of the updaters' full Search. These
// differential oracles drive both read paths with identical operations on
// random and adversarial key streams, and run lean reads against live
// updaters.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "reclaim/epoch.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

/// Drives the lean find_path (default) and the full-Search read path
/// (FullSearchFindTraits) with identical operations and demands identical
/// answers, against a std::map oracle.
void lean_vs_full(const std::vector<int>& keys) {
  EfrbTreeMap<int, int> lean;  // kLeanFind defaults to true
  EfrbTreeMap<int, int, std::less<int>, EpochReclaimer, FullSearchFindTraits>
      full;
  std::map<int, int> oracle;
  Xoshiro256 rng(0x1ea2f1adu);
  auto lh = lean.handle();
  auto fh = full.handle();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const int k = keys[i];
    switch (rng.next() % 5) {
      case 0: {
        const bool erased = oracle.erase(k) != 0;
        EXPECT_EQ(lh.erase(k), erased);
        EXPECT_EQ(fh.erase(k), erased);
        break;
      }
      case 1:
      case 2: {
        const int v = static_cast<int>(i);
        const bool inserted = oracle.emplace(k, v).second;
        EXPECT_EQ(lh.insert(k, v), inserted);
        EXPECT_EQ(fh.insert(k, v), inserted);
        break;
      }
      default: {
        const auto it = oracle.find(k);
        const std::optional<int> want =
            it == oracle.end() ? std::nullopt : std::optional<int>(it->second);
        EXPECT_EQ(lh.get(k), want) << "lean get(" << k << ")";
        EXPECT_EQ(fh.get(k), want) << "full get(" << k << ")";
        EXPECT_EQ(lh.contains(k), want.has_value());
        EXPECT_EQ(fh.contains(k), want.has_value());
        break;
      }
    }
  }
}

TEST(LeanFindDifferential, RandomKeyStream) {
  std::vector<int> keys;
  Xoshiro256 rng(0xbeefu);
  keys.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(static_cast<int>(rng.next() % 1024));
  }
  lean_vs_full(keys);
}

TEST(LeanFindDifferential, AdversarialKeyStreams) {
  // Ascending then descending runs (degenerate linear tree shapes), repeated
  // boundary keys, and the extremes next to the sentinel ordering.
  std::vector<int> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(i);
  for (int i = 999; i >= 0; --i) keys.push_back(i);
  for (int i = 0; i < 500; ++i) keys.push_back(0);
  for (int i = 0; i < 500; ++i) keys.push_back(999);
  for (int i = 0; i < 200; ++i) {
    keys.push_back(std::numeric_limits<int>::max());
    keys.push_back(std::numeric_limits<int>::min());
  }
  lean_vs_full(keys);
}

TEST(LeanFindDifferential, LeanReadsUnderConcurrentChurn) {
  // The lean descent never writes; run it against live updaters and check it
  // only ever reports keys from the permanently-present set or the churn set.
  EfrbTreeMap<int, int> t;
  constexpr int kStable = 128;   // keys 0..127 always present
  constexpr int kChurnLo = 256;  // keys 256..383 flicker
  for (int i = 0; i < kStable; ++i) t.insert(i, i);
  std::atomic<bool> stop{false};
  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    if (tid == 0) {
      for (int round = 0; round < 200; ++round) {
        for (int i = kChurnLo; i < kChurnLo + 128; ++i) h.insert(i, i);
        for (int i = kChurnLo; i < kChurnLo + 128; ++i) h.erase(i);
      }
      stop.store(true);
    } else {
      Xoshiro256 rng(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.next() % 512);
        const bool hit = h.contains(k);
        if (k < kStable) {
          EXPECT_TRUE(hit) << "stable key " << k << " vanished";
        } else if (k < kChurnLo || k >= kChurnLo + 128) {
          EXPECT_FALSE(hit) << "phantom key " << k;
        }
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);
}

}  // namespace
}  // namespace efrb
