// Ordered navigation: find_ge / find_gt / find_le / find_lt, range() and
// count_range() — checked against std::set's lower_bound/upper_bound oracle
// across randomized sweeps, plus weak-consistency smoke under concurrency.
// Every suite is typed over both trees: the EFRB tree and the chromatic tree
// share one set of ordered walks (core/ordered.hpp), read through each
// layout's node seam.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/chromatic.hpp"
#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "reclaim/epoch.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

using Trees = ::testing::Types<EfrbTreeSet<int>, ChromaticTreeSet<int>>;

/// The map flavour of a set type: same tree policy, int values.
template <typename Set>
struct MapOf;
template <typename Policy, typename Key, typename Compare, typename Reclaimer,
          typename Traits>
struct MapOf<TreeMap<Policy, Key, detail::Unit, Compare, Reclaimer, Traits>> {
  using type = TreeMap<Policy, Key, int, Compare, Reclaimer, Traits>;
};

template <typename Tree>
class OrderedQueryTest : public ::testing::Test {};
TYPED_TEST_SUITE(OrderedQueryTest, Trees);

template <typename Tree>
class RangeQueryTest : public ::testing::Test {};
TYPED_TEST_SUITE(RangeQueryTest, Trees);

template <typename Tree>
class OrderedQueryHandleTest : public ::testing::Test {};
TYPED_TEST_SUITE(OrderedQueryHandleTest, Trees);

template <typename Tree>
class OrderedQueryConcurrentTest : public ::testing::Test {};
TYPED_TEST_SUITE(OrderedQueryConcurrentTest, Trees);

std::optional<int> oracle_ge(const std::set<int>& s, int k) {
  auto it = s.lower_bound(k);
  if (it == s.end()) return std::nullopt;
  return *it;
}
std::optional<int> oracle_gt(const std::set<int>& s, int k) {
  auto it = s.upper_bound(k);
  if (it == s.end()) return std::nullopt;
  return *it;
}
std::optional<int> oracle_le(const std::set<int>& s, int k) {
  auto it = s.upper_bound(k);
  if (it == s.begin()) return std::nullopt;
  return *std::prev(it);
}
std::optional<int> oracle_lt(const std::set<int>& s, int k) {
  auto it = s.lower_bound(k);
  if (it == s.begin()) return std::nullopt;
  return *std::prev(it);
}

TYPED_TEST(OrderedQueryTest, EmptyTreeReturnsNullopt) {
  TypeParam t;
  EXPECT_EQ(t.find_ge(5), std::nullopt);
  EXPECT_EQ(t.find_gt(5), std::nullopt);
  EXPECT_EQ(t.find_le(5), std::nullopt);
  EXPECT_EQ(t.find_lt(5), std::nullopt);
  EXPECT_EQ(t.count_range(0, 100), 0u);
}

TYPED_TEST(OrderedQueryTest, SingleKeyBoundaries) {
  TypeParam t;
  t.insert(10);
  EXPECT_EQ(t.find_ge(10), std::optional<int>(10));
  EXPECT_EQ(t.find_gt(10), std::nullopt);
  EXPECT_EQ(t.find_le(10), std::optional<int>(10));
  EXPECT_EQ(t.find_lt(10), std::nullopt);
  EXPECT_EQ(t.find_ge(9), std::optional<int>(10));
  EXPECT_EQ(t.find_le(11), std::optional<int>(10));
  EXPECT_EQ(t.find_ge(11), std::nullopt);
  EXPECT_EQ(t.find_le(9), std::nullopt);
}

TYPED_TEST(OrderedQueryTest, GapsAreBridged) {
  TypeParam t;
  for (int k : {10, 20, 30}) t.insert(k);
  EXPECT_EQ(t.find_ge(15), std::optional<int>(20));
  EXPECT_EQ(t.find_gt(20), std::optional<int>(30));
  EXPECT_EQ(t.find_le(25), std::optional<int>(20));
  EXPECT_EQ(t.find_lt(20), std::optional<int>(10));
  EXPECT_EQ(t.find_ge(31), std::nullopt);
  EXPECT_EQ(t.find_lt(10), std::nullopt);
}

TYPED_TEST(OrderedQueryTest, BoundsBelowAllAndAboveAll) {
  TypeParam t;
  for (int k = 100; k <= 200; k += 10) t.insert(k);
  EXPECT_EQ(t.find_ge(-1000), std::optional<int>(100));
  EXPECT_EQ(t.find_le(1000), std::optional<int>(200));
  EXPECT_EQ(t.find_gt(200), std::nullopt);
  EXPECT_EQ(t.find_lt(100), std::nullopt);
}

TYPED_TEST(OrderedQueryTest, AllFourBoundsMatchStdSet) {
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE(seed);
    TypeParam t;
    std::set<int> oracle;
    Xoshiro256 rng(seed);
    // Random population with churn, probing all four bounds continuously.
    for (int i = 0; i < 4000; ++i) {
      const int k = static_cast<int>(rng.next_below(512));
      if (rng.next_below(3) == 0) {
        t.erase(k);
        oracle.erase(k);
      } else {
        t.insert(k);
        oracle.insert(k);
      }
      const int probe = static_cast<int>(rng.next_below(512));
      ASSERT_EQ(t.find_ge(probe), oracle_ge(oracle, probe)) << "probe " << probe;
      ASSERT_EQ(t.find_gt(probe), oracle_gt(oracle, probe)) << "probe " << probe;
      ASSERT_EQ(t.find_le(probe), oracle_le(oracle, probe)) << "probe " << probe;
      ASSERT_EQ(t.find_lt(probe), oracle_lt(oracle, probe)) << "probe " << probe;
    }
  }
}

TYPED_TEST(RangeQueryTest, EmptyAndDegenerateIntervals) {
  TypeParam t;
  for (int k : {10, 20, 30}) t.insert(k);
  EXPECT_EQ(t.count_range(21, 29), 0u);
  EXPECT_EQ(t.count_range(20, 20), 1u);  // single point
  EXPECT_EQ(t.count_range(25, 15), 0u);  // inverted: empty by definition
}

TYPED_TEST(RangeQueryTest, InclusiveBothEnds) {
  TypeParam t;
  for (int k = 0; k < 100; ++k) t.insert(k);
  EXPECT_EQ(t.count_range(10, 19), 10u);
  EXPECT_EQ(t.count_range(0, 99), 100u);
  EXPECT_EQ(t.count_range(-5, 4), 5u);
  EXPECT_EQ(t.count_range(95, 200), 5u);
}

TYPED_TEST(RangeQueryTest, VisitsInOrderWithValues) {
  typename MapOf<TypeParam>::type m;
  for (int k : {5, 1, 9, 3, 7}) m.insert(k, k * 10);
  std::vector<std::pair<int, int>> seen;
  m.range(2, 8, [&](const int& k, const int& v) { seen.emplace_back(k, v); });
  EXPECT_EQ(seen, (std::vector<std::pair<int, int>>{{3, 30}, {5, 50}, {7, 70}}));
}

TYPED_TEST(RangeQueryTest, MatchesOracleOnRandomSets) {
  TypeParam t;
  std::set<int> oracle;
  Xoshiro256 rng(99);
  for (int i = 0; i < 2000; ++i) {
    const int k = static_cast<int>(rng.next_below(1000));
    t.insert(k);
    oracle.insert(k);
  }
  for (int i = 0; i < 200; ++i) {
    int lo = static_cast<int>(rng.next_below(1000));
    int hi = static_cast<int>(rng.next_below(1000));
    if (lo > hi) std::swap(lo, hi);
    const auto expected = static_cast<std::size_t>(
        std::distance(oracle.lower_bound(lo), oracle.upper_bound(hi)));
    ASSERT_EQ(t.count_range(lo, hi), expected) << "[" << lo << "," << hi << "]";
  }
}

TYPED_TEST(RangeQueryTest, PruningSkipsSentinelSpine) {
  // A range query touching the top of the key space must not visit the ∞
  // sentinels (they would appear as garbage keys if ever reported).
  TypeParam t;
  t.insert(INT32_MAX);
  t.insert(INT32_MAX - 1);
  std::vector<int> seen;
  t.range(INT32_MAX - 2, INT32_MAX,
          [&](const int& k, const auto&) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<int>{INT32_MAX - 1, INT32_MAX}));
}

// ---------------------------------------------------------------------------
// Handle fast path: every ordered query is also a Handle method (pinning
// through the handle's attachment instead of the thread_local lease).
// ---------------------------------------------------------------------------

TYPED_TEST(OrderedQueryHandleTest, AllQueriesMatchTreeLevel) {
  TypeParam t;
  auto h = t.handle();
  for (int k : {10, 20, 30, 40}) ASSERT_TRUE(h.insert(k));
  EXPECT_EQ(h.min_key(), std::optional<int>(10));
  EXPECT_EQ(h.max_key(), std::optional<int>(40));
  EXPECT_EQ(h.find_ge(15), t.find_ge(15));
  EXPECT_EQ(h.find_gt(20), t.find_gt(20));
  EXPECT_EQ(h.find_le(25), t.find_le(25));
  EXPECT_EQ(h.find_lt(20), t.find_lt(20));
  EXPECT_EQ(h.find_gt(40), std::nullopt);
  EXPECT_EQ(h.count_range(15, 35), 2u);
  std::vector<int> ranged;
  h.range(15, 45, [&](const int& k, const auto&) { ranged.push_back(k); });
  EXPECT_EQ(ranged, (std::vector<int>{20, 30, 40}));
  std::vector<int> all;
  h.for_each([&](const int& k, const auto&) { all.push_back(k); });
  EXPECT_EQ(all, (std::vector<int>{10, 20, 30, 40}));
}

TYPED_TEST(OrderedQueryHandleTest, SweepMatchesStdSetOracle) {
  TypeParam t;
  auto h = t.handle();
  std::set<int> oracle;
  Xoshiro256 rng(21);
  for (int i = 0; i < 2000; ++i) {
    const int k = static_cast<int>(rng.next_below(512));
    if (rng.next_below(3) == 0) {
      h.erase(k);
      oracle.erase(k);
    } else {
      h.insert(k);
      oracle.insert(k);
    }
    const int probe = static_cast<int>(rng.next_below(512));
    ASSERT_EQ(h.find_ge(probe), oracle_ge(oracle, probe)) << "probe " << probe;
    ASSERT_EQ(h.find_gt(probe), oracle_gt(oracle, probe)) << "probe " << probe;
    ASSERT_EQ(h.find_le(probe), oracle_le(oracle, probe)) << "probe " << probe;
    ASSERT_EQ(h.find_lt(probe), oracle_lt(oracle, probe)) << "probe " << probe;
    ASSERT_EQ(h.min_key(), oracle.empty()
                               ? std::nullopt
                               : std::optional<int>(*oracle.begin()));
    ASSERT_EQ(h.max_key(), oracle.empty()
                               ? std::nullopt
                               : std::optional<int>(*oracle.rbegin()));
  }
}

TYPED_TEST(OrderedQueryHandleTest, MovedFromHandleStaysUsableAfterMoveTarget) {
  TypeParam t;
  auto h1 = t.handle();
  ASSERT_TRUE(h1.insert(5));
  typename TypeParam::Handle h2 = std::move(h1);
  EXPECT_TRUE(h2.valid());
  EXPECT_EQ(h2.min_key(), std::optional<int>(5));
  EXPECT_EQ(h2.count_range(0, 10), 1u);
}

// ---------------------------------------------------------------------------
// Weak consistency under concurrency.
// ---------------------------------------------------------------------------

/// Sets the stop flag when the reader scope exits — including early exits
/// from a failed ASSERT_*, which would otherwise leave the churn threads
/// spinning forever and turn a test failure into a timeout.
struct StopOnExit {
  std::atomic<bool>& stop;
  ~StopOnExit() { stop.store(true); }
};

TYPED_TEST(OrderedQueryConcurrentTest, StableRegionIsAlwaysReported) {
  // Keys 1000..1009 are permanent; churn happens strictly below 900. Queries
  // probing from WITHIN the quiet gap (900, 1000) or above the stable region
  // must see exactly the stable keys. (A probe from below the churn region,
  // e.g. find_ge(600), could legitimately return a transiently present churn
  // key — that is the documented weak consistency, not a bug.)
  TypeParam t;
  for (int k = 1000; k < 1010; ++k) t.insert(k);
  std::atomic<bool> stop{false};
  run_threads(4, [&](std::size_t tid) {
    if (tid == 0) {
      StopOnExit guard{stop};
      for (int i = 0; i < 4000; ++i) {
        ASSERT_EQ(t.count_range(1000, 1009), 10u);
        ASSERT_EQ(t.find_ge(950), std::optional<int>(1000));  // gap is quiet
        ASSERT_EQ(t.find_le(1500), std::optional<int>(1009));
        ASSERT_EQ(t.find_gt(1009), std::nullopt);  // no keys exist above 1009
      }
    } else if (tid == 1) {
      Xoshiro256 rng(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.next_below(500));
        t.insert(k);
        t.erase(k);
      }
    } else {
      Xoshiro256 rng(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = 700 + static_cast<int>(rng.next_below(200));
        t.insert(k);
        t.erase(k);
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);
}

TYPED_TEST(OrderedQueryConcurrentTest, BoundsNeverInventKeys) {
  // Churn over even keys only; bounds must never report an odd key (odd keys
  // are never inserted), and reported keys must lie on the queried side.
  TypeParam t;
  std::atomic<bool> stop{false};
  run_threads(3, [&](std::size_t tid) {
    if (tid == 0) {
      StopOnExit guard{stop};
      Xoshiro256 rng(7);
      for (int i = 0; i < 8000; ++i) {
        const int probe = static_cast<int>(rng.next_below(512));
        if (const auto g = t.find_ge(probe)) {
          ASSERT_EQ(*g % 2, 0) << "invented key";
          ASSERT_GE(*g, probe);
        }
        if (const auto l = t.find_le(probe)) {
          ASSERT_EQ(*l % 2, 0) << "invented key";
          ASSERT_LE(*l, probe);
        }
      }
    } else {
      Xoshiro256 rng(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.next_below(256)) * 2;
        t.insert(k);
        t.erase(k);
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);
}

TYPED_TEST(OrderedQueryConcurrentTest, HandleQueriesUnderChurn) {
  // Same stable-region argument as above, but every thread — reader and
  // churners alike — drives the tree through its own Handle.
  TypeParam t;
  for (int k = 1000; k < 1010; ++k) t.insert(k);
  std::atomic<bool> stop{false};
  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    if (tid == 0) {
      StopOnExit guard{stop};
      for (int i = 0; i < 4000; ++i) {
        ASSERT_EQ(h.count_range(1000, 1009), 10u);
        ASSERT_EQ(h.find_ge(950), std::optional<int>(1000));
        ASSERT_EQ(h.find_le(1500), std::optional<int>(1009));
        ASSERT_EQ(h.max_key(), std::optional<int>(1009));
      }
    } else {
      Xoshiro256 rng(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.next_below(500));
        h.insert(k);
        h.erase(k);
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);
}

}  // namespace
}  // namespace efrb
