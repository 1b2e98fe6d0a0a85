// The heap recycle path (reclaim/recycle.hpp): an EpochReclaimer
// attachment's sweeps keep retired blocks in exact-size bins, and
// OpContext::make pops them. This binary counts the heap through the
// replacement operator new/delete in counting_new.hpp and checks the
// contract over both trees and their node types:
//   * after flush() and Handle destruction nothing the bins held is left on
//     the heap, and no block is freed twice;
//   * every block goes back with the size it was allocated with, including
//     EFRB Info records retired through their polymorphic base;
//   * a constructor that throws on a recycled block puts the block back once;
//   * an update whose later allocation throws frees the nodes it made;
//   * a bin never holds more than its cap;
//   * a flush restarts the retire list's sweep schedule;
//   * a moved Handle keeps its bins;
//   * RecycleBins on its own: exact-size LIFO reuse, bounded size classes,
//     sized frees on destruction, and the types it declines;
//   * erased nodes feed the next inserts, and steady churn stops growing
//     the heap;
//   * Handle ops (bins) and tree-level ops (no bins) agree with a std::map;
//   * concurrent Handles, and a deleter parked mid-protocol, never see a
//     block reused while it is still reachable, and leave nothing behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/chromatic.hpp"
#include "core/efrb_tree.hpp"
#include "core/op_context.hpp"
#include "counting_new.hpp"
#include "inject/fault_plan.hpp"
#include "inject/fault_scheduler.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/recycle.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

using counting_new::live_bytes;
using counting_new::size_mismatches;
using counting_new::thread_allocs;

/// A mapped value whose move constructor throws when the source is armed:
/// passed into make<Leaf>, it throws from inside the node's constructor.
struct Boom {};
struct Bomb {
  bool armed = false;
  explicit Bomb(bool a) : armed(a) {}
  Bomb(Bomb&& o) : armed(o.armed) {
    if (armed) throw Boom{};
  }
  Bomb& operator=(Bomb&&) = delete;
};

/// A mapped value whose copy constructor throws once when armed (moves never
/// throw): `copies_left` copies succeed, the next one throws and disarms.
struct Fragile {
  static inline int copies_left = -1;  // < 0: disarmed
  std::uint64_t v = 0;
  Fragile() = default;
  explicit Fragile(std::uint64_t x) noexcept : v(x) {}
  Fragile(Fragile&&) noexcept = default;
  Fragile(const Fragile& o) : v(o.v) {
    if (copies_left == 0) {
      copies_left = -1;
      throw Boom{};
    }
    if (copies_left > 0) --copies_left;
  }
  Fragile& operator=(const Fragile&) = default;
  Fragile& operator=(Fragile&&) noexcept = default;
};

struct EfrbFlavor {
  template <typename V>
  using Tree = EfrbTreeMap<std::uint64_t, V>;
  template <typename V>
  using Leaf = typename TreeLayout<std::uint64_t, V>::Leaf;
  template <typename V, typename Ctx>
  static Leaf<V>* make_leaf(Ctx& ctx, std::uint64_t k, V v) {
    return ctx.template make<Leaf<V>>(BoundedKey<std::uint64_t>::real(k),
                                      std::move(v));
  }
};

struct ChromaticFlavor {
  template <typename V>
  using Tree = ChromaticTreeMap<std::uint64_t, V>;
  template <typename V>
  using Leaf = typename ChromaticLayout<std::uint64_t, V>::Node;
  template <typename V, typename Ctx>
  static Leaf<V>* make_leaf(Ctx& ctx, std::uint64_t k, V v) {
    return ctx.template make<Leaf<V>>(BoundedKey<std::uint64_t>::real(k),
                                      std::move(v), 1, nullptr, nullptr);
  }
};

/// A handle-path context over a bare epoch attachment, as TreeMap builds one.
using Ctx = OpContext<EpochReclaimer, /*kCount=*/false>;

template <typename F>
class RecycleTest : public ::testing::Test {
 protected:
  using Tree = typename F::template Tree<std::uint64_t>;
  using Leaf = typename F::template Leaf<std::uint64_t>;

  static constexpr std::uint64_t kKeys = 512;

  /// Even keys stay; every odd key is inserted and erased `rounds` times.
  static void churn(typename Tree::Handle& h, int rounds) {
    for (std::uint64_t k = 0; k < 2 * kKeys; k += 2) h.insert(k, k);
    for (int r = 0; r < rounds; ++r) {
      for (std::uint64_t k = 1; k < 2 * kKeys; k += 2) {
        h.insert(k, k);
        h.erase(k);
      }
    }
  }

  /// Make and retire n leaves through ctx, unpinned, so each sweep of a
  /// small retire batch advances the epoch and bins what became safe.
  static void make_and_retire(Ctx& ctx, int n) {
    for (int i = 0; i < n; ++i) {
      ctx.retire(F::make_leaf(ctx, static_cast<std::uint64_t>(i),
                              std::uint64_t{0}));
    }
  }
};

using Flavors = ::testing::Types<EfrbFlavor, ChromaticFlavor>;
TYPED_TEST_SUITE(RecycleTest, Flavors);

TYPED_TEST(RecycleTest, FlushAndDetachReturnEveryBinnedBlock) {
  // Whole lifecycle: a tree, a churned Handle, flush, Handle and tree gone.
  // A bin that kept its blocks past detach would leave bytes behind; a block
  // both binned and deleted would drive the count below the baseline.
  const std::int64_t baseline = live_bytes();
  {
    typename TestFixture::Tree tree;
    auto h = tree.handle();
    TestFixture::churn(h, 4);
    h.flush();
  }
  EXPECT_EQ(live_bytes(), baseline);

  // flush() alone hands everything back with the attachment still alive:
  // the retire backlog, every binned block and the bins themselves.
  using Leaf = typename TestFixture::Leaf;
  EpochReclaimer rec(4, /*retire_batch=*/8);
  auto att = rec.attach();
  auto ctx = Ctx::attached(att, nullptr, nullptr);
  TestFixture::make_and_retire(ctx, 256);
  ASSERT_NE(att.recycle_bins(), nullptr);
  const auto held =
      static_cast<std::int64_t>(att.recycle_bins()->held(sizeof(Leaf)));
  EXPECT_GT(held, 0);
  const auto backlog = static_cast<std::int64_t>(rec.gauges().backlog());
  const std::int64_t before = live_bytes();
  att.flush();
  EXPECT_EQ(att.recycle_bins(), nullptr);
  EXPECT_EQ(before - live_bytes(),
            (held + backlog) * static_cast<std::int64_t>(sizeof(Leaf)) +
                static_cast<std::int64_t>(sizeof(RecycleBins)));
}

TYPED_TEST(RecycleTest, EveryBlockIsFreedWithItsAllocatedSize) {
  const std::uint64_t before = size_mismatches();
  {
    typename TestFixture::Tree tree;
    auto h = tree.handle();
    TestFixture::churn(h, 4);
  }
  EXPECT_EQ(size_mismatches(), before);
}

TEST(RecycleInfoTest, RetiredInfoIsBinnedByItsDynamicSize) {
  // IInfo and DInfo are retired as Info*: binning them by sizeof(Info)
  // would later free a 40- or 48-byte block as a 16-byte one.
  using L = TreeLayout<std::uint64_t, std::uint64_t>;
  static_assert(sizeof(L::IInfo) != sizeof(Info) &&
                sizeof(L::DInfo) != sizeof(Info));
  const std::int64_t baseline = live_bytes();
  const std::uint64_t mismatches = size_mismatches();
  {
    EpochReclaimer rec(4, /*retire_batch=*/8);
    auto att = rec.attach();
    auto ctx = Ctx::attached(att, nullptr, nullptr);
    for (int i = 0; i < 64; ++i) {
      Info* a = ctx.make<L::IInfo>(nullptr, nullptr, nullptr);
      Info* b = ctx.make<L::DInfo>(nullptr, nullptr, nullptr, Update{});
      ctx.retire(a);
      ctx.retire(b);
    }
    const RecycleBins* bins = att.recycle_bins();
    ASSERT_NE(bins, nullptr);
    EXPECT_GT(bins->held(sizeof(L::IInfo)), 0u);
    EXPECT_GT(bins->held(sizeof(L::DInfo)), 0u);
    EXPECT_EQ(bins->held(sizeof(Info)), 0u);
  }
  EXPECT_EQ(size_mismatches(), mismatches);
  EXPECT_EQ(live_bytes(), baseline);
}

TYPED_TEST(RecycleTest, ThrowingConstructorPutsTheRecycledBlockBackOnce) {
  using BombLeaf = typename TypeParam::template Leaf<Bomb>;
  const std::int64_t baseline = live_bytes();
  {
    EpochReclaimer rec(4, /*retire_batch=*/8);
    auto att = rec.attach();
    auto ctx = Ctx::attached(att, nullptr, nullptr);
    for (int i = 0; i < 64; ++i) {
      ctx.retire(TypeParam::make_leaf(ctx, 1, Bomb(false)));
    }
    const RecycleBins* bins = att.recycle_bins();
    ASSERT_NE(bins, nullptr);
    const std::uint32_t held = bins->held(sizeof(BombLeaf));
    ASSERT_GE(held, 2u);

    const std::uint64_t allocs = thread_allocs();
    EXPECT_THROW(TypeParam::make_leaf(ctx, 2, Bomb(true)), Boom);
    EXPECT_EQ(thread_allocs(), allocs);  // it ran on a recycled block
    EXPECT_EQ(bins->held(sizeof(BombLeaf)), held);  // which went back

    // Back once, not twice: the next two makes get two distinct blocks.
    BombLeaf* a = TypeParam::make_leaf(ctx, 3, Bomb(false));
    BombLeaf* b = TypeParam::make_leaf(ctx, 4, Bomb(false));
    EXPECT_NE(a, b);
    EXPECT_EQ(bins->held(sizeof(BombLeaf)), held - 2);
    EXPECT_EQ(thread_allocs(), allocs);
    ctx.dispose(a);
    ctx.dispose(b);
    EXPECT_EQ(bins->held(sizeof(BombLeaf)), held);
  }
  EXPECT_EQ(live_bytes(), baseline);
}

TYPED_TEST(RecycleTest, BinNeverExceedsItsCap) {
  EpochReclaimer rec(4, /*retire_batch=*/8);
  auto att = rec.attach();
  auto ctx = Ctx::attached(att, nullptr, nullptr);
  // Allocate everything first, so no make pops a binned block and the
  // sweeps offer the bin far more blocks than it may keep.
  constexpr int kBlocks = 4 * RecycleBins::kCap;
  std::vector<typename TestFixture::Leaf*> leaves;
  for (int i = 0; i < kBlocks; ++i) {
    leaves.push_back(TypeParam::make_leaf(ctx, static_cast<std::uint64_t>(i),
                                          std::uint64_t{0}));
  }
  std::uint32_t most = 0;
  for (auto* leaf : leaves) {
    ctx.retire(leaf);
    const std::uint32_t held =
        att.recycle_bins()->held(sizeof(typename TestFixture::Leaf));
    most = std::max(most, held);
  }
  EXPECT_EQ(most, RecycleBins::kCap);
}

TYPED_TEST(RecycleTest, ThrowingValueCopyLeaksNothing) {
  // Updates copy values into fresh nodes (the sibling leaf of an EFRB
  // insert, the chromatic leaf and rebalancing copies). When such a copy
  // throws after other nodes of the same attempt were made, the op must
  // free those too; nothing may stay on the heap once the tree is gone.
  using Tree = typename TypeParam::template Tree<Fragile>;
  const std::int64_t baseline = live_bytes();
  int throws = 0;
  {
    Tree tree;
    auto h = tree.handle();
    Xoshiro256 rng(0xf7a9u);
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t k = rng.next() % 512;
      Fragile::copies_left = i % 4;
      try {
        if (i % 3 == 2) {
          h.erase(k);
        } else {
          h.insert(k, Fragile(k));
        }
      } catch (const Boom&) {
        ++throws;
      }
    }
    Fragile::copies_left = -1;
    h.flush();
  }
  EXPECT_GT(throws, 0);
  EXPECT_EQ(live_bytes(), baseline);
}

TYPED_TEST(RecycleTest, FlushRestartsTheSweepSchedule) {
  // A retire list sweeps every retire_batch entries. After a flush empties
  // it, the next batch must sweep on that schedule again: a trigger left at
  // the old backlog's size lets an identical second round grow the list,
  // and its vector, past the first round's high-water mark.
  EpochReclaimer rec(4, /*retire_batch=*/8);
  auto att = rec.attach();
  auto ctx = Ctx::attached(att, nullptr, nullptr);
  TestFixture::make_and_retire(ctx, 256);
  att.flush();
  const std::int64_t after_first = live_bytes();
  TestFixture::make_and_retire(ctx, 256);
  att.flush();
  EXPECT_EQ(live_bytes(), after_first);
}

TYPED_TEST(RecycleTest, ParityOracleUnderConcurrentChurn) {
  // Presence of key k after quiescence == successful flips of k mod 2. Every
  // Handle reuses its own swept blocks, so a block recycled while another
  // thread can still reach it breaks the oracle (and trips ASan/TSan).
  using Tree = typename TestFixture::Tree;
  Tree t;
  constexpr std::uint64_t kKeys = 128;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::atomic<std::uint64_t>> flips(kKeys);
  run_threads(6, [&](std::size_t tid) {
    auto h = t.handle();
    Xoshiro256 rng(tid * 77 + 1);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const std::uint64_t k = rng.next() % kKeys;
      if (rng.next() % 2 == 0) {
        if (h.insert(k, k)) flips[k].fetch_add(1, std::memory_order_relaxed);
      } else {
        if (h.erase(k)) flips[k].fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(t.contains(k), flips[k].load() % 2 == 1) << "key " << k;
  }
  EXPECT_TRUE(t.validate().ok);
}

TEST(RecycleStallTest, StalledDeleterDoesNotCorruptRecycling) {
  // Thread 1 first fills its bins by churning. Then thread 0 deletes key 10
  // and is parked, pinned, immediately before its dunflag CAS; thread 1
  // keeps churning, drawing on its bins, the whole time: its Handle must
  // never hand out a block that is still reachable. Released at the end;
  // the oracle and a structural validation close the case.
  inject::FaultPlan plan;
  inject::FaultAction stall;
  stall.kind = inject::FaultKind::kStall;
  stall.tid = 0;
  stall.point = static_cast<int>(HookPoint::kBeforeDUnflag);
  stall.occurrence = 1;
  plan.actions.push_back(stall);

  EfrbTreeSet<int, std::less<int>, EpochReclaimer, inject::InjectTraits> t;
  for (int i = 0; i < 64; ++i) t.insert(i);

  inject::FaultScheduler sched(plan);
  std::atomic<bool> warmed{false};
  std::atomic<bool> deleter_done{false};
  run_threads(2, [&](std::size_t tid) {
    typename inject::FaultScheduler::ThreadScope scope(
        sched, static_cast<unsigned>(tid));
    auto h = t.handle();
    if (tid == 0) {
      while (!warmed.load()) std::this_thread::yield();
      EXPECT_TRUE(h.erase(10));  // parks at kBeforeDUnflag
      deleter_done.store(true);
    } else {
      for (int round = 0; round < 16; ++round) {
        for (int i = 100; i < 164; ++i) h.insert(i);
        for (int i = 100; i < 164; ++i) h.erase(i);
      }
      warmed.store(true);
      EXPECT_TRUE(sched.wait_until_stalled(0));
      // Churn while the deleter is frozen holding unswept nodes.
      for (int round = 0; round < 100; ++round) {
        for (int i = 100; i < 164; ++i) h.insert(i);
        for (int i = 100; i < 164; ++i) h.erase(i);
      }
      EXPECT_FALSE(deleter_done.load());
      sched.release_all();
    }
  });
  EXPECT_FALSE(t.contains(10));
  for (int i = 0; i < 64; ++i) {
    if (i != 10) {
      EXPECT_TRUE(t.contains(i)) << "key " << i;
    }
  }
  EXPECT_TRUE(t.validate().ok) << t.validate().error;
}

TYPED_TEST(RecycleTest, MovedHandleKeepsItsBins) {
  typename TestFixture::Tree tree;
  auto h = tree.handle();
  TestFixture::churn(h, 4);
  auto moved = std::move(h);
  // The churn ran the bins up to their steady state, where every cycle is
  // served from them; a move that dropped them would send the next cycles
  // to the heap until later sweeps refill a new set.
  constexpr std::uint64_t kCycles = 8;
  const std::uint64_t allocs = thread_allocs();
  for (std::uint64_t k = 1; k < 2 * kCycles; k += 2) {
    moved.insert(k, k);
    moved.erase(k);
  }
  EXPECT_EQ(thread_allocs() - allocs, 0u);
  EXPECT_TRUE(tree.validate().ok);
}

TYPED_TEST(RecycleTest, ErasedNodesFeedTheNextInserts) {
  // A cold Handle's inserts all come from the heap. Once a Handle has erased
  // a few hundred keys, its sweeps have binned those nodes, and inserts of
  // keys it has never seen draw on them instead.
  using Tree = typename TestFixture::Tree;
  constexpr std::uint64_t kFresh = 32;
  const auto fresh_insert_allocs = [](typename Tree::Handle& h) {
    const std::uint64_t allocs = thread_allocs();
    for (std::uint64_t k = 0; k < kFresh; ++k) {
      EXPECT_TRUE(h.insert(1'000'000 + k, k));
    }
    return thread_allocs() - allocs;
  };
  Tree cold_tree;
  auto cold = cold_tree.handle();
  EXPECT_GE(fresh_insert_allocs(cold), kFresh);

  Tree tree;
  auto h = tree.handle();
  for (std::uint64_t k = 0; k < TestFixture::kKeys; ++k) h.insert(k, k);
  for (std::uint64_t k = 0; k < TestFixture::kKeys; ++k) h.erase(k);
  EXPECT_EQ(fresh_insert_allocs(h), 0u);
  EXPECT_TRUE(tree.validate().ok);
}

TYPED_TEST(RecycleTest, SteadyChurnStopsGrowingTheHeap) {
  // Insert and erase the same 32 keys round after round through one Handle;
  // a round's nodes stay well inside one bin's cap. Once warm, every node an insert needs comes out of a bin that an
  // earlier erase filled: the rounds make no heap allocation, and the
  // heap's high-water mark stops rising.
  typename TestFixture::Tree tree;
  auto h = tree.handle();
  const auto rounds = [&](int n) {
    std::int64_t high = 0;
    for (int r = 0; r < n; ++r) {
      for (std::uint64_t k = 0; k < 32; ++k) h.insert(k, k);
      high = std::max(high, live_bytes());
      for (std::uint64_t k = 0; k < 32; ++k) h.erase(k);
      high = std::max(high, live_bytes());
    }
    return high;
  };
  const std::int64_t warm = rounds(50);
  const std::uint64_t allocs = thread_allocs();
  EXPECT_LE(rounds(50), warm);
  EXPECT_EQ(thread_allocs() - allocs, 0u);
  EXPECT_TRUE(tree.validate().ok);
}

TYPED_TEST(RecycleTest, HandleAndTreeLevelOpsAgreeWithAnOracle) {
  // The same op stream runs through a Handle, whose nodes come from its
  // bins, and through tree-level calls, which always use new/delete. Both
  // must answer exactly as a std::map does.
  using Tree = typename TestFixture::Tree;
  Tree handle_tree;
  Tree plain_tree;
  std::map<std::uint64_t, std::uint64_t> oracle;
  auto h = handle_tree.handle();
  Xoshiro256 rng(0xa110cu);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t k = rng.next() % 512;
    const std::uint64_t v = rng.next() % 100;
    switch (rng.next() % 6) {
      case 0: {
        const bool inserted = oracle.emplace(k, v).second;
        EXPECT_EQ(h.insert(k, v), inserted);
        EXPECT_EQ(plain_tree.insert(k, v), inserted);
        break;
      }
      case 1: {
        const bool inserted = oracle.insert_or_assign(k, v).second;
        EXPECT_EQ(h.insert_or_assign(k, v), inserted);
        EXPECT_EQ(plain_tree.insert_or_assign(k, v), inserted);
        break;
      }
      case 2: {
        const auto it = oracle.find(k);
        const std::uint64_t expected = it == oracle.end() ? v : it->second;
        const bool replaced = it != oracle.end();
        if (replaced) it->second = v + 1;
        EXPECT_EQ(h.replace(k, expected, v + 1), replaced);
        EXPECT_EQ(plain_tree.replace(k, expected, v + 1), replaced);
        break;
      }
      case 3: {
        const bool erased = oracle.erase(k) != 0;
        EXPECT_EQ(h.erase(k), erased);
        EXPECT_EQ(plain_tree.erase(k), erased);
        break;
      }
      default: {
        const auto it = oracle.find(k);
        const std::optional<std::uint64_t> want =
            it == oracle.end() ? std::nullopt
                               : std::optional<std::uint64_t>(it->second);
        EXPECT_EQ(h.get(k), want) << "handle get(" << k << ")";
        EXPECT_EQ(plain_tree.get(k), want) << "tree-level get(" << k << ")";
        break;
      }
    }
  }
  EXPECT_TRUE(handle_tree.validate().ok) << handle_tree.validate().error;
  EXPECT_TRUE(plain_tree.validate().ok) << plain_tree.validate().error;
}

TYPED_TEST(RecycleTest, ConcurrentHandlesLeaveNothingOnTheHeap) {
  // Four Handles churn overlapping keys. A sweep may bin a block another
  // Handle retired (orphans of a detached slot are adopted by whoever sweeps
  // next), so blocks cross between bins. Once the threads, their Handles and
  // the tree are gone, every block must be back on the heap exactly once,
  // with the size it was allocated with. Only Handles touch the tree: a
  // tree-level call would lease this thread a slot, and the lease keeps the
  // reclaimer's registry, orphans included, alive until the thread exits.
  const std::int64_t baseline = live_bytes();
  const std::uint64_t mismatches = size_mismatches();
  {
    typename TestFixture::Tree tree;
    run_threads(4, [&](std::size_t tid) {
      auto h = tree.handle();
      Xoshiro256 rng(tid * 131 + 7);
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = rng.next() % 256;
        if (rng.next() % 2 == 0) {
          h.insert(k, k);
        } else {
          h.erase(k);
        }
      }
    });
  }
  EXPECT_EQ(size_mismatches(), mismatches);
  EXPECT_EQ(live_bytes(), baseline);
}

// ---------------------------------------------------------------------------
// RecycleBins on its own
// ---------------------------------------------------------------------------

/// A block from the counted heap, as `new` would hand one to a node.
void* raw_block(std::size_t n) { return ::operator new(n); }

TEST(RecycleBinsTest, PutThenTakeReusesTheBlockLifo) {
  RecycleBins bins;
  void* a = raw_block(48);
  void* b = raw_block(48);
  EXPECT_TRUE(bins.put(a, 48));
  EXPECT_TRUE(bins.put(b, 48));
  EXPECT_EQ(bins.held(48), 2u);
  EXPECT_EQ(bins.take(48), b);
  EXPECT_EQ(bins.take(48), a);
  EXPECT_EQ(bins.take(48), nullptr);
  EXPECT_EQ(bins.held(48), 0u);
  ::operator delete(a, 48);
  ::operator delete(b, 48);
}

TEST(RecycleBinsTest, TakeServesOnlyTheExactSize) {
  RecycleBins bins;
  void* a = raw_block(48);
  ASSERT_TRUE(bins.put(a, 48));
  EXPECT_EQ(bins.take(40), nullptr);
  EXPECT_EQ(bins.take(56), nullptr);
  EXPECT_EQ(bins.held(40), 0u);
  EXPECT_EQ(bins.take(48), a);
  ::operator delete(a, 48);
}

TEST(RecycleBinsTest, SizesBeyondTheClassCountAreRefused) {
  // Each of the kClasses bins is claimed by the first size put into it and
  // keeps that size, even once emptied; a further size finds no bin.
  const std::uint64_t mismatches = size_mismatches();
  RecycleBins bins;
  std::vector<std::size_t> sizes;
  for (std::size_t c = 0; c < RecycleBins::kClasses; ++c) {
    sizes.push_back(16 + 8 * c);
  }
  for (std::size_t n : sizes) EXPECT_TRUE(bins.put(raw_block(n), n));
  const std::size_t extra = 16 + 8 * RecycleBins::kClasses;
  void* p = raw_block(extra);
  EXPECT_FALSE(bins.put(p, extra));
  EXPECT_EQ(bins.held(extra), 0u);

  void* q = bins.take(sizes[0]);
  ASSERT_NE(q, nullptr);
  EXPECT_FALSE(bins.put(p, extra));  // the emptied class stays claimed
  EXPECT_TRUE(bins.put(q, sizes[0]));
  ::operator delete(p, extra);
  EXPECT_EQ(size_mismatches(), mismatches);
}

TEST(RecycleBinsTest, DestructionFreesEveryHeldBlockWithItsSize) {
  const std::int64_t baseline = live_bytes();
  const std::uint64_t mismatches = size_mismatches();
  {
    RecycleBins bins;
    for (std::size_t n : {24u, 40u, 48u}) {
      for (int i = 0; i < 10; ++i) ASSERT_TRUE(bins.put(raw_block(n), n));
    }
    EXPECT_EQ(bins.held(40), 10u);
    EXPECT_GT(live_bytes(), baseline);
  }
  EXPECT_EQ(live_bytes(), baseline);
  EXPECT_EQ(size_mismatches(), mismatches);
}

struct Tracked {
  static inline int destroyed = 0;
  std::uint64_t words[3] = {};
  ~Tracked() { ++destroyed; }
};
struct alignas(64) OverAligned {
  std::uint64_t word = 0;
};
struct OpaqueBase {
  virtual ~OpaqueBase() = default;
  std::uint64_t word = 0;
};

TEST(RecycleBinsTest, RecycleDestroysWhatItKeepsAndDeclinesTheRest) {
  static_assert(kRecyclable<Tracked>);
  static_assert(!kRecyclable<OverAligned>);  // not from plain new
  static_assert(!kRecyclable<OpaqueBase>);   // its block size is unknown
  RecycleBins bins;

  Tracked::destroyed = 0;
  auto* t = new Tracked;
  EXPECT_TRUE(bins.recycle(t));
  EXPECT_EQ(Tracked::destroyed, 1);
  EXPECT_EQ(bins.held(sizeof(Tracked)), 1u);
  EXPECT_EQ(bins.take(sizeof(Tracked)), static_cast<void*>(t));
  ::operator delete(t, sizeof(Tracked));

  auto* o = new OverAligned;
  EXPECT_FALSE(bins.recycle(o));
  EXPECT_EQ(bins.held(sizeof(OverAligned)), 0u);
  delete o;

  auto* b = new OpaqueBase;
  EXPECT_FALSE(bins.recycle(b));
  EXPECT_EQ(b->word, 0u);  // declined objects are left alive
  delete b;
}

}  // namespace
}  // namespace efrb
