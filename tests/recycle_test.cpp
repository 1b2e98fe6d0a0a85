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
//   * a bin never holds more than its cap;
//   * a moved Handle keeps its bins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/chromatic.hpp"
#include "core/efrb_tree.hpp"
#include "core/op_context.hpp"
#include "counting_new.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/recycle.hpp"

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

}  // namespace
}  // namespace efrb
