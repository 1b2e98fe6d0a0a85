// Operations that change nothing must allocate nothing. This binary replaces
// the global operator new/delete with counting versions (counting_new.hpp),
// warms a Handle, and counts the heap allocations each operation makes on
// the calling thread: a duplicate insert, an erase miss, contains and get
// make none on either tree. A warm Handle's insert/erase cycle is built from
// recycled blocks, so the positive control is a fresh Handle's first insert,
// which has nothing to recycle yet.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "core/chromatic.hpp"
#include "core/efrb_tree.hpp"
#include "counting_new.hpp"

namespace efrb {
namespace {

/// Heap allocations the calling thread makes while running f.
template <typename F>
std::uint64_t allocs_during(F&& f) {
  const std::uint64_t before = counting_new::thread_allocs();
  f();
  return counting_new::thread_allocs() - before;
}

template <typename Tree>
class ZeroAllocTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kKeys = 512;

  void SetUp() override {
    // Even keys are present, odd keys absent. A few hundred updates and
    // lookups first, so the reclaimer's per-thread state and retire lists
    // have reached their working size before anything is counted.
    for (std::uint64_t k = 0; k < 2 * kKeys; k += 2) h_.insert(k, k);
    for (std::uint64_t k = 1; k < 2 * kKeys; k += 2) {
      h_.insert(k, k);
      h_.erase(k);
      h_.insert(k - 1, 0);
      h_.erase(k);
      (void)h_.contains(k);
      (void)h_.get(k - 1);
    }
  }

  Tree tree_;
  typename Tree::Handle h_ = tree_.handle();
};

using Trees =
    ::testing::Types<EfrbTreeMap<std::uint64_t, std::uint64_t>,
                     ChromaticTreeMap<std::uint64_t, std::uint64_t>>;
TYPED_TEST_SUITE(ZeroAllocTest, Trees);

TYPED_TEST(ZeroAllocTest, DuplicateInsertAllocatesNothing) {
  auto& h = this->h_;
  bool inserted = true;
  EXPECT_EQ(allocs_during([&] { inserted = h.insert(10, 99); }), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(h.get(10), std::optional<std::uint64_t>(10));
}

TYPED_TEST(ZeroAllocTest, EraseMissAllocatesNothing) {
  auto& h = this->h_;
  bool erased = true;
  EXPECT_EQ(allocs_during([&] { erased = h.erase(11); }), 0u);
  EXPECT_FALSE(erased);
}

TYPED_TEST(ZeroAllocTest, LookupsAllocateNothing) {
  auto& h = this->h_;
  bool hit = false, miss = true;
  std::optional<std::uint64_t> got, none;
  EXPECT_EQ(allocs_during([&] {
              hit = h.contains(20);
              miss = h.contains(21);
              got = h.get(30);
              none = h.get(31);
            }),
            0u);
  EXPECT_TRUE(hit);
  EXPECT_FALSE(miss);
  EXPECT_EQ(got, std::optional<std::uint64_t>(30));
  EXPECT_EQ(none, std::nullopt);
}

TYPED_TEST(ZeroAllocTest, FreshInsertAllocates) {
  // The counter's positive control: a Handle that has retired nothing yet
  // has no recycled blocks, so its first structural insert builds new nodes
  // on the heap.
  auto fresh = this->tree_.handle();
  bool inserted = false;
  EXPECT_GT(allocs_during([&] { inserted = fresh.insert(13, 13); }), 0u);
  EXPECT_TRUE(inserted);
}

TYPED_TEST(ZeroAllocTest, WarmInsertEraseCycleIsRecycled) {
  // A warm Handle's sweeps have binned the blocks its earlier operations
  // retired; the nodes and records of a new insert/erase pair come from
  // those bins, not from the heap. Until the bins have caught up with the
  // two-epoch lag between retire and reuse, some cycles still allocate, so
  // the cycle is first repeated well past that (about 100 cycles here).
  auto& h = this->h_;
  for (int i = 0; i < 512; ++i) {
    h.insert(13, 13);
    h.erase(13);
  }
  bool inserted = false, erased = false;
  EXPECT_EQ(allocs_during([&] {
              inserted = h.insert(13, 13);
              erased = h.erase(13);
            }),
            0u);
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(erased);
}

}  // namespace
}  // namespace efrb
