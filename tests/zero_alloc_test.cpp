// Operations that change nothing must allocate nothing. This binary replaces
// the global operator new/delete with counting versions, warms a Handle, and
// counts the heap allocations each operation makes on the calling thread: a
// duplicate insert, an erase miss, contains and get make none on either
// tree; a fresh insert makes some (the counter itself is live).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "core/chromatic.hpp"
#include "core/efrb_tree.hpp"

namespace {

thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, n == 0 ? a : (n + a - 1) & ~(a - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
// The matching deletes: memory from malloc goes back through free (a
// sanitizer runtime's own delete would flag the mismatch).
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace efrb {
namespace {

/// Heap allocations the calling thread makes while running f.
template <typename F>
std::uint64_t allocs_during(F&& f) {
  const std::uint64_t before = t_allocs;
  f();
  return t_allocs - before;
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
  // The counter's positive control: a structural insert builds new nodes.
  auto& h = this->h_;
  bool inserted = false;
  EXPECT_GT(allocs_during([&] { inserted = h.insert(13, 13); }), 0u);
  EXPECT_TRUE(inserted);
}

}  // namespace
}  // namespace efrb
