// Tests for the packed update word (state + Info pointer in one CAS word) —
// the Fig. 5/7 memory layout: "Fields separated by dotted lines are stored in
// a single word."
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "core/chromatic.hpp"
#include "core/layout.hpp"

namespace efrb {
namespace {

struct FakeInfo : Info {
  int payload = 0;
};

TEST(UpdateTest, DefaultIsCleanNull) {
  Update u;
  EXPECT_EQ(u.state(), UpdateState::kClean);
  EXPECT_EQ(u.info(), nullptr);
  EXPECT_EQ(u.bits(), 0u);
}

TEST(UpdateTest, PackUnpackRoundTripsAllStates) {
  FakeInfo info;
  for (UpdateState s : {UpdateState::kClean, UpdateState::kDFlag,
                        UpdateState::kIFlag, UpdateState::kMark}) {
    const Update u = Update::make(s, &info);
    EXPECT_EQ(u.state(), s);
    EXPECT_EQ(u.info(), &info);
  }
}

TEST(UpdateTest, StateLivesInLowTwoBits) {
  FakeInfo info;
  const Update u = Update::make(UpdateState::kMark, &info);
  EXPECT_EQ(u.bits() & 0x3, static_cast<std::uintptr_t>(UpdateState::kMark));
  EXPECT_EQ(u.bits() & ~std::uintptr_t{0x3},
            reinterpret_cast<std::uintptr_t>(&info));
}

TEST(UpdateTest, EqualityIsStateAndPointer) {
  FakeInfo a, b;
  EXPECT_EQ(Update::make(UpdateState::kIFlag, &a),
            Update::make(UpdateState::kIFlag, &a));
  EXPECT_NE(Update::make(UpdateState::kIFlag, &a),
            Update::make(UpdateState::kDFlag, &a));
  EXPECT_NE(Update::make(UpdateState::kIFlag, &a),
            Update::make(UpdateState::kIFlag, &b));
}

TEST(UpdateTest, InfoAlignmentLeavesTagBitsFree) {
  // The packing requires 4-byte-aligned Info records; the virtual table
  // pointer forces at least pointer alignment.
  static_assert(alignof(FakeInfo) >= 4);
  auto* p = new FakeInfo;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) & 0x3, 0u);
  delete p;
}

TEST(AtomicUpdateTest, IsSingleWord) {
  // The paper's premise: state+info fit one CAS-able machine word (§3).
  static_assert(sizeof(AtomicUpdate) == sizeof(void*));
  AtomicUpdate au;
  EXPECT_TRUE(std::atomic<std::uintptr_t>{}.is_lock_free());
}

TEST(AtomicUpdateTest, InitiallyCleanNull) {
  AtomicUpdate au;
  EXPECT_EQ(au.load(), Update{});
}

TEST(AtomicUpdateTest, SuccessfulCas) {
  AtomicUpdate au;
  FakeInfo info;
  Update expected;  // {Clean, null}
  EXPECT_TRUE(au.compare_exchange(expected,
                                  Update::make(UpdateState::kIFlag, &info)));
  EXPECT_EQ(au.load().state(), UpdateState::kIFlag);
  EXPECT_EQ(au.load().info(), &info);
}

TEST(AtomicUpdateTest, FailedCasReturnsWitnessedValue) {
  AtomicUpdate au;
  FakeInfo real, stale;
  Update e0;
  ASSERT_TRUE(au.compare_exchange(e0, Update::make(UpdateState::kDFlag, &real)));

  Update expected = Update::make(UpdateState::kClean, &stale);
  EXPECT_FALSE(au.compare_exchange(expected,
                                   Update::make(UpdateState::kMark, &stale)));
  // The refreshed expected is exactly what Help() needs (paper line 61/85).
  EXPECT_EQ(expected, Update::make(UpdateState::kDFlag, &real));
}

TEST(AtomicUpdateTest, CasDistinguishesSameInfoDifferentState) {
  // iunflag CAS semantics: (IFlag, op) -> (Clean, op). A stale (Clean, op)
  // expectation must fail even though the pointer matches.
  AtomicUpdate au;
  FakeInfo op;
  Update e;
  ASSERT_TRUE(au.compare_exchange(e, Update::make(UpdateState::kIFlag, &op)));

  Update wrong = Update::make(UpdateState::kClean, &op);
  EXPECT_FALSE(au.compare_exchange(wrong, Update::make(UpdateState::kMark, &op)));

  Update right = Update::make(UpdateState::kIFlag, &op);
  EXPECT_TRUE(au.compare_exchange(right, Update::make(UpdateState::kClean, &op)));
  EXPECT_EQ(au.load(), Update::make(UpdateState::kClean, &op));
}

// ---------------------------------------------------------------------------
// Heap layout: every node and record type is allocated by plain `new`, which
// takes the allocator's aligned path (no per-thread cache, per-object
// padding) for any type aligned above the default new alignment.
// ---------------------------------------------------------------------------

using EfrbLayout = TreeLayout<std::uint64_t, std::uint64_t>;
using ChromLayout = ChromaticLayout<std::uint64_t, std::uint64_t>;
constexpr std::size_t kNewAlign = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

TEST(HeapLayoutTest, NoTypeIsOverAligned) {
  EXPECT_LE(alignof(EfrbLayout::Leaf), kNewAlign);
  EXPECT_LE(alignof(EfrbLayout::Internal), kNewAlign);
  EXPECT_LE(alignof(EfrbLayout::IInfo), kNewAlign);
  EXPECT_LE(alignof(EfrbLayout::DInfo), kNewAlign);
  EXPECT_LE(alignof(ChromLayout::Node), kNewAlign);
  EXPECT_LE(alignof(ChromLayout::Rec), kNewAlign);
}

TEST(HeapLayoutTest, EfrbNodesAreUnpadded) {
  // For <uint64_t, uint64_t>: a 24 B node header (16 B bounded key + kind
  // flag), then the update word and two children (Internal) or the value
  // (Leaf), with no padding beyond natural alignment.
  EXPECT_LE(sizeof(EfrbLayout::Internal), 48u);
  EXPECT_LE(sizeof(EfrbLayout::Leaf), 32u);
}

TEST(HeapLayoutTest, HeapRecordsLeaveTagBitsFree) {
  // Odd-sized allocations between the records perturb the allocator's
  // placement; every record address must still have its two low bits clear.
  constexpr int kRounds = 10000;
  std::vector<void*> odd;
  std::vector<EfrbLayout::IInfo*> iinfos;
  std::vector<EfrbLayout::DInfo*> dinfos;
  std::vector<ChromLayout::Rec*> recs;
  auto tag_bits = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) & 0x3;
  };
  std::size_t dirty = 0;
  for (int i = 0; i < kRounds; ++i) {
    odd.push_back(::operator new(1 + 2 * static_cast<std::size_t>(i % 37)));
    switch (i % 3) {
      case 0:
        iinfos.push_back(new EfrbLayout::IInfo(nullptr, nullptr, nullptr));
        dirty += tag_bits(iinfos.back()) != 0;
        break;
      case 1:
        dinfos.push_back(
            new EfrbLayout::DInfo(nullptr, nullptr, nullptr, Update{}));
        dirty += tag_bits(dinfos.back()) != 0;
        break;
      default:
        recs.push_back(new ChromLayout::Rec);
        dirty += tag_bits(recs.back()) != 0;
        break;
    }
  }
  EXPECT_EQ(dirty, 0u);
  for (void* p : odd) ::operator delete(p);
  for (auto* p : iinfos) delete p;
  for (auto* p : dinfos) delete p;
  for (auto* p : recs) delete p;
}

}  // namespace
}  // namespace efrb
