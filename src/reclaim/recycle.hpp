// Heap recycle bins: the heap allocator's counterpart of the PoolHook.
//
// With the default heap allocator every retired node used to go back to the
// global allocator in sweeps of a whole retire batch, and every new node came
// from a fresh `new`. A RecycleBins object short-circuits that round-trip for
// one reclaimer attachment (one structure Handle): when the attachment's
// epoch sweep finds a retired object safe, it runs the object's destructor
// and keeps the raw block in an exact-size bin; the next OpContext::make<T>
// with sizeof(T) equal to that size pops the block and constructs in place.
//
// Safety: a block enters a bin only where it would otherwise have been
// deleted — after the reclaimer proved no thread can still reach it — so
// reusing it is exactly as safe as heap delete-then-new (which may hand back
// the same address too).
//
// Ownership and bounds:
//   * Owner-only. A bin is touched by the thread that owns the attachment and
//     by nobody else, so pushes and pops are plain pointer operations.
//   * kClasses exact sizes, kCap blocks each. A block whose size has no class
//     left, or whose class is full, takes the ordinary delete path.
//   * Blocks are returned to the heap with the size they were allocated with
//     (sized delete), when the owner flushes or detaches.
//
// Polymorphic records (the EFRB Info base) are retired through a base
// pointer, so sizeof(T) is not their allocation size. Such a type is binned
// only if it reports its dynamic size (`dynamic_size()`); any other
// polymorphic, non-final type keeps the delete path.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

#include "reclaim/reclaimer.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define EFRB_RECYCLE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EFRB_RECYCLE_ASAN 1
#endif
#endif
#ifdef EFRB_RECYCLE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace efrb {

/// Whether a retired or new T may live in a bin: its block came from plain
/// (not over-aligned) `new`, holds a link word, and its allocation size is
/// known from a T* — statically, or through dynamic_size() for a
/// polymorphic base.
template <typename T>
inline constexpr bool kRecyclable =
    sizeof(T) >= sizeof(void*) &&
    alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
    (!std::is_polymorphic_v<T> || std::is_final_v<T> ||
     requires(const T& x) {
       { x.dynamic_size() } -> std::convertible_to<std::size_t>;
     });

/// The size `new` was asked for when the object x was created.
template <typename T>
std::size_t block_size(const T& x) noexcept {
  if constexpr (std::is_polymorphic_v<T> && !std::is_final_v<T>) {
    return x.dynamic_size();
  } else {
    return sizeof(T);
  }
}

class RecycleBins {
 public:
  static constexpr std::size_t kClasses = 4;
  static constexpr std::uint32_t kCap = 256;

  RecycleBins() = default;
  RecycleBins(const RecycleBins&) = delete;
  RecycleBins& operator=(const RecycleBins&) = delete;
  ~RecycleBins() {
    for (Bin& b : bins_) {
      while (b.head != nullptr) ::operator delete(pop(b), b.size);
    }
  }

  /// A block of exactly n bytes, or null when that bin is empty.
  void* take(std::size_t n) noexcept {
    for (Bin& b : bins_) {
      if (b.size == n) return b.head != nullptr ? pop(b) : nullptr;
    }
    return nullptr;
  }

  /// Keep a block of n bytes whose object is already destroyed. Returns
  /// false, keeping nothing, when no bin has room for n.
  bool put(void* p, std::size_t n) noexcept {
    Bin* b = bin_with_room(n);
    if (b == nullptr) return false;
    push(*b, p, n);
    return true;
  }

  /// Destroy *p and keep its block, or do nothing and return false (the
  /// caller then deletes p as usual).
  template <typename T>
  bool recycle(T* p) noexcept {
    if constexpr (kRecyclable<T>) {
      const std::size_t n = block_size(*p);
      if (Bin* b = bin_with_room(n)) {
        p->~T();
        push(*b, p, n);
        return true;
      }
    }
    return false;
  }

  /// Blocks held for size n (for tests and gauges).
  std::uint32_t held(std::size_t n) const noexcept {
    for (const Bin& b : bins_) {
      if (b.size == n) return b.count;
    }
    return 0;
  }

 private:
  struct Link {
    Link* next;
  };
  struct Bin {
    Link* head = nullptr;
    std::uint32_t size = 0;  // 0: class not claimed yet
    std::uint32_t count = 0;
  };

  static void push(Bin& b, void* p, std::size_t n) noexcept {
    b.size = static_cast<std::uint32_t>(n);  // claims an unclaimed bin
    auto* link = static_cast<Link*>(p);
    link->next = b.head;
    b.head = link;
    ++b.count;
#ifdef EFRB_RECYCLE_ASAN
    // A stale reader of a binned block is a use-after-free; keep ASan seeing
    // it as one until the block is handed out again.
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
  }

  static void* pop(Bin& b) noexcept {
    Link* link = b.head;
#ifdef EFRB_RECYCLE_ASAN
    ASAN_UNPOISON_MEMORY_REGION(link, b.size);
#endif
    b.head = link->next;
    --b.count;
    return link;
  }

  /// The bin of size n if it has room, else an unclaimed bin, else null.
  Bin* bin_with_room(std::size_t n) noexcept {
    Bin* unclaimed = nullptr;
    for (Bin& b : bins_) {
      if (b.size == n) return b.count < kCap ? &b : nullptr;
      if (b.size == 0 && unclaimed == nullptr) unclaimed = &b;
    }
    return unclaimed;
  }

  Bin bins_[kClasses];
};

/// The epoch reclaimer's disposer: recycle into the sweeping attachment's
/// bins when it has them and no pool hook is installed, else
/// dispose_retired<T> (pool return or delete).
template <typename T>
inline void recycle_retired(void* q, const PoolHook& hook,
                            RecycleBins* bins) noexcept {
  if (bins != nullptr && !hook && bins->recycle(static_cast<T*>(q))) return;
  dispose_retired<T>(q, hook);
}

}  // namespace efrb
