#include "alloc_count.hpp"

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr int kMaxSlots = 1024;

struct alignas(64) Slot {
  // Written only by the owning thread (relaxed load + store, no RMW), read by
  // heap_counts() from any thread.
  std::atomic<std::int64_t> live_bytes{0};
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> unsized_frees{0};
};

Slot g_slots[kMaxSlots];
std::atomic<int> g_next_slot{0};
// Threads beyond kMaxSlots share one slot through atomic RMW.
Slot g_overflow;

thread_local Slot* tls_slot = nullptr;

Slot& my_slot() noexcept {
  if (tls_slot == nullptr) {
    const int i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    tls_slot = i < kMaxSlots ? &g_slots[i] : &g_overflow;
  }
  return *tls_slot;
}

void bump(std::atomic<std::int64_t>& c, std::int64_t d, bool shared) noexcept {
  if (shared) {
    c.fetch_add(d, std::memory_order_relaxed);
  } else {
    c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
}

void bump(std::atomic<std::uint64_t>& c, bool shared) noexcept {
  if (shared) {
    c.fetch_add(1, std::memory_order_relaxed);
  } else {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
}

void note_alloc(std::size_t n) noexcept {
  Slot& s = my_slot();
  const bool shared = &s == &g_overflow;
  bump(s.live_bytes, static_cast<std::int64_t>(n), shared);
  bump(s.allocs, shared);
}

void note_free(void* p, std::size_t n, bool sized) noexcept {
  if (p == nullptr) return;
  Slot& s = my_slot();
  const bool shared = &s == &g_overflow;
  if (!sized) {
    n = malloc_usable_size(p);
    bump(s.unsized_frees, shared);
  }
  bump(s.live_bytes, -static_cast<std::int64_t>(n), shared);
}

// Mirrors libstdc++'s default operator new: retry through the new_handler,
// throw bad_alloc when there is none.
void* raw_alloc(std::size_t n) {
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

// Mirrors libstdc++'s default aligned operator new (size rounded up to the
// alignment, then aligned_alloc), so node placement matches a normal build.
void* raw_alloc_aligned(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  if (n == 0) n = 1;
  n = (n + a - 1) & ~(a - 1);
  for (;;) {
    if (void* p = std::aligned_alloc(a, n)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

}  // namespace

HeapCounts heap_counts() noexcept {
  HeapCounts c;
  const int used = g_next_slot.load(std::memory_order_relaxed);
  auto add = [&c](const Slot& s) {
    c.live_bytes += s.live_bytes.load(std::memory_order_relaxed);
    c.unsized_frees += s.unsized_frees.load(std::memory_order_relaxed);
  };
  for (int i = 0; i < used && i < kMaxSlots; ++i) add(g_slots[i]);
  add(g_overflow);
  return c;
}

std::uint64_t thread_allocs() noexcept {
  return my_slot().allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench

using perfbench::note_alloc;
using perfbench::note_free;
using perfbench::raw_alloc;
using perfbench::raw_alloc_aligned;

void* operator new(std::size_t n) {
  void* p = raw_alloc(n);
  note_alloc(n);
  return p;
}
void* operator new[](std::size_t n) {
  void* p = raw_alloc(n);
  note_alloc(n);
  return p;
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return operator new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return operator new[](n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  void* p = raw_alloc_aligned(n, al);
  note_alloc(n);
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  void* p = raw_alloc_aligned(n, al);
  note_alloc(n);
  return p;
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return operator new(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  try {
    return operator new[](n, al);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept {
  note_free(p, 0, false);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  note_free(p, 0, false);
  std::free(p);
}
void operator delete(void* p, std::size_t n) noexcept {
  note_free(p, n, true);
  std::free(p);
}
void operator delete[](void* p, std::size_t n) noexcept {
  note_free(p, n, true);
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete[](p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  note_free(p, 0, false);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  note_free(p, 0, false);
  std::free(p);
}
void operator delete(void* p, std::size_t n, std::align_val_t) noexcept {
  note_free(p, n, true);
  std::free(p);
}
void operator delete[](void* p, std::size_t n, std::align_val_t) noexcept {
  note_free(p, n, true);
  std::free(p);
}
void operator delete(void* p, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  operator delete(p, al);
}
void operator delete[](void* p, std::align_val_t al,
                       const std::nothrow_t&) noexcept {
  operator delete[](p, al);
}
