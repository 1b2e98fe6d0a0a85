// Counting replacements of the global operator new/delete family, for test
// binaries that assert on heap traffic. Include this header in exactly one
// translation unit of a binary: it defines the replaceable functions.
//
// Every block carries a 16-byte header (more for over-aligned requests) with
// its requested size, so a free is counted exactly and a sized delete whose
// size differs from the allocation's is recorded as a mismatch. Blocks come
// from malloc/aligned_alloc and go back through free, so a sanitizer
// runtime still sees every allocation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace counting_new {

inline thread_local std::uint64_t t_allocs = 0;
inline std::atomic<std::int64_t> g_live_bytes{0};
inline std::atomic<std::uint64_t> g_size_mismatches{0};

/// Heap allocations made so far by the calling thread.
inline std::uint64_t thread_allocs() noexcept { return t_allocs; }
/// Requested bytes allocated and not yet freed, over all threads.
inline std::int64_t live_bytes() noexcept {
  return g_live_bytes.load(std::memory_order_relaxed);
}
/// Sized deletes whose size differed from the size the block was made with.
inline std::uint64_t size_mismatches() noexcept {
  return g_size_mismatches.load(std::memory_order_relaxed);
}

namespace detail {

struct Header {
  std::size_t size;  // requested bytes
  std::size_t pad;   // user pointer - raw pointer
};
static_assert(sizeof(Header) == 16);

inline constexpr std::size_t kUnsized = ~std::size_t{0};

inline void* alloc(std::size_t n, std::size_t align) {
  const std::size_t pad = align > sizeof(Header) ? align : sizeof(Header);
  void* raw = align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__
                  ? std::malloc(pad + n)
                  : std::aligned_alloc(align, (pad + n + align - 1) &
                                                  ~(align - 1));
  if (raw == nullptr) throw std::bad_alloc();
  char* user = static_cast<char*>(raw) + pad;
  Header* h = reinterpret_cast<Header*>(user) - 1;
  h->size = n;
  h->pad = pad;
  ++t_allocs;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n),
                         std::memory_order_relaxed);
  return user;
}

inline void release(void* p, std::size_t n) noexcept {
  if (p == nullptr) return;
  const Header* h = static_cast<const Header*>(p) - 1;
  if (n != kUnsized && n != h->size) {
    g_size_mismatches.fetch_add(1, std::memory_order_relaxed);
  }
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(h->size),
                         std::memory_order_relaxed);
  std::free(static_cast<char*>(p) - h->pad);
}

inline void* alloc_nothrow(std::size_t n, std::size_t align) noexcept {
  try {
    return alloc(n, align);
  } catch (...) {
    return nullptr;
  }
}

inline constexpr std::size_t kDefault = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

}  // namespace detail
}  // namespace counting_new

void* operator new(std::size_t n) {
  return counting_new::detail::alloc(n, counting_new::detail::kDefault);
}
void* operator new[](std::size_t n) {
  return counting_new::detail::alloc(n, counting_new::detail::kDefault);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counting_new::detail::alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counting_new::detail::alloc(n, static_cast<std::size_t>(al));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counting_new::detail::alloc_nothrow(n, counting_new::detail::kDefault);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counting_new::detail::alloc_nothrow(n, counting_new::detail::kDefault);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counting_new::detail::alloc_nothrow(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counting_new::detail::alloc_nothrow(n, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept {
  counting_new::detail::release(p, counting_new::detail::kUnsized);
}
void operator delete[](void* p) noexcept {
  counting_new::detail::release(p, counting_new::detail::kUnsized);
}
void operator delete(void* p, std::size_t n) noexcept {
  counting_new::detail::release(p, n);
}
void operator delete[](void* p, std::size_t n) noexcept {
  counting_new::detail::release(p, n);
}
void operator delete(void* p, std::align_val_t) noexcept {
  counting_new::detail::release(p, counting_new::detail::kUnsized);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  counting_new::detail::release(p, counting_new::detail::kUnsized);
}
void operator delete(void* p, std::size_t n, std::align_val_t) noexcept {
  counting_new::detail::release(p, n);
}
void operator delete[](void* p, std::size_t n, std::align_val_t) noexcept {
  counting_new::detail::release(p, n);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counting_new::detail::release(p, counting_new::detail::kUnsized);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counting_new::detail::release(p, counting_new::detail::kUnsized);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counting_new::detail::release(p, counting_new::detail::kUnsized);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counting_new::detail::release(p, counting_new::detail::kUnsized);
}
