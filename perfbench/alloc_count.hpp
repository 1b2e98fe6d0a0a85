// Exact heap accounting for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete family, in this
// binary only. Every allocation adds its requested size to a per-thread
// counter slot and every deallocation subtracts it again (the sized delete
// overloads carry the size; the rare unsized delete falls back to
// malloc_usable_size and is counted separately, so a reader can tell whether
// the byte count is exact). Slots are single-writer and never reused, so the
// sum over all slots is exact at any quiescent point, including the
// allocations of threads that have already exited.
#pragma once

#include <cstdint>

namespace perfbench {

struct HeapCounts {
  std::int64_t live_bytes = 0;      // requested bytes not yet freed
  std::uint64_t unsized_frees = 0;  // frees whose size had to be guessed
};

/// Sum over every thread that has ever allocated. Exact only when no other
/// thread is allocating concurrently.
HeapCounts heap_counts() noexcept;

/// The calling thread's own allocation count (cheap: one thread-local read).
std::uint64_t thread_allocs() noexcept;

}  // namespace perfbench
