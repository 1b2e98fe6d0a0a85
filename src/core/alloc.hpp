// The allocation layer: where nodes and Info records come from.
//
// The paper assumes a garbage-collected environment in which "nodes are
// always allocated new memory locations" (§4.1); PR 1-5 realized that with a
// bare `new` per node and a reclaimer `delete` per retire. This header makes
// the allocation step a pluggable policy:
//
//   * HeapAllocator — the default: create<T> is `new`, destroy<T> is
//     `delete`. Stateless, default-constructible, zero overhead. On the
//     Handle path OpContext::make/dispose first try the attachment's recycle
//     bins (reclaim/recycle.hpp): blocks the handle's own epoch sweeps kept
//     back, by exact size, instead of deleting them.
//   * BlockPool / ObjectPool — per-thread slab pools with free-list
//     recycling. Blocks are cache-line-aligned and uniformly sized (the
//     rounded-up max of the pooled types), so a recycled block can be reused
//     for ANY of the structure's node/record types without per-block type
//     bookkeeping, and the reclaimers can return a retired block through the
//     type-erased PoolHook (reclaim/reclaimer.hpp) after running its exact
//     destructor.
//
// Concurrency model of BlockPool (mirrors the reclaimer slot/lease design):
//   * Cache — a thread-affine handle holding a private free chain and a
//     private bump range carved from the newest slab. alloc/free through a
//     Cache touch no shared state at all on the fast path.
//   * global free list — a Treiber stack fed by (a) the reclaimers' pool
//     returns (PoolHook::fn pushes one block, lock-free) and (b) detached
//     caches flushing their chains. Consumed only by whole-list take-over
//     (exchange(nullptr)), which is immune to the classic Treiber pop ABA:
//     nobody ever pops one element while others push.
//   * slabs — chunks of kSlabBlocks blocks, allocated cache-line-aligned and
//     registered under a mutex (slab creation is the rare slow path). Slabs
//     are freed only by the pool State destructor, which runs when the last
//     keepalive reference (pool object, live Caches, reclaimer registries
//     holding the PoolHook) drops — so a block parked in a retire list or the
//     orphan store can always be safely returned, even after the structure
//     died.
//
// ABA note: recycling a block can hand a later create<T> the SAME address an
// earlier node had. This is precisely the hazard the reclaimers exist to
// rule out — a block reaches the free list only through retire(), i.e. only
// after the reclaimer proved no thread can still reach it — so pooled
// recycling is exactly as safe as heap delete-then-new (which may also reuse
// the address). The protocol-level ABA defences (fresh Info record per flag,
// §4.2 retirement ordering) are unchanged.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "reclaim/reclaimer.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"

namespace efrb {

// clang-format off
/// The allocator policy every structure in this repository allocates through
/// (threaded via OpContext::make/dispose). `kPooled` gates the fast path:
/// when false, contexts fold make/dispose to new/delete and never touch the
/// allocator object at all.
template <typename A>
concept NodeAllocatorPolicy = requires(A a, typename A::Cache c, void* b) {
  { A::kPooled } -> std::convertible_to<bool>;
  typename A::Cache;
  { a.make_cache() } -> std::same_as<typename A::Cache>;
  { a.local_cache() } -> std::same_as<typename A::Cache*>;
  { a.pool_hook() } -> std::same_as<PoolHook>;
};
// clang-format on

/// The default allocation policy: the global heap. Stateless; create/destroy
/// compile to new/delete, and pool_hook() is empty so reclaimers keep their
/// plain-delete disposal path.
class HeapAllocator {
 public:
  static constexpr bool kPooled = false;
  static constexpr const char* kName = "heap";

  /// No per-thread state to carry; exists so generic code can hold "a cache"
  /// unconditionally.
  struct Cache {};

  Cache make_cache() noexcept { return Cache{}; }
  Cache* local_cache() noexcept { return &shared_cache_; }

  template <typename T, typename... Args>
  T* create(Cache& /*cache*/, Args&&... args) {
    return new T(std::forward<Args>(args)...);
  }

  template <typename T>
  void destroy(Cache& /*cache*/, T* p) noexcept {
    delete p;
  }

  /// Empty: retired objects are deleted, not returned.
  PoolHook pool_hook() const noexcept { return PoolHook{}; }

 private:
  Cache shared_cache_;  // stateless, so sharing it between threads is fine
};

/// Point-in-time pool gauges for tests and the observability layer. Counters
/// are monotone over the pool's lifetime; relaxed reads, not an atomic cut.
struct PoolStats {
  std::uint64_t slabs = 0;           // slabs carved so far
  std::uint64_t slab_bytes = 0;      // total backing storage
  std::uint64_t recycled = 0;        // blocks pushed onto the global free list
  std::uint64_t cache_refills = 0;   // global-list take-overs by caches
};

/// Fixed-size-block pool. BlockSize must be a multiple of the cache line so
/// every block starts on a line boundary (the layout win measured by the
/// alloc ablation) and so distinct blocks never share a line.
template <std::size_t BlockSize>
class BlockPool {
  static_assert(BlockSize >= 2 * sizeof(void*),
                "block must hold a free-list link plus the debug stamp");
  static_assert(BlockSize % kCacheLineSize == 0,
                "blocks must be whole cache lines");

  /// Free-list link, overlaid on the first word of a returned block. The
  /// second word carries the double-return stamp (see deallocate).
  struct FreeNode {
    FreeNode* next;
    std::uintptr_t stamp;
  };

  // A freed block's second word; checked on every return. The value is a
  // non-canonical address, so a live object's pointer field cannot collide.
  static constexpr std::uintptr_t kFreedStamp = 0xefb0'0d1e'dead'b10cULL;

  static constexpr std::size_t kSlabBlocks = 256;  // 16 KiB slabs at 64 B

  struct State {
    // Global free list: push one (pool returns, lock-free), push chain
    // (cache flush), take all (cache refill).
    std::atomic<FreeNode*> free{nullptr};
    // Slab directory; mutated only on the allocation slow path.
    std::mutex slab_mu;
    std::vector<void*> slabs;
    // Gauges (relaxed; slow-path writers only).
    std::atomic<std::uint64_t> slab_count{0};
    std::atomic<std::uint64_t> recycled{0};
    std::atomic<std::uint64_t> refills{0};

    ~State() {
      // Last keepalive dropped: no Cache, no reclaimer registry, no retired
      // entry can reference a block any more. Free the backing storage
      // wholesale; individual free-list entries point into these slabs.
      for (void* s : slabs) {
        ::operator delete(s, std::align_val_t{kCacheLineSize});
      }
    }

    static void push_one(State* s, void* block) noexcept {
      auto* n = static_cast<FreeNode*>(block);
      FreeNode* head = s->free.load(std::memory_order_relaxed);
      do {
        n->next = head;
        // release: the block's bytes (including the destructor's writes)
        // must be visible to the thread that later pops and reconstructs it.
      } while (!s->free.compare_exchange_weak(head, n,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
      s->recycled.fetch_add(1, std::memory_order_relaxed);
    }

    static void push_chain(State* s, FreeNode* first, FreeNode* last) noexcept {
      FreeNode* head = s->free.load(std::memory_order_relaxed);
      do {
        last->next = head;
      } while (!s->free.compare_exchange_weak(head, first,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
    }

    FreeNode* take_all() noexcept {
      // acquire pairs with the release pushes: everything written to the
      // blocks before they were pushed is visible to the new owner.
      FreeNode* list = free.exchange(nullptr, std::memory_order_acquire);
      if (list != nullptr) refills.fetch_add(1, std::memory_order_relaxed);
      return list;
    }

    /// Slow path: carve a new slab and hand back its bump range.
    char* grow() {
      void* slab = ::operator new(kSlabBlocks * BlockSize,
                                  std::align_val_t{kCacheLineSize});
      {
        const std::lock_guard<std::mutex> lock(slab_mu);
        slabs.push_back(slab);
      }
      slab_count.fetch_add(1, std::memory_order_relaxed);
      return static_cast<char*>(slab);
    }
  };

 public:
  static constexpr bool kPooled = true;
  static constexpr std::size_t kBlockSize = BlockSize;
  static constexpr const char* kName = "pool";

  /// Thread-affine allocation handle (the fast path behind structure
  /// handles). Holds a private free chain and a private bump range; both are
  /// untouched by other threads, so alloc/free through a live Cache are plain
  /// pointer operations. Movable (a hand-off, like reclaimer Attachments);
  /// destruction flushes the private chain back to the global list. Holds a
  /// keepalive share of the pool state, so a Cache can always be destroyed
  /// safely, even after the pool object itself.
  class Cache {
   public:
    Cache() = default;
    explicit Cache(std::shared_ptr<State> state) noexcept
        : state_(std::move(state)) {}
    Cache(Cache&& other) noexcept
        : state_(std::move(other.state_)),
          free_(std::exchange(other.free_, nullptr)),
          bump_(std::exchange(other.bump_, nullptr)),
          bump_end_(std::exchange(other.bump_end_, nullptr)) {}
    Cache& operator=(Cache&& other) noexcept {
      if (this != &other) {
        release();
        state_ = std::move(other.state_);
        free_ = std::exchange(other.free_, nullptr);
        bump_ = std::exchange(other.bump_, nullptr);
        bump_end_ = std::exchange(other.bump_end_, nullptr);
      }
      return *this;
    }
    Cache(const Cache&) = delete;
    Cache& operator=(const Cache&) = delete;
    ~Cache() { release(); }

   private:
    friend class BlockPool;

    /// Flush the private chain to the global list. The bump range is
    /// abandoned unconsumed (at most one partial slab per released cache; the
    /// slab itself stays owned by the State and is freed with it).
    void release() noexcept {
      if (state_ != nullptr && free_ != nullptr) {
        FreeNode* last = free_;
        while (last->next != nullptr) last = last->next;
        State::push_chain(state_.get(), free_, last);
      }
      free_ = nullptr;
      bump_ = nullptr;
      bump_end_ = nullptr;
      state_.reset();
    }

    std::shared_ptr<State> state_;
    FreeNode* free_ = nullptr;  // private recycled chain
    char* bump_ = nullptr;      // private range in the newest slab
    char* bump_end_ = nullptr;
  };

  BlockPool() : state_(std::make_shared<State>()) {}

  /// A private cache for a structure handle; see Cache.
  Cache make_cache() { return Cache(state_); }

  /// The calling thread's lease cache (the tree-level convenience path, same
  /// pattern as the reclaimers' thread_local slot lease). Wait-free after the
  /// first call per (thread, pool).
  Cache* local_cache() {
    thread_local std::vector<std::unique_ptr<Cache>> leases;
    thread_local State* cached_state = nullptr;
    thread_local Cache* cached = nullptr;
    State* s = state_.get();
    if (cached_state == s) return cached;
    for (const auto& c : leases) {
      if (c->state_.get() == s) {
        cached_state = s;
        cached = c.get();
        return cached;
      }
    }
    leases.push_back(std::make_unique<Cache>(state_));
    cached_state = s;
    cached = leases.back().get();
    return cached;
  }

  /// Allocate-and-construct. On constructor throw the block goes straight
  /// back to the cache — the pool never leaks a block to an exception.
  template <typename T, typename... Args>
  T* create(Cache& cache, Args&&... args) {
    static_assert(sizeof(T) <= BlockSize, "type exceeds the pool block size");
    static_assert(alignof(T) <= kCacheLineSize,
                  "type over-aligned for the pool");
    void* block = allocate(cache);
    try {
      return ::new (block) T(std::forward<Args>(args)...);
    } catch (...) {
      push_local(cache, block);
      throw;
    }
  }

  /// Destroy-and-recycle into the cache's private chain.
  template <typename T>
  void destroy(Cache& cache, T* p) noexcept {
    p->~T();
    push_local(cache, p);
  }

  /// The reclaimers' type-erased return path (PoolHook::fn): the object is
  /// already destroyed; push the block onto the global free list. Runs on
  /// whatever thread swept the retire list — including the registry
  /// destructor after the pool object died (the hook's keepalive share keeps
  /// State alive for exactly this).
  static void return_block(void* state, void* block) noexcept {
    check_stamp_and_mark(block);
    State::push_one(static_cast<State*>(state), block);
  }

  /// The hook a structure installs on its reclaimer (set_pool_return).
  PoolHook pool_hook() const noexcept {
    return PoolHook{&BlockPool::return_block, state_.get(), state_};
  }

  PoolStats stats() const noexcept {
    PoolStats s;
    s.slabs = state_->slab_count.load(std::memory_order_relaxed);
    s.slab_bytes = s.slabs * kSlabBlocks * BlockSize;
    s.recycled = state_->recycled.load(std::memory_order_relaxed);
    s.cache_refills = state_->refills.load(std::memory_order_relaxed);
    return s;
  }

 private:
  void* allocate(Cache& cache) {
    EFRB_DCHECK(cache.state_.get() == state_.get());
    if (FreeNode* n = cache.free_; n != nullptr) {
      cache.free_ = n->next;
      n->stamp = 0;  // live again; re-arm the double-return check
      return n;
    }
    if (cache.bump_ != cache.bump_end_) {
      char* block = cache.bump_;
      cache.bump_ += BlockSize;
      // Slab memory comes from the heap, which may hand back a chunk that a
      // previous pool's slab occupied — complete with stale kFreedStamp
      // values. Arm the block before its first use.
      reinterpret_cast<FreeNode*>(block)->stamp = 0;
      return block;
    }
    // Private stock exhausted: adopt the global free list, else a new slab.
    if (FreeNode* list = state_->take_all(); list != nullptr) {
      cache.free_ = list->next;
      list->stamp = 0;
      return list;
    }
    char* slab = state_->grow();
    cache.bump_ = slab + BlockSize;
    cache.bump_end_ = slab + kSlabBlocks * BlockSize;
    reinterpret_cast<FreeNode*>(slab)->stamp = 0;  // see bump path above
    return slab;
  }

  static void push_local(Cache& cache, void* block) noexcept {
    check_stamp_and_mark(block);
    auto* n = static_cast<FreeNode*>(block);
    n->next = cache.free_;
    cache.free_ = n;
  }

  /// Double-return guard: a block entering a free chain must not already
  /// carry the freed stamp. Always on (EFRB_ASSERT): one load + one store on
  /// a line the destructor just touched, versus a silent double-recycle that
  /// would hand the same block to two create<T> calls.
  static void check_stamp_and_mark(void* block) noexcept {
    auto* n = static_cast<FreeNode*>(block);
    EFRB_ASSERT_MSG(n->stamp != kFreedStamp,
                    "BlockPool: block returned twice (double retire?)");
    n->stamp = kFreedStamp;
  }

  std::shared_ptr<State> state_;
};

namespace detail {
template <std::size_t N>
inline constexpr std::size_t round_up_to_line =
    ((N + kCacheLineSize - 1) / kCacheLineSize) * kCacheLineSize;

template <typename... Ts>
inline constexpr std::size_t max_size = std::max({sizeof(Ts)...});
}  // namespace detail

/// Pool sized for a family of types: one uniform block class covering the
/// largest member, rounded up to whole cache lines. Uniform blocks are what
/// make the type-erased PoolHook return possible — any retired object of any
/// pooled type hands back an interchangeable block.
template <typename... Ts>
using ObjectPool =
    BlockPool<detail::round_up_to_line<detail::max_size<Ts...>>>;

static_assert(NodeAllocatorPolicy<HeapAllocator>);
static_assert(NodeAllocatorPolicy<BlockPool<kCacheLineSize>>);

}  // namespace efrb
