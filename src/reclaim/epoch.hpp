// Epoch-based reclamation (EBR).
//
// The default reclamation policy for the EFRB tree. Threads announce the
// global epoch while operating on the structure ("pinned"); retired objects
// are stamped with the epoch at retirement and freed once the global epoch has
// advanced twice past that stamp — by then no pinned region that began before
// the object was unlinked can still be running, so no thread can reach it by
// following a chain of pointers (the safety condition in §4.1 of the paper).
//
// Layout notes:
//  * One Registry per reclaimer instance: a fixed array of cache-line padded
//    slots plus the global epoch counter. Threads acquire a slot on first use
//    (thread_local lease, released at thread exit) so pin() is wait-free after
//    the first operation. Alternatively, attach() hands out an explicit
//    Attachment owning a slot outright — the per-thread-handle fast path where
//    pin() is a plain member access with no thread_local lookup at all.
//  * Retire lists are single-owner (the slot holder); only the epoch
//    announcement word is shared, so pin/unpin cost one store + one fence.
//  * An Attachment's sweeps hand safe blocks to its own RecycleBins
//    (reclaim/recycle.hpp) instead of `delete`, so the owner's next
//    allocations reuse them. The bins are allocated at the attachment's
//    first retire, move with it, and go back to the heap on flush() and
//    detach(). The thread_local lease path and pooled structures (PoolHook
//    installed) keep the plain disposal path.
//  * The Registry is shared_ptr-owned by the reclaimer and by every thread
//    lease, so a thread exiting after the data structure was destroyed cannot
//    touch freed memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "reclaim/reclaimer.hpp"
#include "reclaim/recycle.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"
#include "util/errors.hpp"

namespace efrb {

class EpochReclaimer {
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};

  struct Retired {
    void* ptr;
    // Type-erased disposer (recycle_retired<T>): consults the registry's
    // PoolHook at free time — pool return when installed — and the sweeping
    // attachment's bins (null outside an attachment sweep), else deletes.
    void (*deleter)(void*, const PoolHook&, RecycleBins*);
    std::uint64_t epoch;
  };

  struct Slot {
    // Shared: read by try_advance() on other threads.
    std::atomic<std::uint64_t> epoch{kQuiescent};
    std::atomic<bool> in_use{false};
    // Owner-thread only.
    std::vector<Retired> retired;
    std::size_t next_sweep = 0;  // retired.size() that triggers the next sweep
    unsigned depth = 0;          // pin() nesting
    // Gauges: owner-written (relaxed, within the slot's own cache line, so no
    // cross-thread contention), read only by gauges() snapshots. Survive slot
    // recycling — they count the slot's whole history, keeping the aggregate
    // monotone across attach/detach cycles.
    std::atomic<std::uint64_t> retired_count{0};
    std::atomic<std::uint64_t> pins{0};
    std::atomic<std::uint64_t> unpins{0};
  };

  struct Registry {
    explicit Registry(std::size_t max_threads) : slots(max_threads) {}

    ~Registry() {
      // Last reference dropped: nothing can be pinned; free all leftovers.
      // pool_hook's keepalive guarantees the pool state is still alive here
      // even if the owning structure (and its pool) died first.
      for (auto& padded : slots) {
        for (const Retired& r : padded.value.retired) {
          r.deleter(r.ptr, pool_hook, nullptr);
        }
        padded.value.retired.clear();
      }
      for (const Retired& r : orphans) r.deleter(r.ptr, pool_hook, nullptr);
      orphans.clear();
    }

    /// Bounded retry (a concurrent release may be mid-flight), then throws
    /// CapacityExhausted instead of aborting — see util/errors.hpp.
    Slot* acquire_slot() {
      for (int attempt = 0; attempt < 3; ++attempt) {
        for (auto& padded : slots) {
          Slot& s = padded.value;
          bool expected = false;
          if (!s.in_use.load(std::memory_order_relaxed) &&
              s.in_use.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
            return &s;
          }
        }
        std::this_thread::yield();
      }
      throw CapacityExhausted(
          "EpochReclaimer: thread-slot capacity exhausted (more concurrent "
          "threads/attachments than max_threads)");
    }

    /// Advance the global epoch if every pinned thread has caught up to it.
    void try_advance() {
      const std::uint64_t e = global.load(std::memory_order_seq_cst);
      for (const auto& padded : slots) {
        const Slot& s = padded.value;
        if (!s.in_use.load(std::memory_order_acquire)) continue;
        const std::uint64_t local = s.epoch.load(std::memory_order_seq_cst);
        if (local != kQuiescent && local != e) return;  // straggler
      }
      std::uint64_t expected = e;
      global.compare_exchange_strong(expected, e + 1,
                                     std::memory_order_seq_cst);
    }

    std::vector<CachePadded<Slot>> slots;
    alignas(kCacheLineSize) std::atomic<std::uint64_t> global{0};
    alignas(kCacheLineSize) std::atomic<std::uint64_t> freed_total{0};
    // Retirees stranded by a released slot, re-homed here so they are freed
    // while the structure is still live (epoch stamps preserved; same safety
    // rule as a slot's own list). Drained opportunistically by sweep().
    std::mutex orphan_mu;
    std::vector<Retired> orphans;
    // orphans.size() mirrored for lock-free gauge snapshots; stored under
    // orphan_mu by every mutator of `orphans`.
    std::atomic<std::uint64_t> orphan_count{0};
    // Retire-to-pool hook (see reclaim/reclaimer.hpp). Written once by
    // set_pool_return() before the structure is shared; read by every
    // disposer call. Unsynchronized by contract.
    PoolHook pool_hook;
  };

 public:
  /// RAII pinned region. Movable, not copyable. Nested pins on the same thread
  /// are counted and keep the outermost announcement (so helping code can pin
  /// defensively without risking premature reclamation of the outer region's
  /// snapshot).
  class Guard {
   public:
    Guard() = default;
    Guard(Registry* reg, Slot* slot) noexcept : reg_(reg), slot_(slot) {}
    Guard(Guard&& other) noexcept : reg_(other.reg_), slot_(other.slot_) {
      other.reg_ = nullptr;
      other.slot_ = nullptr;
    }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        release();
        reg_ = other.reg_;
        slot_ = other.slot_;
        other.reg_ = nullptr;
        other.slot_ = nullptr;
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { release(); }

   private:
    void release() noexcept {
      if (slot_ != nullptr && --slot_->depth == 0) {
        slot_->epoch.store(kQuiescent, std::memory_order_release);
        slot_->unpins.fetch_add(1, std::memory_order_relaxed);
      }
      slot_ = nullptr;
      reg_ = nullptr;
    }
    Registry* reg_ = nullptr;
    Slot* slot_ = nullptr;
  };

  /// Explicit slot registration (the fast path behind per-thread operation
  /// handles): owns one Slot for its whole lifetime, so pin()/retire() are
  /// plain member accesses with no thread_local registry lookup. Movable, not
  /// copyable; thread-affine (the owning thread only — the slot's retire list
  /// and the recycle bins are single-owner). detach() (or destruction)
  /// releases the slot for reuse; the slot's retire backlog is flushed and
  /// any not-yet-safe remainder is handed to the registry's orphan list,
  /// where it is freed by later sweeps while the structure is still live
  /// (same as the thread-exit lease path).
  class Attachment {
   public:
    Attachment() = default;
    Attachment(Attachment&& other) noexcept
        : reg_(std::move(other.reg_)),
          slot_(other.slot_),
          retire_batch_(other.retire_batch_),
          bins_(std::move(other.bins_)) {
      other.slot_ = nullptr;
    }
    Attachment& operator=(Attachment&& other) noexcept {
      if (this != &other) {
        detach();
        reg_ = std::move(other.reg_);
        slot_ = other.slot_;
        retire_batch_ = other.retire_batch_;
        bins_ = std::move(other.bins_);
        other.slot_ = nullptr;
      }
      return *this;
    }
    Attachment(const Attachment&) = delete;
    Attachment& operator=(const Attachment&) = delete;
    ~Attachment() { detach(); }

    bool attached() const noexcept { return slot_ != nullptr; }

    /// Releases the slot back to the registry. No pin (Guard) may be alive.
    /// The slot's retired backlog is flushed, and anything not yet safe to
    /// free is handed to the registry's orphan list rather than stranded in
    /// the slot until re-acquisition or Registry destruction. The recycle
    /// bins return their blocks to the heap.
    void detach() noexcept {
      if (slot_ != nullptr) {
        EFRB_DCHECK(slot_->depth == 0);
        release_slot(reg_.get(), slot_);
        slot_ = nullptr;
        reg_.reset();
      }
      bins_.reset();
    }

    Guard pin() {
      EFRB_DCHECK(slot_ != nullptr);
      return pin_slot(reg_.get(), slot_);
    }

    template <typename T>
    void retire(T* p) {
      EFRB_DCHECK(slot_ != nullptr);
      // Bins are made at the first retire, unless a pool takes the blocks;
      // if that allocation fails the sweeps simply keep deleting.
      if (bins_ == nullptr && !reg_->pool_hook) {
        bins_.reset(new (std::nothrow) RecycleBins);
      }
      retire_slot(reg_.get(), slot_, retire_batch_, p, bins_.get());
    }

    /// Blocks this attachment's sweeps have kept for reuse (OpContext::make
    /// pops them), or null before the first retire and under a pool.
    RecycleBins* recycle_bins() const noexcept { return bins_.get(); }

    /// Best-effort drain of this attachment's retire list (quiescent points),
    /// straight to the heap, and of its recycle bins.
    /// (Qualified call: the zero-arg flush_slot() below hides the enclosing
    /// class's static overload for unqualified lookup.)
    void flush() {
      EFRB_DCHECK(slot_ != nullptr);
      EpochReclaimer::flush_slot(reg_.get(), slot_);
      bins_.reset();
    }

    /// Unified-surface alias of flush() (see AttachableReclaimerPolicy).
    void flush_slot() { flush(); }

   private:
    friend class EpochReclaimer;
    Attachment(std::shared_ptr<Registry> reg, Slot* slot,
               std::size_t retire_batch) noexcept
        : reg_(std::move(reg)), slot_(slot), retire_batch_(retire_batch) {}

    std::shared_ptr<Registry> reg_;
    Slot* slot_ = nullptr;
    std::size_t retire_batch_ = 0;
    std::unique_ptr<RecycleBins> bins_;
  };

  /// @param max_threads   capacity of the slot table (threads that concurrently
  ///                      use this instance; slots are recycled at thread exit).
  /// @param retire_batch  per-thread retire-list length that triggers an epoch
  ///                      advance attempt and a sweep.
  /// Default retire batch of 256 balances throughput against the per-thread
  /// memory floor (E4 ablation: larger batches amortize the epoch-advance
  /// scan; 256 recovers most of the leaky ceiling at ~10 KB/thread of
  /// deferred garbage).
  explicit EpochReclaimer(std::size_t max_threads = 64,
                          std::size_t retire_batch = 256)
      : reg_(std::make_shared<Registry>(max_threads)),
        retire_batch_(retire_batch) {}

  /// Acquire a dedicated slot (released by Attachment::detach / destruction).
  /// Counts against max_threads like a thread lease; a thread that uses both
  /// an attachment and the implicit thread_local path occupies two slots.
  Attachment attach() {
    return Attachment(reg_, reg_->acquire_slot(), retire_batch_);
  }

  Guard pin() { return pin_slot(reg_.get(), local_slot()); }

  template <typename T>
  void retire(T* p) {
    retire_slot(reg_.get(), local_slot(), retire_batch_, p);
  }

  /// Objects freed so far (for tests asserting reclamation actually happens).
  std::uint64_t freed_count() const noexcept {
    return reg_->freed_total.load(std::memory_order_relaxed);
  }

  std::uint64_t current_epoch() const noexcept {
    return reg_->global.load(std::memory_order_relaxed);
  }

  /// Gauge snapshot for the observability layer. Relaxed reads of owner-
  /// written per-slot counters; monotone per counter, but not an atomic
  /// cross-thread cut (a concurrent retire may show in retired_total before
  /// its sweep shows in freed_total — backlog() is momentarily conservative).
  ReclaimGauges gauges() const noexcept {
    ReclaimGauges g;
    for (const auto& padded : reg_->slots) {
      const Slot& s = padded.value;
      g.retired_total += s.retired_count.load(std::memory_order_relaxed);
      g.pins += s.pins.load(std::memory_order_relaxed);
      g.unpins += s.unpins.load(std::memory_order_relaxed);
    }
    g.freed_total = reg_->freed_total.load(std::memory_order_relaxed);
    g.orphan_depth = reg_->orphan_count.load(std::memory_order_relaxed);
    g.epoch = reg_->global.load(std::memory_order_relaxed);
    return g;
  }

  /// Best-effort drain for tests/benchmarks at quiescent points: repeatedly
  /// advance and sweep the calling thread's list.
  void flush() { flush_slot(reg_.get(), local_slot()); }

  /// Unified-surface alias of flush() (see ReclaimerPolicy).
  void flush_slot() { flush(); }

  /// Install the retire-to-pool hook (see reclaim/reclaimer.hpp). Must be
  /// called before this reclaimer is shared between threads — typically once
  /// in the owning structure's constructor. Retired entries already queued
  /// are also re-routed (the hook is consulted at free time, not retire time).
  void set_pool_return(PoolHook hook) noexcept {
    reg_->pool_hook = std::move(hook);
  }

 private:
  static Guard pin_slot(Registry* reg, Slot* slot) {
    if (slot->depth++ == 0) {
      slot->pins.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t e = reg->global.load(std::memory_order_acquire);
      // Publish, then re-check: the announcement must equal the global epoch
      // observed *after* publishing, otherwise an advance racing with us could
      // treat this thread as caught-up when it is not.
      for (;;) {
        slot->epoch.store(e, std::memory_order_seq_cst);
        const std::uint64_t g = reg->global.load(std::memory_order_seq_cst);
        if (g == e) break;
        e = g;
      }
    }
    return Guard(reg, slot);
  }

  template <typename T>
  static void retire_slot(Registry* reg, Slot* slot, std::size_t retire_batch,
                          T* p, RecycleBins* bins = nullptr) {
    EFRB_DCHECK(p != nullptr);
    slot->retired.push_back(Retired{
        p, &recycle_retired<T>,
        reg->global.load(std::memory_order_acquire)});
    slot->retired_count.fetch_add(1, std::memory_order_relaxed);
    // Sweep on a size *schedule*, not a fixed threshold: when a pinned-but-
    // descheduled thread stalls the epoch, entries pile up past the batch
    // size, and re-sweeping the whole list on every retire would be
    // quadratic. Resetting the trigger to size+batch after each sweep keeps
    // the amortized cost per retire O(1).
    if (slot->retired.size() >= std::max(slot->next_sweep, retire_batch)) {
      reg->try_advance();
      sweep(reg, slot, bins);
      slot->next_sweep = slot->retired.size() + retire_batch;
    }
  }

  /// Unconditionally drives three advance+sweep rounds: a flush must make
  /// progress for the registry's orphan list too, which an empty caller-side
  /// retired list says nothing about.
  static void flush_slot(Registry* reg, Slot* slot) {
    for (int i = 0; i < 3; ++i) {
      reg->try_advance();
      sweep(reg, slot);
    }
  }

  /// Common tail of Attachment::detach and the thread-exit Lease: sweep what
  /// is already safe, orphan the rest, return the slot to the free pool.
  /// noexcept-for-real: the orphan hand-off allocates and this runs from
  /// detach()/thread-exit teardown. On bad_alloc the backlog stays in the
  /// slot — safe (epoch stamps preserved) and swept by the slot's next owner
  /// or freed at Registry destruction.
  static void release_slot(Registry* reg, Slot* slot) noexcept {
    reg->try_advance();
    sweep(reg, slot);
    if (!slot->retired.empty()) {
      try {
        const std::lock_guard<std::mutex> lock(reg->orphan_mu);
        // Reserve first: once capacity is in place the insert below cannot
        // throw (Retired is trivially copyable), so a failure leaves the
        // orphan list and the slot list both intact — no partial hand-off.
        reg->orphans.reserve(reg->orphans.size() + slot->retired.size());
        reg->orphans.insert(reg->orphans.end(), slot->retired.begin(),
                            slot->retired.end());
        slot->retired.clear();
        reg->orphan_count.store(reg->orphans.size(),
                                std::memory_order_relaxed);
      } catch (...) {
      }
    }
    if (slot->retired.empty()) {
      // Empty-only shrink: constructing the empty replacement buffer cannot
      // allocate, so this stays non-throwing; a backlog kept by a failed
      // hand-off keeps its capacity for the slot's next owner.
      slot->retired.shrink_to_fit();
    }
    slot->next_sweep = 0;
    slot->in_use.store(false, std::memory_order_release);
  }

  /// Opportunistic orphan-list sweep (same epoch rule as a slot's own list).
  /// try_lock: the orphan list is a slow path; never stall a retire for it.
  static void drain_orphans(Registry* reg, RecycleBins* bins) noexcept {
    const std::unique_lock<std::mutex> lock(reg->orphan_mu, std::try_to_lock);
    if (!lock.owns_lock() || reg->orphans.empty()) return;
    const std::uint64_t e = reg->global.load(std::memory_order_acquire);
    auto& list = reg->orphans;
    std::size_t kept = 0;
    std::uint64_t freed = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].epoch + 2 <= e) {
        list[i].deleter(list[i].ptr, reg->pool_hook, bins);
        ++freed;
      } else {
        list[kept++] = list[i];
      }
    }
    list.resize(kept);
    reg->orphan_count.store(kept, std::memory_order_relaxed);
    if (freed != 0) {
      reg->freed_total.fetch_add(freed, std::memory_order_relaxed);
    }
  }

  /// Frees (or, given the sweeping attachment's bins, recycles) every entry
  /// of the slot's list and of the orphan list that the epoch rule proves
  /// unreachable.
  static void sweep(Registry* reg, Slot* slot, RecycleBins* bins = nullptr) {
    const std::uint64_t e = reg->global.load(std::memory_order_acquire);
    auto& list = slot->retired;
    std::size_t kept = 0;
    std::uint64_t freed = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      // Safe once two advances have completed past the retire epoch.
      if (list[i].epoch + 2 <= e) {
        list[i].deleter(list[i].ptr, reg->pool_hook, bins);
        ++freed;
      } else {
        list[kept++] = list[i];
      }
    }
    list.resize(kept);
    if (freed != 0) {
      reg->freed_total.fetch_add(freed, std::memory_order_relaxed);
    }
    drain_orphans(reg, bins);
  }

  // Thread → slot binding. A lease pins the Registry (shared_ptr) so slot
  // release at thread exit is always safe, even after the reclaimer died.
  // Release goes through release_slot: the departing thread's retired list is
  // flushed/orphaned, not stranded in the slot.
  struct Lease {
    struct Entry {
      std::shared_ptr<Registry> reg;
      Slot* slot;
    };
    std::vector<Entry> entries;
    ~Lease() {
      for (auto& e : entries) release_slot(e.reg.get(), e.slot);
    }
  };

  Slot* local_slot() {
    thread_local Lease lease;
    thread_local Registry* cached_reg = nullptr;
    thread_local Slot* cached_slot = nullptr;
    Registry* reg = reg_.get();
    if (cached_reg == reg) return cached_slot;
    for (const auto& e : lease.entries) {
      if (e.reg.get() == reg) {
        cached_reg = reg;
        cached_slot = e.slot;
        return e.slot;
      }
    }
    Slot* slot = reg->acquire_slot();
    lease.entries.push_back(Lease::Entry{reg_, slot});
    cached_reg = reg;
    cached_slot = slot;
    return slot;
  }

  std::shared_ptr<Registry> reg_;
  std::size_t retire_batch_;
};

static_assert(ReclaimerPolicy<EpochReclaimer>);
static_assert(AttachableReclaimerPolicy<EpochReclaimer>);

}  // namespace efrb
