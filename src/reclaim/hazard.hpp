// Hazard pointers (Michael, IEEE TPDS 2004) — the reclamation scheme the
// paper's §6 singles out as applicable to (a slightly modified version of)
// the tree. This is a generic domain usable by any pointer-linked structure;
// in this repository it backs the Harris linked list and is stress-tested on
// its own. See DESIGN.md §6 for why the tree's default policy is EBR.
//
// Protocol recap: before dereferencing a shared pointer, a thread publishes it
// in one of its hazard slots and re-validates the source; a retired object is
// freed only when a scan of all published hazards does not find it. Unlike
// EBR, a stalled thread delays at most the objects it has published, not the
// whole retire stream.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "reclaim/reclaimer.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"
#include "util/errors.hpp"

namespace efrb {

class HazardPointerDomain {
  struct Retired {
    void* ptr;
    void (*deleter)(void*);  // dispose_retired<T>
  };

  struct Slot {
    // Shared: scanned by reclaiming threads.
    std::vector<std::atomic<void*>> hazards;
    std::atomic<bool> in_use{false};
    // Owner-thread only.
    std::vector<Retired> retired;
    std::size_t next_scan = 0;  // retired.size() triggering the next scan
    // Gauges: owner-written relaxed, read by gauges() snapshots; survive slot
    // recycling so the aggregate stays monotone. Handle construction /
    // destruction stand in for pin/unpin in this domain's vocabulary.
    std::atomic<std::uint64_t> retired_count{0};
    std::atomic<std::uint64_t> pins{0};
    std::atomic<std::uint64_t> unpins{0};

    explicit Slot(std::size_t k) : hazards(k) {
      for (auto& h : hazards) h.store(nullptr, std::memory_order_relaxed);
    }
  };

  struct Registry {
    Registry(std::size_t max_threads, std::size_t k) : hazards_per_thread(k) {
      slots.reserve(max_threads);
      for (std::size_t i = 0; i < max_threads; ++i) {
        slots.push_back(std::make_unique<Slot>(k));
      }
    }

    ~Registry() {
      for (auto& s : slots) {
        for (const Retired& r : s->retired) r.deleter(r.ptr);
        s->retired.clear();
      }
      for (const Retired& r : orphans) r.deleter(r.ptr);
      orphans.clear();
    }

    /// Bounded retry (a concurrent release may be mid-flight), then throws
    /// CapacityExhausted instead of aborting — see util/errors.hpp.
    Slot* acquire_slot() {
      for (int attempt = 0; attempt < 3; ++attempt) {
        for (auto& s : slots) {
          bool expected = false;
          if (!s->in_use.load(std::memory_order_relaxed) &&
              s->in_use.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
            return s.get();
          }
        }
        std::this_thread::yield();
      }
      throw CapacityExhausted(
          "HazardPointerDomain: slot capacity exhausted (more concurrent "
          "threads/attachments than max_threads)");
    }

    const std::size_t hazards_per_thread;
    std::vector<std::unique_ptr<Slot>> slots;
    alignas(kCacheLineSize) std::atomic<std::uint64_t> freed_total{0};
    // Retirees stranded by a released slot; re-scanned (and freed once no
    // hazard covers them) by later scans from any slot.
    std::mutex orphan_mu;
    std::vector<Retired> orphans;
    // orphans.size() mirrored for lock-free gauge snapshots; stored under
    // orphan_mu by every mutator of `orphans`.
    std::atomic<std::uint64_t> orphan_count{0};
  };

 public:
  /// Per-operation handle over the calling thread's hazard slots. Slots are
  /// cleared when the handle is destroyed. Cheap to construct after the
  /// thread's first use of the domain.
  class Handle {
   public:
    Handle(Registry* reg, Slot* slot) noexcept : reg_(reg), slot_(slot) {
      slot_->pins.fetch_add(1, std::memory_order_relaxed);
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() {
      clear_all();
      slot_->unpins.fetch_add(1, std::memory_order_relaxed);
    }

    /// Publish-and-validate loop: returns a pointer read from `src` that is
    /// guaranteed protected (cannot be freed) until the slot is overwritten
    /// or the handle dies. The loop terminates because a change of `src`
    /// between read and re-read means another thread made progress.
    template <typename T>
    T* protect(std::size_t index, const std::atomic<T*>& src) noexcept {
      EFRB_DCHECK(index < slot_->hazards.size());
      T* p = src.load(std::memory_order_acquire);
      for (;;) {
        slot_->hazards[index].store(const_cast<std::remove_const_t<T>*>(p),
                                    std::memory_order_seq_cst);
        T* q = src.load(std::memory_order_seq_cst);
        if (q == p) return p;
        p = q;
      }
    }

    /// Publish an already-validated pointer (caller proves protection by other
    /// means, e.g. it is reachable only via an already-protected node).
    template <typename T>
    void set(std::size_t index, T* p) noexcept {
      EFRB_DCHECK(index < slot_->hazards.size());
      slot_->hazards[index].store(const_cast<std::remove_const_t<T>*>(p),
                                  std::memory_order_seq_cst);
    }

    void clear(std::size_t index) noexcept {
      slot_->hazards[index].store(nullptr, std::memory_order_release);
    }

    void clear_all() noexcept {
      for (auto& h : slot_->hazards) {
        h.store(nullptr, std::memory_order_release);
      }
    }

   private:
    [[maybe_unused]] Registry* reg_;
    Slot* slot_;
  };

  /// Explicit slot registration — same contract as EpochReclaimer::Attachment
  /// (movable, thread-affine, slot released on detach/destruction; leftover
  /// retired entries are scanned once and the still-protected remainder is
  /// orphaned to the registry, freed by later scans). Lets per-thread
  /// structure handles own their hazard slot outright instead of resolving it
  /// through the thread_local lease on every retire.
  class Attachment {
   public:
    Attachment() = default;
    Attachment(Attachment&& other) noexcept
        : reg_(std::move(other.reg_)),
          slot_(std::exchange(other.slot_, nullptr)),
          retire_batch_(other.retire_batch_) {}
    Attachment& operator=(Attachment&& other) noexcept {
      if (this != &other) {
        detach();
        reg_ = std::move(other.reg_);
        slot_ = std::exchange(other.slot_, nullptr);
        retire_batch_ = other.retire_batch_;
      }
      return *this;
    }
    Attachment(const Attachment&) = delete;
    Attachment& operator=(const Attachment&) = delete;
    ~Attachment() { detach(); }

    bool attached() const noexcept { return slot_ != nullptr; }

    void detach() noexcept {
      if (slot_ != nullptr) {
        release_slot(reg_.get(), slot_);
        slot_ = nullptr;
        reg_.reset();
      }
    }

    /// Hazard-slot handle over the owned slot (no thread_local lookup).
    Handle make_handle() const {
      EFRB_DCHECK(slot_ != nullptr);
      return Handle(reg_.get(), slot_);
    }

    template <typename T>
    void retire(T* p) {
      EFRB_DCHECK(slot_ != nullptr);
      retire_slot(reg_.get(), slot_, retire_batch_, p);
    }

    void flush() {
      EFRB_DCHECK(slot_ != nullptr);
      scan(reg_.get(), slot_);
    }

    /// Unified-surface alias of flush() (see reclaim/reclaimer.hpp).
    void flush_slot() { flush(); }

   private:
    friend class HazardPointerDomain;
    Attachment(std::shared_ptr<Registry> reg, Slot* slot,
               std::size_t retire_batch) noexcept
        : reg_(std::move(reg)), slot_(slot), retire_batch_(retire_batch) {}

    std::shared_ptr<Registry> reg_;
    Slot* slot_ = nullptr;
    std::size_t retire_batch_ = 0;
  };

  explicit HazardPointerDomain(std::size_t max_threads = 64,
                               std::size_t hazards_per_thread = 4,
                               std::size_t retire_batch = 128)
      : reg_(std::make_shared<Registry>(max_threads, hazards_per_thread)),
        retire_batch_(retire_batch) {}

  Attachment attach() {
    return Attachment(reg_, reg_->acquire_slot(), retire_batch_);
  }

  Handle make_handle() { return Handle(reg_.get(), local_slot()); }

  template <typename T>
  void retire(T* p) {
    retire_slot(reg_.get(), local_slot(), retire_batch_, p);
  }

  std::uint64_t freed_count() const noexcept {
    return reg_->freed_total.load(std::memory_order_relaxed);
  }

  /// Gauge snapshot (relaxed; see EpochReclaimer::gauges). pins/unpins count
  /// Handle constructions/destructions; epoch has no analogue here and stays 0.
  ReclaimGauges gauges() const noexcept {
    ReclaimGauges g;
    for (const auto& s : reg_->slots) {
      g.retired_total += s->retired_count.load(std::memory_order_relaxed);
      g.pins += s->pins.load(std::memory_order_relaxed);
      g.unpins += s->unpins.load(std::memory_order_relaxed);
    }
    g.freed_total = reg_->freed_total.load(std::memory_order_relaxed);
    g.orphan_depth = reg_->orphan_count.load(std::memory_order_relaxed);
    return g;
  }

  /// Best-effort drain at quiescent points.
  void flush() { scan(reg_.get(), local_slot()); }

  /// Unified-surface alias of flush() (see reclaim/reclaimer.hpp).
  void flush_slot() { flush(); }

 private:
  template <typename T>
  static void retire_slot(Registry* reg, Slot* slot, std::size_t retire_batch,
                          T* p) {
    EFRB_DCHECK(p != nullptr);
    slot->retired.push_back(Retired{p, &dispose_retired<T>});
    slot->retired_count.fetch_add(1, std::memory_order_relaxed);
    // Size-scheduled scans (amortized O(1) per retire even when many
    // entries stay protected; see the epoch reclaimer for the rationale).
    if (slot->retired.size() >= std::max(slot->next_scan, retire_batch)) {
      scan(reg, slot);
      slot->next_scan = slot->retired.size() + retire_batch;
    }
  }

  static void scan(Registry* reg, Slot* slot) {
    // Opportunistic orphan sweep — try_lock: never stall a retire on the
    // orphan slow path. The lock MUST be taken before the hazard snapshot:
    // the HP safety argument ("a hazard published after the snapshot cannot
    // cover a swept entry, because the entry was already unlinked when the
    // snapshot began") holds for the caller's own retired list, but orphan
    // entries can be appended by a concurrent detach at any time, including
    // between a snapshot and a sweep against it — and such an entry may be
    // covered by a hazard published (and validated, pre-unlink) after the
    // snapshot. Holding orphan_mu across the snapshot excludes appenders, so
    // every orphan entry we sweep was unlinked before the snapshot began.
    std::unique_lock<std::mutex> orphan_lock(reg->orphan_mu, std::try_to_lock);

    // Snapshot every published hazard pointer across all slots.
    std::vector<void*> protected_ptrs;
    protected_ptrs.reserve(reg->slots.size() * reg->hazards_per_thread);
    for (const auto& s : reg->slots) {
      if (!s->in_use.load(std::memory_order_acquire)) continue;
      for (const auto& h : s->hazards) {
        void* p = h.load(std::memory_order_seq_cst);
        if (p != nullptr) protected_ptrs.push_back(p);
      }
    }
    std::sort(protected_ptrs.begin(), protected_ptrs.end());

    std::uint64_t freed = sweep_list(slot->retired, protected_ptrs);
    if (orphan_lock.owns_lock()) {
      if (!reg->orphans.empty()) {
        freed += sweep_list(reg->orphans, protected_ptrs);
        reg->orphan_count.store(reg->orphans.size(),
                                std::memory_order_relaxed);
      }
      orphan_lock.unlock();
    }
    if (freed != 0) {
      reg->freed_total.fetch_add(freed, std::memory_order_relaxed);
    }
  }

  /// Frees every entry of `list` not covered by `protected_ptrs` (sorted);
  /// compacts the survivors in place and returns the freed count.
  static std::uint64_t sweep_list(std::vector<Retired>& list,
                                  const std::vector<void*>& protected_ptrs) {
    std::size_t kept = 0;
    std::uint64_t freed = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (std::binary_search(protected_ptrs.begin(), protected_ptrs.end(),
                             list[i].ptr)) {
        list[kept++] = list[i];
      } else {
        list[i].deleter(list[i].ptr);
        ++freed;
      }
    }
    list.resize(kept);
    return freed;
  }

  /// Common tail of Attachment::detach and the thread-exit Lease: clear the
  /// published hazards, free what no longer has cover, orphan the rest.
  /// noexcept-for-real: both the scan's snapshot buffer and the orphan
  /// hand-off allocate, and this runs from detach()/thread-exit teardown. On
  /// bad_alloc the backlog simply stays in the slot — safe (entries remain
  /// retired-but-unswept) and freed by the slot's next owner's scans or at
  /// Registry destruction.
  static void release_slot(Registry* reg, Slot* slot) noexcept {
    for (auto& h : slot->hazards) {
      h.store(nullptr, std::memory_order_release);
    }
    try {
      scan(reg, slot);
      if (!slot->retired.empty()) {
        const std::lock_guard<std::mutex> lock(reg->orphan_mu);
        // Reserve first: once capacity is in place the inserts below cannot
        // throw (Retired is trivially copyable), so a failure leaves the
        // orphan list and the slot list both intact — no partial hand-off.
        reg->orphans.reserve(reg->orphans.size() + slot->retired.size());
        reg->orphans.insert(reg->orphans.end(), slot->retired.begin(),
                            slot->retired.end());
        slot->retired.clear();
        reg->orphan_count.store(reg->orphans.size(),
                                std::memory_order_relaxed);
      }
    } catch (...) {
    }
    if (slot->retired.empty()) {
      // Empty-only shrink: constructing the empty replacement buffer cannot
      // allocate, so this stays non-throwing; a backlog kept by a failed
      // hand-off keeps its capacity for the slot's next owner.
      slot->retired.shrink_to_fit();
    }
    slot->next_scan = 0;
    slot->in_use.store(false, std::memory_order_release);
  }

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

// ---------------------------------------------------------------------------
// HazardReclaimer — the hazard-side ReclaimerPolicy for pin()-style users
// (the EFRB tree and the skiplist), companion to EpochReclaimer.
//
// True per-pointer hazard protection of the tree would require the §6-modified
// Search (publish-and-revalidate every edge crossed); the blanket pin()/
// retire() contract gives the reclaimer no per-pointer information to
// publish. This policy therefore publishes the coarsest possible hazard: a
// per-thread activity sequence number that is odd exactly while the owner is
// inside a pinned region. Reclamation proceeds in *grace rounds*: when a
// thread's retire list fills, it snapshots every slot that is currently
// pinned (odd sequence, including itself — freeing inside the retiring pin
// would reopen the update-word ABA the tree's pinning argument rules out) and
// moves the list to a pending set; the pending set is freed once every
// snapshotted slot's sequence has moved on, i.e. every reader that could have
// held a reference has passed through a quiescent state. Unlike EBR there is
// no global epoch for a stalled thread to wedge for *everyone else's* future
// rounds — a round waits only on the readers that were active when it began.
// ---------------------------------------------------------------------------
class HazardReclaimer {
  struct Retired {
    void* ptr;
    void (*deleter)(void*);  // dispose_retired<T>
  };

  struct Slot {
    // Shared: odd while the owner is pinned; bumped on pin and on unpin.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<bool> in_use{false};
    // Owner-thread only.
    std::vector<Retired> retired;   // not yet covered by a grace round
    std::vector<Retired> pending;   // awaiting the current round's readers
    std::vector<std::pair<Slot*, std::uint64_t>> readers;  // round snapshot
    unsigned depth = 0;             // pin() nesting
    std::size_t next_round = 0;     // retired.size() triggering the next round
    // Gauges: owner-written relaxed, read by gauges() snapshots; survive slot
    // recycling so the aggregate stays monotone.
    std::atomic<std::uint64_t> retired_count{0};
    std::atomic<std::uint64_t> pins{0};
    std::atomic<std::uint64_t> unpins{0};
  };

  struct Registry {
    explicit Registry(std::size_t max_threads) : slots(max_threads) {}

    ~Registry() {
      // Last reference dropped: nothing can be pinned; free all leftovers.
      for (auto& padded : slots) {
        for (const Retired& r : padded.value.retired) r.deleter(r.ptr);
        for (const Retired& r : padded.value.pending) r.deleter(r.ptr);
        padded.value.retired.clear();
        padded.value.pending.clear();
      }
      for (const Retired& r : orphan_retired) r.deleter(r.ptr);
      for (const Retired& r : orphan_pending) r.deleter(r.ptr);
      orphan_retired.clear();
      orphan_pending.clear();
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
          "HazardReclaimer: thread-slot capacity exhausted (more concurrent "
          "threads/attachments than max_threads)");
    }

    std::vector<CachePadded<Slot>> slots;
    alignas(kCacheLineSize) std::atomic<std::uint64_t> freed_total{0};
    // Registry-level grace-round state for retirees stranded by a released
    // slot. Entries restart their grace round here (conservative: waiting on
    // a fresh reader snapshot is always safe); advanced under try-lock from
    // advance_round so any active thread drains departed threads' garbage.
    std::mutex orphan_mu;
    std::vector<Retired> orphan_retired;
    std::vector<Retired> orphan_pending;
    std::vector<std::pair<Slot*, std::uint64_t>> orphan_readers;
    // orphan_retired.size() + orphan_pending.size() mirrored for lock-free
    // gauge snapshots; stored under orphan_mu by every orphan-list mutator.
    std::atomic<std::uint64_t> orphan_count{0};
  };

 public:
  /// RAII pinned region; nested pins are counted (outermost wins).
  class Guard {
   public:
    Guard() = default;
    explicit Guard(Slot* slot) noexcept : slot_(slot) {}
    Guard(Guard&& other) noexcept : slot_(other.slot_) {
      other.slot_ = nullptr;
    }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        release();
        slot_ = other.slot_;
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
        // Even again: readers-of-record for any in-flight grace round see
        // this slot as quiescent from here on.
        slot_->seq.fetch_add(1, std::memory_order_release);
        slot_->unpins.fetch_add(1, std::memory_order_relaxed);
      }
      slot_ = nullptr;
    }
    Slot* slot_ = nullptr;
  };

  /// Explicit slot registration — see EpochReclaimer::Attachment; identical
  /// contract (movable, thread-affine, slot released on detach/destruction;
  /// leftover retired/pending entries are handed off to the registry's
  /// orphan lists, where they restart a grace round and are freed by later
  /// rounds from any thread).
  class Attachment {
   public:
    Attachment() = default;
    Attachment(Attachment&& other) noexcept
        : reg_(std::move(other.reg_)),
          slot_(other.slot_),
          retire_batch_(other.retire_batch_) {
      other.slot_ = nullptr;
    }
    Attachment& operator=(Attachment&& other) noexcept {
      if (this != &other) {
        detach();
        reg_ = std::move(other.reg_);
        slot_ = other.slot_;
        retire_batch_ = other.retire_batch_;
        other.slot_ = nullptr;
      }
      return *this;
    }
    Attachment(const Attachment&) = delete;
    Attachment& operator=(const Attachment&) = delete;
    ~Attachment() { detach(); }

    bool attached() const noexcept { return slot_ != nullptr; }

    void detach() noexcept {
      if (slot_ != nullptr) {
        EFRB_DCHECK(slot_->depth == 0);
        release_slot(reg_.get(), slot_);
        slot_ = nullptr;
        reg_.reset();
      }
    }

    Guard pin() {
      EFRB_DCHECK(slot_ != nullptr);
      return pin_slot(slot_);
    }

    template <typename T>
    void retire(T* p) {
      EFRB_DCHECK(slot_ != nullptr);
      retire_slot(reg_.get(), slot_, retire_batch_, p);
    }

    /// (Qualified call: the zero-arg flush_slot() below hides the enclosing
    /// class's static overload for unqualified lookup.)
    void flush() {
      EFRB_DCHECK(slot_ != nullptr);
      HazardReclaimer::flush_slot(reg_.get(), slot_);
    }

    /// Unified-surface alias of flush() (see AttachableReclaimerPolicy).
    void flush_slot() { flush(); }

   private:
    friend class HazardReclaimer;
    Attachment(std::shared_ptr<Registry> reg, Slot* slot,
               std::size_t retire_batch) noexcept
        : reg_(std::move(reg)), slot_(slot), retire_batch_(retire_batch) {}

    std::shared_ptr<Registry> reg_;
    Slot* slot_ = nullptr;
    std::size_t retire_batch_ = 0;
  };

  explicit HazardReclaimer(std::size_t max_threads = 64,
                           std::size_t retire_batch = 128)
      : reg_(std::make_shared<Registry>(max_threads)),
        retire_batch_(retire_batch) {}

  Attachment attach() {
    return Attachment(reg_, reg_->acquire_slot(), retire_batch_);
  }

  Guard pin() { return pin_slot(local_slot()); }

  template <typename T>
  void retire(T* p) {
    retire_slot(reg_.get(), local_slot(), retire_batch_, p);
  }

  std::uint64_t freed_count() const noexcept {
    return reg_->freed_total.load(std::memory_order_relaxed);
  }

  /// Gauge snapshot (relaxed; see EpochReclaimer::gauges). There is no global
  /// epoch in the grace-round scheme, so `epoch` stays 0; orphan_depth counts
  /// both orphaned lists (retired + pending).
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
    return g;
  }

  /// Best-effort drain at quiescent points (must be called unpinned, or the
  /// caller's own snapshot entry keeps its rounds open).
  void flush() { flush_slot(reg_.get(), local_slot()); }

  /// Unified-surface alias of flush() (see ReclaimerPolicy).
  void flush_slot() { flush(); }

 private:
  static Guard pin_slot(Slot* slot) {
    if (slot->depth++ == 0) {
      // seq_cst RMW: the announcement is globally ordered against the
      // snapshot loads in advance_round, mirroring the epoch announcement's
      // publish-then-recheck fence role.
      slot->seq.fetch_add(1, std::memory_order_seq_cst);
      slot->pins.fetch_add(1, std::memory_order_relaxed);
    }
    return Guard(slot);
  }

  template <typename T>
  static void retire_slot(Registry* reg, Slot* slot, std::size_t retire_batch,
                          T* p) {
    EFRB_DCHECK(p != nullptr);
    slot->retired.push_back(Retired{p, &dispose_retired<T>});
    slot->retired_count.fetch_add(1, std::memory_order_relaxed);
    // Size-scheduled rounds (amortized O(1) per retire; see EpochReclaimer).
    if (slot->retired.size() >= std::max(slot->next_round, retire_batch)) {
      advance_round(reg, slot);
      slot->next_round = slot->retired.size() + retire_batch;
    }
  }

  /// Unconditionally drives three round steps: a flush must also advance the
  /// registry's orphan round, which the caller's own (possibly empty) lists
  /// say nothing about.
  static void flush_slot(Registry* reg, Slot* slot) {
    for (int i = 0; i < 3; ++i) advance_round(reg, slot);
  }

  /// One grace-round step over (retired, pending, readers) — the state triple
  /// of a slot or of the registry's orphan lists: clear snapshot entries
  /// whose reader moved on, free the pending set once the snapshot empties,
  /// then start a new round for the accumulated retired list.
  static void round_step(Registry* reg, std::vector<Retired>& retired,
                         std::vector<Retired>& pending,
                         std::vector<std::pair<Slot*, std::uint64_t>>& readers) {
    std::size_t kept = 0;
    for (const auto& [s, seq] : readers) {
      // A recorded sequence is odd; any change means that pin ended (sequence
      // numbers are monotone), including slot release/re-acquisition.
      if (s->seq.load(std::memory_order_seq_cst) == seq) {
        readers[kept++] = {s, seq};
      }
    }
    readers.resize(kept);
    if (readers.empty() && !pending.empty()) {
      for (const Retired& r : pending) r.deleter(r.ptr);
      reg->freed_total.fetch_add(pending.size(), std::memory_order_relaxed);
      pending.clear();
    }
    if (pending.empty() && !retired.empty()) {
      // Reserve before mutating: if this throws (bad_alloc) the round state
      // is untouched and the caller can retry later. With capacity for every
      // slot in place, the push_backs below cannot throw, so a started round
      // never ends up with a partial reader snapshot (which could free the
      // pending set while an unsnapshotted reader still holds references).
      readers.reserve(reg->slots.size());
      std::swap(pending, retired);
      for (auto& padded : reg->slots) {
        Slot& s = padded.value;
        if (!s.in_use.load(std::memory_order_acquire)) continue;
        const std::uint64_t seq = s.seq.load(std::memory_order_seq_cst);
        if ((seq & 1) != 0) readers.push_back({&s, seq});
      }
    }
  }

  static void advance_round(Registry* reg, Slot* slot) {
    round_step(reg, slot->retired, slot->pending, slot->readers);
    drain_orphans(reg);
  }

  /// One round step for the registry-level orphan lists, under try-lock (a
  /// retire never stalls on the orphan slow path; any later round from any
  /// slot drives the orphans forward instead).
  static void drain_orphans(Registry* reg) noexcept {
    try {
      const std::unique_lock<std::mutex> lock(reg->orphan_mu,
                                              std::try_to_lock);
      if (!lock.owns_lock()) return;
      if (reg->orphan_retired.empty() && reg->orphan_pending.empty()) return;
      // round_step's only throw point (the reader-snapshot reserve) fires
      // before any mutation, so a bad_alloc here just defers the orphan
      // round to a later, less memory-starved attempt.
      round_step(reg, reg->orphan_retired, reg->orphan_pending,
                 reg->orphan_readers);
      reg->orphan_count.store(
          reg->orphan_retired.size() + reg->orphan_pending.size(),
          std::memory_order_relaxed);
    } catch (...) {
    }
  }

  /// Common tail of Attachment::detach and the thread-exit Lease: drive a
  /// round to free what is already coverable, then orphan the remainder.
  /// Moved entries restart their grace round in the orphan lists — strictly
  /// conservative, since a fresh reader snapshot can only wait longer than
  /// the round they were part of.
  /// noexcept-for-real: the orphan hand-off allocates and this runs from
  /// detach()/thread-exit teardown. On bad_alloc the slot keeps its intact
  /// (retired, pending, readers) triple — the next owner of the slot simply
  /// continues the grace round; Registry destruction frees any remainder.
  static void release_slot(Registry* reg, Slot* slot) noexcept {
    try {
      round_step(reg, slot->retired, slot->pending, slot->readers);
      if (!slot->retired.empty() || !slot->pending.empty()) {
        const std::lock_guard<std::mutex> lock(reg->orphan_mu);
        // Reserve first: once capacity is in place the inserts below cannot
        // throw (Retired is trivially copyable), so a failure cannot leave an
        // entry duplicated across the orphan list and the slot (double free).
        reg->orphan_retired.reserve(reg->orphan_retired.size() +
                                    slot->pending.size() +
                                    slot->retired.size());
        reg->orphan_retired.insert(reg->orphan_retired.end(),
                                   slot->pending.begin(), slot->pending.end());
        reg->orphan_retired.insert(reg->orphan_retired.end(),
                                   slot->retired.begin(), slot->retired.end());
        slot->pending.clear();
        slot->retired.clear();
        reg->orphan_count.store(
            reg->orphan_retired.size() + reg->orphan_pending.size(),
            std::memory_order_relaxed);
      }
      slot->readers.clear();
    } catch (...) {
    }
    if (slot->retired.empty() && slot->pending.empty()) {
      // Empty-only shrink (readers was cleared with the lists on the success
      // path): the empty replacement buffers cannot allocate, so this stays
      // non-throwing. After a failed hand-off the triple keeps its contents
      // and capacity, leaving the round resumable by the slot's next owner.
      slot->retired.shrink_to_fit();
      slot->pending.shrink_to_fit();
      slot->readers.shrink_to_fit();
    }
    slot->next_round = 0;
    slot->in_use.store(false, std::memory_order_release);
    drain_orphans(reg);
  }

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

static_assert(ReclaimerPolicy<HazardReclaimer>);
static_assert(AttachableReclaimerPolicy<HazardReclaimer>);

}  // namespace efrb
