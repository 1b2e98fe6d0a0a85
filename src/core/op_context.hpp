// The per-operation execution context and the statistics substrate shared by
// every layer of the core (and reused by the baseline structures).
//
// OpContext bundles the three per-operation concerns that used to be threaded
// through the tree as a per-method `template <typename RT>`:
//
//   * the retire sink — either an explicit reclaimer Attachment (the
//     per-thread handle fast path) or the reclaimer itself (thread_local
//     lease fallback). One context type per structure instantiation, so the
//     handle path and the tree-level path drive the SAME instantiation of
//     search/protocol/ordered code rather than two parallel ones.
//   * the stat counters — a cacheline-padded per-handle shard, or the
//     structure's shared block, or null when stats are disabled (all counting
//     is compiled out when kCount is false).
//   * retry pacing — optional per-handle truncated-exponential backoff
//     (null on the tree-level path, folding retry_pause() away).
//
// The stats model: StatCounters is the relaxed-atomic write side; TreeStats
// is the plain snapshot/report side. Handles count into a StatShard from a
// ShardPool so stats-enabled counting never contends on a shared line;
// a released shard keeps its counts (lifetime totals) and the next handle to
// recycle it simply keeps adding.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "core/alloc.hpp"
#include "core/debug_hooks.hpp"
#include "reclaim/recycle.hpp"
#include "util/assert.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace efrb {

namespace detail {
/// Empty mapped type for set semantics; occupies no leaf storage. Shared by
/// every map facade's `*Set` alias (EfrbTreeSet, ChromaticTreeSet, ...).
struct Unit {
  friend bool operator==(Unit, Unit) noexcept { return true; }
};
}  // namespace detail

/// Result of a core's insert machinery (shared by insert / insert_or_assign
/// and by every tree core).
enum class InsertOutcome { kInserted, kAssigned, kDuplicate };

/// Relaxed per-structure operation counters, collected when
/// Traits::kCountStats. The per-CasStep arrays give benchmarks a
/// protocol-step breakdown (attempts and failed CAS per step of Fig. 4)
/// without custom hook traits; see report.hpp for the table formatter.
struct TreeStats {
  std::uint64_t insert_attempts = 0;  // iflag CAS attempts
  std::uint64_t insert_retries = 0;   // extra Search rounds inside Insert
  std::uint64_t delete_attempts = 0;  // dflag CAS attempts
  std::uint64_t delete_retries = 0;   // extra Search rounds inside Delete
  std::uint64_t helps = 0;            // Help() dispatches on a non-Clean word
  std::uint64_t backtracks = 0;       // successful backtrack CAS steps
  // Descent-depth telemetry (levels walked root->leaf, sampled at every
  // counted descent) — the measurable form of the balance claim: EFRB depth
  // collapses to O(n) under sorted keys, the chromatic tree holds O(log n).
  std::uint64_t depth_total = 0;    // sum of sampled descent depths
  std::uint64_t depth_samples = 0;  // number of sampled descents
  std::uint64_t depth_max = 0;      // deepest sampled descent
  std::uint64_t rotations = 0;      // committed rebalancing transactions
  // Chromatic cleanup passes that hit kMaxCleanupRounds and gave up with a
  // violation still parked on their search path (re-armed for a later op to
  // drain; see core/chromatic.hpp). Nonzero values are a contention signal,
  // not corruption — path sums stay valid, only balance is relaxed.
  std::uint64_t cleanup_abandoned = 0;
  std::array<std::uint64_t, kNumCasSteps> cas_attempts{};  // per CasStep
  std::array<std::uint64_t, kNumCasSteps> cas_failures{};  // failed CAS per step

  double depth_avg() const noexcept {
    return depth_samples == 0
               ? 0.0
               : static_cast<double>(depth_total) /
                     static_cast<double>(depth_samples);
  }
};

/// Atomic write side of TreeStats. All increments are relaxed: the counters
/// are diagnostics, never synchronization.
struct StatCounters {
  std::atomic<std::uint64_t> insert_attempts{0};
  std::atomic<std::uint64_t> insert_retries{0};
  std::atomic<std::uint64_t> delete_attempts{0};
  std::atomic<std::uint64_t> delete_retries{0};
  std::atomic<std::uint64_t> helps{0};
  std::atomic<std::uint64_t> backtracks{0};
  std::atomic<std::uint64_t> depth_total{0};
  std::atomic<std::uint64_t> depth_samples{0};
  std::atomic<std::uint64_t> depth_max{0};
  std::atomic<std::uint64_t> rotations{0};
  std::atomic<std::uint64_t> cleanup_abandoned{0};
  std::array<std::atomic<std::uint64_t>, kNumCasSteps> cas_attempts{};
  std::array<std::atomic<std::uint64_t>, kNumCasSteps> cas_failures{};
};

inline void accumulate(TreeStats& s, const StatCounters& c) noexcept {
  s.insert_attempts += c.insert_attempts.load(std::memory_order_relaxed);
  s.insert_retries += c.insert_retries.load(std::memory_order_relaxed);
  s.delete_attempts += c.delete_attempts.load(std::memory_order_relaxed);
  s.delete_retries += c.delete_retries.load(std::memory_order_relaxed);
  s.helps += c.helps.load(std::memory_order_relaxed);
  s.backtracks += c.backtracks.load(std::memory_order_relaxed);
  s.depth_total += c.depth_total.load(std::memory_order_relaxed);
  s.depth_samples += c.depth_samples.load(std::memory_order_relaxed);
  const std::uint64_t dm = c.depth_max.load(std::memory_order_relaxed);
  if (dm > s.depth_max) s.depth_max = dm;
  s.rotations += c.rotations.load(std::memory_order_relaxed);
  s.cleanup_abandoned += c.cleanup_abandoned.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumCasSteps; ++i) {
    s.cas_attempts[i] += c.cas_attempts[i].load(std::memory_order_relaxed);
    s.cas_failures[i] += c.cas_failures[i].load(std::memory_order_relaxed);
  }
}

/// Merge one plain snapshot into another (sums; depth_max by maximum). The
/// sharded facade folds per-shard stats_snapshot() results through this.
inline void accumulate(TreeStats& s, const TreeStats& o) noexcept {
  s.insert_attempts += o.insert_attempts;
  s.insert_retries += o.insert_retries;
  s.delete_attempts += o.delete_attempts;
  s.delete_retries += o.delete_retries;
  s.helps += o.helps;
  s.backtracks += o.backtracks;
  s.depth_total += o.depth_total;
  s.depth_samples += o.depth_samples;
  if (o.depth_max > s.depth_max) s.depth_max = o.depth_max;
  s.rotations += o.rotations;
  s.cleanup_abandoned += o.cleanup_abandoned;
  for (std::size_t i = 0; i < kNumCasSteps; ++i) {
    s.cas_attempts[i] += o.cas_attempts[i];
    s.cas_failures[i] += o.cas_failures[i];
  }
}

/// s -= base, fieldwise. Used to report a handle's own share out of a
/// recycled shard whose counts are lifetime totals.
inline void subtract(TreeStats& s, const TreeStats& base) noexcept {
  s.insert_attempts -= base.insert_attempts;
  s.insert_retries -= base.insert_retries;
  s.delete_attempts -= base.delete_attempts;
  s.delete_retries -= base.delete_retries;
  s.helps -= base.helps;
  s.backtracks -= base.backtracks;
  s.depth_total -= base.depth_total;
  s.depth_samples -= base.depth_samples;
  // depth_max is a running maximum, not a sum — a handle's own share is not
  // recoverable by subtraction, so the lifetime maximum is reported as-is.
  s.rotations -= base.rotations;
  s.cleanup_abandoned -= base.cleanup_abandoned;
  for (std::size_t i = 0; i < kNumCasSteps; ++i) {
    s.cas_attempts[i] -= base.cas_attempts[i];
    s.cas_failures[i] -= base.cas_failures[i];
  }
}

/// One handle's private counter block, cacheline-padded inside the pool.
struct StatShard {
  StatCounters counters;
  std::atomic<bool> in_use{false};
};

/// Fixed pool of stat shards; one acquired per live handle.
struct ShardPool {
  static constexpr std::size_t kMaxHandles = 128;
  std::vector<CachePadded<StatShard>> shards;

  ShardPool() : shards(kMaxHandles) {}

  /// Bounded retry (a racing handle may be mid-release), then throws
  /// CapacityExhausted — see util/errors.hpp for the contract. Never aborts:
  /// running out of handles is a load condition, not a broken invariant.
  StatShard* acquire() {
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (auto& padded : shards) {
        StatShard& s = padded.value;
        bool expected = false;
        if (!s.in_use.load(std::memory_order_relaxed) &&
            s.in_use.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
          return &s;
        }
      }
    }
    throw CapacityExhausted(
        "ShardPool: stat-shard capacity exhausted "
        "(more than kMaxHandles live handles)");
  }

  static void release(StatShard* s) noexcept {
    s->in_use.store(false, std::memory_order_release);
  }

  void accumulate_into(TreeStats& s) const noexcept {
    for (const auto& padded : shards) accumulate(s, padded.value.counters);
  }
};

/// Stats disabled: no shard storage at all; handles carry a null shard.
struct EmptyShardPool {
  StatShard* acquire() noexcept { return nullptr; }
  static void release(StatShard*) noexcept {}
  void accumulate_into(TreeStats&) const noexcept {}
};

/// Sentinel for ProgressSlot::last_step: no protocol CAS recorded yet in the
/// current operation.
inline constexpr std::uint32_t kNoStep = ~std::uint32_t{0};

/// One handle's liveness progress words, published for the watchdog
/// (obs/watchdog.hpp) to sample from its own thread. Single-writer: only the
/// owning handle's thread stores; all stores are relaxed except the op_seq
/// release that opens an operation window. The seqlock-flavoured protocol:
///
///   * op_seq odd  — an operation is in flight; start_ns/op_key were written
///     before the opening release increment, so a reader that (1) loads
///     op_seq odd with acquire, (2) reads the fields, (3) re-reads op_seq and
///     finds it unchanged has a consistent view of one in-flight operation.
///   * op_seq even — the handle is idle between operations. A sampler must
///     never flag it (the watchdog false-positive contract).
///
/// retries / last_step / help_depth mutate *during* the window (relaxed); a
/// sampler sees some recent value of each, which is exactly what a stall
/// diagnostic needs.
struct ProgressSlot {
  std::atomic<std::uint64_t> op_seq{0};
  std::atomic<std::uint64_t> op_key{kNoKey};
  std::atomic<std::uint64_t> start_ns{0};  // steady_clock since-epoch ns
  std::atomic<std::uint64_t> retries{0};   // retry_pause calls this op
  std::atomic<std::uint32_t> last_step{kNoStep};  // latest CasStep attempted
  std::atomic<std::uint32_t> help_depth{0};       // nested help dispatches
  std::atomic<unsigned> tid{kNoTid};              // owning handle id
  std::atomic<bool> in_use{false};
};

/// Fixed pool of progress slots; one acquired per live handle when the
/// structure's Traits enable kCausalTrace. Mirrors ShardPool's contract
/// (bounded retry, CapacityExhausted, released slots recycle).
struct ProgressTable {
  static constexpr std::size_t kMaxHandles = ShardPool::kMaxHandles;
  std::vector<CachePadded<ProgressSlot>> slots;

  ProgressTable() : slots(kMaxHandles) {}

  ProgressSlot* acquire(unsigned tid) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (auto& padded : slots) {
        ProgressSlot& s = padded.value;
        bool expected = false;
        if (!s.in_use.load(std::memory_order_relaxed) &&
            s.in_use.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
          // Fresh window for the new owner: close any stale odd seq left by
          // a handle destroyed mid-operation (exception unwind).
          if (s.op_seq.load(std::memory_order_relaxed) & 1) {
            s.op_seq.fetch_add(1, std::memory_order_relaxed);
          }
          s.tid.store(tid, std::memory_order_release);
          return &s;
        }
      }
    }
    throw CapacityExhausted(
        "ProgressTable: progress-slot capacity exhausted "
        "(more than kMaxHandles live handles)");
  }

  static void release(ProgressSlot* s) noexcept {
    if (s == nullptr) return;
    if (s->op_seq.load(std::memory_order_relaxed) & 1) {
      s->op_seq.fetch_add(1, std::memory_order_relaxed);
    }
    s->tid.store(kNoTid, std::memory_order_release);
    s->in_use.store(false, std::memory_order_release);
  }
};

/// Causal tracing disabled: no slot storage; handles carry a null slot.
struct EmptyProgressTable {
  ProgressSlot* acquire(unsigned) noexcept { return nullptr; }
  static void release(ProgressSlot*) noexcept {}
};

/// Distinct splitmix-derived seed per handle (never thread-id based; see the
/// skiplist level-RNG bug this repository once had).
inline std::uint64_t next_handle_seed() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  SplitMix64 sm(0x8f1bbcdcbfa53e0bULL +
                counter.fetch_add(1, std::memory_order_relaxed));
  return sm.next();
}

/// The single per-operation context threaded through search / protocol /
/// ordered code. Resolved statically — no virtual dispatch; the only dynamic
/// decision is the retire-sink branch, taken once per (rare) retire call.
///
/// kTrackKeys (default off) enables key attribution: the protocol layer calls
/// set_op_key() at each operation entry and forwards op_key() into every hook
/// emission, so key-aware traits (obs/heatmap.hpp) can bucket contention
/// events by key range. When off, set_op_key is a no-op and op_key() folds to
/// the kNoKey constant — the uninstrumented path carries no key state.
///
/// Alloc (default HeapAllocator) is the NodeAllocatorPolicy the operation
/// allocates through: make<T>/dispose<T> replace bare new/delete in the
/// structure layers. With the heap default they reuse blocks from the
/// attachment's recycle bins (reclaim/recycle.hpp) when it keeps any, and
/// otherwise fold to new/delete; the allocator pointers below stay null and
/// are never read. A pooled context routes through the allocator's
/// thread-affine Cache.
/// kCausal (default off) additionally maintains the handle's ProgressSlot
/// across the operation (seq window, key, retries, last CAS step, help
/// depth) and exposes owner() — the packed {tid, op_seq} stamp the protocol
/// layers write into Info/ScxRecord records for help-chain attribution
/// (obs/causal.hpp). With kCausal false every progress touch folds away and
/// the context carries no slot pointer, keeping the uninstrumented
/// instantiation byte-identical to the pre-causality code.
template <typename Reclaimer, bool kCount, bool kTrackKeys = false,
          typename Alloc = HeapAllocator, bool kCausal = false>
class OpContext {
 public:
  using Attachment = typename Reclaimer::Attachment;
  using AllocT = Alloc;
  using AllocCache = typename Alloc::Cache;

  /// Whether this context counts statistics — lets the structure layers skip
  /// preparing inputs (e.g. the descent-depth out-counter) that count_*()
  /// would discard anyway.
  static constexpr bool kCounts = kCount;

  /// Context for structure-level convenience methods: retires through the
  /// reclaimer's thread_local lease, counts into the shared block, no
  /// backoff (matching the pre-handle behaviour exactly). No per-thread
  /// identity: hooks see kNoTid. Allocator defaults to null — required
  /// (and supplied by the facade) only when Alloc::kPooled.
  static OpContext tree_level(Reclaimer& r, StatCounters* counters,
                              Alloc* alloc = nullptr,
                              AllocCache* cache = nullptr) noexcept {
    OpContext ctx;
    ctx.rec_ = &r;
    ctx.counters_ = counters;
    ctx.alloc_ = alloc;
    ctx.cache_ = cache;
    return ctx;
  }

  /// Context for a per-thread handle: retires through the handle's
  /// attachment, counts into its shard, paces retries with its backoff, and
  /// carries the handle's id into every hook emission (the step+thread
  /// identity the fault-injection layer keys on). `retried_out`, when
  /// non-null, is set to true by the first retry_pause() — the seam behind
  /// Handle::last_op_retried() that lets latency sampling split clean ops
  /// from contended ones without touching the stats machinery. Allocation
  /// goes through the handle's own Cache when Alloc::kPooled.
  static OpContext attached(Attachment& a, StatCounters* counters,
                            Backoff* backoff, unsigned tid = kNoTid,
                            bool* retried_out = nullptr,
                            Alloc* alloc = nullptr,
                            AllocCache* cache = nullptr,
                            ProgressSlot* progress = nullptr) noexcept {
    OpContext ctx;
    ctx.att_ = &a;
    ctx.counters_ = counters;
    ctx.backoff_ = backoff;
    ctx.tid_ = tid;
    ctx.retried_out_ = retried_out;
    ctx.alloc_ = alloc;
    ctx.cache_ = cache;
    if constexpr (kCausal) ctx.progress_ = progress;
    return ctx;
  }

  template <typename T>
  void retire(T* p) {
    if (att_ != nullptr) {
      att_->retire(p);
    } else {
      rec_->retire(p);
    }
  }

  /// Allocate-and-construct through the context's allocator. Heap mode pops
  /// a recycled block of sizeof(T) when the attachment has one (a throwing
  /// constructor puts it back), else `new T` — no allocator pointer is ever
  /// dereferenced.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    if constexpr (Alloc::kPooled) {
      EFRB_DCHECK(alloc_ != nullptr && cache_ != nullptr);
      return alloc_->template create<T>(*cache_, std::forward<Args>(args)...);
    } else {
      if constexpr (kRecyclable<T>) {
        RecycleBins* bins = recycle_bins();
        if (void* block = bins != nullptr ? bins->take(sizeof(T)) : nullptr) {
          try {
            return ::new (block) T(std::forward<Args>(args)...);
          } catch (...) {
            bins->put(block, sizeof(T));  // room: the block just left
            throw;
          }
        }
      }
      return new T(std::forward<Args>(args)...);
    }
  }

  /// Destroy-and-free an object that was never published (the loser side of
  /// a CAS race). Published objects go through retire() instead. Null-safe,
  /// like delete; heap mode keeps the block in the recycle bins when it can.
  template <typename T>
  void dispose(T* p) noexcept {
    if (p == nullptr) return;
    if constexpr (Alloc::kPooled) {
      EFRB_DCHECK(alloc_ != nullptr && cache_ != nullptr);
      alloc_->template destroy<T>(*cache_, p);
    } else {
      RecycleBins* bins = recycle_bins();
      if (bins == nullptr || !bins->recycle(p)) delete p;
    }
  }

  void begin_op() noexcept {
    if (backoff_ != nullptr) backoff_->reset();
    if constexpr (kCausal) {
      if (progress_ != nullptr) {
        progress_->op_key.store(kNoKey, std::memory_order_relaxed);
        progress_->start_ns.store(steady_now_ns(), std::memory_order_relaxed);
        progress_->retries.store(0, std::memory_order_relaxed);
        progress_->last_step.store(kNoStep, std::memory_order_relaxed);
        progress_->help_depth.store(0, std::memory_order_relaxed);
        // Open the window: even -> odd. Self-healing if a prior op's window
        // was left open (exception unwind skipped end_op): odd -> next odd.
        const std::uint64_t s =
            progress_->op_seq.load(std::memory_order_relaxed);
        progress_->op_seq.store(s + 1 + (s & 1), std::memory_order_release);
      }
    }
  }
  /// Called on operation success: drops any escalation the finished op built
  /// up, so a missing begin_op on some future path cannot inherit it.
  void end_op() noexcept {
    if (backoff_ != nullptr) backoff_->reset();
    if constexpr (kCausal) {
      if (progress_ != nullptr) {
        const std::uint64_t s =
            progress_->op_seq.load(std::memory_order_relaxed);
        if (s & 1) {  // close the window: odd -> even
          progress_->op_seq.store(s + 1, std::memory_order_release);
        }
      }
    }
  }
  void retry_pause() noexcept {
    if (retried_out_ != nullptr) *retried_out_ = true;
    if constexpr (kCausal) {
      if (progress_ != nullptr) {
        progress_->retries.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (backoff_ != nullptr) (*backoff_)();
  }

  /// Nested help-dispatch depth, maintained for the watchdog's StallReport.
  void help_enter() noexcept {
    if constexpr (kCausal) {
      if (progress_ != nullptr) {
        progress_->help_depth.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  void help_exit() noexcept {
    if constexpr (kCausal) {
      if (progress_ != nullptr) {
        progress_->help_depth.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }

  /// Packed {tid, op_seq} identity of the current operation — the stamp the
  /// protocol layers write into freshly created Info/ScxRecord records.
  /// kNoOwner when causal tracing is off or the context has no progress slot
  /// (tree-level path).
  std::uint64_t owner() const noexcept {
    if constexpr (kCausal) {
      if (progress_ != nullptr && tid_ != kNoTid) {
        return pack_owner(tid_,
                          progress_->op_seq.load(std::memory_order_relaxed));
      }
    }
    return kNoOwner;
  }

  /// Per-handle thread identity (kNoTid on the tree-level path), forwarded to
  /// every hook emission in the protocol layer.
  unsigned tid() const noexcept { return tid_; }

  /// Key attribution for hook emissions. The protocol layer stamps the
  /// operation's key at each public entry point; keys without an integral
  /// projection stay kNoKey. Compiled out entirely unless kTrackKeys.
  template <typename K>
  void set_op_key(const K& k) noexcept {
    if constexpr (kTrackKeys || kCausal) {
      if constexpr (std::is_convertible_v<const K&, std::uint64_t>) {
        const auto key = static_cast<std::uint64_t>(k);
        if constexpr (kTrackKeys) op_key_ = key;
        // The progress slot carries the key independently of kTrackKeys: a
        // causal-only tree still needs the watchdog's StallReport to name
        // the stalled operation's key.
        if constexpr (kCausal) {
          if (progress_ != nullptr) {
            progress_->op_key.store(key, std::memory_order_relaxed);
          }
        }
      }
    } else {
      (void)k;
    }
  }

  /// The current operation's key (kNoKey when untracked), forwarded to every
  /// hook emission in the protocol layer.
  std::uint64_t op_key() const noexcept {
    if constexpr (kTrackKeys) {
      return op_key_;
    } else {
      return kNoKey;
    }
  }

  void count_insert_attempt() noexcept { bump(&StatCounters::insert_attempts); }
  void count_insert_retry() noexcept { bump(&StatCounters::insert_retries); }
  void count_delete_attempt() noexcept { bump(&StatCounters::delete_attempts); }
  void count_delete_retry() noexcept { bump(&StatCounters::delete_retries); }
  void count_help() noexcept { bump(&StatCounters::helps); }
  void count_backtrack() noexcept { bump(&StatCounters::backtracks); }
  void count_rotation() noexcept { bump(&StatCounters::rotations); }
  void count_cleanup_abandoned() noexcept {
    bump(&StatCounters::cleanup_abandoned);
  }

  /// Record one descent's depth (levels walked from the root to the leaf).
  /// The max is a relaxed CAS race — last-writer-wins per observed maximum is
  /// exact for a monotone quantity.
  void count_depth(std::size_t depth) noexcept {
    if constexpr (kCount) {
      const auto d = static_cast<std::uint64_t>(depth);
      counters_->depth_total.fetch_add(d, std::memory_order_relaxed);
      counters_->depth_samples.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t cur = counters_->depth_max.load(std::memory_order_relaxed);
      while (cur < d && !counters_->depth_max.compare_exchange_weak(
                            cur, d, std::memory_order_relaxed)) {
      }
    }
  }

  /// Per-step protocol accounting, recorded at every Traits::on_cas point.
  void count_cas(CasStep step, bool ok) noexcept {
    if constexpr (kCount) {
      const auto i = static_cast<std::size_t>(step);
      counters_->cas_attempts[i].fetch_add(1, std::memory_order_relaxed);
      if (!ok) {
        counters_->cas_failures[i].fetch_add(1, std::memory_order_relaxed);
      }
    }
    if constexpr (kCausal) {
      if (progress_ != nullptr) {
        progress_->last_step.store(static_cast<std::uint32_t>(step),
                                   std::memory_order_relaxed);
      }
    }
  }

 private:
  OpContext() = default;

  static std::uint64_t steady_now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// The attachment's recycle bins; null on the tree-level path, under a
  /// reclaimer whose attachments keep none, and before the first retire.
  RecycleBins* recycle_bins() const noexcept {
    if constexpr (requires(const Attachment& a) {
                    { a.recycle_bins() } -> std::same_as<RecycleBins*>;
                  }) {
      return att_ != nullptr ? att_->recycle_bins() : nullptr;
    } else {
      return nullptr;
    }
  }

  void bump(std::atomic<std::uint64_t> StatCounters::* field) noexcept {
    if constexpr (kCount) {
      (counters_->*field).fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Zero-size stand-in for the progress pointer when kCausal is off, so the
  /// uninstrumented context's layout does not change.
  struct NoProgress {};

  Attachment* att_ = nullptr;
  Reclaimer* rec_ = nullptr;
  [[maybe_unused]] StatCounters* counters_ = nullptr;
  Backoff* backoff_ = nullptr;
  unsigned tid_ = kNoTid;
  bool* retried_out_ = nullptr;
  [[maybe_unused]] std::uint64_t op_key_ = kNoKey;
  // Null (and never read) in heap mode; see make()/dispose().
  Alloc* alloc_ = nullptr;
  AllocCache* cache_ = nullptr;
  [[no_unique_address]] std::conditional_t<kCausal, ProgressSlot*, NoProgress>
      progress_{};
};

}  // namespace efrb
