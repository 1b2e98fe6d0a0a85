// Instrumentation traits for the EFRB tree.
//
// The tree is parameterized on a Traits type exposing two static hooks:
//
//   Traits::on_cas(CasStep step, bool success, const void* node)
//     — invoked after every protocol CAS with its outcome; lets tests verify
//       that the update-field state machine follows exactly the edges of the
//       paper's Figure 4 and lets benchmarks count helps/retries.
//
//   Traits::at(HookPoint point)
//     — invoked at named points between protocol steps; lets tests pause a
//       thread mid-operation (via thread_local state in the callback) to
//       drive deterministic interleavings: forcing helping branches (lines
//       51, 61, 77, 78, 85 of the pseudocode), the backtrack path (line 98),
//       and the Figure 3 schedules.
//
// The default (NoopTraits) compiles to nothing; instrumented builds pay only
// inside their own template instantiation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace efrb {

/// The CAS step kinds of the two commit protocols sharing this layer: the
/// eight EFRB steps (paper §3, Fig. 4) plus the two SCX steps of the
/// Brown–Ellen–Ruppert general technique (core/llx_scx.hpp), which fold the
/// flag/mark/child-swing edges into freeze + child-swap.
enum class CasStep : std::uint8_t {
  kIFlag,      // Insert: flag the parent (line 56)
  kIChild,     // Insert: swing the parent's child pointer (line 66 / 115/117)
  kIUnflag,    // Insert: clean the parent (line 67)
  kDFlag,      // Delete: flag the grandparent (line 81)
  kMark,       // Delete: mark the parent (line 91)
  kDChild,     // Delete: splice the parent out (line 105)
  kDUnflag,    // Delete: clean the grandparent (line 106)
  kBacktrack,  // Delete: remove the flag after a failed mark (line 98)
  kFreeze,     // SCX: freeze one V-node's info word onto the ScxRecord
  kScxChild,   // SCX: swing the target child pointer old -> new
};

/// Number of CasStep values; sizes the per-step counter arrays in
/// op_context.hpp.
inline constexpr std::size_t kNumCasSteps = 10;

inline const char* to_string(CasStep s) noexcept {
  switch (s) {
    case CasStep::kIFlag: return "iflag";
    case CasStep::kIChild: return "ichild";
    case CasStep::kIUnflag: return "iunflag";
    case CasStep::kDFlag: return "dflag";
    case CasStep::kMark: return "mark";
    case CasStep::kDChild: return "dchild";
    case CasStep::kDUnflag: return "dunflag";
    case CasStep::kBacktrack: return "backtrack";
    case CasStep::kFreeze: return "freeze";
    case CasStep::kScxChild: return "scx-child";
  }
  return "?";
}

/// Pause points between protocol steps.
enum class HookPoint : std::uint8_t {
  kAfterSearch,      // Search returned (Insert/Delete/Find attempt)
  kAfterIFlag,       // successful iflag, before HelpInsert
  kBeforeIChild,     // inside HelpInsert, before the ichild CAS
  kBeforeIUnflag,    // inside HelpInsert, before the iunflag CAS
  kAfterDFlag,       // successful dflag, before HelpDelete
  kBeforeMark,       // inside HelpDelete, before the mark CAS
  kBeforeDChild,     // inside HelpMarked, before the dchild CAS
  kBeforeDUnflag,    // inside HelpMarked, before the dunflag CAS
  kBeforeBacktrack,  // inside HelpDelete, failed mark, before backtrack CAS
  kBeforeHelp,       // about to help another operation
  kInsertRetry,      // Insert attempt failed; looping
  kDeleteRetry,      // Delete attempt failed; looping
  kAfterHelp,        // help dispatch returned; pairs with kBeforeHelp
  // SCX pause points (core/llx_scx.hpp / core/chromatic.hpp). A thread
  // stalled at any of them leaves an SCX record mid-commit, which every
  // other operation must be able to help past.
  kBeforeFreeze,     // inside help_scx, before one freeze CAS
  kBeforeScxChild,   // inside help_scx, all V frozen, before the child CAS
  kBeforeScxCommit,  // inside help_scx, before the state InProgress->Committed
  kScxRetry,         // an LLX/SCX transaction failed; operation looping
  kBeforeRebalance,  // cleanup found a violation, before its fixing SCX
};

/// Number of HookPoint values; sizes the per-point tables in src/inject/.
inline constexpr std::size_t kNumHookPoints = 18;

inline const char* to_string(HookPoint p) noexcept {
  switch (p) {
    case HookPoint::kAfterSearch: return "after-search";
    case HookPoint::kAfterIFlag: return "after-iflag";
    case HookPoint::kBeforeIChild: return "before-ichild";
    case HookPoint::kBeforeIUnflag: return "before-iunflag";
    case HookPoint::kAfterDFlag: return "after-dflag";
    case HookPoint::kBeforeMark: return "before-mark";
    case HookPoint::kBeforeDChild: return "before-dchild";
    case HookPoint::kBeforeDUnflag: return "before-dunflag";
    case HookPoint::kBeforeBacktrack: return "before-backtrack";
    case HookPoint::kBeforeHelp: return "before-help";
    case HookPoint::kInsertRetry: return "insert-retry";
    case HookPoint::kDeleteRetry: return "delete-retry";
    case HookPoint::kAfterHelp: return "after-help";
    case HookPoint::kBeforeFreeze: return "before-freeze";
    case HookPoint::kBeforeScxChild: return "before-scx-child";
    case HookPoint::kBeforeScxCommit: return "before-scx-commit";
    case HookPoint::kScxRetry: return "scx-retry";
    case HookPoint::kBeforeRebalance: return "before-rebalance";
  }
  return "?";
}

/// Cost-attribution phases of one operation, the vocabulary of the profiling
/// layer (obs/profile.hpp). A PhaseProfiler partitions each operation's
/// measured time across these buckets: the first four are inferred from the
/// HookPoint stream (kAfterSearch closes descent, kBeforeHelp/kAfterHelp
/// bracket helping, kBeforeRebalance opens rebalance work, the retry points
/// reset to descent); the last two are explicit scopes emitted by the
/// protocol around allocation and retirement clusters via hooks::PhaseScope.
enum class Phase : std::uint8_t {
  kDescent,           // Search/find_path traversal down the tree
  kCasProtocol,       // flag/mark/child-swing CAS steps of the op's own commit
  kHelping,           // completing another operation's pending Info/ScxRecord
  kRebalanceCleanup,  // chromatic violation cleanup (fixing SCXs)
  kReclamation,       // retiring nodes/records into the reclaimer
  kPoolAlloc,         // allocating nodes/records ("pool_alloc" in metrics)
};

/// Number of Phase values; sizes the per-phase accumulator arrays in
/// obs/profile.hpp.
inline constexpr std::size_t kNumPhases = 6;

inline const char* to_string(Phase p) noexcept {
  switch (p) {
    case Phase::kDescent: return "descent";
    case Phase::kCasProtocol: return "cas_protocol";
    case Phase::kHelping: return "helping";
    case Phase::kRebalanceCleanup: return "rebalance_cleanup";
    case Phase::kReclamation: return "reclamation";
    case Phase::kPoolAlloc: return "pool_alloc";
  }
  return "?";
}

/// Thread identity carried by hook emissions: the per-handle id assigned by
/// the owning structure, or kNoTid on the tree-level (thread_local lease)
/// path, which has no stable per-thread identity to report.
inline constexpr unsigned kNoTid = ~0u;

/// Key identity carried by hook emissions: the operation's key projected to
/// uint64 by OpContext::set_op_key (key-space attribution for the contention
/// heatmap, obs/heatmap.hpp), or kNoKey when the context does not track keys
/// (the default — tracking is enabled per Traits via kTrackKeys) or the key
/// type has no integral projection.
inline constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

/// Owner identity stamped into Info/ScxRecord records when the instantiating
/// Traits enable kCausalTrace: the creating thread's id in the high 16 bits
/// and its per-handle operation sequence number in the low 48, packed into
/// one word so the stamp is a single plain store before the record's
/// publishing CAS. kNoOwner means "not stamped" (trait off, or a tree-level
/// op with no handle identity).
inline constexpr std::uint64_t kNoOwner = ~std::uint64_t{0};

inline constexpr std::uint64_t pack_owner(unsigned tid,
                                          std::uint64_t op_seq) noexcept {
  return (static_cast<std::uint64_t>(tid & 0xffffu) << 48) |
         (op_seq & ((std::uint64_t{1} << 48) - 1));
}
inline constexpr unsigned owner_tid(std::uint64_t owner) noexcept {
  return static_cast<unsigned>(owner >> 48);
}
inline constexpr std::uint64_t owner_seq(std::uint64_t owner) noexcept {
  return owner & ((std::uint64_t{1} << 48) - 1);
}

// ---------------------------------------------------------------------------
// Hook dispatch shims. Every emission point in protocol.hpp calls through
// these, passing the full site identity (step/point + the OpContext's thread
// id and operation key). A Traits type may implement any of three arities —
// the legacy on_cas(step, ok, node) / at(point), the tid-aware
// on_cas(step, ok, node, tid) / at(point, tid), or the key-aware
// on_cas(step, ok, node, tid, key) / at(point, tid, key); the shim detects
// the widest match at compile time, so existing traits keep working
// unchanged. The key argument is kNoKey unless the OpContext was built with
// key tracking enabled (Traits::kTrackKeys, see op_context.hpp).
//
// allow_cas is the fault-injection gate: a Traits exposing
// allow_cas(step, node, tid) -> bool may veto a protocol CAS, which the call
// site then treats exactly like a CAS that lost its race (the fault model of
// src/inject/). Traits without the member compile to `true` and the branch
// folds away.
// ---------------------------------------------------------------------------
namespace hooks {

template <typename Traits>
inline void emit_cas(CasStep s, bool ok, const void* node, unsigned tid,
                     std::uint64_t key = kNoKey) {
  if constexpr (requires { Traits::on_cas(s, ok, node, tid, key); }) {
    Traits::on_cas(s, ok, node, tid, key);
  } else if constexpr (requires { Traits::on_cas(s, ok, node, tid); }) {
    Traits::on_cas(s, ok, node, tid);
  } else {
    Traits::on_cas(s, ok, node);
  }
}

template <typename Traits>
inline void emit_at(HookPoint p, unsigned tid, std::uint64_t key = kNoKey) {
  if constexpr (requires { Traits::at(p, tid, key); }) {
    Traits::at(p, tid, key);
  } else if constexpr (requires { Traits::at(p, tid); }) {
    Traits::at(p, tid);
  } else {
    Traits::at(p);
  }
}

/// Help-site emission: like emit_at, but additionally carries the packed
/// owner stamp of the operation being helped (read from the Info/ScxRecord
/// the helper dispatched on). A Traits exposing the owner-aware arity
/// at(point, tid, key, owner) receives it; every narrower Traits falls back
/// through emit_at unchanged, so only causality-aware consumers pay for the
/// extra word.
template <typename Traits>
inline void emit_help(HookPoint p, unsigned tid, std::uint64_t key,
                      std::uint64_t owner) {
  if constexpr (requires { Traits::at(p, tid, key, owner); }) {
    Traits::at(p, tid, key, owner);
  } else {
    emit_at<Traits>(p, tid, key);
  }
}

/// Explicit-phase emission: brackets a region whose cost belongs to a phase
/// the HookPoint stream cannot infer (reclamation, pool_alloc). A Traits
/// exposing phase(entered, phase, tid) receives enter/exit edges; for every
/// other Traits (NoopTraits included) the call folds away entirely, so the
/// uninstrumented protocol stays byte-identical.
template <typename Traits>
inline void emit_phase(bool enter, Phase ph, unsigned tid) {
  if constexpr (requires { Traits::phase(enter, ph, tid); }) {
    Traits::phase(enter, ph, tid);
  } else {
    (void)enter;
    (void)ph;
    (void)tid;
  }
}

/// RAII form of emit_phase: enter on construction, exit on destruction.
/// Placed around allocation/retire clusters in protocol code; with a Traits
/// that lacks the phase hook both edges fold to nothing.
template <typename Traits>
class PhaseScope {
 public:
  PhaseScope(Phase ph, unsigned tid) noexcept : ph_(ph), tid_(tid) {
    emit_phase<Traits>(true, ph_, tid_);
  }
  ~PhaseScope() { emit_phase<Traits>(false, ph_, tid_); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Phase ph_;
  unsigned tid_;
};

template <typename Traits>
inline bool allow_cas(CasStep s, const void* node, unsigned tid) {
  if constexpr (requires { Traits::allow_cas(s, node, tid); }) {
    return static_cast<bool>(Traits::allow_cas(s, node, tid));
  } else {
    (void)s;
    (void)node;
    (void)tid;
    return true;
  }
}

}  // namespace hooks

// ---------------------------------------------------------------------------
// Optional Traits flags, detected by the facade (absence = default):
//
//   kLeanFind (default true) — route contains()/get() through the
//     bookkeeping-free find_path descent (core/search.hpp) instead of the
//     full Search. Turning it off restores the pre-redesign behaviour where
//     reads share the updaters' Search instantiation (useful for A/B runs
//     and for differential tests pinning the two descents against each
//     other).
// ---------------------------------------------------------------------------

namespace hooks {

template <typename Traits>
inline constexpr bool lean_find_v = [] {
  if constexpr (requires { Traits::kLeanFind; }) {
    return static_cast<bool>(Traits::kLeanFind);
  } else {
    return true;
  }
}();

/// kCausalTrace (default false) — stamp every Info/ScxRecord with its
/// creator's {tid, op_seq} owner word, maintain per-handle progress words
/// (op_seq/key/retries/step/help depth, core/op_context.hpp) for the
/// liveness watchdog, and carry the owner through the kBeforeHelp/kAfterHelp
/// emissions so causality consumers (obs/causal.hpp) can attribute helping.
template <typename Traits>
inline constexpr bool causal_trace_v = [] {
  if constexpr (requires { Traits::kCausalTrace; }) {
    return static_cast<bool>(Traits::kCausalTrace);
  } else {
    return false;
  }
}();

}  // namespace hooks

/// Zero-cost default: all hooks are empty and statistics are disabled.
/// kSearchHelpsMarked selects the paper's §6 Search variant: a Search that
/// encounters a marked internal node helps complete the deletion's dchild
/// CAS (splicing the node out) and restarts. The paper proposes this
/// modification as the precondition for hazard-pointer reclamation — a
/// marked-but-linked node must not outlive the deleter indefinitely. The
/// trade-off: Find is no longer read-only under this variant.
struct NoopTraits {
  static constexpr bool kCountStats = false;
  static constexpr bool kSearchHelpsMarked = false;
  static void on_cas(CasStep, bool, const void*) noexcept {}
  static void at(HookPoint) noexcept {}
};

/// Pre-redesign read path: contains()/get() run the full Search with
/// SearchResult capture. The A/B counterpart of the (default) lean find.
struct FullSearchFindTraits : NoopTraits {
  static constexpr bool kLeanFind = false;
};

/// §6 variant: searches splice out marked nodes they encounter.
struct HelpingSearchTraits : NoopTraits {
  static constexpr bool kSearchHelpsMarked = true;
};

/// Test traits: hooks dispatch to (re)settable global std::functions. Distinct
/// template instantiations do not interfere with trees using NoopTraits; gtest
/// runs test bodies serially, so tests install/reset these around themselves.
struct CallbackTraits {
  static constexpr bool kCountStats = true;
  static constexpr bool kSearchHelpsMarked = false;

  // NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
  static inline std::function<void(CasStep, bool, const void*)> on_cas_fn;
  // NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
  static inline std::function<void(HookPoint)> at_fn;

  static void on_cas(CasStep s, bool ok, const void* node) {
    if (on_cas_fn) on_cas_fn(s, ok, node);
  }
  static void at(HookPoint p) {
    if (at_fn) at_fn(p);
  }

  static void reset() {
    on_cas_fn = nullptr;
    at_fn = nullptr;
  }
};

/// Statistics-only traits for benchmarks (E5): counters on, hooks empty.
struct StatsTraits {
  static constexpr bool kCountStats = true;
  static constexpr bool kSearchHelpsMarked = false;
  static void on_cas(CasStep, bool, const void*) noexcept {}
  static void at(HookPoint) noexcept {}
};

}  // namespace efrb
