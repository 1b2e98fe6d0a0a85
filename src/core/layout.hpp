// Layer 1 of the EFRB core: memory layout.
//
// Everything the paper's Figure 7 declares lives here — the update word
// (state + Info pointer packed into one CAS word), the Info records, and the
// leaf-oriented node types — with no algorithm attached. The Search routine
// (search.hpp), the CAS protocol (protocol.hpp), the ordered navigation
// (ordered.hpp) and the public facade (tree_map.hpp via efrb_tree.hpp) are
// all written against these types.
//
// Update-word packing (paper §3/§4.1): "The pointer to the Info record is
// stored in the same memory word as the state. (In typical 32-bit word
// architectures, if items stored in memory are word-aligned, the two
// lowest-order bits of a pointer can be used to store the state.)" We realize
// exactly that packing on 64-bit: Info records are allocated with alignment
// >= 4, so bits 0..1 of the pointer hold one of the four states {Clean,
// DFlag, IFlag, Mark}.
//
// The packed word is what every update-field CAS in Figures 8/9 operates on;
// equality of two packed words is equality of (state, info) pairs, which is
// what gives the algorithm its "values never repeat" property (each flagging
// installs a pointer to a freshly allocated Info record).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/bounded_key.hpp"
#include "core/debug_hooks.hpp"
#include "core/llx_scx.hpp"
#include "util/assert.hpp"

namespace efrb {

/// States of an internal node's update field (Fig. 4/7). Numeric values are
/// the two tag bits stored in the packed word.
enum class UpdateState : std::uintptr_t {
  kClean = 0,  // no operation holds this node's child pointers
  kDFlag = 1,  // a Delete intends to change a child pointer (grandparent role)
  kIFlag = 2,  // an Insert intends to change a child pointer
  kMark = 3,   // node is being spliced out; child pointers frozen forever
};

/// Base class of IInfo/DInfo. The state tag of a word that points to an Info
/// record tells helpers the concrete type while the operation is in flight
/// (IFlag -> IInfo, DFlag/Mark -> DInfo), mirroring the paper's Help routine
/// (lines 107-112). The virtual members exist for reclamation only: a record
/// is retired when a *Clean* word referencing it is overwritten, and at that
/// point the tag no longer identifies the concrete type. dynamic_size() lets
/// the heap recycle path (reclaim/recycle.hpp) bin the block by its real size.
struct Info {
  /// Causal owner stamp: pack_owner(tid, op_seq) of the creating operation,
  /// written by the creator *before* the record's publishing CAS and read by
  /// helpers only after an acquire load of the update word that published it
  /// — so a plain (non-atomic) word is race-free. Stays kNoOwner unless the
  /// instantiating Traits enable kCausalTrace (core/debug_hooks.hpp). The
  /// word costs 8 bytes in every record whether or not causal tracing is on.
  std::uint64_t owner = kNoOwner;
  virtual ~Info() = default;
  /// sizeof the concrete record: the size its block was allocated with.
  virtual std::size_t dynamic_size() const noexcept = 0;
};

/// Immutable snapshot of an update field: (state, Info*) in one word — the
/// four-state EFRB specialization of the shared tagged-word seam
/// (core/llx_scx.hpp). A default-constructed Update is {Clean, nullptr}, the
/// initial value of every internal node.
using Update = TaggedInfoWord<UpdateState, Info>;

/// The atomic update field of an internal node.
///
/// compare_exchange: single-word CAS; on failure `expected` is refreshed with
/// the witnessed value (which callers pass to Help, per lines 61/85/97 of the
/// paper). Orders default to the strongest pairing the protocol needs
/// (acq_rel success / acquire failure). Steps whose failure value is
/// discarded and whose success publishes nothing new pass weaker orders
/// explicitly — see the per-step audit comments in core/protocol.hpp.
using AtomicUpdate = AtomicInfoWord<Update>;

static_assert(sizeof(AtomicUpdate) == sizeof(std::uintptr_t),
              "update field must be one CAS word");

/// The node and Info-record types of one tree instantiation (Fig. 7), bundled
/// so every layer names them off a single `Layout` template argument.
template <typename Key, typename Value>
struct TreeLayout {
  using key_type = Key;
  using mapped_type = Value;
  using BKey = BoundedKey<Key>;

  struct Node {
    const BKey key;
    const bool is_internal;
    Node(BKey k, bool internal) : key(std::move(k)), is_internal(internal) {}
  };

  struct Leaf final : Node {
    [[no_unique_address]] Value value;
    Leaf(BKey k, Value v) : Node(std::move(k), false), value(std::move(v)) {}
  };

  // No type here asks for more than its natural alignment: an over-aligned
  // type sends every heap `new` down the allocator's aligned path, which
  // bypasses the per-thread cache, takes the arena lock and pads each node
  // to a full line. Measured against 64-byte alignment, natural alignment
  // made every perfbench workload faster (update-small +30% ops/s) and every
  // node smaller (bytes_per_key -21%); see EXPERIMENTS.md (E8). The pooled
  // allocator still hands out whole-line blocks.
  struct Internal final : Node {
    AtomicUpdate update;  // lines 2-5: (state, Info*) in one CAS word
    std::atomic<Node*> left;
    std::atomic<Node*> right;
    Internal(BKey k, Node* l, Node* r)
        : Node(std::move(k), true), left(l), right(r) {}
  };

  // lines 12-14. new_node is Node* (not Internal*) to support the
  // insert_or_assign extension, which installs a replacement Leaf.
  struct IInfo final : Info {
    Internal* p;
    Leaf* l;
    Node* new_node;
    IInfo(Internal* p_, Leaf* l_, Node* n_) : p(p_), l(l_), new_node(n_) {}
    std::size_t dynamic_size() const noexcept override { return sizeof(IInfo); }
  };

  // lines 15-18
  struct DInfo final : Info {
    Internal* gp;
    Internal* p;
    Leaf* l;
    Update pupdate;
    DInfo(Internal* gp_, Internal* p_, Leaf* l_, Update pu)
        : gp(gp_), p(p_), l(l_), pupdate(pu) {}
    std::size_t dynamic_size() const noexcept override { return sizeof(DInfo); }
  };

  static_assert(alignof(IInfo) >= 4 && alignof(DInfo) >= 4,
                "two low pointer bits must be free for the state tag");
  static_assert(heap_native<Leaf> && heap_native<Internal> &&
                    heap_native<IInfo> && heap_native<DInfo>,
                "plain new must not take the aligned allocation path");

  // Node seam of the ordered walks (ordered.hpp): the kind test reads the
  // immutable flag, so a walk loads exactly the child pointers it follows.
  static bool is_internal(const Node* n) noexcept { return n->is_internal; }
  static Node* child(const Node* n, bool right) noexcept {
    const auto* in = static_cast<const Internal*>(n);
    return (right ? in->right : in->left).load(std::memory_order_acquire);
  }

  /// Postcondition bundle of the Search routine (paper lines 24-26).
  struct SearchResult {
    Internal* gp;
    Internal* p;
    Leaf* l;
    Update pupdate;
    Update gpupdate;
  };
};

}  // namespace efrb
