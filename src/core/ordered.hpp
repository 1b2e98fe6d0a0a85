// Layer 4 of the tree cores: ordered navigation and traversal.
//
// Free functions over a Layout and a BoundedCompare: min/max,
// predecessor/successor bounds, range visits, whole-tree traversal and the
// EFRB structural validator. All are read-only walks built from degenerate
// Searches (leftmost_leaf / rightmost_leaf below); none touches an update
// protocol, so one set of walks serves both the EFRB layout (layout.hpp) and
// the chromatic layout (chromatic.hpp) through the node seam described at
// the top of namespace ordered.
//
// Every function requires the caller to hold a pinned region on the tree's
// reclaimer for the duration of the call (the facade and its handles do
// this) — each visited node is reached by a chain of child pointers from the
// root, so it was on its search path at some time (§5's search-path lemma)
// and cannot be reclaimed while the caller stays pinned.
//
// Consistency: exact on a quiescent tree. Under concurrent updates these are
// weakly consistent: every key reported was present at some time during the
// call, and a key that is in the queried region for the whole call is
// reported; keys inserted/removed mid-call may or may not be. Unlike
// contains(), a find_ge/range result is not a single linearization point
// over the whole region.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/bounded_key.hpp"

namespace efrb {

/// Structural validation outcome (quiescent trees); see ordered::validate.
struct ValidationResult {
  bool ok = true;
  std::string error;
  std::size_t real_leaves = 0;
  std::size_t internals = 0;
  std::size_t height = 0;
};

namespace ordered {

// The walks below ask two things of a node, through the Layout's node seam:
// Layout::is_internal(n) and Layout::child(n, side). A leaf is read as a
// `Layout::Leaf` (key and value); every other node only by key. The EFRB
// layout answers from its immutable is_internal flag; the chromatic layout,
// whose single node type serves both roles, from a null left child.
inline constexpr bool kLeft = false;
inline constexpr bool kRight = true;

/// Leftmost leaf under `from`: Search for a key below every real key. The
/// result is the subtree's minimum (possibly the ∞₁ sentinel on an empty
/// tree).
template <typename Layout>
const typename Layout::Leaf* leftmost_leaf(const typename Layout::Node* from) {
  const typename Layout::Node* m = from;
  while (Layout::is_internal(m)) m = Layout::child(m, kLeft);
  return static_cast<const typename Layout::Leaf*>(m);
}

/// Rightmost *real-keyed* leaf under `from`: Search for a virtual key lying
/// strictly between every real key and ∞₁ — go right at real-keyed internals,
/// left at sentinel-keyed ones (sentinels live on the rightmost spine only,
/// Fig. 6). May still reach a sentinel leaf when the subtree holds no real
/// keys; callers check is_real().
template <typename Layout>
const typename Layout::Leaf* rightmost_leaf(const typename Layout::Node* from) {
  const typename Layout::Node* m = from;
  while (Layout::is_internal(m)) {
    m = Layout::child(m, m->key.is_real() ? kRight : kLeft);
  }
  return static_cast<const typename Layout::Leaf*>(m);
}

/// Smallest key, or nullopt when empty. Walking left edges is exactly
/// Search(k) for a key below every real key, so the reached leaf was on that
/// search path at some time during the walk (§5's search-path lemma), making
/// the result linearizable like Find.
template <typename Layout>
std::optional<typename Layout::key_type> min_key(
    const typename Layout::Node* root) {
  const auto* leaf = leftmost_leaf<Layout>(root);
  if (!leaf->key.is_real()) return std::nullopt;
  return leaf->key.key;
}

/// Largest key, or nullopt when empty. This is Search for a virtual key lying
/// strictly between every real key and ∞₁ (see rightmost_leaf); the same
/// search-path argument makes it linearizable.
template <typename Layout>
std::optional<typename Layout::key_type> max_key(
    const typename Layout::Node* root) {
  const auto* leaf = rightmost_leaf<Layout>(root);
  if (!leaf->key.is_real()) return std::nullopt;
  return leaf->key.key;
}

/// Smallest key >= k (or > k when strict). Single pass: descend the search
/// path for k, remembering the right child captured at the last left turn;
/// if the reached leaf does not satisfy the bound, the answer is the
/// minimum of that captured subtree (in a leaf-oriented BST the reached
/// leaf's key is adjacent to k in key order, so any better answer must sit
/// in the first subtree to the right of the search path).
template <typename Layout, typename Cmp>
std::optional<typename Layout::key_type> bound_up(
    const typename Layout::Node* root, const Cmp& cmp,
    const typename Layout::key_type& k, bool strict) {
  using Node = typename Layout::Node;
  const Node* l = root;
  const Node* last_right = nullptr;  // right sibling subtree of the search path
  while (Layout::is_internal(l)) {
    if (cmp.less(k, l->key)) {
      last_right = Layout::child(l, kRight);
      l = Layout::child(l, kLeft);
    } else {
      l = Layout::child(l, kRight);
    }
  }
  if (l->key.is_real()) {
    const bool ge = !cmp.user_compare()(l->key.key, k);  // leaf >= k
    const bool gt = cmp.user_compare()(k, l->key.key);   // leaf >  k
    if (strict ? gt : ge) return l->key.key;
  }
  if (last_right == nullptr) return std::nullopt;
  // Minimum of the captured subtree: follow left edges.
  const auto* succ = leftmost_leaf<Layout>(last_right);
  if (!succ->key.is_real()) return std::nullopt;  // only sentinels right of k
  return succ->key.key;
}

/// Largest key <= k (or < k when strict); mirror image of bound_up. The
/// left sibling subtree of the search path never contains sentinel leaves
/// (sentinels live on the rightmost spine only), but we re-check is_real
/// for robustness.
template <typename Layout, typename Cmp>
std::optional<typename Layout::key_type> bound_down(
    const typename Layout::Node* root, const Cmp& cmp,
    const typename Layout::key_type& k, bool strict) {
  using Node = typename Layout::Node;
  const Node* l = root;
  const Node* last_left = nullptr;  // left sibling subtree of the search path
  while (Layout::is_internal(l)) {
    if (cmp.less(k, l->key)) {
      l = Layout::child(l, kLeft);
    } else {
      last_left = Layout::child(l, kLeft);
      l = Layout::child(l, kRight);
    }
  }
  if (l->key.is_real()) {
    const bool le = !cmp.user_compare()(k, l->key.key);  // leaf <= k
    const bool lt = cmp.user_compare()(l->key.key, k);   // leaf <  k
    if (strict ? lt : le) return l->key.key;
  }
  if (last_left == nullptr) return std::nullopt;
  // Maximum of the captured subtree (rightmost_leaf handles the sentinel
  // spine, Fig. 6).
  const auto* pred = rightmost_leaf<Layout>(last_left);
  if (!pred->key.is_real()) return std::nullopt;
  return pred->key.key;
}

/// Visits every (key, value) with lo <= key <= hi in order, pruning subtrees
/// by the BST bounds. Uses an explicit stack: sequential insertion produces a
/// path-shaped tree (the paper leaves balancing to future work, §6), so
/// recursion depth would be O(n).
template <typename Layout, typename Cmp, typename Fn>
void range(const typename Layout::Node* root, const Cmp& cmp,
           const typename Layout::key_type& lo,
           const typename Layout::key_type& hi, Fn&& fn) {
  using Node = typename Layout::Node;
  if (cmp.user_compare()(hi, lo)) return;  // empty interval
  std::vector<const Node*> stack{root};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (Layout::is_internal(n)) {
      // Left subtree holds keys < n->key: visit iff lo < n->key.
      // Right subtree holds keys >= n->key: visit iff hi >= n->key.
      const bool go_left = cmp.less(lo, n->key);
      const bool go_right = !cmp.less(hi, n->key);
      // Push right first so the left subtree pops first (in-order leaves).
      if (go_right) stack.push_back(Layout::child(n, kRight));
      if (go_left) stack.push_back(Layout::child(n, kLeft));
    } else {
      const auto* leaf = static_cast<const typename Layout::Leaf*>(n);
      if (leaf->key.is_real() && !cmp.user_compare()(leaf->key.key, lo) &&
          !cmp.user_compare()(hi, leaf->key.key)) {
        fn(leaf->key.key, leaf->value);
      }
    }
  }
}

/// Depth-first in-order visit of every real (key, value) pair under `start`.
template <typename Layout, typename Fn>
void for_each(const typename Layout::Node* start, Fn&& fn) {
  using Node = typename Layout::Node;
  std::vector<const Node*> stack{start};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (Layout::is_internal(n)) {
      // Right first so the left subtree pops first: in-order for leaves.
      stack.push_back(Layout::child(n, kRight));
      stack.push_back(Layout::child(n, kLeft));
    } else {
      const auto* leaf = static_cast<const typename Layout::Leaf*>(n);
      if (leaf->key.is_real()) fn(leaf->key.key, leaf->value);
    }
  }
}

/// Structural validation for tests (quiescent trees): checks the
/// leaf-oriented shape, the BST key order with sentinel placement (Fig. 6),
/// and the permanent ∞₂ root.
template <typename Layout, typename Cmp>
ValidationResult validate(typename Layout::Internal* root, const Cmp& cmp) {
  using BKey = typename Layout::BKey;
  using Internal = typename Layout::Internal;
  using Leaf = typename Layout::Leaf;
  using Node = typename Layout::Node;
  ValidationResult r;
  if (root->key.cls != KeyClass::kInf2) {
    r.ok = false;
    r.error = "root key is not ∞₂";
    return r;
  }
  struct Frame {
    Node* n;
    const BKey* lower;  // inclusive (equal keys go right)
    const BKey* upper;  // exclusive
    std::size_t depth;
  };
  std::vector<Frame> stack{{root, nullptr, nullptr, 1}};
  while (!stack.empty() && r.ok) {
    const Frame f = stack.back();
    stack.pop_back();
    r.height = std::max(r.height, f.depth);
    if (f.lower != nullptr && cmp(f.n->key, *f.lower)) {
      r.ok = false;
      r.error = "key below the lower bound inherited from an ancestor";
      return r;
    }
    if (f.upper != nullptr && !cmp(f.n->key, *f.upper)) {
      r.ok = false;
      r.error = "key not strictly below the upper bound from an ancestor";
      return r;
    }
    if (!f.n->is_internal) {
      if (static_cast<Leaf*>(f.n)->key.is_real()) ++r.real_leaves;
      continue;
    }
    auto* in = static_cast<Internal*>(f.n);
    ++r.internals;
    Node* left = in->left.load(std::memory_order_acquire);
    Node* right = in->right.load(std::memory_order_acquire);
    if (left == nullptr || right == nullptr) {
      r.ok = false;
      r.error = "internal node with a null child (leaf-oriented shape broken)";
      return r;
    }
    stack.push_back(Frame{left, f.lower, &in->key, f.depth + 1});
    stack.push_back(Frame{right, &in->key, f.upper, f.depth + 1});
  }
  return r;
}

}  // namespace ordered
}  // namespace efrb
