// The allocation layer: where nodes and Info records come from.
//
// The paper assumes a garbage-collected environment in which "nodes are
// always allocated new memory locations" (§4.1). Here every node and record
// comes from the global heap, through OpContext::make/dispose:
//
//   * On the Handle path, make/dispose first try the attachment's recycle
//     bins (reclaim/recycle.hpp): blocks the handle's own epoch sweeps kept
//     back, by exact size, instead of deleting them. Reuse is exactly as safe
//     as heap delete-then-new, which may hand back the same address too.
//   * Everywhere else (the tree-level lease path, constructors and
//     destructors, the baselines) make is `new` and dispose is `delete`.
//
// HeapAllocator is the stateless create/destroy surface a tree exposes
// through TreeMap::allocator(), so benchmarks can time one node allocation
// without building a context.
#pragma once

#include <utility>

namespace efrb {

/// The global heap: create<T> is `new`, destroy<T> is `delete`. Stateless;
/// the Cache exists so callers can hold "a cache" like any allocator.
class HeapAllocator {
 public:
  struct Cache {};

  Cache make_cache() noexcept { return Cache{}; }

  template <typename T, typename... Args>
  T* create(Cache& /*cache*/, Args&&... args) {
    return new T(std::forward<Args>(args)...);
  }

  template <typename T>
  void destroy(Cache& /*cache*/, T* p) noexcept {
    delete p;
  }
};

}  // namespace efrb
