// Workload definitions and the deterministic op stream.
//
// A run executes a fixed number of chunks of kChunkOps ops. The ops of chunk
// c depend only on (seed, stream, c), so every run with the same seed and op
// count executes the same multiset of ops however the chunks land on
// threads. Every mix has equal insert and erase shares over a key range
// twice the prefill size, so the live set stays at the prefill size.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

inline constexpr std::uint64_t kChunkOps = 4096;
inline constexpr std::uint64_t kSampleEvery = 16;  // 1-in-N latency sample
// Traced run: 1-in-N ops of a traced chunk get a span, which keeps the span
// file near 10 MB.
inline constexpr std::uint64_t kSpanEvery = 256;
inline constexpr std::uint64_t kScanWidth = 64;    // keys per range window
inline constexpr std::size_t kMultiGetKeys = 16;

// Op-stream tags: each (seed, tag) pair is an independent stream.
inline constexpr std::uint64_t kMeasuredStream = 0;
inline constexpr std::uint64_t kWarmupStream = 1;
inline constexpr std::uint64_t kPrefillStream = 2;
inline constexpr std::uint64_t kProbeStream = 3;

struct Workload {
  const char* name;
  bool sharded;             // ShardedMap (HashRouter, 8 shards) or one tree
  unsigned log_range;       // keys drawn uniformly from [0, 2^log_range)
  unsigned find_pct;        // the five shares add up to 100
  unsigned insert_pct;
  unsigned erase_pct;
  unsigned range_pct;
  unsigned multi_get_pct;
  // Sizing only: the fixed op count of a run is ops_per_second x --seconds,
  // chosen so a run lasts about --seconds on a 4-core host. It is a constant,
  // never a measurement, so both sides of a comparison do the same work.
  double ops_per_second;
  unsigned setup_reps;      // set-ups per run; setup_s is their median
  std::uint64_t warmup_ops; // untimed-by-ops_per_s work counted in setup_s
};

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"read-large", false, 21, 90, 5, 5, 0, 0, 1.5e6, 3, 1u << 19},
      {"update-small", false, 14, 0, 50, 50, 0, 0, 3.6e6, 5, 1u << 19},
      {"scan-sharded", true, 16, 60, 15, 15, 5, 5, 2.1e6, 5, 1u << 18},
  };
  return w;
}

inline const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

enum class Kind : std::uint8_t { kFind, kInsert, kErase, kRange, kMultiGet };
struct Op {
  Kind kind;
  std::uint64_t key;
};

inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag,
                                 std::uint64_t chunk) noexcept {
  efrb::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL ^ (tag << 56) ^ chunk);
  sm.next();
  return sm.next();
}

/// The ops of one chunk, generated on the fly (a few ns per op).
class OpStream {
 public:
  OpStream(const Workload& w, std::uint64_t seed, std::uint64_t tag,
           std::uint64_t chunk) noexcept
      : rng_(stream_seed(seed, tag, chunk)),
        mask_((std::uint64_t{1} << w.log_range) - 1),
        t_find_(w.find_pct),
        t_insert_(t_find_ + w.insert_pct),
        t_erase_(t_insert_ + w.erase_pct),
        t_range_(t_erase_ + w.range_pct) {}

  Op next() noexcept {
    const std::uint64_t r = rng_.next();
    const auto pct = static_cast<unsigned>((r >> 32) % 100);
    const std::uint64_t key = r & mask_;
    if (pct < t_find_) return {Kind::kFind, key};
    if (pct < t_insert_) return {Kind::kInsert, key};
    if (pct < t_erase_) return {Kind::kErase, key};
    if (pct < t_range_) return {Kind::kRange, key};
    return {Kind::kMultiGet, key};
  }

  /// Extra keys (multi_get batches), drawn from the same stream.
  std::uint64_t key() noexcept { return rng_.next() & mask_; }

 private:
  efrb::Xoshiro256 rng_;
  std::uint64_t mask_;
  unsigned t_find_, t_insert_, t_erase_, t_range_;
};

/// The value stored with every key, so reads can check what they get back.
inline std::uint64_t value_of(std::uint64_t k) noexcept {
  return (k * 0x9e3779b97f4a7c15ULL) | 1;
}

/// Seeded random permutation of [0, 2^log_range); its first half is the
/// prefill set, inserted in that order (never ascending).
inline std::vector<std::uint32_t> prefill_order(unsigned log_range,
                                                std::uint64_t seed) {
  std::vector<std::uint32_t> perm(std::size_t{1} << log_range);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<std::uint32_t>(i);
  }
  efrb::Xoshiro256 rng(stream_seed(seed, kPrefillStream, 0));
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.next_below(i + 1)]);
  }
  return perm;
}

/// Nearest-rank percentile over a sample, with the counts that say how far
/// to trust it.
struct Percentile {
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples strictly above the rank
};

inline Percentile percentile(std::vector<std::uint32_t>& v, double q) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
