// Experiment E1 — dictionary throughput across operation mixes, key ranges
// and thread counts (the §6 evaluation programme: compare the EFRB tree
// against the lock-based trees of §2 and the skiplist of §1).
//
// Output: one table per (mix, key range); rows = thread counts, columns =
// implementations, cells = Mops/s.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baselines/coarse_bst.hpp"
#include "baselines/finelock_bst.hpp"
#include "baselines/locked_map.hpp"
#include "baselines/skiplist.hpp"
#include "bench_common.hpp"
#include "core/chromatic.hpp"
#include "core/efrb_tree.hpp"
#include "obs/heatmap.hpp"
#include "shard/shard_metrics.hpp"
#include "shard/sharded_map.hpp"
#include "util/thread_pool.hpp"
#include "workload/op_mix.hpp"
#include "workload/report.hpp"

namespace {

using Key = std::uint64_t;
using efrb::OpMix;
using efrb::Table;
using efrb::WorkloadConfig;

template <typename Set>
double mops_for(const WorkloadConfig& cfg, const char* name) {
  return efrb::bench::run_cell<Set>(cfg, name).mops();
}

void run_grid(const OpMix& mix, std::uint64_t range,
              const std::vector<std::size_t>& threads) {
  std::printf("-- mix %s, key range %s --\n", efrb::mix_name(mix),
              efrb::bench::human_range(range).c_str());
  Table table({"threads", "efrb-tree", "lockfree-skiplist", "finelock-bst",
               "coarse-lock-bst", "locked-std-map"});
  for (std::size_t t : threads) {
    WorkloadConfig cfg;
    cfg.threads = t;
    cfg.key_range = range;
    cfg.mix = mix;
    cfg.duration = efrb::bench::cell_duration();
    table.add_row(
        {std::to_string(t),
         Table::fmt(mops_for<efrb::EfrbTreeSet<Key>>(cfg, "efrb-tree")),
         Table::fmt(
             mops_for<efrb::LockFreeSkipList<Key>>(cfg, "lockfree-skiplist")),
         Table::fmt(mops_for<efrb::FineLockBst<Key>>(cfg, "finelock-bst")),
         Table::fmt(mops_for<efrb::CoarseLockBst<Key>>(cfg, "coarse-lock-bst")),
         Table::fmt(mops_for<efrb::LockedStdSet<Key>>(cfg, "locked-std-map"))});
  }
  table.print();
  std::printf("\n");
}

// E1b — the handle-path ablation backing docs/API.md: the same tree measured
// through tree-level methods (thread_local lease per op, shared counters)
// and through per-thread handles (attached slot, sharded counters), with
// stats disabled and enabled.
void run_handle_ablation(const std::vector<std::size_t>& threads) {
  using Plain = efrb::EfrbTreeSet<Key>;
  using Stats = efrb::EfrbTreeSet<Key, std::less<Key>, efrb::EpochReclaimer,
                                  efrb::StatsTraits>;
  std::printf("-- handle ablation: balanced mix, key range 2^16 --\n");
  Table table({"threads", "tree-methods", "handles", "stats+tree-methods",
               "stats+handles"});
  for (std::size_t t : threads) {
    WorkloadConfig handle_cfg;
    handle_cfg.threads = t;
    handle_cfg.key_range = std::uint64_t{1} << 16;
    handle_cfg.mix = efrb::kBalanced;
    handle_cfg.duration = efrb::bench::cell_duration();
    WorkloadConfig tree_cfg = handle_cfg;
    tree_cfg.use_handles = false;
    table.add_row({std::to_string(t),
                   Table::fmt(mops_for<Plain>(tree_cfg, "tree-methods")),
                   Table::fmt(mops_for<Plain>(handle_cfg, "handles")),
                   Table::fmt(mops_for<Stats>(tree_cfg, "stats+tree-methods")),
                   Table::fmt(mops_for<Stats>(handle_cfg, "stats+handles"))});
  }
  table.print();
  std::printf("\n");
}

// E1c — the allocation/read-path ablation backing the allocator redesign:
// the same tree across the 2x2 grid {heap, pooled} x {lean find, full
// Search}, uniform read-mostly mix (the cell scripts/check.sh gates on:
// pooled+lean must not regress below heap+full).
void run_alloc_ablation(const std::vector<std::size_t>& threads) {
  using HeapLean = efrb::EfrbTreeSet<Key>;  // kLeanFind defaults on
  using HeapFull = efrb::EfrbTreeSet<Key, std::less<Key>, efrb::EpochReclaimer,
                                     efrb::FullSearchFindTraits>;
  using PoolLean = efrb::EfrbTreeSet<Key, std::less<Key>, efrb::EpochReclaimer,
                                     efrb::PooledTraits>;
  using PoolFull = efrb::EfrbTreeSet<Key, std::less<Key>, efrb::EpochReclaimer,
                                     efrb::PooledFullSearchTraits>;
  std::printf("-- alloc ablation: read-mostly mix, key range 2^16 --\n");
  Table table({"threads", "heap+fullsearch", "heap+lean", "pooled+fullsearch",
               "pooled+lean"});
  for (std::size_t t : threads) {
    WorkloadConfig cfg;
    cfg.threads = t;
    cfg.key_range = std::uint64_t{1} << 16;
    cfg.mix = efrb::kReadMostly;
    cfg.duration = efrb::bench::cell_duration();
    table.add_row(
        {std::to_string(t),
         Table::fmt(mops_for<HeapFull>(cfg, "alloc:heap+fullsearch")),
         Table::fmt(mops_for<HeapLean>(cfg, "alloc:heap+lean")),
         Table::fmt(mops_for<PoolFull>(cfg, "alloc:pooled+fullsearch")),
         Table::fmt(mops_for<PoolLean>(cfg, "alloc:pooled+lean"))});
  }
  table.print();
  std::printf("\n");
}

// E1d — the balance ablation backing the chromatic tree (PR 7). Three cells,
// each efrb-vs-chromatic:
//   balance:sorted-insert — fixed work, one ascending key stream split round-
//     robin across threads. The EFRB tree degenerates into a vine (O(n)
//     descents); the chromatic tree rebalances to O(log n). This is the cell
//     scripts/check.sh gates at >= 5x.
//   balance:zipf — duration cell, Zipf-skewed balanced mix: the hot keys
//     cluster, so depth under the hot path is what the rebalancing buys.
//   balance:uniform — duration cell, uniform balanced mix: the rent. The
//     chromatic tree pays LLX windows + SCX records + cleanup on every
//     update and must stay within 0.9x of EFRB here (the other check.sh
//     gate).
template <typename Set>
double sorted_insert_mops(int n, std::size_t threads, const char* name) {
  Set set;
  const auto t0 = std::chrono::steady_clock::now();
  efrb::run_threads(threads, [&](std::size_t tid) {
    auto h = set.handle();
    for (int k = static_cast<int>(tid); k < n; k += static_cast<int>(threads)) {
      h.insert(k);
    }
  });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  efrb::WorkloadResult res;
  res.inserts = static_cast<std::uint64_t>(n);
  res.ok_inserts = res.inserts;
  res.seconds = seconds;
  if (efrb::bench::metrics().enabled()) {
    WorkloadConfig cfg;
    cfg.threads = threads;
    cfg.key_range = static_cast<std::uint64_t>(n);
    cfg.mix = OpMix{100, 0};
    cfg.prefill_fraction = 0;
    cfg.seed = efrb::bench::bench_seed(cfg.seed);
    efrb::bench::metrics().add_cell(name, cfg, res);
  }
  return res.mops();
}

void run_balance_grid(const std::vector<std::size_t>& threads) {
  using Efrb = efrb::EfrbTreeSet<Key>;
  using Chromatic = efrb::ChromaticTreeSet<Key>;
  // Fixed sorted-insert work: big enough that the EFRB vine's quadratic
  // descent cost dominates, small enough that the cell stays sub-second.
  constexpr int kSortedKeys = 20'000;

  std::printf("-- balance ablation: sorted insert of %d keys (Mops/s) --\n",
              kSortedKeys);
  Table sorted({"threads", "efrb-tree", "chromatic-tree"});
  for (std::size_t t : threads) {
    sorted.add_row(
        {std::to_string(t),
         Table::fmt(sorted_insert_mops<Efrb>(kSortedKeys, t,
                                             "balance:sorted-insert efrb")),
         Table::fmt(sorted_insert_mops<Chromatic>(
             kSortedKeys, t, "balance:sorted-insert chromatic"))});
  }
  sorted.print();
  std::printf("\n");

  std::printf(
      "-- balance ablation: zipf-skewed vs uniform balanced mix, 2^16 --\n");
  Table mixes({"threads", "efrb zipf", "chromatic zipf", "efrb uniform",
               "chromatic uniform"});
  for (std::size_t t : threads) {
    WorkloadConfig uni;
    uni.threads = t;
    uni.key_range = std::uint64_t{1} << 16;
    uni.mix = efrb::kBalanced;
    uni.duration = efrb::bench::cell_duration();
    WorkloadConfig zipf = uni;
    zipf.zipf = true;
    mixes.add_row(
        {std::to_string(t),
         Table::fmt(mops_for<Efrb>(zipf, "balance:zipf efrb")),
         Table::fmt(mops_for<Chromatic>(zipf, "balance:zipf chromatic")),
         Table::fmt(mops_for<Efrb>(uni, "balance:uniform efrb")),
         Table::fmt(mops_for<Chromatic>(uni, "balance:uniform chromatic"))});
  }
  mixes.print();
  std::printf("\n");

  // Fixed-op-count uniform cells: same Mops/s comparison as balance:uniform,
  // but both trees perform the IDENTICAL op/key stream (equal work), so the
  // chromatic/efrb ratio is stable enough for check.sh to gate on strictly —
  // fixed-duration ratios wobble with whatever the scheduler let each cell
  // get through (the strict-gate flake this replaces).
  constexpr std::uint64_t kUniformOps = 200'000;
  std::printf("-- balance ablation: fixed %llu-op uniform mix, 2^16 --\n",
              static_cast<unsigned long long>(kUniformOps));
  Table ops({"threads", "efrb uniform-ops", "chromatic uniform-ops"});
  for (std::size_t t : threads) {
    ops.add_row(
        {std::to_string(t),
         Table::fmt(efrb::bench::run_fixed_ops_cell<Efrb>(
                        kUniformOps, t, std::uint64_t{1} << 16,
                        "balance:uniform-ops efrb")
                        .mops()),
         Table::fmt(efrb::bench::run_fixed_ops_cell<Chromatic>(
                        kUniformOps, t, std::uint64_t{1} << 16,
                        "balance:uniform-ops chromatic")
                        .mops())});
  }
  ops.print();
  std::printf("\n");
}

// E1e — shard-count ablation over the sharded tree-of-trees front end
// (src/shard/sharded_map.hpp): the uniform fixed-op cell against N-way
// hash-sharded EFRB trees, 16 threads. On a multi-core host the payoff is
// near-linear until routers saturate; wherever 16 threads oversubscribe the
// host's cores (main() prints the detected count), the cells also carry the
// sharding overhead floor (routing + per-shard handle lazy attach) plus
// whatever contention relief oversubscribed threads get from splitting the
// root and the reclaimer domains.
void run_shard_grid() {
  using Inner = efrb::EfrbTreeSet<Key>;
  using Sharded = efrb::shard::ShardedSet<Inner, efrb::shard::HashRouter>;
  constexpr std::uint64_t kOps = 200'000;
  constexpr std::uint64_t kRange = std::uint64_t{1} << 16;
  constexpr std::size_t kThreads = 16;
  const std::uint64_t seed = efrb::bench::bench_seed(42);

  auto record = [&](const char* name, const efrb::WorkloadResult& res) {
    if (efrb::bench::metrics().enabled()) {
      WorkloadConfig cfg;
      cfg.threads = kThreads;
      cfg.key_range = kRange;
      cfg.mix = efrb::kBalanced;
      cfg.seed = seed;
      efrb::bench::metrics().add_cell(name, cfg, res);
    }
    return res.mops();
  };

  std::printf("-- shard ablation: fixed %llu-op uniform mix, %zu threads --\n",
              static_cast<unsigned long long>(kOps), kThreads);
  Table table({"shards", "Mops/s"});
  {
    Inner single;
    efrb::prefill(single, kRange, 0.5, seed);
    const auto res =
        efrb::bench::run_fixed_ops(single, kOps, kThreads, kRange, seed);
    table.add_row({"1 (unsharded)", Table::fmt(record("shard:single", res))});
  }
  for (const std::size_t s : {2u, 4u, 8u, 16u}) {
    Sharded sharded{efrb::shard::HashRouter(s)};
    efrb::prefill(sharded, kRange, 0.5, seed);
    const auto res =
        efrb::bench::run_fixed_ops(sharded, kOps, kThreads, kRange, seed);
    const std::string name = "shard:uniform s=" + std::to_string(s);
    table.add_row({std::to_string(s), Table::fmt(record(name.c_str(), res))});
  }
  table.print();
  std::printf("\n");

  // The PR 5 loop closed: a heatmap-instrumented sharded run scored through
  // score_shard_map — windowed key-space load attributed to shards by the
  // router — exported as the metrics-v2 `sharding` cell and the Prometheus
  // efrb_shard_* series (shard/shard_metrics.hpp).
  using HeatInner = efrb::EfrbTreeSet<Key, std::less<Key>, efrb::EpochReclaimer,
                                      efrb::obs::HeatmapTraits>;
  using HeatSharded =
      efrb::shard::ShardedSet<HeatInner, efrb::shard::HashRouter>;
  efrb::obs::KeyHeatmap heatmap(kRange);
  efrb::obs::HeatmapTraits::install(&heatmap);
  HeatSharded sharded{efrb::shard::HashRouter(8)};
  efrb::prefill(sharded, kRange, 0.5, seed);
  const std::vector<efrb::obs::HeatBucket> before = heatmap.snapshot();
  const auto res =
      efrb::bench::run_fixed_ops(sharded, kOps, kThreads, kRange, seed);
  efrb::obs::HeatmapTraits::reset();
  const efrb::shard::ShardBalanceReport rep = efrb::shard::score_shard_map(
      sharded.router(), heatmap, before, heatmap.snapshot());
  std::printf("shard balance (hash x8, windowed heatmap): imbalance %.2fx, "
              "hottest shard %zu (%.0f%% of attempts)%s\n\n",
              rep.imbalance(), rep.hottest(), 100.0 * rep.share(rep.hottest()),
              rep.balanced() ? "" : "  ** imbalanced **");
  if (efrb::bench::metrics().enabled()) {
    WorkloadConfig cfg;
    cfg.threads = kThreads;
    cfg.key_range = kRange;
    cfg.mix = efrb::kBalanced;
    cfg.seed = seed;
    const efrb::TreeStats stats = sharded.stats_snapshot();
    const efrb::ReclaimGauges gauges = sharded.gauges();
    std::vector<efrb::ReclaimGauges> per_shard;
    for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
      per_shard.push_back(sharded.shard_gauges(i));
    }
    efrb::bench::metrics().add_cell_sharded("shard:balance-report", cfg, res,
                                            &stats, &gauges,
                                            efrb::shard::HashRouter::kName,
                                            rep, per_shard);
  }
}

}  // namespace

int main(int argc, char** argv) {
  efrb::bench::metrics().init("bench_throughput", argc, argv);
  const std::string intro =
      "Paper expectation (§1/§3): the non-blocking tree sustains throughput\n"
      "as threads grow, lookups never block, and coarse locks collapse under\n"
      "update load. Host: " +
      std::to_string(std::thread::hardware_concurrency()) +
      " hardware threads (0 = unknown); cells with more threads than that\n"
      "measure oversubscription, not parallelism.";
  efrb::bench::print_header("E1: throughput vs threads (Mops/s)",
                            intro.c_str());

  const std::vector<std::size_t> threads = {1, 2, 4, 8};
  for (const OpMix mix :
       {efrb::kReadOnly, efrb::kBalanced, efrb::kUpdateHeavy}) {
    for (const std::uint64_t range : {std::uint64_t{1} << 10,
                                      std::uint64_t{1} << 20}) {
      run_grid(mix, range, threads);
    }
  }
  run_handle_ablation(threads);
  run_alloc_ablation(threads);
  run_balance_grid(threads);
  run_shard_grid();
  return efrb::bench::metrics().finish() ? 0 : 1;
}
