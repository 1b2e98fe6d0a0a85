// perfbench: the repository's steady end-to-end benchmark.
//
//   perfbench --workload <read-large|update-small|scan-sharded>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--smoke]
//
// --trace 0 measures the end-to-end metrics of one workload: T = min(4,
// nproc) closed-loop worker threads run a fixed op count through the public
// Handle of EfrbTreeMap<uint64_t, uint64_t> (or ShardedMap over it), with a
// fixed 1-in-16 latency sample. --trace 1 is a separate invocation that
// records spans around the calls into each layer, reads counts from a
// StatsTraits instance running the same stream, and runs a one-thread layer
// ladder; it prints the per-layer metrics. Every run checks its outputs
// (per-key ledger, validate(), scan order and window, values) and exits 1 if
// any op threw or failed a check. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// All times come from steady_clock; heap bytes come from the counting
// operator new in alloc_count.cpp.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "alloc_count.hpp"
#include "core/efrb_tree.hpp"
#include "host.hpp"
#include "shard/sharded_map.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using Key = std::uint64_t;
using Tree = efrb::EfrbTreeMap<Key, std::uint64_t>;
using Sharded = efrb::shard::ShardedMap<Tree>;
using StatsTree = efrb::EfrbTreeMap<Key, std::uint64_t, std::less<Key>,
                                    efrb::EpochReclaimer, efrb::StatsTraits>;
using StatsSharded = efrb::shard::ShardedMap<StatsTree>;
using Layout = efrb::TreeLayout<Key, std::uint64_t>;

struct Config {
  Workload w{};  // log_range shrunk in --smoke mode
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  unsigned threads = 1;
  std::vector<int> cpus;  // CPUs this process may run on, in order
  std::uint64_t range = 0;
  std::uint64_t live = 0;  // prefill size = range / 2
  std::uint64_t chunks = 0;
  std::uint64_t warmup_chunks = 0;
  unsigned setup_reps = 1;
};

/// Failed ops and failed checks, with the first few messages kept.
class Failures {
 public:
  void add(std::uint64_t n, const std::string& what) {
    if (n == 0) return;
    count_.fetch_add(n, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 8) messages_.push_back(what);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::mutex mu_;
  std::vector<std::string> messages_;
};

/// Per-key presence ledger. prefill says which keys the set-up inserted;
/// each thread keeps its own delta array (+1 per successful insert, -1 per
/// successful erase), so recording costs one private increment.
class Ledger {
 public:
  Ledger(std::uint64_t range, unsigned threads)
      : prefill_(range), deltas_(threads, std::vector<std::int32_t>(range)) {}

  void reset(const std::vector<std::uint32_t>& perm, std::uint64_t live) {
    std::fill(prefill_.begin(), prefill_.end(), 0);
    for (std::uint64_t i = 0; i < live; ++i) prefill_[perm[i]] = 1;
    for (auto& d : deltas_) std::fill(d.begin(), d.end(), 0);
  }

  std::int32_t* delta(unsigned t) noexcept { return deltas_[t].data(); }

  std::int64_t expected(std::uint64_t k) const noexcept {
    std::int64_t e = prefill_[k];
    for (const auto& d : deltas_) e += d[k];
    return e;
  }

  /// Keys whose final presence differs from prefill + inserts - erases.
  std::uint64_t mismatches(const std::vector<std::uint8_t>& present) const {
    std::uint64_t bad = 0;
    for (std::uint64_t k = 0; k < prefill_.size(); ++k) {
      const std::int64_t e = expected(k);
      if ((e != 0 && e != 1) || e != present[k]) ++bad;
    }
    return bad;
  }

 private:
  std::vector<std::uint8_t> prefill_;
  std::vector<std::vector<std::int32_t>> deltas_;
};

/// The fixed 1-in-kSampleEvery latency sample of one phase. Slot i holds
/// the sample of the phase's op i * kSampleEvery, whichever thread ran it.
struct Samples {
  explicit Samples(std::uint64_t chunks)
      : ns(chunks * (kChunkOps / kSampleEvery)),
        kind(chunks * (kChunkOps / kSampleEvery)) {}
  std::vector<std::uint32_t> ns;
  std::vector<Kind> kind;
};

template <typename Map>
efrb::ReclaimGauges gauges_of(Map& m) {
  if constexpr (requires { m.gauges(); }) {
    return m.gauges();
  } else {
    return m.reclaimer().gauges();
  }
}

/// Pins the calling worker to its own CPU. Unpinned, freshly created
/// threads can share one CPU for up to a second before the scheduler
/// spreads them, which on the tuning host cut 4-thread throughput to a
/// quarter at the start of a phase.
void pin_worker(const Config& cfg, unsigned t) {
  if (t >= cfg.cpus.size()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cfg.cpus[t], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// ------------------------------------------------------------------------
// Executing one op and checking its output.

/// One worker's private state. Aligned to two cache lines (the adjacent-line
/// prefetcher pairs them), so workers updating their own counters on every
/// op never share a line.
struct alignas(128) Worker {
  std::int32_t* delta = nullptr;
  std::vector<Key> mget_keys = std::vector<Key>(kMultiGetKeys);
  std::uint64_t sink = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  void fail(const std::string& what) {
    if (failed++ == 0) first_error = what;
  }
};

template <typename H>
void exec(H& h, const Op& op, OpStream& stream, Worker& wk) {
  switch (op.kind) {
    case Kind::kFind:
      wk.sink += h.contains(op.key) ? 1 : 0;
      return;
    case Kind::kInsert:
      if (h.insert(op.key, value_of(op.key))) ++wk.delta[op.key];
      return;
    case Kind::kErase:
      if (h.erase(op.key)) --wk.delta[op.key];
      return;
    case Kind::kRange: {
      const Key lo = op.key;
      const Key hi = op.key + kScanWidth - 1;
      bool first = true;
      Key prev = 0;
      bool ok = true;
      h.range(lo, hi, [&](const Key& k, const std::uint64_t& v) {
        ok &= k >= lo && k <= hi && (first || k > prev) && v == value_of(k);
        first = false;
        prev = k;
        ++wk.sink;
      });
      if (!ok) wk.fail("range result out of order, out of window or wrong value");
      return;
    }
    case Kind::kMultiGet: {
      for (auto& k : wk.mget_keys) k = stream.key();
      if constexpr (requires { h.multi_get(wk.mget_keys); }) {
        const auto got = h.multi_get(wk.mget_keys);
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (got[i].has_value() && *got[i] != value_of(wk.mget_keys[i])) {
            wk.fail("multi_get returned a wrong value");
          }
        }
        wk.sink += got.size();
      } else {
        wk.fail("multi_get on a structure without it");
      }
      return;
    }
  }
}

/// Keeps a freshly allocated pointer observable, so the compiler cannot
/// pair up and elide a new/delete inside a timed loop.
inline void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

SpanName span_of(Kind k) noexcept {
  switch (k) {
    case Kind::kFind: return SpanName::kFind;
    case Kind::kInsert: return SpanName::kInsert;
    case Kind::kErase: return SpanName::kErase;
    case Kind::kRange: return SpanName::kScan;
    case Kind::kMultiGet: return SpanName::kMultiGet;
  }
  return SpanName::kFind;
}

// ------------------------------------------------------------------------
// One multi-threaded phase over a fixed range of chunks.

struct PhaseSpec {
  std::uint64_t tag = kMeasuredStream;
  std::uint64_t chunks = 0;
  Samples* samples = nullptr;  // latency sample, or none
  bool trace_odd_chunks = false;  // op spans in odd chunks (1 in kSpanEvery)
  bool count_updates = false;     // allocations around each update op
  bool sample_backlog = false;    // reclaimer backlog after every chunk
};

struct alignas(128) PhaseResult {
  double elapsed_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t updates = 0;
  std::uint64_t update_allocs = 0;
  std::uint64_t backlog_max = 0;
  // Chunk times by parity (traced run: odd chunks carry spans).
  double chunk_ns[2] = {0, 0};
  std::uint64_t chunk_count[2] = {0, 0};
};

template <typename Map>
PhaseResult run_phase(Map& map, const Config& cfg, Ledger& ledger,
                      const PhaseSpec& spec,
                      std::vector<typename Map::Handle>& handles,
                      Tracer& tracer, SpanId parent, Failures& failures) {
  const unsigned T = cfg.threads;
  std::atomic<std::uint64_t> next_chunk{0};
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> end_ns(T, 0);
  std::vector<PhaseResult> per(T);
  std::vector<Worker> workers(T);
  std::vector<std::thread> threads;
  threads.reserve(T);
  for (unsigned t = 0; t < T; ++t) workers[t].delta = ledger.delta(t);

  auto body = [&](unsigned t) {
    Worker& wk = workers[t];
    PhaseResult& r = per[t];
    bool counted = false;
    pin_worker(cfg, t);
    try {
      auto h = map.handle();
      ready.fetch_add(1);
      counted = true;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Tracer::Scope worker_span(tracer, t + 1, SpanName::kWorker, parent);
      for (;;) {
        const std::uint64_t c = next_chunk.fetch_add(1);
        if (c >= spec.chunks) break;
        const bool traced = spec.trace_odd_chunks && (c & 1) != 0;
        OpStream stream(cfg.w, cfg.seed, spec.tag, c);
        const std::uint64_t c0 = now_ns();
        for (std::uint64_t i = 0; i < kChunkOps; ++i) {
          const Op op = stream.next();
          const bool sampled = spec.samples != nullptr && i % kSampleEvery == 0;
          const bool update = op.kind == Kind::kInsert || op.kind == Kind::kErase;
          const std::uint64_t a0 =
              spec.count_updates && update ? thread_allocs() : 0;
          SpanId span = kNoSpan;
          if (traced && i % kSpanEvery == 0) {
            span = tracer.open(t + 1, span_of(op.kind), worker_span.id(),
                               c * kChunkOps + i);
          }
          const std::uint64_t t0 = sampled ? now_ns() : 0;
          try {
            exec(h, op, stream, wk);
          } catch (const std::exception& e) {
            wk.fail(std::string("op threw: ") + e.what());
          }
          if (sampled) {
            const std::uint64_t d = now_ns() - t0;
            const std::uint64_t slot = c * (kChunkOps / kSampleEvery) +
                                       i / kSampleEvery;
            spec.samples->ns[slot] =
                static_cast<std::uint32_t>(std::min<std::uint64_t>(d, ~0u));
            spec.samples->kind[slot] = op.kind;
          }
          tracer.close(span);
          if (update) {
            ++r.updates;
            if (spec.count_updates) r.update_allocs += thread_allocs() - a0;
          }
        }
        r.ops += kChunkOps;
        r.chunk_ns[traced ? 1 : 0] += static_cast<double>(now_ns() - c0);
        ++r.chunk_count[traced ? 1 : 0];
        if (spec.sample_backlog && t == 0) {
          r.backlog_max = std::max(r.backlog_max, gauges_of(map).backlog());
        }
      }
      end_ns[t] = now_ns();
      handles[t] = std::move(h);
    } catch (const std::exception& e) {
      wk.fail(std::string("worker threw: ") + e.what());
      if (!counted) ready.fetch_add(1);
    }
  };

  for (unsigned t = 0; t < T; ++t) threads.emplace_back(body, t);
  while (ready.load() < T) std::this_thread::yield();
  const std::uint64_t start = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  PhaseResult out;
  std::uint64_t end = start;
  for (unsigned t = 0; t < T; ++t) {
    end = std::max(end, end_ns[t]);
    out.ops += per[t].ops;
    out.updates += per[t].updates;
    out.update_allocs += per[t].update_allocs;
    out.backlog_max = std::max(out.backlog_max, per[t].backlog_max);
    for (int p = 0; p < 2; ++p) {
      out.chunk_ns[p] += per[t].chunk_ns[p];
      out.chunk_count[p] += per[t].chunk_count[p];
    }
    failures.add(workers[t].failed, workers[t].first_error);
  }
  out.elapsed_s = static_cast<double>(end - start) / 1e9;
  return out;
}

/// Quiesce: flush every worker handle's retire list (no thread is pinned,
/// so each flush frees everything it holds), then destroy the handles.
/// Afterwards the reclaimer backlog must be exactly zero.
template <typename Map>
double drain(Map& map, std::vector<typename Map::Handle>& handles,
             Failures& failures) {
  const std::uint64_t t0 = now_ns();
  for (auto& h : handles) {
    if (h.valid()) h.flush();
  }
  for (auto& h : handles) h = typename Map::Handle{};
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  const std::uint64_t backlog = gauges_of(map).backlog();
  failures.add(backlog == 0 ? 0 : 1,
               "reclaimer backlog " + std::to_string(backlog) +
                   " after all handles drained");
  return ms;
}

// ------------------------------------------------------------------------
// Set-up: construct, one-thread prefill in seeded random order, warm-up.

struct SetupResult {
  double seconds = 0;
  std::int64_t prefill_bytes = 0;
};

template <typename Map>
std::unique_ptr<Map> set_up(const Config& cfg,
                            const std::vector<std::uint32_t>& perm,
                            Ledger& ledger, Tracer& tracer, Failures& failures,
                            std::int64_t baseline, SetupResult& out) {
  Tracer::Scope setup(tracer, 0, SpanName::kSetup, kNoSpan);
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<Map> map;
  {
    Tracer::Scope s(tracer, 0, SpanName::kConstruct, setup.id());
    map = std::make_unique<Map>();
  }
  {
    Tracer::Scope s(tracer, 0, SpanName::kPrefill, setup.id());
    auto h = map->handle();
    std::uint64_t dup = 0;
    for (std::uint64_t i = 0; i < cfg.live; ++i) {
      dup += h.insert(perm[i], value_of(perm[i])) ? 0 : 1;
    }
    failures.add(dup, "prefill insert of a fresh key returned false");
    h.flush();
  }
  out.prefill_bytes = heap_counts().live_bytes - baseline;
  {
    Tracer::Scope s(tracer, 0, SpanName::kWarmup, setup.id());
    std::vector<typename Map::Handle> handles(cfg.threads);
    PhaseSpec spec;
    spec.tag = kWarmupStream;
    spec.chunks = cfg.warmup_chunks;
    run_phase(*map, cfg, ledger, spec, handles, tracer, s.id(), failures);
    drain(*map, handles, failures);
  }
  out.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return map;
}

/// Final-state checks: in-order enumeration with correct values, the
/// ledger for every key, and validate() on the tree or every shard.
/// Returns the number of live keys.
template <typename Map>
std::uint64_t verify(const Map& map, const Config& cfg, const Ledger& ledger,
                     Failures& failures) {
  std::vector<std::uint8_t> present(cfg.range, 0);
  std::uint64_t n = 0;
  std::uint64_t bad = 0;
  bool first = true;
  Key prev = 0;
  map.for_each([&](const Key& k, const std::uint64_t& v) {
    if (k >= cfg.range || v != value_of(k) || (!first && k <= prev)) {
      ++bad;
    } else {
      present[k] = 1;
    }
    first = false;
    prev = k;
    ++n;
  });
  failures.add(bad, "enumeration out of order, out of range or wrong value");
  failures.add(ledger.mismatches(present),
               "ledger: prefill + inserts - erases != final presence");
  const auto v = map.validate();
  failures.add(v.ok ? 0 : 1, "validate(): " + v.error);
  failures.add(v.real_leaves == n ? 0 : 1,
               "validate() leaf count differs from enumeration");
  return n;
}

// ------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void print_metric(const Metric& m) {
  std::printf("metric %-28s %.6g %s%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// p50 and p99 over the sampled ops that `keep` selects, printed with the
/// sample count and the number of samples beyond each percentile.
template <typename Keep>
void add_latency(std::vector<Metric>& all, const std::string& prefix,
                 const Samples& s, Keep&& keep) {
  std::vector<std::uint32_t> v;
  for (std::size_t i = 0; i < s.ns.size(); ++i) {
    if (keep(s.kind[i])) v.push_back(s.ns[i]);
  }
  if (v.empty()) return;
  for (const auto& [q, tag] : {std::pair{0.5, "p50"}, std::pair{0.99, "p99"}}) {
    const Percentile p = percentile(v, q);
    char note[96];
    std::snprintf(note, sizeof note, "samples=%zu beyond=%zu%s", p.samples,
                  p.beyond, p.beyond < 10 ? " (fewer than 10 beyond)" : "");
    all.push_back({prefix + "_" + tag + "_ns", p.value, "ns", note});
  }
}

// ------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

template <typename Map>
int run_end_to_end(const Config& cfg) {
  Failures failures;
  Tracer tracer(false, 0, 0);
  const auto perm = prefill_order(cfg.w.log_range, cfg.seed);
  Ledger ledger(cfg.range, cfg.threads);
  Samples samples(cfg.chunks);
  std::vector<typename Map::Handle> handles(cfg.threads);

  // Everything the benchmark itself keeps is allocated before the first
  // heap baseline, so byte counts hold the structure's memory only.
  std::vector<double> setup_s;
  std::vector<std::int64_t> prefill_bytes;
  setup_s.reserve(cfg.setup_reps);
  prefill_bytes.reserve(cfg.setup_reps);
  std::unique_ptr<Map> map;
  std::int64_t baseline = 0;
  for (unsigned rep = 0; rep < cfg.setup_reps; ++rep) {
    if (map) {
      map.reset();
      const std::int64_t left = heap_counts().live_bytes - baseline;
      failures.add(left == 0 ? 0 : 1, "destroying the structure left " +
                                          std::to_string(left) + " bytes");
    }
    ledger.reset(perm, cfg.live);
    baseline = heap_counts().live_bytes;
    SetupResult s;
    map = set_up<Map>(cfg, perm, ledger, tracer, failures, baseline, s);
    setup_s.push_back(s.seconds);
    prefill_bytes.push_back(s.prefill_bytes);
  }
  for (const auto b : prefill_bytes) {
    failures.add(b == prefill_bytes.front() ? 0 : 1,
                 "prefill bytes differ between identical set-ups");
  }

  PhaseSpec spec;
  spec.chunks = cfg.chunks;
  spec.samples = &samples;
  const PhaseResult r =
      run_phase(*map, cfg, ledger, spec, handles, tracer, kNoSpan, failures);
  drain(*map, handles, failures);
  const HeapCounts heap = heap_counts();
  const std::uint64_t live = verify(*map, cfg, ledger, failures);
  const double bytes_per_key =
      static_cast<double>(heap.live_bytes - baseline) /
      static_cast<double>(std::max<std::uint64_t>(live, 1));

  const std::uint64_t failed = failures.count();
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(r.ops);
  std::vector<Metric> m;
  char note[64];
  std::snprintf(note, sizeof note, "ops=%" PRIu64 " elapsed_s=%.3f", r.ops,
                r.elapsed_s);
  m.push_back({"ops_per_s", static_cast<double>(r.ops) / r.elapsed_s, "1/s",
               note});
  add_latency(m, "op", samples, [](Kind) { return true; });
  add_latency(m, "find", samples, [](Kind k) { return k == Kind::kFind; });
  add_latency(m, "update", samples, [](Kind k) {
    return k == Kind::kInsert || k == Kind::kErase;
  });
  add_latency(m, "scan", samples, [](Kind k) { return k == Kind::kRange; });
  add_latency(m, "multi_get", samples,
              [](Kind k) { return k == Kind::kMultiGet; });
  std::string reps;
  for (const double x : setup_s) reps += (reps.empty() ? "" : ",") + std::to_string(x);
  m.push_back({"setup_s", median(setup_s), "s", "median of " + reps});
  m.push_back({"bytes_per_key", bytes_per_key, "B",
               "live_keys=" + std::to_string(live) + " unsized_frees=" +
                   std::to_string(heap.unsized_frees)});
  m.push_back({"error_rate", error_rate, "fraction", ""});
  for (const auto& x : m) print_metric(x);
  for (const auto& e : failures.messages()) std::printf("error %s\n", e.c_str());

  // The JSON result carries the metrics every workload defines.
  static const char* const kReported[] = {
      "ops_per_s",     "op_p50_ns",     "op_p99_ns", "update_p50_ns",
      "update_p99_ns", "setup_s",       "bytes_per_key"};
  std::vector<Metric> out;
  for (const char* name : kReported) {
    for (const auto& x : m) {
      if (x.name == name) out.push_back(x);
    }
  }
  print_result(failed == 0, r.ops, failed, out);
  return failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------------------
// --trace 1: per-layer metrics.

/// Repeat `pass` (which performs `ops` operations) until at least `min_ms`
/// have elapsed, timed as one interval; returns ns per operation.
template <typename Fn>
double ns_per_op(std::uint64_t ops, Fn&& pass, double min_ms = 5.0) {
  std::uint64_t done = 0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t t1 = t0;
  do {
    pass();
    done += ops;
    t1 = now_ns();
  } while (static_cast<double>(t1 - t0) < min_ms * 1e6);
  return static_cast<double>(t1 - t0) / static_cast<double>(done);
}

template <typename Fn>
double time_once_ns(Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0);
}

/// Counts from a StatsTraits instance running the measured stream.
template <typename StatsMap>
void stats_counts(const Config& cfg, const std::vector<std::uint32_t>& perm,
                  std::vector<Metric>& m, Failures& failures,
                  std::uint64_t& attempted) {
  Tracer off(false, 0, 0);
  Ledger ledger(cfg.range, cfg.threads);
  ledger.reset(perm, cfg.live);
  auto map = std::make_unique<StatsMap>();
  {
    auto h = map->handle();
    for (std::uint64_t i = 0; i < cfg.live; ++i) h.insert(perm[i], value_of(perm[i]));
    h.flush();
  }
  const efrb::TreeStats s0 = map->stats();
  const efrb::ReclaimGauges g0 = gauges_of(*map);
  std::vector<typename StatsMap::Handle> handles(cfg.threads);
  PhaseSpec spec;
  spec.chunks = std::max<std::uint64_t>(2, cfg.chunks / 4);
  spec.count_updates = true;
  spec.sample_backlog = true;
  const PhaseResult r =
      run_phase(*map, cfg, ledger, spec, handles, off, kNoSpan, failures);
  attempted += r.ops;
  drain(*map, handles, failures);
  verify(*map, cfg, ledger, failures);
  efrb::TreeStats s = map->stats();
  const efrb::ReclaimGauges g = gauges_of(*map);

  double attempts = 0;
  double fails = 0;
  for (std::size_t i = 0; i < efrb::kNumCasSteps; ++i) {
    attempts += static_cast<double>(s.cas_attempts[i] - s0.cas_attempts[i]);
    fails += static_cast<double>(s.cas_failures[i] - s0.cas_failures[i]);
  }
  const double ops = static_cast<double>(r.ops);
  const double upd = static_cast<double>(std::max<std::uint64_t>(r.updates, 1));
  const double samples =
      static_cast<double>(s.depth_samples - s0.depth_samples);
  m.push_back({"core.depth_avg",
               samples == 0 ? 0.0
                            : static_cast<double>(s.depth_total - s0.depth_total) /
                                  samples,
               "levels", "StatsTraits, same stream"});
  m.push_back({"core.cas_per_update", attempts / upd, "count", ""});
  m.push_back({"core.cas_fail_ratio", attempts == 0 ? 0 : fails / attempts,
               "fraction", ""});
  m.push_back({"core.helps_per_kop",
               static_cast<double>(s.helps - s0.helps) * 1000 / ops, "count",
               ""});
  m.push_back({"core.retries_per_kop",
               static_cast<double>(s.insert_retries - s0.insert_retries +
                                   s.delete_retries - s0.delete_retries) *
                   1000 / ops,
               "count", ""});
  m.push_back({"alloc.allocs_per_update",
               static_cast<double>(r.update_allocs) / upd, "count", ""});
  m.push_back({"reclaim.retired_per_update",
               static_cast<double>(g.retired_total - g0.retired_total) / upd,
               "count", ""});
  m.push_back({"reclaim.backlog_max", static_cast<double>(r.backlog_max),
               "count", "sampled after each chunk of thread 0"});
}

/// One-thread probes and the layer ladder, on a fresh tree P and a fresh
/// ShardedMap S holding the same prefill.
void layer_probes(const Config& cfg, const std::vector<std::uint32_t>& perm,
                  Tracer& tracer, std::vector<Metric>& m, Failures& failures,
                  std::uint64_t& attempted) {
  Tree P;
  Sharded S;
  {
    auto hp = P.handle();
    auto hs = S.handle();
    for (std::uint64_t i = 0; i < cfg.live; ++i) {
      hp.insert(perm[i], value_of(perm[i]));
      hs.insert(perm[i], value_of(perm[i]));
    }
    hp.flush();
    hs.flush();
  }
  std::int64_t p_live = static_cast<std::int64_t>(cfg.live);
  std::int64_t s_live = p_live;
  const std::uint64_t batch = std::min<std::uint64_t>(8192, cfg.live);
  // Hits spread evenly over the insertion order: early keys sit near the
  // root, late ones deep, so a prefix of the order would be biased shallow.
  std::vector<Key> hit(batch);
  for (std::uint64_t i = 0; i < batch; ++i) hit[i] = perm[i * cfg.live / batch];
  std::vector<Key> miss(perm.begin() + cfg.live, perm.begin() + cfg.live + batch);

  Tracer::Scope probe(tracer, 0, SpanName::kProbe, kNoSpan);
  auto hp = P.handle();
  std::uint64_t sink = 0;

  // core: descent on hits and misses.
  m.push_back({"core.find_hit_ns", ns_per_op(batch, [&] {
                 for (const Key k : hit) sink += hp.contains(k);
               }), "ns", ""});
  m.push_back({"core.find_miss_ns", ns_per_op(batch, [&] {
                 for (const Key k : miss) sink += hp.contains(k);
               }), "ns", ""});

  // core: protocol. Each cycle returns P to its prefill state.
  std::vector<double> ins_ok, ins_dup, er_ok, er_miss;
  std::uint64_t wrong = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ins_ok.push_back(time_once_ns([&] {
      for (const Key k : miss) wrong += hp.insert(k, value_of(k)) ? 0 : 1;
    }) / static_cast<double>(batch));
    ins_dup.push_back(ns_per_op(batch, [&] {
      for (const Key k : miss) wrong += hp.insert(k, value_of(k)) ? 1 : 0;
    }, 2.0));
    er_ok.push_back(time_once_ns([&] {
      for (const Key k : miss) wrong += hp.erase(k) ? 0 : 1;
    }) / static_cast<double>(batch));
    er_miss.push_back(ns_per_op(batch, [&] {
      for (const Key k : miss) wrong += hp.erase(k) ? 1 : 0;
    }, 2.0));
    hp.flush();
  }
  attempted += 4 * 3 * batch;
  failures.add(wrong, "probe insert/erase returned an unexpected result");
  m.push_back({"core.insert_ok_ns", median(ins_ok), "ns", ""});
  m.push_back({"core.insert_dup_ns", median(ins_dup), "ns", ""});
  m.push_back({"core.erase_ok_ns", median(er_ok), "ns", ""});
  m.push_back({"core.erase_miss_ns", median(er_miss), "ns", ""});
  m.push_back({"core.insert_cas_ns", median(ins_ok) - median(ins_dup), "ns",
               "insert_ok - insert_dup"});
  m.push_back({"core.erase_cas_ns", median(er_ok) - median(er_miss), "ns",
               "erase_ok - erase_miss"});

  // alloc: create/destroy through the tree's allocator, one node at a time
  // alternating Leaf and Internal.
  {
    auto& alloc = P.allocator();
    auto cache = alloc.make_cache();
    std::vector<Layout::Leaf*> leaves(batch / 2);
    std::vector<Layout::Internal*> internals(batch / 2);
    m.push_back({"alloc.create_destroy_ns", ns_per_op(batch, [&] {
                   for (std::size_t i = 0; i < leaves.size(); ++i) {
                     const auto bk = efrb::BoundedKey<Key>::real(i);
                     leaves[i] = alloc.create<Layout::Leaf>(cache, bk, i);
                     internals[i] = alloc.create<Layout::Internal>(
                         cache, bk, leaves[i], leaves[i]);
                   }
                   for (std::size_t i = 0; i < leaves.size(); ++i) {
                     alloc.destroy(cache, internals[i]);
                     alloc.destroy(cache, leaves[i]);
                   }
                 }), "ns", "per node"});
  }

  // reclaim: one pin/unpin through an explicit attachment.
  {
    auto att = P.reclaimer().attach();
    m.push_back({"reclaim.pin_ns", ns_per_op(1024, [&] {
                   for (int i = 0; i < 1024; ++i) {
                     auto g = att.pin();
                     sink += i;
                   }
                 }), "ns", ""});
  }

  // Handle facade: attach + detach.
  m.push_back({"handle.attach_ns", ns_per_op(256, [&] {
                 for (int i = 0; i < 256; ++i) {
                   auto h = P.handle();
                   sink += h.tid();
                 }
               }), "ns", "handle() + ~Handle"});

  // shard: scans and batches against the same keys in one tree.
  {
    auto hs = S.handle();
    OpStream windows(cfg.w, cfg.seed, kProbeStream, 0);
    std::vector<Key> lo(2048);
    for (auto& k : lo) k = windows.key();
    std::vector<Key> p_keys;
    std::vector<Key> s_keys;
    p_keys.reserve(lo.size() * kScanWidth);
    s_keys.reserve(lo.size() * kScanWidth);
    const double p_ns = time_once_ns([&] {
      for (const Key k : lo) {
        hp.range(k, k + kScanWidth - 1,
                 [&](const Key& x, const std::uint64_t&) { p_keys.push_back(x); });
      }
    });
    const double s_ns = time_once_ns([&] {
      for (const Key k : lo) {
        hs.range(k, k + kScanWidth - 1,
                 [&](const Key& x, const std::uint64_t&) { s_keys.push_back(x); });
      }
    });
    attempted += 2 * lo.size();
    failures.add(p_keys == s_keys ? 0 : 1,
                 "sharded range differs from the one-tree range on equal keys");
    const double per_key_s =
        s_ns / static_cast<double>(std::max<std::size_t>(s_keys.size(), 1));
    const double per_key_p =
        p_ns / static_cast<double>(std::max<std::size_t>(p_keys.size(), 1));
    m.push_back({"shard.scan_ns_per_key", per_key_s, "ns",
                 "keys=" + std::to_string(s_keys.size())});
    m.push_back({"shard.merge_ns_per_key", per_key_s - per_key_p, "ns",
                 "sharded range - one-tree range"});

    std::vector<Key> keys(kMultiGetKeys);
    std::uint64_t mg_bad = 0;
    m.push_back({"shard.multi_get_ns_per_key",
                 ns_per_op(256 * kMultiGetKeys, [&] {
                   for (int b = 0; b < 256; ++b) {
                     for (auto& k : keys) k = windows.key();
                     const auto got = hs.multi_get(keys);
                     for (std::size_t i = 0; i < got.size(); ++i) {
                       mg_bad += got[i].has_value() &&
                                 *got[i] != value_of(keys[i]);
                     }
                   }
                 }), "ns", ""});
    failures.add(mg_bad, "probe multi_get returned a wrong value");
  }

  // Ladder: the same point-op stream through successive layers, one thread.
  std::vector<Op> ops;
  {
    const std::uint64_t want = cfg.smoke ? 4096 : 65536;
    for (std::uint64_t c = 0; ops.size() < want; ++c) {
      OpStream stream(cfg.w, cfg.seed, kMeasuredStream, c);
      for (std::uint64_t i = 0; i < kChunkOps && ops.size() < want; ++i) {
        const Op op = stream.next();
        if (op.kind == Kind::kMultiGet) {
          for (std::size_t j = 0; j < kMultiGetKeys; ++j) stream.key();
        }
        if (op.kind != Kind::kRange && op.kind != Kind::kMultiGet) {
          ops.push_back(op);
        }
      }
    }
  }
  Tracer::Scope ladder(tracer, 0, SpanName::kLadder, kNoSpan);
  auto att = P.reclaimer().attach();
  auto& alloc = P.allocator();
  auto cache = alloc.make_cache();
  auto hs = S.handle();
  using Rung = std::function<void()>;
  const std::vector<std::pair<const char*, Rung>> rungs = {
      {"ladder.pin_ns",
       [&] {
         for (const Op& op : ops) {
           auto g = att.pin();
           sink += op.key;
         }
       }},
      {"ladder.alloc_ns",
       [&] {
         // What an update allocates when it succeeds: Leaf + Internal +
         // IInfo for an insert, DInfo for an erase.
         for (const Op& op : ops) {
           auto g = att.pin();
           const auto bk = efrb::BoundedKey<Key>::real(op.key);
           if (op.kind == Kind::kInsert) {
             auto* l = alloc.create<Layout::Leaf>(cache, bk, op.key);
             auto* in = alloc.create<Layout::Internal>(cache, bk, l, l);
             auto* info = alloc.create<Layout::IInfo>(
                 cache, in, l, static_cast<Layout::Node*>(in));
             escape(info);
             alloc.destroy(cache, info);
             alloc.destroy(cache, in);
             alloc.destroy(cache, l);
           } else if (op.kind == Kind::kErase) {
             auto* info = alloc.create<Layout::DInfo>(
                 cache, nullptr, nullptr, nullptr, efrb::Update{});
             escape(info);
             alloc.destroy(cache, info);
           }
           sink += op.key;
         }
       }},
      {"ladder.tree_ns",
       [&] {
         for (const Op& op : ops) {
           if (op.kind == Kind::kFind) sink += P.contains(op.key);
           if (op.kind == Kind::kInsert) p_live += P.insert(op.key, value_of(op.key));
           if (op.kind == Kind::kErase) p_live -= P.erase(op.key);
         }
       }},
      {"ladder.handle_ns",
       [&] {
         for (const Op& op : ops) {
           if (op.kind == Kind::kFind) sink += hp.contains(op.key);
           if (op.kind == Kind::kInsert) p_live += hp.insert(op.key, value_of(op.key));
           if (op.kind == Kind::kErase) p_live -= hp.erase(op.key);
         }
       }},
      {"ladder.sharded_ns",
       [&] {
         for (const Op& op : ops) {
           if (op.kind == Kind::kFind) sink += hs.contains(op.key);
           if (op.kind == Kind::kInsert) s_live += hs.insert(op.key, value_of(op.key));
           if (op.kind == Kind::kErase) s_live -= hs.erase(op.key);
         }
       }},
  };
  // Rounds rotate the rung order so a host speed change hits every rung.
  std::vector<std::vector<double>> rung_ns(rungs.size());
  const unsigned rounds = 5;
  for (unsigned round = 0; round < rounds; ++round) {
    for (std::size_t j = 0; j < rungs.size(); ++j) {
      const std::size_t i = (j + round) % rungs.size();
      rung_ns[i].push_back(time_once_ns(rungs[i].second) /
                           static_cast<double>(ops.size()));
    }
  }
  attempted += rounds * 3 * ops.size();
  std::vector<double> med(rungs.size());
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    med[i] = median(rung_ns[i]);
    m.push_back({rungs[i].first, med[i], "ns", "median of 5 rounds"});
  }
  m.push_back({"handle.tree_path_delta_ns", med[2] - med[3], "ns",
               "tree-level call - Handle call"});
  m.push_back({"shard.route_ns", med[4] - med[3], "ns",
               "ShardedMap Handle - tree Handle"});
  m.push_back({"shard.attached_per_handle",
               static_cast<double>(hs.attached_shards()), "count",
               "of " + std::to_string(S.shard_count()) + " shards"});
  std::printf("ladder deltas: pin %.1f ns, +alloc %.1f ns, tree %.1f ns, "
              "handle %+.1f ns vs tree, sharded %+.1f ns vs handle\n",
              med[0], med[1] - med[0], med[2], med[3] - med[2],
              med[4] - med[3]);

  hp = Tree::Handle{};
  hs = Sharded::Handle{};
  att.detach();
  failures.add(static_cast<std::int64_t>(P.size()) == p_live ? 0 : 1,
               "ladder tree size differs from its op results");
  failures.add(static_cast<std::int64_t>(S.size()) == s_live ? 0 : 1,
               "ladder ShardedMap size differs from its op results");
  failures.add(P.validate().ok && S.validate().ok ? 0 : 1,
               "validate() failed after the ladder");
  if (sink == 42) std::printf(" ");  // keep the probe loops observable
}

template <typename Map, typename StatsMap>
int run_traced(const Config& cfg) {
  Failures failures;
  const auto perm = prefill_order(cfg.w.log_range, cfg.seed);
  const std::uint64_t phase_chunks = std::max<std::uint64_t>(2, cfg.chunks / 2);
  // Each worker log holds 1.5x its even share of the op spans.
  Tracer tracer(true, cfg.threads + 1,
                phase_chunks * (kChunkOps / kSpanEvery) * 3 /
                        (4 * cfg.threads) +
                    64);
  std::vector<Metric> m;
  std::uint64_t attempted = 0;

  // Phase A: the workload's own structure, spans on, half the chunks
  // carrying op spans so their cost shows against the other half.
  {
    Ledger ledger(cfg.range, cfg.threads);
    ledger.reset(perm, cfg.live);
    Samples samples(phase_chunks);
    std::vector<typename Map::Handle> handles(cfg.threads);
    const std::int64_t baseline = heap_counts().live_bytes;
    SetupResult s;
    auto map = set_up<Map>(cfg, perm, ledger, tracer, failures, baseline, s);
    PhaseSpec spec;
    spec.chunks = phase_chunks;
    spec.samples = &samples;
    spec.trace_odd_chunks = true;
    PhaseResult r;
    {
      Tracer::Scope run(tracer, 0, SpanName::kRun, kNoSpan);
      r = run_phase(*map, cfg, ledger, spec, handles, tracer, run.id(), failures);
    }
    attempted += r.ops;
    double drain_ms = 0;
    {
      Tracer::Scope d(tracer, 0, SpanName::kDrain, kNoSpan);
      drain_ms = drain(*map, handles, failures);
    }
    {
      Tracer::Scope v(tracer, 0, SpanName::kVerify, kNoSpan);
      verify(*map, cfg, ledger, failures);
    }
    m.push_back({"alloc.prefill_bytes_per_key",
                 static_cast<double>(s.prefill_bytes) /
                     static_cast<double>(cfg.live),
                 "B", "right after the one-thread prefill"});
    m.push_back({"reclaim.drain_ms", drain_ms, "ms", ""});
    const double plain = r.chunk_ns[0] / static_cast<double>(
                                             std::max<std::uint64_t>(r.chunk_count[0], 1));
    const double traced = r.chunk_ns[1] / static_cast<double>(
                                              std::max<std::uint64_t>(r.chunk_count[1], 1));
    m.push_back({"trace.overhead_ratio", plain == 0 ? 1.0 : traced / plain,
                 "ratio", "chunks with spans / chunks without"});
  }

  // Phase B: counts from a StatsTraits instance on the same stream.
  stats_counts<StatsMap>(cfg, perm, m, failures, attempted);

  // Phase C: one-thread probes and the layer ladder.
  layer_probes(cfg, perm, tracer, m, failures, attempted);

  for (const auto& x : m) print_metric(x);
  std::printf("spans (steady_clock; no PMU counters are used):\n");
  for (const auto& s : tracer.summarise()) {
    if (s.count == 0) continue;
    std::printf("span %-16s count=%-8" PRIu64 " total_ms=%.3f self_ms=%.3f\n",
                to_string(s.name), s.count, s.total_ms, s.self_ms);
  }
  if (!cfg.trace_out.empty()) {
    if (tracer.write_json(cfg.trace_out)) {
      std::printf("spans written to %s (dropped %" PRIu64 ")\n",
                  cfg.trace_out.c_str(), tracer.dropped());
    } else {
      std::printf("could not write spans to %s\n", cfg.trace_out.c_str());
    }
  }
  for (const auto& e : failures.messages()) std::printf("error %s\n", e.c_str());

  static const char* const kReported[] = {
      "core.find_hit_ns",        "core.find_miss_ns",
      "core.depth_avg",          "core.insert_ok_ns",
      "core.insert_dup_ns",      "core.erase_ok_ns",
      "core.erase_miss_ns",      "core.insert_cas_ns",
      "core.erase_cas_ns",       "core.cas_per_update",
      "core.cas_fail_ratio",     "core.helps_per_kop",
      "core.retries_per_kop",    "alloc.create_destroy_ns",
      "alloc.allocs_per_update", "alloc.prefill_bytes_per_key",
      "reclaim.pin_ns",          "reclaim.retired_per_update",
      "reclaim.backlog_max",     "reclaim.drain_ms",
      "handle.attach_ns",        "handle.tree_path_delta_ns",
      "shard.route_ns",          "shard.scan_ns_per_key",
      "shard.merge_ns_per_key",  "shard.multi_get_ns_per_key",
      "shard.attached_per_handle", "trace.overhead_ratio",
      "ladder.pin_ns",           "ladder.alloc_ns",
      "ladder.tree_ns",          "ladder.handle_ns",
      "ladder.sharded_ns"};
  std::vector<Metric> out;
  for (const char* name : kReported) {
    for (const auto& x : m) {
      if (x.name == name) out.push_back(x);
    }
  }
  const std::uint64_t failed = failures.count();
  print_result(failed == 0, std::max<std::uint64_t>(attempted, 1), failed, out);
  return failed == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <read-large|update-small|"
               "scan-sharded> --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--smoke]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::string workload;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--trace-out" && has_value) {
      cfg.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  const Workload* named = find_workload(workload);
  if (named == nullptr || (trace != 0 && trace != 1) || !(cfg.seconds > 0)) {
    return usage();
  }
  cfg.w = *named;
  cfg.trace = trace == 1;

  const HostRecord host = host_record();
  cfg.threads = std::max(1u, std::min(4u, host.nproc));
  cfg.cpus = host.cpus;
  if (cfg.smoke) cfg.w.log_range = std::min(cfg.w.log_range, 12u);
  cfg.range = std::uint64_t{1} << cfg.w.log_range;
  cfg.live = cfg.range / 2;
  if (cfg.smoke) {
    cfg.chunks = 8;
    cfg.warmup_chunks = 2;
    cfg.setup_reps = 2;
  } else {
    const double ops = cfg.w.ops_per_second * cfg.seconds;
    cfg.chunks = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(ops / static_cast<double>(kChunkOps)));
    cfg.warmup_chunks = std::max<std::uint64_t>(1, cfg.w.warmup_ops / kChunkOps);
    cfg.setup_reps = cfg.w.setup_reps;
  }

  const Workload& w = cfg.w;
  std::printf("host nproc=%u threads=%u seed=%" PRIu64 " cpu=\"%s\" l3_bytes=%" PRIu64
              " perf_event_open=%s clock=steady_clock\n",
              host.nproc, cfg.threads, cfg.seed, host.cpu_model.c_str(),
              host.l3_bytes, host.perf_event.c_str());
  std::printf("workload %s structure=%s keys=2^%u live=%" PRIu64
              " mix=%uf/%ui/%ud/%ur/%um ops=%" PRIu64 " chunk_ops=%" PRIu64
              " sample=1/%" PRIu64 " trace=%d%s\n",
              w.name, w.sharded ? "ShardedMap<EfrbTreeMap>(hash x8)" : "EfrbTreeMap",
              cfg.w.log_range, cfg.live, w.find_pct, w.insert_pct, w.erase_pct,
              w.range_pct, w.multi_get_pct, cfg.chunks * kChunkOps, kChunkOps,
              kSampleEvery, trace, cfg.smoke ? " smoke" : "");
  std::fflush(stdout);

  try {
    if (cfg.trace) {
      return w.sharded ? run_traced<Sharded, StatsSharded>(cfg)
                       : run_traced<Tree, StatsTree>(cfg);
    }
    return w.sharded ? run_end_to_end<Sharded>(cfg) : run_end_to_end<Tree>(cfg);
  } catch (const std::exception& e) {
    std::printf("error benchmark aborted: %s\n", e.what());
    return 1;
  }
}
