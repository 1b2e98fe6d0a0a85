// In-memory span recording for the traced run.
//
// A span is (name, start, end, parent, op id). Each thread appends to its own
// pre-reserved log, so recording never allocates and never shares a cache
// line; a full log drops further spans and counts them. Spans are written out
// (Chrome trace-event JSON) and summarised (self time per name) only after the
// measured work is over. When tracing is off, Scope is a single branch.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanName : std::uint8_t {
  kSetup,
  kConstruct,
  kPrefill,
  kWarmup,
  kRun,
  kWorker,
  kFind,
  kInsert,
  kErase,
  kScan,
  kMultiGet,
  kDrain,
  kVerify,
  kProbe,
  kLadder,
  kCount,
};

inline const char* to_string(SpanName n) noexcept {
  switch (n) {
    case SpanName::kSetup: return "setup";
    case SpanName::kConstruct: return "setup.construct";
    case SpanName::kPrefill: return "setup.prefill";
    case SpanName::kWarmup: return "setup.warmup";
    case SpanName::kRun: return "run";
    case SpanName::kWorker: return "run.worker";
    case SpanName::kFind: return "op.find";
    case SpanName::kInsert: return "op.insert";
    case SpanName::kErase: return "op.erase";
    case SpanName::kScan: return "op.scan";
    case SpanName::kMultiGet: return "op.multi_get";
    case SpanName::kDrain: return "reclaim.drain";
    case SpanName::kVerify: return "check.verify";
    case SpanName::kProbe: return "layer.probe";
    case SpanName::kLadder: return "layer.ladder";
    case SpanName::kCount: break;
  }
  return "?";
}

/// Global span id: (thread log index << 32) | position in that log.
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = ~SpanId{0};

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t op_id = 0;
  SpanId parent = kNoSpan;
  SpanName name = SpanName::kCount;
};

class Tracer {
 public:
  /// `threads` logs of `per_thread` spans each; log 0 belongs to the main
  /// thread, logs 1..threads-1 to workers.
  Tracer(bool enabled, unsigned threads, std::size_t per_thread)
      : enabled_(enabled), logs_(enabled ? threads : 0) {
    for (auto& l : logs_) l.reserve(per_thread);
  }

  bool enabled() const noexcept { return enabled_; }

  SpanId open(unsigned log, SpanName name, SpanId parent,
              std::uint64_t op_id = 0) noexcept {
    if (!enabled_) return kNoSpan;
    auto& l = logs_[log];
    if (l.size() == l.capacity()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return kNoSpan;
    }
    l.push_back(Span{now_ns(), 0, op_id, parent, name});
    return (static_cast<SpanId>(log) << 32) | (l.size() - 1);
  }

  void close(SpanId id) noexcept {
    if (id == kNoSpan) return;
    logs_[id >> 32][id & 0xffffffffu].end_ns = now_ns();
  }

  /// RAII form of open/close.
  class Scope {
   public:
    Scope(Tracer& t, unsigned log, SpanName name, SpanId parent,
          std::uint64_t op_id = 0) noexcept
        : t_(t), id_(t.open(log, name, parent, op_id)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    SpanId id() const noexcept { return id_; }

   private:
    Tracer& t_;
    SpanId id_;
  };

  struct Summary {
    SpanName name;
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;  // total minus the part covered by child spans
  };

  /// Per-name totals. Self time subtracts the union of each span's children
  /// (children on several threads may overlap one another).
  std::vector<Summary> summarise() const {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids;
    std::vector<std::size_t> base(logs_.size() + 1, 0);
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      base[i + 1] = base[i] + logs_[i].size();
    }
    kids.resize(base.back());
    for (const auto& l : logs_) {
      for (const Span& s : l) {
        if (s.parent == kNoSpan || s.end_ns == 0) continue;
        kids[base[s.parent >> 32] + (s.parent & 0xffffffffu)].emplace_back(
            s.start_ns, s.end_ns);
      }
    }
    std::vector<Summary> out(static_cast<std::size_t>(SpanName::kCount));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].name = static_cast<SpanName>(i);
    }
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      for (std::size_t j = 0; j < logs_[i].size(); ++j) {
        const Span& s = logs_[i][j];
        if (s.end_ns == 0) continue;
        auto& c = kids[base[i] + j];
        std::sort(c.begin(), c.end());
        std::uint64_t covered = 0;
        std::uint64_t cur_lo = 0;
        std::uint64_t cur_hi = 0;
        for (auto [lo, hi] : c) {
          lo = std::max(lo, s.start_ns);
          hi = std::min(hi, s.end_ns);
          if (hi <= lo) continue;
          if (lo > cur_hi) {
            covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
          } else {
            cur_hi = std::max(cur_hi, hi);
          }
        }
        covered += cur_hi - cur_lo;
        const std::uint64_t dur = s.end_ns - s.start_ns;
        Summary& sum = out[static_cast<std::size_t>(s.name)];
        ++sum.count;
        sum.total_ms += static_cast<double>(dur) / 1e6;
        sum.self_ms += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
      }
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const auto& l : logs_) {
      for (const Span& s : l) t0 = std::min(t0, s.start_ns);
    }
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      for (std::size_t j = 0; j < logs_[i].size(); ++j) {
        const Span& s = logs_[i][j];
        if (s.end_ns == 0) continue;
        std::fprintf(
            f,
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%lld,"
            "\"op\":%llu}}",
            first ? "" : ",", to_string(s.name), i,
            static_cast<double>(s.start_ns - t0) / 1e3,
            static_cast<double>(s.end_ns - s.start_ns) / 1e3,
            static_cast<unsigned long long>((static_cast<SpanId>(i) << 32) | j),
            s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
            static_cast<unsigned long long>(s.op_id));
        first = false;
      }
    }
    std::fprintf(f, "\n],\"clock\":\"steady_clock\",\"dropped\":%llu}\n",
                 static_cast<unsigned long long>(dropped()));
    return std::fclose(f) == 0;
  }

  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  bool enabled_;
  std::vector<std::vector<Span>> logs_;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace perfbench
