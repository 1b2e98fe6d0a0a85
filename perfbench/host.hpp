// Host record printed at the top of every benchmark run: thread counts, CPU
// model, L3 size and whether hardware counters exist. Everything is read
// through cpuid and system calls, not from files.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#if __has_include(<linux/perf_event.h>)
#include <linux/perf_event.h>
#define PERFBENCH_HAVE_PERF_EVENT 1
#endif

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define PERFBENCH_HAVE_CPUID 1
#endif

namespace perfbench {

struct HostRecord {
  unsigned nproc = 0;
  std::vector<int> cpus;  // the CPUs counted in nproc
  std::string cpu_model = "unknown";
  std::uint64_t l3_bytes = 0;  // 0 when unknown
  std::string perf_event;      // "available" or why it is not
};

inline std::string cpu_brand() {
#ifdef PERFBENCH_HAVE_CPUID
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char buf[49] = {};
  std::memcpy(buf, regs, 48);
  std::string s(buf);
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
#else
  return "unknown";
#endif
}

/// Largest level-3 cache reported by cpuid leaf 4 (Intel deterministic cache
/// parameters); 0 when the leaf is absent.
inline std::uint64_t l3_size() {
#ifdef PERFBENCH_HAVE_CPUID
  if (__get_cpuid_max(0, nullptr) < 4) return 0;
  for (unsigned sub = 0; sub < 16; ++sub) {
    unsigned a = 0, b = 0, c = 0, d = 0;
    __cpuid_count(4, sub, a, b, c, d);
    if ((a & 0x1f) == 0) break;
    if (((a >> 5) & 0x7) != 3) continue;
    const std::uint64_t ways = ((b >> 22) & 0x3ff) + 1;
    const std::uint64_t parts = ((b >> 12) & 0x3ff) + 1;
    const std::uint64_t line = (b & 0xfff) + 1;
    const std::uint64_t sets = static_cast<std::uint64_t>(c) + 1;
    return ways * parts * line * sets;
  }
#endif
  return 0;
}

inline std::string perf_event_status() {
#ifdef PERFBENCH_HAVE_PERF_EVENT
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd >= 0) {
    close(static_cast<int>(fd));
    return "available";
  }
  return std::string("unavailable (") + std::strerror(errno) + ")";
#else
  return "unavailable (no linux/perf_event.h)";
#endif
}

inline HostRecord host_record() {
  HostRecord h;
  // Same count as nproc(1): the CPUs this process may run on.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    h.nproc = static_cast<unsigned>(CPU_COUNT(&set));
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) h.cpus.push_back(c);
    }
  } else {
    h.nproc = std::thread::hardware_concurrency();
  }
  h.cpu_model = cpu_brand();
  h.l3_bytes = l3_size();
  h.perf_event = perf_event_status();
  return h;
}

}  // namespace perfbench
