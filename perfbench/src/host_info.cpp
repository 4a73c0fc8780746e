#include "host_info.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
#else
  return "unknown";
#endif
}

/// Fixed integer work: 2^24 rounds of a xorshift-multiply mix.
double calibration_loop_ns() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t i = 0; i < (1u << 24); ++i) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x << 7;
  }
  const auto t1 = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = x;
  (void)sink;
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  h.cpu_model = cpu_brand();
  h.nproc = std::thread::hardware_concurrency();
  h.compiler = __VERSION__;
  h.build_type = FV_BUILD_TYPE;
  h.build_flags = FV_BUILD_FLAGS;
  h.git_sha = FV_GIT_SHA;
  h.calibration_ns = calibration_loop_ns();
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
