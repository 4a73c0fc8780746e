// Host fingerprint recorded beside every result. Informational only: no
// gate reads it.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string build_flags;
  std::string git_sha;
  double calibration_ns = 0.0;  // wall ns of a fixed in-process loop
};

HostInfo host_info();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
