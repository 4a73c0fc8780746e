// The benchmark's three workloads, each built from a seed and run once.
//
//   overload_burst  flat 4-leaf policy, 8 workers, batch 32, 4 CBR flows at
//                   1.3x wire rate in TSO clumps of 16 (open loop)
//   churn_1m        10^6 live churning flows primed into a 2^21-slot EMC,
//                   Poisson replacement at 0.9x wire rate (open loop)
//   app_reconfig    tiered policy with borrowing, 4 AppProcess x 64 AIMD
//                   connections, a C0 weight delta through
//                   ReconfigManager::apply every 10 ms (closed loop)
//
// A run is wired exactly as users wire the program unless RunOptions asks
// for the checking device or the tracing decorators.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/flowvalve.h"
#include "ctrl/reconfig_manager.h"
#include "np/nic_pipeline.h"
#include "sim/time.h"
#include "trace.h"

namespace perfbench {

using namespace flowvalve;

enum class Workload : std::uint8_t { kOverloadBurst, kChurn1m, kAppReconfig };
inline constexpr Workload kAllWorkloads[] = {
    Workload::kOverloadBurst, Workload::kChurn1m, Workload::kAppReconfig};

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

struct RunOptions {
  /// Virtual-time horizon; 0 = the workload's default.
  sim::SimTime horizon = 0;
  /// Scale factor on the churn workload's live-flow count and EMC size
  /// (tests shrink it; 1 = 10^6 flows).
  double churn_scale = 1.0;
  /// Route the device through a TapDevice that checks per-flow order and
  /// per-packet accounting.
  bool check = false;
  /// Install every tracing decorator; null = untraced.
  Tracer* tracer = nullptr;
  /// Run the horizon in run_until slices of this width (0 = one call).
  sim::SimDuration slice = 0;
  /// Pipeline bug injection, so tests can show the output checks fire.
  np::InjectedFaults faults;
};

/// Virtual-time outcome of a run. Deterministic for a given seed.
struct SimOutcome {
  double gbps = 0.0;              // wire Gbps delivered within the horizon
  double sojourn_p50_us = 0.0;    // LatencyRecorder total sojourn (binned)
  double sojourn_p99_us = 0.0;
  double sojourn_mean_us = 0.0;   // exact: the recorder keeps the sum
  std::uint64_t sojourn_samples = 0;
  double drop_frac = 0.0;         // drops of every reason / submitted
  double share_err = 0.0;         // max per-leaf |delivered - reference| share
};

struct RunResult {
  SimOutcome sim;
  np::NicPipeline::Stats nic;
  core::ExactMatchFlowCache::Stats emc;
  core::SchedulerBackend::Stats sched;
  ctrl::ReconfigManager::Stats ctrl;
  double worker_util = 0.0;
  std::uint64_t events = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t fingerprint = 0;  // hash of sim, nic, EMC, sched, ctrl values

  // Host wall time.
  double setup_s = 0.0;       // construction start -> first event
  double configure_ms = 0.0;  // FlowValveEngine::configure
  double prefill_ms = 0.0;    // EMC prefill (churn_1m only)
  double run_s = 0.0;         // first run_until -> drained end
  double export_ms = 0.0;     // end-of-run snapshot + JSON export
  std::vector<double> slice_us;  // wall per run_until slice (slice > 0)

  // Output checks.
  bool conserved = false;          // submitted == forwarded + every drop
  std::uint64_t unaccounted = 0;   // check runs: packets not seen exactly once
  std::uint64_t out_of_order = 0;  // check runs: per-flow order violations
  // Check runs: exact sojourn statistics from every delivered packet. The
  // percentiles must fall in the LatencyRecorder buckets sim.sojourn_p*_us
  // report, and the mean must equal the recorder's.
  DeliveryChecker::Sojourn exact_sojourn;
  bool sojourn_consistent = true;

  // Traced runs: processor bursts, router feedback and observer calls.
  std::uint64_t bursts = 0;
  std::uint64_t burst_packets = 0;
  std::uint64_t feedback_calls = 0;
  std::uint64_t observer_calls = 0;

  double host_ns_per_pkt() const {
    return nic.processed ? run_s * 1e9 / static_cast<double>(nic.processed) : 0.0;
  }
  std::uint64_t drops() const;
};

RunResult run_workload(Workload w, std::uint64_t seed, const RunOptions& opt);

}  // namespace perfbench
