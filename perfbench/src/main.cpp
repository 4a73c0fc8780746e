// fvbench — the repo benchmark runner.
//
// Usage: fvbench --workload NAME --seed N --seconds S --trace 0|1
//                [--trace-out PATH]
//
// Runs one workload (overload_burst, churn_1m, app_reconfig) built from the
// seed, one simulation at a time, for about S seconds of wall time, checks
// every run's outputs, and prints as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (untraced runs); with
// --trace 1 they are the per-layer ones, from traced runs alternated with
// untraced runs. --trace-out writes the raw spans of the first traced run's
// bounded window as CSV. Exit code 0 when every check passed, 1 when one
// failed, 2 on a usage error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "host_info.h"
#include "obs/json_writer.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Minimum timed repetitions per invocation, whatever --seconds says.
constexpr std::size_t kMinReps = 3;
/// Width of a run_until slice in traced runs (sim.slice_* metrics).
constexpr flowvalve::sim::SimDuration kSlice = flowvalve::sim::milliseconds(1);
/// The layer self times plus sim.self must cover the traced wall time of
/// the run to within this fraction.
constexpr double kTraceSumTolerance = 0.03;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

template <class F>
double median_of(const std::vector<RunResult>& runs, F f) {
  std::vector<double> v;
  for (const RunResult& r : runs) v.push_back(f(r));
  return median(std::move(v));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A double with all 17 significant digits (JsonWriter rounds to 6).
void put(obs::JsonWriter& w, std::string_view key, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  w.key(key).raw_value(buf);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void put_metrics(obs::JsonWriter& w, const std::vector<Metric>& ms) {
  w.key("metrics").begin_object();
  for (const Metric& m : ms) {
    w.key(m.name).begin_object();
    put(w, "value", m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

/// Tallies packets attempted and failed across every run of one invocation.
/// A packet fails if it is unaccounted for or delivered out of order within
/// its flow; every packet of a run fails if the run's virtual-time
/// fingerprint differs from the seed's first run.
class Ledger {
 public:
  void add(const RunResult& r, const char* what) {
    attempted_ += r.nic.submitted;
    if (!have_ref_) {
      have_ref_ = true;
      ref_ = r.fingerprint;
    }
    std::uint64_t bad = r.unaccounted + r.out_of_order;
    if (!r.conserved || !r.sojourn_consistent)
      bad = std::max<std::uint64_t>(bad, 1);
    if (r.fingerprint != ref_) {
      bad = r.nic.submitted;
      std::cerr << "fvbench: " << what << " run fingerprint " << std::hex
                << r.fingerprint << " differs from the first run's " << ref_
                << std::dec << "\n";
    } else if (bad) {
      std::cerr << "fvbench: " << what << " run failed its output checks ("
                << r.unaccounted << " unaccounted, " << r.out_of_order
                << " out of order, conserved=" << r.conserved
                << ", sojourn consistent=" << r.sojourn_consistent << ")\n";
    }
    failed_ += bad;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  bool have_ref_ = false;
  std::uint64_t ref_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Args {
  Workload workload = Workload::kOverloadBurst;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) return false;
      a->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      a->seed = std::strtoull(v, &end, 0);
      if (*end) return false;
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
      if (!(a->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) return false;
      a->trace = v[0] == '1';
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

void print_info(const Args& a, const HostInfo& h, const Ledger& ledger,
                const std::vector<RunResult>& untraced, const RunResult& checked,
                std::size_t reps) {
  const RunResult& first = untraced.front();
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(first.fingerprint));
  obs::JsonWriter w;
  w.begin_object().key("info").begin_object();
  w.key("workload").value(workload_name(a.workload));
  w.key("seed").value(a.seed);
  w.key("trace").value(a.trace);
  w.key("reps").value(static_cast<std::uint64_t>(reps));
  w.key("fingerprint").value(fingerprint);
  put(w, "fail_frac", ratio(static_cast<double>(ledger.failed()),
                            static_cast<double>(ledger.attempted())));
  put(w, "sim_drop_frac", first.sim.drop_frac);
  w.key("sojourn_samples").value(first.sim.sojourn_samples);
  put(w, "sojourn_p50_us", checked.exact_sojourn.p50_us);
  put(w, "sojourn_p99_us", checked.exact_sojourn.p99_us);
  put(w, "binned_sojourn_p50_us", first.sim.sojourn_p50_us);
  put(w, "binned_sojourn_p99_us", first.sim.sojourn_p99_us);
  w.key("processed_pkts").value(first.nic.processed);
  w.key("untraced_host_ns_per_pkt").begin_array();
  for (const RunResult& r : untraced) w.raw_value(std::to_string(r.host_ns_per_pkt()));
  w.end_array();
  w.key("host").begin_object();
  w.key("cpu_model").value(h.cpu_model);
  w.key("nproc").value(h.nproc);
  w.key("compiler").value(h.compiler);
  w.key("build_type").value(h.build_type);
  w.key("build_flags").value(h.build_flags);
  w.key("git_sha").value(h.git_sha);
  put(w, "calibration_ns", h.calibration_ns);
  w.end_object().end_object().end_object();
  std::cout << w.str() << "\n";
}

/// `checked` is the closing check run: same seed, same virtual-time
/// fingerprint, and it alone saw every delivered packet's sojourn.
std::vector<Metric> end_to_end(const std::vector<RunResult>& reps,
                               const RunResult& checked, double rss_mb) {
  const SimOutcome& s = reps.front().sim;
  return {
      {"host_ns_per_pkt",
       median_of(reps, [](const RunResult& r) { return r.host_ns_per_pkt(); }),
       "ns"},
      {"setup_s", median_of(reps, [](const RunResult& r) { return r.setup_s; }),
       "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
      {"sim_gbps", s.gbps, "Gbps"},
      {"sim_sojourn_mean_us", s.sojourn_mean_us, "us"},
      {"sim_sojourn_tail_us", checked.exact_sojourn.tail_us, "us"},
      {"sim_delivered_frac", 1.0 - s.drop_frac, "fraction"},
      {"sim_share_err", s.share_err, "fraction"},
  };
}

struct TracedRun {
  RunResult result;
  Tracer tracer;
};

std::vector<Metric> per_layer(const std::vector<RunResult>& untraced,
                              const std::vector<TracedRun>& traced) {
  const double npt = ns_per_tick();
  auto layer_ns_per_pkt = [&](Layer l) {
    std::vector<double> v;
    for (const TracedRun& t : traced)
      v.push_back(ratio(t.tracer.net_ticks(l) * npt,
                        static_cast<double>(t.result.nic.processed)));
    return median(std::move(v));
  };
  std::vector<double> slice_p50, slice_p99, apply_us, boundary_ns;
  for (const TracedRun& t : traced) {
    slice_p50.push_back(percentile(t.result.slice_us, 50));
    slice_p99.push_back(percentile(t.result.slice_us, 99));
    std::vector<double> a;
    for (std::uint64_t ticks : t.tracer.apply_ticks())
      a.push_back((static_cast<double>(ticks) - span_cost().inner) * npt / 1e3);
    apply_us.push_back(median(std::move(a)));
    boundary_ns.push_back(
        ratio(t.tracer.net_ticks(Layer::kCtrlBoundary) * npt,
              static_cast<double>(t.tracer.calls(Layer::kCtrlBoundary))));
  }
  const RunResult& r = traced.front().result;
  const double pkts = static_cast<double>(r.nic.processed);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<double> traced_host;
  for (const TracedRun& t : traced) traced_host.push_back(t.result.host_ns_per_pkt());
  const double untraced_host = median_of(
      untraced, [](const RunResult& u) { return u.host_ns_per_pkt(); });
  return {
      {"sim.self_ns_per_pkt", layer_ns_per_pkt(Layer::kSim), "ns"},
      {"sim.events_per_pkt", ratio(d(r.events), pkts), "1/pkt"},
      {"sim.slice_p50_us", median(slice_p50), "us"},
      {"sim.slice_p99_us", median(slice_p99), "us"},
      {"core.batch_ns_per_pkt", layer_ns_per_pkt(Layer::kCore), "ns"},
      {"core.emc_hit_rate", ratio(d(r.emc.hits), d(r.emc.hits + r.emc.misses)),
       "fraction"},
      {"core.emc_miss_per_kpkt", ratio(d(r.emc.misses) * 1e3, pkts), "1/kpkt"},
      {"core.emc_kicks", d(r.emc.kicks), "count"},
      {"core.emc_evictions", d(r.emc.evictions + r.emc.idle_evictions), "count"},
      {"core.emc_stale_invalidations", d(r.emc.stale_invalidations), "count"},
      {"core.emc_degraded_transitions", d(r.emc.degraded_transitions), "count"},
      {"core.sched_updates_per_kpkt", ratio(d(r.sched.updates) * 1e3, pkts),
       "1/kpkt"},
      {"core.sched_lock_failures", d(r.sched.lock_failures), "count"},
      {"core.sched_borrowed", d(r.sched.borrowed), "count"},
      {"np.submit_ns_per_pkt", layer_ns_per_pkt(Layer::kNp), "ns"},
      {"np.burst_mean", ratio(d(r.burst_packets), d(r.bursts)), "pkt"},
      {"np.worker_util", r.worker_util, "fraction"},
      {"np.reorder_peak", d(r.nic.reorder_occupancy_peak), "pkt"},
      {"np.watchdog_requeues", d(r.nic.watchdog_requeues), "count"},
      {"np.drop.vf_ring", d(r.nic.vf_ring_drops), "count"},
      {"np.drop.sched", d(r.nic.scheduler_drops), "count"},
      {"np.drop.tx_ring", d(r.nic.tx_ring_drops), "count"},
      {"np.drop.reorder", d(r.nic.reorder_flush_drops + r.nic.reorder_timeout_drops),
       "count"},
      {"np.drop.admission", d(r.nic.admission_drops), "count"},
      {"obs.observe_ns_per_pkt", layer_ns_per_pkt(Layer::kObs), "ns"},
      {"obs.calls_per_pkt", ratio(d(r.observer_calls), pkts), "1/pkt"},
      {"obs.export_ms",
       median_of(untraced, [](const RunResult& u) { return u.export_ms; }), "ms"},
      {"traffic.feedback_ns_per_pkt", layer_ns_per_pkt(Layer::kTraffic), "ns"},
      {"traffic.feedback_calls", d(r.feedback_calls), "count"},
      {"traffic.flows_started", d(r.flows_started), "count"},
      {"ctrl.apply_us", median(apply_us), "us"},
      {"ctrl.boundary_ns_per_call", median(boundary_ns), "ns"},
      {"ctrl.boundary_calls", d(traced.front().tracer.calls(Layer::kCtrlBoundary)),
       "count"},
      {"ctrl.committed", d(r.ctrl.committed), "count"},
      {"ctrl.rolled_back", d(r.ctrl.rolled_back), "count"},
      {"ctrl.coalesced", d(r.ctrl.coalesced), "count"},
      {"ctrl.mixed_epoch_pkts", d(r.ctrl.mixed_epoch_packets), "count"},
      {"setup.configure_ms",
       median_of(untraced, [](const RunResult& u) { return u.configure_ms; }), "ms"},
      {"setup.prefill_ms",
       median_of(untraced, [](const RunResult& u) { return u.prefill_ms; }), "ms"},
      {"trace.overhead_frac", median(traced_host) / untraced_host - 1.0,
       "fraction"},
  };
}

int run(const Args& a) {
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const HostInfo host = host_info();
  Ledger ledger;
  std::vector<RunResult> untraced;
  std::vector<TracedRun> traced;

  // Timed runs until the budget would be exceeded by one more round plus the
  // closing check run.
  double round_s = 0.0;
  // Peak RSS is read after the first run, so it is what one run of the
  // workload in a fresh process costs, not heap growth across repetitions.
  double rss_mb = 0.0;
  while (untraced.size() < kMinReps ||
         elapsed() + 2.0 * round_s < a.seconds) {
    const double t0 = elapsed();
    untraced.push_back(run_workload(a.workload, a.seed, {}));
    ledger.add(untraced.back(), "untraced");
    if (untraced.size() == 1) rss_mb = peak_rss_mb();
    if (a.trace) {
      traced.emplace_back();
      TracedRun& t = traced.back();
      RunOptions opt;
      opt.tracer = &t.tracer;
      opt.slice = kSlice;
      t.result = run_workload(a.workload, a.seed, opt);
      ledger.add(t.result, "traced");
    }
    round_s = elapsed() - t0;
  }

  // The closing check run: the checking device verifies per-flow order and
  // per-packet accounting; its fingerprint must match the timed runs.
  RunOptions check_opt;
  check_opt.check = true;
  const RunResult checked = run_workload(a.workload, a.seed, check_opt);
  ledger.add(checked, "checked");

  bool ok = ledger.failed() == 0;
  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = per_layer(untraced, traced);
    // The layer self times plus sim.self (with the tracer's own cost as a
    // bucket of its own) must add up to the traced wall time of each run,
    // first run_until to drained end.
    double worst_gap = 0.0;
    std::vector<double> net_ns;
    for (const TracedRun& t : traced) {
      const double spans_s =
          static_cast<double>(t.tracer.total_self_ticks()) * ns_per_tick() / 1e9;
      worst_gap = std::max(worst_gap,
                           std::abs(spans_s - t.result.run_s) / t.result.run_s);
      net_ns.push_back(ratio(
          (static_cast<double>(t.tracer.total_self_ticks()) -
           t.tracer.instrumentation_ticks()) * ns_per_tick(),
          static_cast<double>(t.result.nic.processed)));
    }
    // How well the overhead-corrected layer sum predicts the untraced cost.
    const double net_vs_untraced =
        median(net_ns) /
        median_of(untraced, [](const RunResult& u) { return u.host_ns_per_pkt(); });
    obs::JsonWriter w;
    w.begin_object().key("trace_sum").begin_object();
    w.key("traced_runs").value(static_cast<std::uint64_t>(traced.size()));
    put(w, "worst_gap_frac", worst_gap);
    put(w, "span_cost_ns",
        (span_cost().inner + span_cost().outer) * ns_per_tick());
    put(w, "net_layers_vs_untraced", net_vs_untraced);
    w.end_object().end_object();
    std::cout << w.str() << "\n";
    if (worst_gap > kTraceSumTolerance) {
      std::cerr << "fvbench: layer self times miss the traced wall time by "
                << worst_gap * 100 << "%\n";
      ok = false;
    }
    if (!a.trace_out.empty() && !traced.front().tracer.write_raw(a.trace_out)) {
      std::cerr << "fvbench: cannot write " << a.trace_out << "\n";
      ok = false;
    }
  } else {
    metrics = end_to_end(untraced, checked, rss_mb);
  }

  print_info(a, host, ledger, untraced, checked,
             untraced.size() + traced.size());
  obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(ok);
  w.key("attempted").value(ledger.attempted());
  w.key("failed").value(ledger.failed());
  put_metrics(w, metrics);
  w.end_object();
  std::cout << w.str() << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: fvbench --workload overload_burst|churn_1m|app_reconfig"
                 " --seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "fvbench: " << e.what() << "\n";
    return 1;
  }
}
