#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "np/flowvalve_processor.h"
#include "obs/export.h"
#include "obs/metrics_hub.h"
#include "obs/reconfig_tracker.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace.h"
#include "traffic/app.h"
#include "traffic/churn.h"
#include "traffic/generators.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kLeaves = 4;
constexpr std::uint32_t kFrameBytes = 1518;
/// Throughput window of the MetricsHub sampling timer in every workload; the
/// share error is averaged over these windows.
constexpr sim::SimDuration kWindow = sim::microseconds(100);

// overload_burst: today's bench_pipeline gate cell, run long enough.
constexpr sim::SimTime kOverloadHorizon = sim::milliseconds(1000);
constexpr double kOverloadLoad = 1.3;
constexpr unsigned kSenderClump = 16;

// churn_1m: the top cell of scale_sweep.
constexpr sim::SimTime kChurnHorizon = sim::milliseconds(400);
constexpr std::size_t kChurnLiveFlows = 1'000'000;
constexpr std::size_t kChurnEmcCapacity = std::size_t{1} << 21;
constexpr double kChurnLoad = 0.9;

// app_reconfig: closed-loop AIMD apps plus a C0 weight delta every 10 ms.
constexpr sim::SimTime kAppHorizon = sim::milliseconds(200);
constexpr sim::SimDuration kApplyEvery = sim::milliseconds(10);
/// Updates stop this long before the horizon, leaving a window after the
/// last commit in which shares settle on the final weights.
constexpr sim::SimDuration kApplyTail = sim::milliseconds(50);
constexpr unsigned kAppConnections = 64;
constexpr std::uint32_t kAppFrameBytes[kLeaves] = {64, 576, 1518, 1518};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string flat_policy(sim::Rate link) {
  std::ostringstream s;
  s << "fv qdisc add dev nic0 root handle 1: htb rate " << link.gbps() << "gbit\n";
  for (unsigned i = 0; i < kLeaves; ++i)
    s << "fv class add dev nic0 parent 1: classid 1:1" << i << " name C" << i
      << " weight 1\n";
  for (unsigned i = 0; i < kLeaves; ++i)
    s << "fv filter add dev nic0 pref " << (10 * (i + 1)) << " vf " << i
      << " classid 1:1" << i << "\n";
  return s.str();
}

/// Two inner classes (weights 2:1), two leaves each, siblings lending to
/// each other.
std::string tiered_policy(sim::Rate link) {
  std::ostringstream s;
  s << "fv qdisc add dev nic0 root handle 1: htb rate " << link.gbps() << "gbit\n"
    << "fv class add dev nic0 parent 1: classid 1:1 name S1 weight 2\n"
    << "fv class add dev nic0 parent 1: classid 1:2 name S2 weight 1\n"
    << "fv class add dev nic0 parent 1:1 classid 1:10 name C0 weight 1\n"
    << "fv class add dev nic0 parent 1:1 classid 1:11 name C1 weight 1\n"
    << "fv class add dev nic0 parent 1:2 classid 1:20 name C2 weight 2\n"
    << "fv class add dev nic0 parent 1:2 classid 1:21 name C3 weight 1\n"
    << "fv borrow add dev nic0 classid 1:10 from 1:11\n"
    << "fv borrow add dev nic0 classid 1:11 from 1:10\n"
    << "fv borrow add dev nic0 classid 1:20 from 1:21\n"
    << "fv borrow add dev nic0 classid 1:21 from 1:20\n"
    << "fv filter add dev nic0 pref 10 vf 0 classid 1:10\n"
    << "fv filter add dev nic0 pref 20 vf 1 classid 1:11\n"
    << "fv filter add dev nic0 pref 30 vf 2 classid 1:20\n"
    << "fv filter add dev nic0 pref 40 vf 3 classid 1:21\n";
  return s.str();
}

/// Largest per-leaf distance between two share vectors, each normalized.
double max_share_distance(const std::array<double, kLeaves>& got,
                          const std::array<double, kLeaves>& want) {
  double gs = 0.0, ws = 0.0;
  for (unsigned i = 0; i < kLeaves; ++i) {
    gs += got[i];
    ws += want[i];
  }
  if (gs <= 0.0 || ws <= 0.0) return 1.0;
  double worst = 0.0;
  for (unsigned i = 0; i < kLeaves; ++i)
    worst = std::max(worst, std::abs(got[i] / gs - want[i] / ws));
  return worst;
}

std::array<double, kLeaves> window_bytes(const obs::ThroughputTracker::Window& win) {
  std::array<double, kLeaves> out{};
  for (const auto& [vf, c] : win.classes)
    if (vf < kLeaves) out[vf] += static_cast<double>(c.tx_bytes);
  return out;
}

/// Mean over the throughput windows that start at or after `from` and
/// delivered anything of the largest per-leaf share distance to `want`.
double windowed_share_err(const obs::ThroughputTracker& t, sim::SimTime from,
                          const std::array<double, kLeaves>& want) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& win : t.windows()) {
    if (win.start < from) continue;
    const auto got = window_bytes(win);
    if (got[0] + got[1] + got[2] + got[3] <= 0.0) continue;
    sum += max_share_distance(got, want);
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 1.0;
}

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t fingerprint(const RunResult& r) {
  Fnv f;
  f.add(r.sim.gbps);
  f.add(r.sim.sojourn_p50_us);
  f.add(r.sim.sojourn_p99_us);
  f.add(r.sim.sojourn_mean_us);
  f.add(r.sim.sojourn_samples);
  f.add(r.sim.drop_frac);
  f.add(r.sim.share_err);
  for (std::uint64_t v :
       {r.nic.submitted, r.nic.vf_ring_drops, r.nic.scheduler_drops,
        r.nic.tx_ring_drops, r.nic.reorder_flush_drops, r.nic.forwarded_to_wire,
        r.nic.wire_bytes, r.nic.worker_busy_ns, r.nic.processed,
        r.nic.processing_cycles, r.nic.reorder_occupancy_peak,
        r.nic.watchdog_requeues, r.nic.admission_drops})
    f.add(v);
  for (std::uint64_t v :
       {r.emc.hits, r.emc.misses, r.emc.insertions, r.emc.evictions,
        r.emc.stale_invalidations, r.emc.idle_evictions, r.emc.kicks,
        r.emc.kick_failures, r.emc.degraded_transitions})
    f.add(v);
  for (std::uint64_t v : {r.sched.forwarded, r.sched.dropped, r.sched.borrowed,
                          r.sched.updates, r.sched.lock_failures,
                          r.sched.policy_commits})
    f.add(v);
  for (std::uint64_t v : {r.ctrl.applied, r.ctrl.committed, r.ctrl.rolled_back,
                          r.ctrl.coalesced, r.ctrl.mixed_epoch_packets})
    f.add(v);
  f.add(r.flows_started);
  return f.value();
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kOverloadBurst: return "overload_burst";
    case Workload::kChurn1m: return "churn_1m";
    case Workload::kAppReconfig: return "app_reconfig";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : kAllWorkloads)
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

std::uint64_t RunResult::drops() const {
  return nic.vf_ring_drops + nic.scheduler_drops + nic.tx_ring_drops +
         nic.reorder_flush_drops + nic.reorder_timeout_drops +
         nic.watchdog_drops + nic.admission_drops + nic.island_restart_drops;
}

RunResult run_workload(Workload w, std::uint64_t seed, const RunOptions& opt) {
  RunResult res;
  Tracer* const tr = opt.tracer;
  const sim::Rng root_rng(seed);
  const auto setup_start = Clock::now();

  np::NpConfig cfg = np::agilio_cx_40g();
  sim::SimTime horizon = 0;
  std::size_t churn_flows = 0;
  switch (w) {
    case Workload::kOverloadBurst:
      cfg.num_workers = 8;
      cfg.batch_size = 32;
      horizon = kOverloadHorizon;
      break;
    case Workload::kChurn1m:
      churn_flows = std::max<std::size_t>(
          1024, static_cast<std::size_t>(kChurnLiveFlows * opt.churn_scale));
      cfg.num_vfs = kLeaves;
      cfg.emc_capacity = std::max<std::size_t>(
          4096, static_cast<std::size_t>(kChurnEmcCapacity * opt.churn_scale));
      // Long enough that the amortized idle sweep runs without evicting
      // entries the horizon could still revisit (as in scale_sweep).
      cfg.emc_idle_timeout = sim::milliseconds(250);
      horizon = kChurnHorizon;
      break;
    case Workload::kAppReconfig:
      horizon = kAppHorizon;
      break;
  }
  if (opt.horizon > 0) horizon = opt.horizon;

  sim::Simulator sim;
  core::FlowValveEngine engine(np::engine_options_for(cfg));
  {
    const auto t0 = Clock::now();
    const std::string err = engine.configure(
        w == Workload::kAppReconfig ? tiered_policy(cfg.wire_rate)
                                    : flat_policy(cfg.wire_rate));
    res.configure_ms = seconds_between(t0, Clock::now()) * 1e3;
    if (!err.empty()) throw std::runtime_error("policy configure: " + err);
  }

  np::FlowValveProcessor fv_processor(engine);
  std::optional<TapProcessor> tap_processor;
  if (tr) tap_processor.emplace(fv_processor, *tr);
  np::PacketProcessor& processor =
      tap_processor ? static_cast<np::PacketProcessor&>(*tap_processor)
                    : fv_processor;
  np::NicPipeline pipeline(sim, cfg, processor);
  if (opt.faults.any()) pipeline.set_injected_faults(opt.faults);

  DeliveryChecker checker;
  std::optional<TapDevice> tap_device;
  if (tr || opt.check)
    tap_device.emplace(pipeline, tr, opt.check ? &checker : nullptr);
  net::EgressDevice& device =
      tap_device ? static_cast<net::EgressDevice&>(*tap_device) : pipeline;
  traffic::FlowRouter router(device);
  traffic::IdAllocator ids;

  obs::MetricsHub hub(sim, pipeline, {.window = kWindow});
  hub.attach_engine(engine);
  hub.start();
  std::optional<TapObserver> tap_observer;
  if (tr) {
    tap_observer.emplace(hub, *tr);
    pipeline.set_observer(&*tap_observer);
  }

  obs::ReconfigTracker reconfig_records;
  std::optional<ctrl::ReconfigManager> manager;
  std::optional<TapControlHook> tap_hook;
  if (w == Workload::kAppReconfig) {
    manager.emplace(sim, pipeline, engine, &reconfig_records);
    if (tr) {
      tap_hook.emplace(*manager, *tr);
      pipeline.set_control_hook(&*tap_hook);
    }
  }

  std::vector<std::unique_ptr<traffic::CbrFlow>> cbr;
  std::unique_ptr<traffic::ChurnWorkload> churn;
  std::vector<std::unique_ptr<traffic::AppProcess>> apps;

  switch (w) {
    case Workload::kOverloadBurst: {
      const sim::Rate per_flow = cfg.wire_rate * (kOverloadLoad / kLeaves);
      for (unsigned i = 0; i < kLeaves; ++i) {
        traffic::FlowSpec fs;
        fs.flow_id = ids.next_flow_id();
        fs.app_id = i;
        fs.vf_port = static_cast<std::uint16_t>(i);
        fs.wire_bytes = kFrameBytes;
        cbr.push_back(std::make_unique<traffic::CbrFlow>(
            sim, router, ids, fs, per_flow, root_rng.split("cbr").split(i),
            0.05, kSenderClump));
      }
      for (auto& f : cbr) f->start();
      res.flows_started = cbr.size();
      break;
    }
    case Workload::kChurn1m: {
      traffic::ChurnWorkloadConfig cc;
      cc.target_live_flows = churn_flows;
      cc.flows_per_sec = static_cast<double>(churn_flows) * 10.0;
      cc.min_packets = 16;
      cc.max_packets = 512;
      cc.aggregate_rate = cfg.wire_rate * kChurnLoad;
      cc.wire_bytes = kFrameBytes;
      cc.vf_count = kLeaves;
      // Prime the EMC with the whole initial live population: the horizon
      // at wire rate cannot cycle 10^6 flows through a cold table.
      const auto t0 = Clock::now();
      core::Classifier& cls = engine.classifier();
      core::ExactMatchFlowCache& cache = cls.cache_for_fault();
      for (std::uint64_t serial = 0; serial < churn_flows; ++serial) {
        const net::FiveTuple t = traffic::ChurnWorkload::tuple_for(serial);
        const std::uint16_t vf = traffic::ChurnWorkload::vf_for(serial, kLeaves);
        cache.insert(vf, t, cls.rule_walk_label(vf, t), /*now_tick=*/0,
                     cls.label_epoch());
      }
      res.prefill_ms = seconds_between(t0, Clock::now()) * 1e3;
      churn = std::make_unique<traffic::ChurnWorkload>(
          sim, router, ids, cc, root_rng.split("churn"));
      churn->start();
      break;
    }
    case Workload::kAppReconfig: {
      for (unsigned i = 0; i < kLeaves; ++i) {
        traffic::AppConfig ac;
        ac.name = "App" + std::to_string(i);
        ac.app_id = i;
        ac.vf_port = static_cast<std::uint16_t>(i);
        ac.num_connections = kAppConnections;
        ac.wire_bytes = kAppFrameBytes[i];
        ac.src_port_base = static_cast<std::uint16_t>(20000 + 1000 * i);
        apps.push_back(std::make_unique<traffic::AppProcess>(
            sim, router, ids, ac, root_rng.split("app").split(i)));
      }
      for (auto& a : apps) a->start();
      res.flows_started = kLeaves * kAppConnections;
      // The update stream toggles C0's weight between 2 and 0.5.
      for (sim::SimTime t = kApplyEvery; t <= horizon - kApplyTail;
           t += kApplyEvery) {
        const bool up = (t / kApplyEvery) % 2 == 1;
        sim.schedule_at(t, [&manager, tr, up] {
          ctrl::PolicyDelta d;
          d.class_name = "C0";
          d.weight = up ? 2.0 : 0.5;
          ctrl::PolicyUpdate u;
          u.deltas.push_back(std::move(d));
          Span s(tr, Layer::kCtrlApply);
          manager->apply(u);
        });
      }
      break;
    }
  }
  res.setup_s = seconds_between(setup_start, Clock::now());

  const auto run_start = Clock::now();
  {
    Span root(tr, Layer::kSim);
    if (opt.slice > 0) {
      for (sim::SimTime t = 0; t < horizon;) {
        t = std::min(horizon, t + opt.slice);
        const auto s0 = Clock::now();
        sim.run_until(t);
        res.slice_us.push_back(seconds_between(s0, Clock::now()) * 1e6);
      }
    } else {
      sim.run_until(horizon);
    }
    {
      Span s(tr, Layer::kTraffic);
      for (auto& f : cbr) f->stop();
      if (churn) churn->stop();
      for (auto& a : apps) a->stop();
    }
    {
      Span s(tr, Layer::kObs);
      hub.stop_sampling();
    }
    sim.run_all();
  }
  res.run_s = seconds_between(run_start, Clock::now());

  {
    const auto t0 = Clock::now();
    const obs::CounterSnapshot snap = hub.snapshot();
    const std::string exported = obs::metrics_to_json(hub);
    res.export_ms = seconds_between(t0, Clock::now()) * 1e3;
    if (exported.empty()) throw std::runtime_error("empty metrics export");
    res.nic = snap.nic;
    res.emc = snap.emc;
    res.sched = snap.sched;
    res.worker_util = snap.worker_utilization;
  }
  if (manager) res.ctrl = manager->stats();
  if (churn) res.flows_started = churn->flows_started();
  res.events = sim.events_executed();

  // Virtual-time outcome.
  const obs::ThroughputTracker& tput = hub.throughput();
  double bytes = 0.0;
  for (const auto& win : tput.windows())
    for (double b : window_bytes(win)) bytes += b;
  res.sim.gbps = bytes * 8.0 / static_cast<double>(horizon);
  const auto& total = hub.latency().segment(obs::Segment::kTotal);
  res.sim.sojourn_p50_us = static_cast<double>(total.p50()) / 1e3;
  res.sim.sojourn_p99_us = static_cast<double>(total.p99()) / 1e3;
  res.sim.sojourn_mean_us = total.mean() / 1e3;
  res.sim.sojourn_samples = total.count();
  res.sim.drop_frac = res.nic.submitted
                          ? static_cast<double>(res.drops()) /
                                static_cast<double>(res.nic.submitted)
                          : 0.0;
  switch (w) {
    case Workload::kOverloadBurst:
      // Equal weights: the closed form w_i / sum(w) is 1/4 per leaf.
      res.sim.share_err = windowed_share_err(tput, 0, {1, 1, 1, 1});
      break;
    case Workload::kChurn1m: {
      // Reference: the offered share, from every packet each leaf saw.
      std::array<double, kLeaves> offered{};
      for (const auto& [vf, c] : tput.totals())
        if (vf < kLeaves)
          offered[vf] = static_cast<double>(c.tx_packets + c.drops);
      res.sim.share_err = windowed_share_err(tput, 0, offered);
      break;
    }
    case Workload::kAppReconfig: {
      // Reference: the final weights under saturation, over the windows
      // after the last commit.
      sim::SimTime last_commit = 0;
      for (const auto& r : reconfig_records.records())
        if (r.committed()) last_commit = std::max(last_commit, r.committed_at);
      const core::SchedulingTree& tree = engine.tree();
      auto weight = [&](const char* name) {
        return tree.at(tree.find(name)).policy.weight;
      };
      const double s1 = weight("S1"), s2 = weight("S2");
      const double c0 = weight("C0"), c1 = weight("C1");
      const double c2 = weight("C2"), c3 = weight("C3");
      const double f1 = s1 / (s1 + s2), f2 = s2 / (s1 + s2);
      res.sim.share_err = windowed_share_err(
          tput, last_commit,
          {f1 * c0 / (c0 + c1), f1 * c1 / (c0 + c1), f2 * c2 / (c2 + c3),
           f2 * c3 / (c2 + c3)});
      break;
    }
  }

  // Output checks.
  res.conserved = res.nic.submitted == res.nic.forwarded_to_wire + res.drops() &&
                  pipeline.in_flight() == 0 && hub.latency().pending() == 0;
  if (opt.check) {
    res.unaccounted = checker.unaccounted();
    if (checker.submitted() != res.nic.submitted) res.conserved = false;
    res.out_of_order = checker.out_of_order();
    res.exact_sojourn = checker.sojourn();
    // The LogHistogram bounds its quantization error by 1/16.
    auto within = [](double exact, double binned) {
      return std::abs(exact - binned) <= binned / 16.0 + 1e-3;
    };
    const DeliveryChecker::Sojourn& x = res.exact_sojourn;
    res.sojourn_consistent =
        within(x.p50_us, res.sim.sojourn_p50_us) &&
        within(x.p99_us, res.sim.sojourn_p99_us) &&
        std::abs(x.mean_us - res.sim.sojourn_mean_us) <= 1e-6 * x.mean_us;
  }
  if (tap_processor) {
    res.bursts = tap_processor->bursts();
    res.burst_packets = tap_processor->packets();
  }
  if (tap_device) res.feedback_calls = tap_device->feedback_calls();
  if (tap_observer) res.observer_calls = tap_observer->calls();
  res.fingerprint = fingerprint(res);
  return res;
}

}  // namespace perfbench
