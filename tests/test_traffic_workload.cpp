// Unit tests for the datacenter flow-level workload generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "traffic/churn.h"
#include "traffic/workload.h"

namespace flowvalve::traffic {
namespace {

using sim::Rate;

/// Sink that accepts everything instantly.
class SinkDevice final : public net::EgressDevice {
 public:
  explicit SinkDevice(sim::Simulator& sim) : sim_(sim) {}
  bool submit(net::Packet pkt) override {
    bytes_ += pkt.wire_bytes;
    pkt.wire_tx_done = sim_.now();
    pkt.delivered_at = sim_.now();
    deliver(pkt);
    return true;
  }
  std::uint64_t bytes() const { return bytes_; }

 private:
  sim::Simulator& sim_;
  std::uint64_t bytes_ = 0;
};

TEST(FlowSizeDist, SamplesWithinBounds) {
  FlowSizeDistribution dist(1.2, 1000, 1'000'000);
  sim::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const auto s = dist.sample(rng);
    ASSERT_GE(s, 1000u);
    ASSERT_LE(s, 1'000'000u);
  }
}

TEST(FlowSizeDist, GoldenSamplesForFixedSeeds) {
  // Recorded before lo^α and hi^α moved into the constructor. Every churn
  // and datacenter run draws its flow sizes here, so the sampler must stay
  // bit-for-bit: the first draws exactly, and 10^5 draws by sum and FNV-1a.
  struct Golden {
    double alpha;
    std::uint64_t lo, hi, seed;
    std::array<std::uint64_t, 12> first;
    std::uint64_t sum, fnv;
  };
  const Golden cases[] = {
      {1.2, 2 * 1460, 30 * 1024 * 1024, 7,
       {7976, 3833, 13419, 79679, 145893, 16275, 3076, 3201, 4492, 3349, 5590, 8744},
       1525961125, 0x876ce2f1b83a4bc7ULL},
      {1.2, 16, 512, 1,
       {42, 29, 32, 23, 42, 18, 16, 23, 79, 30, 128, 172},
       4799129, 0x4f18310c8dd8b38bULL},
      {1.05, 2, 256, 9001,
       {2, 4, 6, 2, 2, 16, 3, 2, 2, 2, 2, 3},
       870311, 0x4e231d206acacba5ULL},
      {1.7, 1000, 1000000, 42,
       {1052, 1323, 1954, 4577, 16867, 2372, 2111, 3052, 2322, 1673, 1963, 1223},
       240442430, 0xab9a56d515ee499aULL},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(testing::Message() << "alpha " << g.alpha << " seed " << g.seed);
    const FlowSizeDistribution dist(g.alpha, g.lo, g.hi);
    sim::Rng first_rng(g.seed);
    for (std::size_t i = 0; i < g.first.size(); ++i)
      EXPECT_EQ(dist.sample(first_rng), g.first[i]) << "draw " << i;
    sim::Rng rng(g.seed);
    std::uint64_t sum = 0, fnv = 0;
    for (int i = 0; i < 100'000; ++i) {
      const std::uint64_t v = dist.sample(rng);
      sum += v;
      fnv = (fnv ^ v) * 0x100000001b3ULL;
    }
    EXPECT_EQ(sum, g.sum);
    EXPECT_EQ(fnv, g.fnv);
  }
}

TEST(FlowSizeDist, EmpiricalMeanMatchesAnalytic) {
  FlowSizeDistribution dist(1.3, 2000, 10'000'000);
  sim::Rng rng(2);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(dist.sample(rng));
  EXPECT_NEAR(sum / n, dist.mean_bytes(), dist.mean_bytes() * 0.05);
}

TEST(FlowSizeDist, HeavyTailPresent) {
  // With alpha=1.1 most flows are small but a few are huge: the top 10% of
  // samples should carry the majority of the bytes.
  FlowSizeDistribution dist(1.1, 1500, 50'000'000);
  sim::Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(static_cast<double>(dist.sample(rng)));
  std::sort(samples.begin(), samples.end());
  double total = 0, top = 0;
  for (double s : samples) total += s;
  for (std::size_t i = samples.size() * 9 / 10; i < samples.size(); ++i) top += samples[i];
  EXPECT_GT(top / total, 0.5);
  // And the median is well below the mean (mean dragged up by the tail).
  EXPECT_LT(samples[samples.size() / 2],
            0.35 * total / static_cast<double>(samples.size()));
}

TEST(DatacenterWorkloadTest, OfferedLoadMatchesConfig) {
  sim::Simulator sim;
  SinkDevice sink(sim);
  IdAllocator ids;
  FlowRouter router(sink);
  DatacenterWorkloadConfig cfg;
  cfg.flows_per_sec = 4000;
  cfg.sizes = FlowSizeDistribution(1.5, 3000, 300'000);
  cfg.flow_rate = Rate::gigabits_per_sec(1);
  DatacenterWorkload wl(sim, router, ids, cfg, sim::Rng(4));
  wl.start();
  sim.run_until(sim::seconds(2));
  const double offered_gbps =
      static_cast<double>(wl.bytes_sent()) * 8.0 / sim::seconds(2);
  EXPECT_NEAR(offered_gbps, cfg.offered_load().gbps(), cfg.offered_load().gbps() * 0.25);
  EXPECT_GT(wl.flows_started(), 6000u);
  EXPECT_GT(wl.flows_completed(), 5000u);
}

TEST(DatacenterWorkloadTest, FlowsTerminateAfterTheirSize) {
  sim::Simulator sim;
  SinkDevice sink(sim);
  IdAllocator ids;
  FlowRouter router(sink);
  DatacenterWorkloadConfig cfg;
  cfg.flows_per_sec = 500;
  cfg.sizes = FlowSizeDistribution(1.5, 3000, 30'000);
  DatacenterWorkload wl(sim, router, ids, cfg, sim::Rng(5));
  wl.start();
  sim.run_until(sim::milliseconds(500));
  wl.stop();
  // Small sizes and a fast flow rate: nearly everything completes.
  EXPECT_GE(wl.flows_completed() + wl.flows_active(), wl.flows_started());
  EXPECT_GT(wl.flows_completed(), wl.flows_started() * 9 / 10);
  EXPECT_EQ(wl.flows_active(), 0u);  // stop() cleared the rest
}

TEST(DatacenterWorkloadTest, StopIsIdempotentAndHalts) {
  sim::Simulator sim;
  SinkDevice sink(sim);
  IdAllocator ids;
  FlowRouter router(sink);
  DatacenterWorkload wl(sim, router, ids, DatacenterWorkloadConfig{}, sim::Rng(6));
  wl.start();
  sim.run_until(sim::milliseconds(50));
  wl.stop();
  wl.stop();
  const auto sent = wl.packets_sent();
  sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(wl.packets_sent(), sent);
}

TEST(DatacenterWorkloadTest, DeliveriesRouteBack) {
  sim::Simulator sim;
  SinkDevice sink(sim);
  IdAllocator ids;
  FlowRouter router(sink);
  DatacenterWorkloadConfig cfg;
  cfg.flows_per_sec = 1000;
  DatacenterWorkload wl(sim, router, ids, cfg, sim::Rng(7));
  wl.start();
  sim.run_until(sim::milliseconds(200));
  EXPECT_GT(wl.packets_delivered(), 0u);
  EXPECT_EQ(wl.packets_dropped(), 0u);
}

// ---- ChurnWorkload ----------------------------------------------------------

TEST(ChurnWorkloadTest, HoldsTargetLiveFlowsUnderReplacement) {
  sim::Simulator sim;
  SinkDevice sink(sim);
  IdAllocator ids;
  FlowRouter router(sink);
  ChurnWorkloadConfig cfg;
  cfg.target_live_flows = 2048;
  cfg.flows_per_sec = 200'000;  // replacements easily keep up with deaths
  cfg.aggregate_rate = Rate::gigabits_per_sec(20);
  ChurnWorkload wl(sim, router, ids, cfg, sim::Rng(8));
  wl.start();
  sim.run_until(sim::milliseconds(40));
  // Flows die and are replaced, but the live population sits at the target.
  EXPECT_GT(wl.flows_completed(), 100u);
  EXPECT_EQ(wl.flows_live(), cfg.target_live_flows);
  EXPECT_GT(wl.flows_started(), cfg.target_live_flows);
  EXPECT_GT(wl.packets_delivered(), 0u);
  wl.stop();
  EXPECT_EQ(wl.flows_live(), 0u);
}

TEST(ChurnWorkloadTest, AggregateRateIndependentOfLiveFlowCount) {
  // The knob churn turns is how one fixed aggregate rate is spread across
  // flows — 100x the live flows must not change the offered load.
  const auto offered = [](std::size_t live) {
    sim::Simulator sim;
    SinkDevice sink(sim);
    IdAllocator ids;
    FlowRouter router(sink);
    ChurnWorkloadConfig cfg;
    cfg.target_live_flows = live;
    cfg.flows_per_sec = 0;  // no replacement: pure round-robin service
    cfg.min_packets = 1 << 20;  // flows never complete inside the horizon
    cfg.max_packets = 1 << 21;
    cfg.aggregate_rate = Rate::gigabits_per_sec(10);
    ChurnWorkload wl(sim, router, ids, cfg, sim::Rng(9));
    wl.start();
    sim.run_until(sim::milliseconds(50));
    return static_cast<double>(wl.bytes_sent()) * 8.0 / sim::milliseconds(50);
  };
  const double small = offered(64);
  const double large = offered(6400);
  EXPECT_NEAR(small, 10.0, 1.0);
  EXPECT_NEAR(large, small, small * 0.05);
}

TEST(ChurnWorkloadTest, SerialSchemeYieldsUniqueKeysAcrossVfs) {
  // tuple_for/vf_for is the shared contract with bench/scale_sweep's table
  // primer: (vf, tuple) keys must be unique per serial.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
  for (std::uint64_t serial = 0; serial < 200'000; ++serial) {
    const net::FiveTuple t = ChurnWorkload::tuple_for(serial);
    keys.emplace_back(
        (static_cast<std::uint64_t>(t.src_ip) << 16) | t.src_port,
        ChurnWorkload::vf_for(serial, 4));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(ChurnWorkloadTest, FlowSizesAboveThirtyTwoBitsAreClamped) {
  // A flow keeps 32-bit packet counts, so sizes are clamped to UINT32_MAX.
  // Unclamped, these sizes (2^32 or 2^32 + 1) would wrap to 0 or 1 packets
  // and every flow would end within one train.
  sim::Simulator sim;
  SinkDevice sink(sim);
  IdAllocator ids;
  FlowRouter router(sink);
  ChurnWorkloadConfig cfg;
  cfg.target_live_flows = 16;
  cfg.flows_per_sec = 0;
  cfg.min_packets = std::uint64_t{1} << 32;
  cfg.max_packets = (std::uint64_t{1} << 32) + 1;
  cfg.aggregate_rate = Rate::gigabits_per_sec(10);
  ChurnWorkload wl(sim, router, ids, cfg, sim::Rng(11));
  wl.start();
  sim.run_until(sim::milliseconds(5));
  EXPECT_EQ(wl.flows_completed(), 0u);
  EXPECT_EQ(wl.flows_live(), cfg.target_live_flows);
  EXPECT_EQ(wl.packets_sent() % cfg.train_length, 0u);
  EXPECT_GT(wl.packets_sent(), 64 * cfg.train_length);
}

TEST(ChurnWorkloadTest, SameSeedSameChurnHistory) {
  const auto run = [] {
    sim::Simulator sim;
    SinkDevice sink(sim);
    IdAllocator ids;
    FlowRouter router(sink);
    ChurnWorkloadConfig cfg;
    cfg.target_live_flows = 512;
    cfg.flows_per_sec = 100'000;
    ChurnWorkload wl(sim, router, ids, cfg, sim::Rng(10));
    wl.start();
    sim.run_until(sim::milliseconds(30));
    return std::tuple{wl.packets_sent(), wl.bytes_sent(), wl.flows_started(),
                      wl.flows_completed()};
  };
  EXPECT_EQ(run(), run());
}

// ---- Dormant arrival chain vs the eager chain it replaces -------------------

/// Reference copy of ChurnWorkload as it was before its arrival chain could
/// sleep: one arrival event per Poisson gap, ceiling or not. Test oracle
/// only; it also logs what the workload keeps private (drawn sizes,
/// completions, and the order its arrival and service events ran in).
class EagerChurn final : public TrafficSource {
 public:
  EagerChurn(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids,
             ChurnWorkloadConfig cfg, sim::Rng rng)
      : sim_(sim), router_(router), ids_(ids), cfg_(cfg),
        sizes_(cfg.size_alpha, std::max<std::uint64_t>(1, cfg.min_packets),
               std::max<std::uint64_t>(cfg.min_packets + 1, cfg.max_packets)),
        rng_(rng) {
    if (cfg_.initial_flows == 0) cfg_.initial_flows = cfg_.target_live_flows;
    cfg_.initial_flows = std::min(cfg_.initial_flows, cfg_.target_live_flows);
  }
  void start() {
    active_ = true;
    for (std::size_t i = 0; i < cfg_.initial_flows; ++i) spawn();
    if (cfg_.flows_per_sec > 0.0) arm_arrival();
    arm_service();
  }
  void stop() {
    active_ = false;
    arrival_.cancel();
    service_.cancel();
    for (const Flow& f : flows_) router_.unregister_flow(f.spec.flow_id);
    flows_.clear();
    cursor_ = 0;
  }
  std::uint64_t flows_started() const { return started_; }
  std::size_t flows_live() const { return flows_.size(); }
  void on_delivered(const net::Packet&) override {}
  void on_dropped(const net::Packet&) override {}

  std::map<std::uint32_t, std::uint64_t> drawn_size;
  std::map<std::uint32_t, sim::SimTime> completed_at;
  std::vector<std::pair<sim::SimTime, bool>> chain_log;  // (instant, is service)

 private:
  struct Flow {
    FlowSpec spec;
    std::uint64_t remaining = 0, seq = 0;
  };
  void spawn() {
    if (flows_.size() >= cfg_.target_live_flows) return;
    Flow f;
    f.spec.flow_id = ids_.next_flow_id();
    f.spec.app_id = cfg_.app_id;
    f.spec.vf_port = ChurnWorkload::vf_for(serial_, cfg_.vf_count);
    f.spec.wire_bytes = cfg_.wire_bytes;
    f.spec.tuple = ChurnWorkload::tuple_for(serial_++);
    f.remaining = sizes_.sample(rng_);
    drawn_size[f.spec.flow_id] = f.remaining;
    router_.register_flow(f.spec.flow_id, this);
    ++started_;
    flows_.push_back(f);
  }
  void arm_arrival() {
    arrival_ = sim_.schedule_after(
        std::max<sim::SimDuration>(1, static_cast<sim::SimDuration>(rng_.exponential(
                                          1e9 / cfg_.flows_per_sec))),
        [this] {
          if (!active_) return;
          chain_log.emplace_back(sim_.now(), false);
          spawn();
          arm_arrival();
        });
  }
  void arm_service() {
    const double bits = static_cast<double>(cfg_.train_length) * cfg_.wire_bytes * 8.0;
    service_ = sim_.schedule_after(
        std::max<sim::SimDuration>(1, static_cast<sim::SimDuration>(
                                          bits * 1e9 / cfg_.aggregate_rate.bps())),
        [this] {
          if (!active_) return;
          chain_log.emplace_back(sim_.now(), true);
          service();
          arm_service();
        });
  }
  void service() {
    if (flows_.empty()) return;
    if (cursor_ >= flows_.size()) cursor_ = 0;
    Flow& f = flows_[cursor_];
    const std::uint64_t train = std::min<std::uint64_t>(f.remaining, cfg_.train_length);
    for (std::uint64_t i = 0; i < train; ++i)
      router_.device().submit(make_packet(f.spec, ids_, sim_.now(), f.seq++));
    f.remaining -= train;
    if (f.remaining == 0) {
      router_.unregister_flow(f.spec.flow_id);
      completed_at[f.spec.flow_id] = sim_.now();
      flows_[cursor_] = flows_.back();
      flows_.pop_back();
    } else {
      ++cursor_;
    }
  }

  sim::Simulator& sim_;
  FlowRouter& router_;
  IdAllocator& ids_;
  ChurnWorkloadConfig cfg_;
  FlowSizeDistribution sizes_;
  sim::Rng rng_;
  bool active_ = false;
  std::vector<Flow> flows_;
  std::size_t cursor_ = 0;
  std::uint64_t serial_ = 0, started_ = 0;
  sim::EventHandle arrival_, service_;
};

/// Sink that keeps every submitted packet's identity and instant.
class RecordingDevice final : public net::EgressDevice {
 public:
  using Record = std::tuple<sim::SimTime, std::uint64_t, std::uint32_t, std::uint64_t,
                            std::uint16_t, std::uint32_t, std::uint16_t>;
  explicit RecordingDevice(sim::Simulator& sim) : sim_(sim) {}
  bool submit(net::Packet pkt) override {
    log.emplace_back(sim_.now(), pkt.id, pkt.flow_id, pkt.seq_in_flow, pkt.vf_port,
                     pkt.tuple.src_ip, pkt.tuple.src_port);
    deliver(pkt);
    return true;
  }
  std::vector<Record> log;

 private:
  sim::Simulator& sim_;
};

struct ChurnRun {
  ChurnWorkloadConfig cfg;
  std::uint64_t seed = 1;
  sim::SimTime horizon = sim::milliseconds(2);
  /// stop() at this instant (kSimTimeMax: never); stepping goes on after.
  sim::SimTime stop_at = sim::kSimTimeMax;
};

struct ChurnTrace {
  /// (instant, flow id, live count after the event that spawned it)
  std::vector<std::tuple<sim::SimTime, std::uint32_t, std::size_t>> spawns;
  std::vector<RecordingDevice::Record> packets;
  std::map<std::uint32_t, std::uint64_t> packets_per_flow;
  std::uint64_t events = 0;
};

/// One churn source on its own simulator, stepped one event at a time so
/// every spawn is logged by the event that made it.
template <class Churn>
struct ChurnRig {
  ChurnRig(sim::SchedulerKind kind, const ChurnRun& run)
      : sim(kind), dev(sim), router(dev), wl(sim, router, ids, run.cfg, sim::Rng(run.seed)) {
    if (run.stop_at != sim::kSimTimeMax) sim.schedule_at(run.stop_at, [this] { wl.stop(); });
    wl.start();
    log_spawns(0);
    while (sim.now() <= run.horizon) {
      const std::uint64_t before = wl.flows_started();
      if (!sim.step() || sim.now() > run.horizon) break;
      log_spawns(before);
    }
    for (const auto& rec : dev.log) {
      if (std::get<0>(rec) > run.horizon) continue;
      trace.packets.push_back(rec);
      ++trace.packets_per_flow[std::get<2>(rec)];
    }
    trace.events = sim.events_executed();
  }

  void log_spawns(std::uint64_t before) {
    // The spawns of one event took the newest flow ids, in order.
    const std::uint32_t newest = IdAllocator(ids).next_flow_id() - 1;
    for (std::uint64_t i = before; i < wl.flows_started(); ++i)
      trace.spawns.emplace_back(
          sim.now(), newest - static_cast<std::uint32_t>(wl.flows_started() - 1 - i),
          wl.flows_live());
  }

  sim::Simulator sim;
  RecordingDevice dev;
  IdAllocator ids;
  FlowRouter router;
  Churn wl;
  ChurnTrace trace;
};

/// Arrivals the oracle ran on the same ns as a service, before and after it.
struct Ties {
  std::size_t before = 0, after = 0;
};

/// Runs the workload and the eager oracle on `kind` and checks that they
/// spawn, size and send identically; returns {oracle events, workload
/// events} and, in `ties`, how the oracle's arrivals met its services.
std::pair<std::uint64_t, std::uint64_t> expect_same_churn(sim::SchedulerKind kind,
                                                          const ChurnRun& run,
                                                          Ties* ties = nullptr) {
  SCOPED_TRACE(testing::Message() << sim::scheduler_kind_name(kind) << " seed "
                                  << run.seed);
  const ChurnRig<ChurnWorkload> got(kind, run);
  const ChurnRig<EagerChurn> want(kind, run);

  EXPECT_EQ(got.trace.spawns, want.trace.spawns);
  EXPECT_EQ(got.trace.packets, want.trace.packets);
  // Drawn sizes: a flow that completed sent exactly its size, one still
  // live sent at most its size.
  for (const auto& [flow, n] : got.trace.packets_per_flow) {
    const auto drawn = want.wl.drawn_size.find(flow);
    if (drawn == want.wl.drawn_size.end()) {
      ADD_FAILURE() << "flow " << flow << " was never spawned by the oracle";
      continue;
    }
    const auto done = want.wl.completed_at.find(flow);
    if (done != want.wl.completed_at.end() && done->second <= run.horizon) {
      EXPECT_EQ(n, drawn->second) << "flow " << flow;
    } else {
      EXPECT_LE(n, drawn->second) << "flow " << flow;
    }
  }
  EXPECT_LE(got.trace.events, want.trace.events);
  if (ties != nullptr) {
    const auto& log = want.wl.chain_log;
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i].second) continue;
      const auto same_ns_service = [&](std::size_t j) {
        return log[j].first == log[i].first && log[j].second;
      };
      for (std::size_t j = i; j > 0 && log[j - 1].first == log[i].first; --j)
        if (same_ns_service(j - 1)) ++ties->after;
      for (std::size_t j = i + 1; j < log.size() && log[j].first == log[i].first; ++j)
        if (same_ns_service(j)) ++ties->before;
    }
  }
  return {want.trace.events, got.trace.events};
}

constexpr sim::SchedulerKind kBothKernels[] = {sim::SchedulerKind::kHeap,
                                               sim::SchedulerKind::kWheel};

ChurnWorkloadConfig small_churn() {
  ChurnWorkloadConfig cfg;
  cfg.target_live_flows = 32;
  cfg.min_packets = 2;
  cfg.max_packets = 24;
  cfg.train_length = 4;  // 1619 ns between trains at 30 Gbps
  return cfg;
}

TEST(ChurnDormantArrivals, MatchesEagerChainAcrossSeedsAndKernels) {
  for (sim::SchedulerKind kind : kBothKernels) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      ChurnRun run;
      run.cfg = small_churn();
      run.seed = seed;
      // From ~30 arrivals per service (asleep between services) down to
      // fewer arrivals than deaths (mostly awake).
      run.cfg.flows_per_sec = std::vector<double>{2e7, 1e6, 4e5, 1e5}[seed % 4];
      const auto [eager, dormant] = expect_same_churn(kind, run);
      if (seed % 4 == 0) {
        EXPECT_LT(dormant, eager);
      }
    }
  }
}

TEST(ChurnDormantArrivals, TiesAtEveryServiceResolveLikeTheSimulator) {
  // Integer service gaps against 2 ns mean arrival gaps put an arrival on
  // the service's ns at almost every service. With a 1000 ns service gap the
  // arrival was nearly always armed after the service and runs after it; a
  // 2 ns gap also arms many before the service, and lands many woken
  // arrivals on the next service's ns.
  for (sim::SchedulerKind kind : kBothKernels) {
    for (const Rate rate : {Rate::gigabits_per_sec(1), Rate::gigabits_per_sec(500)}) {
      Ties ties;
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ChurnRun run;
        run.cfg.target_live_flows = 8;
        run.cfg.flows_per_sec = 5e8;
        run.cfg.min_packets = 1;
        run.cfg.max_packets = 3;
        run.cfg.train_length = 1;
        run.cfg.wire_bytes = 125;  // 1000 bits per train
        run.cfg.aggregate_rate = rate;
        run.seed = seed;
        run.horizon = sim::microseconds(rate.gbps() < 10 ? 200 : 20);
        const auto [eager, dormant] = expect_same_churn(kind, run, &ties);
        if (rate.gbps() < 10) {
          EXPECT_LT(dormant * 20, eager);
        }
      }
      EXPECT_GT(ties.after, 1000u);
      if (rate.gbps() > 10) {
        EXPECT_GT(ties.before, 1000u);
      }
    }
  }
}

TEST(ChurnDormantArrivals, MatchesEagerChainOffTheCeiling) {
  for (sim::SchedulerKind kind : kBothKernels) {
    ChurnRun never;  // the ceiling is never reached: no arrival ever sleeps
    never.cfg = small_churn();
    never.cfg.target_live_flows = 100'000;
    never.cfg.initial_flows = 16;
    never.cfg.flows_per_sec = 1e6;
    const auto [eager, dormant] = expect_same_churn(kind, never);
    EXPECT_EQ(dormant, eager);

    ChurnRun ramp;  // starts below the ceiling, climbs to it, then sleeps
    ramp.cfg = small_churn();
    ramp.cfg.target_live_flows = 64;
    ramp.cfg.initial_flows = 4;
    ramp.cfg.flows_per_sec = 5e6;
    ramp.seed = 3;
    expect_same_churn(kind, ramp);

    ChurnRun none;  // no arrivals at all
    none.cfg = small_churn();
    none.cfg.flows_per_sec = 0;
    none.seed = 4;
    expect_same_churn(kind, none);
  }
}

TEST(ChurnDormantArrivals, StopMidRun) {
  for (sim::SchedulerKind kind : kBothKernels) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      ChurnRun run;
      run.cfg = small_churn();
      run.cfg.flows_per_sec = 2e6;
      run.seed = seed;
      run.stop_at = sim::microseconds(700);
      expect_same_churn(kind, run);

      // Nothing is left armed: the rest of the horizon runs no churn event.
      ChurnRig<ChurnWorkload> rig(kind, run);
      EXPECT_TRUE(rig.sim.empty());
      EXPECT_EQ(rig.wl.flows_live(), 0u);
      EXPECT_LT(std::get<0>(rig.trace.packets.back()), run.stop_at);
    }
  }
}

}  // namespace
}  // namespace flowvalve::traffic
