// Cross-validation: the throughput-over-time figures use a rate-based AIMD
// sender (the mTCP-style analyzer); this test re-runs a fair-queueing
// scenario with the *window-based Reno* model to show the enforced shares
// do not depend on the congestion-control abstraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/flowvalve.h"
#include "exp/scenarios.h"
#include "np/flowvalve_processor.h"
#include "np/nic_pipeline.h"
#include "sim/simulator.h"
#include "traffic/tcp.h"

namespace flowvalve {
namespace {

using sim::Rate;

TEST(IntegrationReno, FairSharesWithWindowBasedTcp) {
  sim::Simulator sim;
  np::NpConfig nic = np::agilio_cx_40g();
  // MTU frames at a 10G policy (Reno is ack-clocked; super-packets would
  // make windows too coarse). Loss-based CC with a bufferless valve needs
  // burst absorption ≈ a window's worth, so widen the buckets — exactly the
  // trade a deployment would tune.
  auto opt = np::engine_options_for(nic);
  opt.params.burst_window = sim::milliseconds(1);
  opt.params.shadow_burst_window = sim::microseconds(500);
  core::FlowValveEngine engine(opt);
  ASSERT_EQ(engine.configure(
                exp::fair_queueing_script(Rate::gigabits_per_sec(10), 2)),
            "");
  np::FlowValveProcessor proc(engine);
  np::NicPipeline pipeline(sim, nic, proc);

  traffic::IdAllocator ids;
  traffic::FlowRouter router(pipeline);
  stats::ThroughputSeries s0(sim::milliseconds(100)), s1(sim::milliseconds(100));
  router.track_app(0, &s0);
  router.track_app(1, &s1);

  traffic::TcpRenoConfig cfg;
  cfg.max_cwnd = 4096;
  cfg.ssthresh = 256;
  std::vector<std::unique_ptr<traffic::TcpRenoFlow>> flows;
  for (std::uint16_t app = 0; app < 2; ++app) {
    for (int conn = 0; conn < 4; ++conn) {
      traffic::FlowSpec spec;
      spec.flow_id = ids.next_flow_id();
      spec.app_id = app;
      spec.vf_port = app;
      spec.wire_bytes = 1518;
      spec.tuple.src_ip = 0x0a000001u + app;
      spec.tuple.src_port = static_cast<std::uint16_t>(44000 + app * 10 + conn);
      flows.push_back(
          std::make_unique<traffic::TcpRenoFlow>(sim, router, ids, spec, cfg));
      flows.back()->start();
    }
  }
  sim.run_until(sim::seconds(4));

  // Reno's bufferless-sawtooth under-utilizes in absolute terms (expected:
  // loss-based CC needs a window of buffering to fill a link), but the
  // *relative* shares still come from the scheduler, not the traffic model.
  const double g0 = s0.mean_rate(10, 40).gbps();
  const double g1 = s1.mean_rate(10, 40).gbps();
  EXPECT_GT(g0 + g1, 5.5);
  const double ratio = std::max(g0, g1) / std::max(0.01, std::min(g0, g1));
  EXPECT_LT(ratio, 1.6);
}

TEST(IntegrationReno, PriorityHoldsWithWindowBasedTcp) {
  sim::Simulator sim;
  np::NpConfig nic = np::agilio_cx_40g();
  auto opt = np::engine_options_for(nic);
  opt.params.burst_window = sim::milliseconds(1);
  core::FlowValveEngine engine(opt);
  ASSERT_EQ(engine.configure(
                "fv qdisc add dev nic0 root handle 1: htb rate 10gbit\n"
                "fv class add dev nic0 parent 1: classid 1:10 name hi prio 0 weight 1\n"
                "fv class add dev nic0 parent 1: classid 1:11 name lo prio 1 weight 1\n"
                "fv filter add dev nic0 pref 1 vf 0 classid 1:10\n"
                "fv filter add dev nic0 pref 2 vf 1 classid 1:11\n"),
            "");
  np::FlowValveProcessor proc(engine);
  np::NicPipeline pipeline(sim, nic, proc);
  traffic::IdAllocator ids;
  traffic::FlowRouter router(pipeline);
  stats::ThroughputSeries hi(sim::milliseconds(100)), lo(sim::milliseconds(100));
  router.track_app(0, &hi);
  router.track_app(1, &lo);

  // Enough connections that aggregate demand clearly exceeds the link, so
  // the scheduler (not CC noise) determines the split.
  traffic::TcpRenoConfig cfg;
  cfg.max_cwnd = 4096;
  std::vector<std::unique_ptr<traffic::TcpRenoFlow>> flows;
  for (std::uint16_t app = 0; app < 2; ++app) {
    for (int conn = 0; conn < 4; ++conn) {
      traffic::FlowSpec spec;
      spec.flow_id = ids.next_flow_id();
      spec.app_id = app;
      spec.vf_port = app;
      spec.wire_bytes = 1518;
      spec.tuple.src_ip = 0x0a000001u + app;
      spec.tuple.src_port = static_cast<std::uint16_t>(45000 + app * 10 + conn);
      flows.push_back(
          std::make_unique<traffic::TcpRenoFlow>(sim, router, ids, spec, cfg));
      flows.back()->start();
    }
  }
  sim.run_until(sim::seconds(4));

  // §III-D: the prior class takes what it can; the low class only gets the
  // residual — and with loss-based CC hammering a near-zero residual it is
  // driven close to starvation (the strict-priority hazard §IV-C-3's
  // ceiling template exists to prevent).
  const double g_hi = hi.mean_rate(10, 40).gbps();
  const double g_lo = lo.mean_rate(10, 40).gbps();
  EXPECT_GT(g_hi, 5.0);
  EXPECT_GT(g_hi, g_lo * 5.0);
}

TEST(IntegrationReno, SynchronousDropStopsTheSendLoop) {
  // A synchronous reject runs on_dropped inside try_send, which frees the
  // window slot it just took. The send loop must stop there and leave the
  // retry to the RTO that on_dropped armed, not refill the slot forever.
  sim::Simulator sim;
  np::NpConfig nic = np::agilio_cx_40g();
  nic.num_workers = 1;
  nic.num_islands = 1;
  nic.num_vfs = 1;
  nic.batch_size = 1;
  nic.vf_ring_capacity = 1;
  core::FlowValveEngine engine(np::engine_options_for(nic));
  ASSERT_EQ(engine.configure(
                exp::fair_queueing_script(Rate::gigabits_per_sec(10), 2)),
            "");
  np::FlowValveProcessor proc(engine);
  np::NicPipeline pipeline(sim, nic, proc);
  traffic::IdAllocator ids;
  traffic::FlowRouter router(pipeline);

  // The lone worker takes one filler packet; the second fills the ring.
  for (std::uint64_t seq = 0; seq < 2; ++seq) {
    traffic::FlowSpec filler;
    filler.flow_id = ids.next_flow_id();
    ASSERT_TRUE(pipeline.submit(traffic::make_packet(filler, ids, sim.now(), seq)));
  }

  traffic::FlowSpec spec;
  spec.flow_id = ids.next_flow_id();
  spec.tuple.src_port = 46000;
  traffic::TcpRenoFlow flow(sim, router, ids, spec, traffic::TcpRenoConfig{});
  flow.start();
  EXPECT_EQ(flow.packets_lost(), 1u);
  EXPECT_EQ(pipeline.stats().vf_ring_drops, 1u);
  EXPECT_LE(sim.pending_events(), 8u);

  // The RTO retry finds the ring drained and the flow makes progress.
  sim.run_until(sim::milliseconds(50));
  EXPECT_GT(flow.packets_delivered(), 0u);
}

}  // namespace
}  // namespace flowvalve
