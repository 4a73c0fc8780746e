// Tests of the benchmark itself: slicing and tracing must be transparent to
// the virtual-time outcome, and a short-horizon run of every workload must
// pass its output checks.
#include <gtest/gtest.h>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Short horizons and a 1/64-scale churn keep each run well under a second.
RunOptions short_run(Workload w) {
  RunOptions o;
  switch (w) {
    case Workload::kOverloadBurst: o.horizon = sim::milliseconds(20); break;
    case Workload::kChurn1m:
      o.horizon = sim::milliseconds(20);
      o.churn_scale = 1.0 / 64;
      break;
    case Workload::kAppReconfig: o.horizon = sim::milliseconds(150); break;
  }
  return o;
}

void expect_same_sim(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.sim.gbps, b.sim.gbps);
  EXPECT_EQ(a.sim.sojourn_p50_us, b.sim.sojourn_p50_us);
  EXPECT_EQ(a.sim.sojourn_p99_us, b.sim.sojourn_p99_us);
  EXPECT_EQ(a.sim.sojourn_mean_us, b.sim.sojourn_mean_us);
  EXPECT_EQ(a.sim.sojourn_samples, b.sim.sojourn_samples);
  EXPECT_EQ(a.sim.drop_frac, b.sim.drop_frac);
  EXPECT_EQ(a.sim.share_err, b.sim.share_err);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

class EveryWorkload : public ::testing::TestWithParam<Workload> {};

TEST_P(EveryWorkload, SlicedRunUntilKeepsTheFingerprint) {
  const Workload w = GetParam();
  const RunResult whole = run_workload(w, 7, short_run(w));
  RunOptions sliced = short_run(w);
  sliced.slice = sim::microseconds(700);
  const RunResult parts = run_workload(w, 7, sliced);
  EXPECT_FALSE(parts.slice_us.empty());
  expect_same_sim(whole, parts);
}

TEST_P(EveryWorkload, TracedRunMatchesUntraced) {
  const Workload w = GetParam();
  const RunResult plain = run_workload(w, 11, short_run(w));
  Tracer tracer;
  RunOptions traced = short_run(w);
  traced.tracer = &tracer;
  traced.slice = sim::milliseconds(1);
  const RunResult t = run_workload(w, 11, traced);
  expect_same_sim(plain, t);
  EXPECT_GT(tracer.calls(Layer::kNp), 0u);
  EXPECT_GT(tracer.calls(Layer::kCore), 0u);
  EXPECT_GT(tracer.calls(Layer::kObs), 0u);
  EXPECT_GT(tracer.calls(Layer::kTraffic), 0u);
  EXPECT_EQ(tracer.total_self_ticks(), tracer.root_ticks());
  EXPECT_FALSE(tracer.raw().empty());
  if (w == Workload::kAppReconfig) {
    EXPECT_GT(tracer.calls(Layer::kCtrlBoundary), 0u);
    EXPECT_GT(tracer.calls(Layer::kCtrlApply), 0u);
  }
}

TEST_P(EveryWorkload, ShortSmokePassesOutputChecks) {
  const Workload w = GetParam();
  RunOptions o = short_run(w);
  o.check = true;
  const RunResult r = run_workload(w, 3, o);
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.unaccounted, 0u);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_TRUE(r.sojourn_consistent);
  EXPECT_GT(r.nic.processed, 0u);
  EXPECT_GT(r.sim.gbps, 0.0);
  EXPECT_GT(r.sim.sojourn_samples, 0u);
  // The checking device is transparent too.
  expect_same_sim(run_workload(w, 3, short_run(w)), r);
}

TEST(OutputChecks, CatchInjectedReorderBypass) {
  RunOptions o = short_run(Workload::kOverloadBurst);
  o.check = true;
  o.faults.bypass_reorder_every = 97;
  const RunResult r = run_workload(Workload::kOverloadBurst, 3, o);
  EXPECT_GT(r.out_of_order, 0u);
}

TEST(OutputChecks, CatchInjectedLeak) {
  RunOptions o = short_run(Workload::kOverloadBurst);
  o.check = true;
  o.faults.leak_commit_every = 97;
  const RunResult r = run_workload(Workload::kOverloadBurst, 3, o);
  EXPECT_TRUE(r.unaccounted > 0 || !r.conserved);
}

TEST(Seeds, DifferentSeedsGiveDifferentInputs) {
  const Workload w = Workload::kOverloadBurst;
  EXPECT_NE(run_workload(w, 1, short_run(w)).fingerprint,
            run_workload(w, 2, short_run(w)).fingerprint);
}

TEST(Tracer, SelfTimesAndCorrectionAddUp) {
  Tracer t;
  t.enter(Layer::kSim);
  for (int i = 0; i < 100; ++i) {
    t.enter(Layer::kNp, 1);
    t.enter(Layer::kObs, 1);
    t.exit();
    t.exit();
  }
  t.exit();
  EXPECT_EQ(t.calls(Layer::kSim), 1u);
  EXPECT_EQ(t.calls(Layer::kNp), 100u);
  EXPECT_EQ(t.calls(Layer::kObs), 100u);
  EXPECT_EQ(t.total_self_ticks(), t.root_ticks());
  EXPECT_EQ(t.raw().size(), 201u);
  EXPECT_EQ(t.raw()[2].parent, 1u);  // the first obs span sits in the first np span
  double net = 0.0;
  for (Layer l : {Layer::kSim, Layer::kNp, Layer::kObs}) net += t.net_ticks(l);
  EXPECT_NEAR(net + t.instrumentation_ticks(),
              static_cast<double>(t.root_ticks()), 1e-6 * t.root_ticks() + 1);
  EXPECT_GT(span_cost().inner + span_cost().outer, 0.0);
}

TEST(DeliveryChecker, FlagsReorderAndLoss) {
  DeliveryChecker c;
  net::Packet a, b;
  a.flow_id = b.flow_id = 5;
  a.id = 10;
  b.id = 11;
  for (int i = 0; i < 3; ++i) c.on_submit();
  c.on_delivered(b);
  c.on_delivered(a);
  EXPECT_EQ(c.out_of_order(), 1u);
  EXPECT_EQ(c.unaccounted(), 1u);
  c.on_dropped();
  EXPECT_EQ(c.unaccounted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Perfbench, EveryWorkload,
    ::testing::Values(Workload::kOverloadBurst, Workload::kChurn1m,
                      Workload::kAppReconfig),
    [](const ::testing::TestParamInfo<Workload>& info) {
      return std::string(workload_name(info.param));
    });

}  // namespace
}  // namespace perfbench
