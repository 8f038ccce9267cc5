#include <gtest/gtest.h>

#include <cmath>

#include "analysis/elmore.h"
#include "analysis/evaluate.h"
#include "analysis/transient.h"
#include "netlist/generators.h"
#include "rctree/extract.h"
#include "stage_sim.h"

namespace contango {
namespace {

/// Builds a single-stage lumped RC: driver -> R -> C (one node), the one
/// circuit with an exact closed-form answer.
Stage lumped_rc(KOhm r, Ff c) {
  Stage s;
  s.nodes.push_back(RcNode{0.0, -1, 0.0});
  s.nodes.push_back(RcNode{c, 0, r});
  s.taps.push_back(Tap{1, 1, true, 0});
  return s;
}

TEST(Elmore, LumpedRcHandComputation) {
  // R = 1 kohm, C = 10 fF: tau = 10 ps at the tap.
  const Stage s = lumped_rc(1.0, 10.0);
  const ElmoreStage e(s);
  EXPECT_DOUBLE_EQ(e.tau(1), 10.0);
  EXPECT_DOUBLE_EQ(e.total_cap(), 10.0);
  // Driver of 2 kohm adds 2*10 = 20 ps of tau.
  EXPECT_NEAR(e.delay(1, 2.0), kLn2 * 30.0, 1e-12);
}

TEST(Elmore, LadderHandComputation) {
  // Two-node ladder: R1=1 C1=5, R2=2 C2=3.
  Stage s;
  s.nodes.push_back(RcNode{0.0, -1, 0.0});
  s.nodes.push_back(RcNode{5.0, 0, 1.0});
  s.nodes.push_back(RcNode{3.0, 1, 2.0});
  const ElmoreStage e(s);
  // tau(1) = R1*(C1+C2) = 8; tau(2) = 8 + R2*C2 = 14.
  EXPECT_DOUBLE_EQ(e.tau(1), 8.0);
  EXPECT_DOUBLE_EQ(e.tau(2), 14.0);
  EXPECT_DOUBLE_EQ(e.downstream_cap(1), 8.0);
}

TEST(Transient, MatchesAnalyticSinglePole) {
  // Step-like input (tiny ramp): v(t) = 1 - exp(-t/RC).  50% at ln2*RC,
  // 10-90% at ln9*RC.
  const KOhm r = 0.5;
  const Ff c = 40.0;  // tau = 20 ps
  const Stage s = lumped_rc(1e-6, c);  // negligible wire R; driver is r
  TransientOptions opt;
  opt.ramp_base = 0.01;
  opt.slew_feedthrough = 0.0;
  opt.slew_to_delay = 0.0;
  opt.time_step_div = 400.0;  // fine steps for the accuracy check
  const TransientSimulator sim(opt);
  const auto taps = simulate_stage(sim, s, r, 0.0, 0.0);
  ASSERT_EQ(taps.size(), 1u);
  const double tau = r * c;
  EXPECT_NEAR(taps[0].delay, kLn2 * tau, 0.15);
  EXPECT_NEAR(taps[0].slew, kLn9 * tau, 0.3);
}

TEST(Transient, IntrinsicDelayShiftsOutput) {
  const Stage s = lumped_rc(1e-6, 40.0);
  const TransientSimulator sim;
  const auto base = simulate_stage(sim, s, 0.5, 0.0, 10.0);
  const auto shifted = simulate_stage(sim, s, 0.5, 7.5, 10.0);
  EXPECT_NEAR(shifted[0].delay - base[0].delay, 7.5, 1e-6);
  EXPECT_NEAR(shifted[0].slew, base[0].slew, 1e-6);
}

TEST(Transient, MonotoneInLoadAndDrive) {
  const TransientSimulator sim;
  const Stage light = lumped_rc(0.1, 20.0);
  const Stage heavy = lumped_rc(0.1, 60.0);
  const auto d_light = simulate_stage(sim, light, 0.5, 0.0, 10.0);
  const auto d_heavy = simulate_stage(sim, heavy, 0.5, 0.0, 10.0);
  EXPECT_LT(d_light[0].delay, d_heavy[0].delay);
  EXPECT_LT(d_light[0].slew, d_heavy[0].slew);

  const auto strong = simulate_stage(sim, light, 0.2, 0.0, 10.0);
  EXPECT_LT(strong[0].delay, d_light[0].delay);
}

TEST(Transient, InputSlewIncreasesDelayAndSlew) {
  const TransientSimulator sim;
  const Stage s = lumped_rc(0.1, 30.0);
  const auto fast_in = simulate_stage(sim, s, 0.5, 0.0, 5.0);
  const auto slow_in = simulate_stage(sim, s, 0.5, 0.0, 60.0);
  EXPECT_LT(fast_in[0].delay, slow_in[0].delay);
  EXPECT_LT(fast_in[0].slew, slow_in[0].slew);
}

TEST(Transient, ResistiveShieldingBeatsElmore) {
  // A long wire with a far cap: Elmore ignores that the near cap charges
  // first (resistive shielding).  The transient delay at the near node must
  // be *smaller* than Elmore's prediction; the far node close to it.
  Stage s;
  s.nodes.push_back(RcNode{0.0, -1, 0.0});
  int prev = 0;
  for (int k = 0; k < 20; ++k) {
    s.nodes.push_back(RcNode{5.0, prev, 0.05});
    prev = static_cast<int>(s.nodes.size()) - 1;
  }
  s.taps.push_back(Tap{1, 1, true, 0});      // near tap
  s.taps.push_back(Tap{2, prev, true, 1});   // far tap
  const ElmoreStage e(s);
  const TransientSimulator sim;
  const auto taps = simulate_stage(sim, s, 0.2, 0.0, 5.0);
  EXPECT_LT(taps[0].delay, e.delay(1, 0.2));
  EXPECT_LT(taps[0].delay, taps[1].delay);
}

TEST(DriverModel, CornerAndAsymmetryScaling) {
  Technology tech = ispd09_technology();
  const KOhm nominal = 0.1;
  const KOhm rise_hi = effective_driver_res(nominal, tech, 1.2, Transition::kRise);
  const KOhm fall_hi = effective_driver_res(nominal, tech, 1.2, Transition::kFall);
  const KOhm rise_lo = effective_driver_res(nominal, tech, 1.0, Transition::kRise);
  EXPECT_GT(rise_hi, fall_hi);  // pull-up weaker than pull-down
  EXPECT_GT(rise_lo, rise_hi);  // low supply is slower
  EXPECT_NEAR(rise_lo / rise_hi, std::pow(1.2, tech.supply_alpha), 1e-12);
}

TEST(Evaluator, SingleWireTreeEndToEnd) {
  Benchmark bench;
  bench.name = "t";
  bench.die = Rect{0, 0, 1000, 200};
  bench.source = Point{0, 0};
  bench.tech = ispd09_technology();
  bench.tech.cap_limit = 1000.0;
  bench.sinks.push_back(Sink{"s0", Point{400, 0}, 10.0});
  bench.sinks.push_back(Sink{"s1", Point{400, 100}, 10.0});

  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId branch = tree.add_child(root, NodeKind::kInternal, {400, 0});
  tree.node(branch).wire_width = 1;
  const NodeId s0 = tree.add_child(branch, NodeKind::kSink, {400, 0});
  tree.node(s0).sink_index = 0;
  const NodeId s1 = tree.add_child(branch, NodeKind::kSink, {400, 100});
  tree.node(s1).sink_index = 1;

  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  EXPECT_EQ(eval.sim_runs(), 1);
  ASSERT_EQ(r.corners.size(), 2u);
  EXPECT_TRUE(r.all_sinks_reached);
  // s1 is further: positive skew.
  EXPECT_GT(r.nominal_skew, 0.0);
  // The low-voltage corner is slower.
  EXPECT_GT(r.corners[1].max_latency(), r.corners[0].max_latency());
  EXPECT_GT(r.clr, r.nominal_skew);
  EXPECT_GT(r.total_cap, 0.0);
}

TEST(Evaluator, BufferedTreeInvertsAndDelays) {
  Benchmark bench;
  bench.name = "t";
  bench.die = Rect{0, 0, 4000, 200};
  bench.source = Point{0, 0};
  bench.tech = ispd09_technology();
  bench.sinks.push_back(Sink{"s0", Point{3000, 0}, 10.0});

  ClockTree unbuffered;
  {
    const NodeId root = unbuffered.add_source(bench.source);
    const NodeId s = unbuffered.add_child(root, NodeKind::kSink, {3000, 0});
    unbuffered.node(s).sink_index = 0;
    unbuffered.node(s).wire_width = 1;
  }
  ClockTree buffered = unbuffered;
  // Insert deepest first; the second insertion lands on the upper edge.
  const NodeId b1 = buffered.insert_buffer(1, 2000.0, CompositeBuffer{0, 8});
  buffered.insert_buffer(b1, 1000.0, CompositeBuffer{0, 8});

  Evaluator eval(bench);
  const EvalResult plain = eval.evaluate(unbuffered);
  const EvalResult buf = eval.evaluate(buffered);
  // Repeaters split the quadratic wire delay of this 3 mm line: slew must
  // improve sharply.  (Latency is allowed to pay the buffer intrinsics.)
  EXPECT_LT(buf.worst_slew, plain.worst_slew);
  EXPECT_EQ(eval.sim_runs(), 2);
}

TEST(Evaluator, RiseFallDiverge) {
  Benchmark bench;
  bench.name = "t";
  bench.die = Rect{0, 0, 1000, 200};
  bench.source = Point{0, 0};
  bench.tech = ispd09_technology();
  bench.sinks.push_back(Sink{"s0", Point{500, 0}, 10.0});

  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId s = tree.add_child(root, NodeKind::kSink, {500, 0});
  tree.node(s).sink_index = 0;
  tree.node(s).wire_width = 1;

  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  const auto& nominal = r.corners[0];
  // Rise and fall latencies differ due to the pull-up/pull-down asymmetry.
  EXPECT_NE(nominal.sinks[0][0].latency, nominal.sinks[1][0].latency);
}

}  // namespace
}  // namespace contango
