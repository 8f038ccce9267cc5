#include <gtest/gtest.h>

#include <string>

#include "cts/flow.h"
#include "netlist/generators.h"

#include "../bench/table4_rungs.h"
#include "reference_tree.h"

namespace contango {
namespace {

/// The full-flow integration tests run on the two smallest suite entries to
/// keep the suite fast; the benches cover all seven.

TEST(Flow, EndToEndLegalAndOrdered) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult r = run_contango(bench);

  // All five Table III stage snapshots present, in order.
  ASSERT_EQ(r.stages.size(), 5u);
  EXPECT_EQ(r.stages[0].name, "INITIAL");
  EXPECT_EQ(r.stages[1].name, "TBSZ");
  EXPECT_EQ(r.stages[2].name, "TWSZ");
  EXPECT_EQ(r.stages[3].name, "TWSN");
  EXPECT_EQ(r.stages[4].name, "BWSN");

  // Final network is legal.
  EXPECT_TRUE(r.eval.all_sinks_reached);
  EXPECT_FALSE(r.eval.slew_violation)
      << "worst slew " << r.eval.worst_slew;
  EXPECT_FALSE(r.eval.cap_violation)
      << r.eval.total_cap << " vs " << bench.tech.cap_limit;
  r.tree.validate();

  // Skew was reduced substantially from the initial buffered tree, to a
  // small fraction of insertion delay (the paper reaches low single-digit
  // ps; the shape requirement here is a strong relative reduction).
  EXPECT_LT(r.eval.nominal_skew, 0.5 * r.stages[0].skew + 1.0);
  EXPECT_LT(r.eval.nominal_skew, 0.05 * r.eval.max_latency);

  // CLR improved and stayed above skew (it includes corner spread).
  EXPECT_LE(r.eval.clr, r.stages[0].clr);
  EXPECT_GE(r.eval.clr, r.eval.nominal_skew);

  // Simulation budget in the paper's band (Table V: ~15-45 runs).
  EXPECT_GE(r.sim_runs, 5);
  EXPECT_LE(r.sim_runs, 80);
}

TEST(Flow, MonotoneSkewAcrossSkewPhases) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(6));
  const FlowResult r = run_contango(bench);
  ASSERT_EQ(r.stages.size(), 5u);
  // IVC never accepts a skew regression in the skew-objective phases.
  EXPECT_LE(r.stages[2].skew, r.stages[1].skew + 1e-9);  // TWSZ
  EXPECT_LE(r.stages[3].skew, r.stages[2].skew + 1e-9);  // TWSN
  EXPECT_LE(r.stages[4].skew, r.stages[3].skew + 1e-9);  // BWSN
  // TBSZ targets CLR and must not worsen it.
  EXPECT_LE(r.stages[1].clr, r.stages[0].clr + 1e-9);
}

TEST(Flow, DeterministicAcrossRuns) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult a = run_contango(bench);
  const FlowResult b = run_contango(bench);
  EXPECT_DOUBLE_EQ(a.eval.nominal_skew, b.eval.nominal_skew);
  EXPECT_DOUBLE_EQ(a.eval.clr, b.eval.clr);
  EXPECT_EQ(a.tree.size(), b.tree.size());
  EXPECT_EQ(a.sim_runs, b.sim_runs);
}

TEST(Flow, StageSwitchesAblateCleanly) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  FlowOptions options;
  options.pipeline = "dme,repair,insert,polarity,twsz,bwsn";
  const FlowResult r = run_contango(bench, options);
  ASSERT_EQ(r.stages.size(), 3u);  // INITIAL, TWSZ, BWSN
  EXPECT_EQ(r.stages[1].name, "TWSZ");
  EXPECT_EQ(r.stages[2].name, "BWSN");
  r.tree.validate();
}

TEST(Flow, PolarityCleanAtEnd) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult r = run_contango(bench);
  for (NodeId id : r.tree.topological_order()) {
    if (r.tree.node(id).is_sink()) {
      EXPECT_EQ(reference::buffer_depth(r.tree, id) % 2, 0)
          << "sink node " << id << " inverted";
    }
  }
}

TEST(Flow, BuffersOutsideObstacles) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult r = run_contango(bench);
  const ObstacleSet& obs = bench.obstacles();
  int blocked = 0;
  for (NodeId id : r.tree.topological_order()) {
    if (r.tree.node(id).is_buffer() && obs.blocks_point(r.tree.node(id).pos)) {
      ++blocked;
    }
  }
  EXPECT_EQ(blocked, 0);
}

// Table IV's baseline ladder is three pipeline specs, read from the header
// bench_table4_contest runs, through the same IVC gate as the full flow.
// The values below were printed at %.17g; CONSTR, WSIZE and cns04's TUNED
// are bit-identical to the hand-written baseline flows the specs replaced.
// cns01's construction is already over its cap limit, so the gate refuses
// the snake that would add cap (the old flow's gate ignored cap and took
// it) and TUNED keeps the construction's numbers.  The sim_runs column
// was re-recorded (one fewer per rung) when composite selection stopped
// simulating the first ladder candidate: at max_ladder=1 that candidate is
// the only one, so INSERT simulates nothing.
struct BaselineRung {
  int suite_index;
  const char* spec;
  double clr;
  double nominal_skew;
  double total_cap;
  int sim_runs;
};

TEST(Baselines, RungsMatchRecordedValuesAndContangoBeatsThem) {
  const BaselineRung rungs[] = {
      {3, table4::kConstrSpec, 118.73961304620354, 71.255732784585234,
       62391.722194510789, 1},
      {3, table4::kWsizeSpec, 118.73961304620354, 71.255732784585234,
       62391.722194510789, 2},
      {3, table4::kTunedSpec, 87.943346527647122, 38.101507328489902,
       63609.722194510803, 4},
      {0, table4::kTunedSpec, 225.80077669558955, 133.91044710828737,
       128310.50543295476, 4},
  };
  const Benchmark cns04 = generate_ispd_like(ispd09_suite_params(3));
  const EvalResult contango = run_contango(cns04).eval;
  for (const BaselineRung& rung : rungs) {
    SCOPED_TRACE(std::string("cns0") + std::to_string(rung.suite_index + 1) +
                 " " + rung.spec);
    const Benchmark bench =
        generate_ispd_like(ispd09_suite_params(rung.suite_index));
    FlowOptions options;
    options.pipeline = rung.spec;
    const FlowResult r = run_contango(bench, options);
    EXPECT_EQ(r.eval.clr, rung.clr);
    EXPECT_EQ(r.eval.nominal_skew, rung.nominal_skew);
    EXPECT_EQ(r.eval.total_cap, rung.total_cap);
    EXPECT_EQ(r.sim_runs, rung.sim_runs);
    // Table IV shape: Contango beats every rung of the ladder on CLR and
    // on nominal skew.
    if (rung.suite_index == 3) {
      EXPECT_LT(contango.clr, r.eval.clr);
      EXPECT_LT(contango.nominal_skew, r.eval.nominal_skew);
    }
  }
}

}  // namespace
}  // namespace contango
