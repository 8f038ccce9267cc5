// Early-decided IVC gate: the edit-delta FlowContext::try_accept stops a
// candidate's CNE sweep once its rejection is certain.  The verdict must
// be the one a full cold evaluation gives, the incremental cache must stay
// exact after a partial sweep, and the critical-first visit order must
// change no value.  The reference verdict (cold Evaluator::evaluate plus
// improvement and violation_ok) lives only here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "cts/bottomlevel.h"
#include "cts/pass.h"
#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "cts/slack.h"
#include "cts/wiresizing.h"
#include "cts/wiresnaking.h"
#include "rctree/extract.h"
#include "util/rng.h"

#include "expect_eval.h"

namespace contango {
namespace {

ClockTree construction_tree(const Benchmark& bench) {
  FlowResult r = Pipeline::from_spec("dme,repair,insert,polarity").run(bench);
  return std::move(r.tree);
}

bool improves(const EvalResult& candidate, const EvalResult& incumbent,
              PassObjective objective) {
  return objective == PassObjective::kClr
             ? candidate.clr < incumbent.clr
             : candidate.nominal_skew < incumbent.nominal_skew;
}

/// The gate's verdict from a complete evaluation.
bool full_verdict(const EvalResult& candidate, const EvalResult& incumbent,
                  PassObjective objective) {
  return improves(candidate, incumbent, objective) &&
         FlowContext::violation_ok(candidate, incumbent);
}

/// One benchmark under test: a registered family, optionally with a limit
/// pulled down to the construction tree's own value so that candidates
/// cross it.  Tight slew and cap limits exercise those bounds; tight sink
/// windows make candidates that pass every bound fail the gate after a
/// complete sweep (constraint-vector rejections are never decided early).
enum class Tight { kNone, kSlew, kCap, kWindows };

struct Case {
  const char* family;
  Tight tight = Tight::kNone;
};

const Case kCases[] = {
    {"uniform"},      {"ring"},
    {"high_fanout"},  {"obstacle_dense"},
    {"usefulskew"},   {"uniform", Tight::kSlew},
    {"ring", Tight::kCap}, {"clustered", Tight::kWindows},
};

/// Windows of +-0.25 ps around each sink's arrival range (relative to the
/// earliest sink) over every corner and transition of `initial`.
std::vector<ArrivalWindow> tight_windows(const EvalResult& initial,
                                         std::size_t num_sinks) {
  std::vector<ArrivalWindow> windows(num_sinks, ArrivalWindow{1e300, -1e300});
  for (const CornerTiming& corner : initial.corners) {
    for (const auto& sinks : corner.sinks) {
      Ps earliest = sinks.front().latency;
      for (const SinkTiming& s : sinks) earliest = std::min(earliest, s.latency);
      for (std::size_t i = 0; i < num_sinks; ++i) {
        const Ps r = sinks[i].latency - earliest;
        windows[i].lo = std::min(windows[i].lo, r - 0.25);
        windows[i].hi = std::max(windows[i].hi, r + 0.25);
      }
    }
  }
  return windows;
}

Benchmark case_benchmark(const Case& c, ClockTree& tree) {
  Benchmark bench = make_scenario(c.family, 5, 80);
  tree = construction_tree(bench);
  const EvalResult initial = Evaluator(bench).evaluate(tree);
  switch (c.tight) {
    case Tight::kNone: break;
    case Tight::kSlew: bench.tech.slew_limit = initial.worst_slew; break;
    case Tight::kCap: bench.tech.cap_limit = initial.total_cap; break;
    case Tight::kWindows:
      bench.constraints.sink_windows = tight_windows(initial, bench.sinks.size());
      break;
  }
  return bench;
}

std::string case_name(const Case& c) {
  static const char* const kSuffix[] = {"", "+tight_slew", "+tight_cap",
                                        "+tight_windows"};
  return std::string(c.family) + kSuffix[static_cast<int>(c.tight)];
}

/// Per-pass sensitivities, calibrated once on the construction tree.
struct Calibration {
  Ps tws_per_um = 0.0;
  Ps twn_per_unit = 0.0;
  Ps bottom_twn_per_unit = 0.0;
};

Calibration calibrate(const ClockTree& tree, const Benchmark& bench,
                      const EvalResult& incumbent) {
  Evaluator eval(bench);
  Calibration cal;
  cal.tws_per_um = calibrate_tws(tree, eval, incumbent);
  cal.twn_per_unit =
      calibrate_twn(tree, eval, incumbent, WireSnakingParams{}.unit);
  cal.bottom_twn_per_unit =
      calibrate_bottom_twn(tree, eval, incumbent, BottomLevelParams{}.unit);
  return cal;
}

/// Applies one random candidate through `session`: a TWSZ, TWSN or BWSN
/// round at a random scale, or one random single edit.  Returns the number
/// of edits (0 = the round proposed nothing).
int random_candidate(Rng& rng, TreeEditSession& session,
                     const EvalResult& incumbent, const Benchmark& bench,
                     const Calibration& cal) {
  SlackOptions slack_options;
  slack_options.constraints = &bench.constraints;
  const EdgeSlacks slacks =
      compute_edge_slacks(session.tree(), incumbent, slack_options);
  const double scale =
      std::pow(0.4, static_cast<double>(rng.uniform_int(0, 3))) *
      rng.uniform(0.5, 2.0);
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      WireSizingParams p;
      p.tws_per_um = cal.tws_per_um;
      p.safety *= scale;
      return wiresizing_round(session, slacks, p);
    }
    case 1: {
      WireSnakingParams p;
      p.twn_per_unit = cal.twn_per_unit;
      p.safety *= scale;
      return wiresnaking_round(session, slacks, p);
    }
    case 2: {
      BottomLevelParams p;
      p.twn_per_unit = cal.bottom_twn_per_unit;
      p.safety *= scale;
      return bottom_level_round(session, slacks, p);
    }
    default:
      break;
  }
  const ClockTree& tree = session.tree();
  const std::vector<NodeId> order = tree.topological_order();
  const NodeId node = order[static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(order.size()) - 1))];
  switch (rng.uniform_int(0, 2)) {
    case 0:
      session.set_wire_width(
          node, static_cast<int>(rng.uniform_int(
                    0, static_cast<std::int64_t>(bench.tech.wires.size()) - 1)));
      break;
    case 1:
      session.add_snake(node, scale * rng.uniform(5.0, 200.0));
      break;
    default: {
      NodeId buffer = node;
      while (buffer != kNoNode && !tree.node(buffer).is_buffer()) {
        buffer = tree.node(buffer).parent;
      }
      if (buffer == kNoNode) return 0;
      const CompositeBuffer old = tree.node(buffer).buffer;
      const int count = std::max(
          1, old.count + static_cast<int>(rng.uniform_int(-2, 3)));
      session.set_buffer(buffer, CompositeBuffer{old.inverter_type, count});
      break;
    }
  }
  return 1;
}

constexpr int kTrialsPerCase = 20;

TEST(IvcEarlyReject, VerdictMatchesColdReference) {
  long early_total = 0;
  long complete_rejects = 0;  // rejected after a complete sweep
  long skipped = 0;  // stage units that stopped sweeps never visited
  std::uint64_t seed = 100;
  for (const Case& c : kCases) {
    SCOPED_TRACE(case_name(c));
    ClockTree tree;
    const Benchmark bench = case_benchmark(c, tree);
    Evaluator cold(bench);
    Evaluator owner(bench);
    IncrementalEvaluator inc(owner);
    inc.bind(tree);
    EvalResult incumbent = inc.evaluate();
    const Calibration cal = calibrate(tree, bench, incumbent);
    Rng rng(++seed);

    for (int trial = 0; trial < kTrialsPerCase; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      const PassObjective objective =
          rng.uniform_int(0, 1) ? PassObjective::kClr : PassObjective::kSkew;
      TreeEditSession session(tree, &inc.netlist());
      if (random_candidate(rng, session, incumbent, bench, cal) == 0) {
        session.rollback();
        continue;
      }
      const EvalResult reference = cold.evaluate(tree);
      const bool expected = full_verdict(reference, incumbent, objective);

      const WorkCounters before = owner.counters();
      const long visited_before = inc.stage_sims() + inc.stage_reuses();
      const std::optional<EvalResult> r = inc.evaluate(
          FlowContext::reject_bound(incumbent, objective, bench.tech.slew_limit));
      const WorkCounters spent = owner.counters() - before;
      // Sims plus reuses cover exactly the slots the sweep visited.
      const long visited = inc.stage_sims() + inc.stage_reuses() - visited_before;
      const long all_slots = static_cast<long>(inc.netlist().topo_slots().size() *
                                               bench.tech.corners.size()) *
                             kNumTransitions;
      if (r) {
        EXPECT_EQ(visited, all_slots);
      } else {
        EXPECT_LE(visited, all_slots);
        if (visited > 0) skipped += all_slots - visited;  // not a cap reject
      }
      EXPECT_EQ(spent.sim_runs, 1);
      EXPECT_EQ(spent.incremental_evals, 1);
      EXPECT_EQ(spent.early_rejects, r ? 0 : 1);
      EXPECT_EQ(r && full_verdict(*r, incumbent, objective), expected);
      if (r) expect_bit_identical(*r, reference, "completed bounded sweep");

      if (r && expected) {
        session.commit();
        incumbent = *r;
        continue;
      }
      session.rollback();
      if (r) {
        ++complete_rejects;
      } else {
        ++early_total;
        // Every other early reject is followed at once by a full
        // incremental evaluation; the rest go straight on to the next
        // candidate, so partial sweeps also follow partial sweeps.
        if (rng.uniform_int(0, 1)) {
          const EvalResult next = inc.evaluate();
          expect_bit_identical(next, cold.evaluate(tree), "after early reject");
          expect_bit_identical(next, incumbent, "rollback restored the incumbent");
        }
      }
    }
    expect_bit_identical(inc.evaluate(), cold.evaluate(tree), "end of case");
    const WorkCounters& n = owner.counters();
    EXPECT_EQ(n.sim_runs, n.full_evals + n.incremental_evals);
    EXPECT_LE(n.early_rejects, n.incremental_evals);
  }
  // Not vacuous: some candidates really were decided early, and some
  // passed every bound yet failed the gate.
  EXPECT_GT(early_total, 0);
  EXPECT_GT(complete_rejects, 0);
  EXPECT_GT(skipped, 0);
}

TEST(IvcEarlyReject, FlowGateMatchesColdReference) {
  long early_total = 0;
  std::uint64_t seed = 200;
  for (const Case& c : kCases) {
    SCOPED_TRACE(case_name(c));
    ClockTree tree;
    const Benchmark bench = case_benchmark(c, tree);
    Evaluator cold(bench);
    FlowContext ctx(bench, FlowOptions{});
    ctx.tree = std::move(tree);
    ctx.ensure_initial();
    const Calibration cal = calibrate(ctx.tree, bench, ctx.current());
    Rng rng(++seed);

    for (int trial = 0; trial < kTrialsPerCase; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      const PassObjective objective =
          rng.uniform_int(0, 1) ? PassObjective::kClr : PassObjective::kSkew;
      TreeEditSession session = ctx.edit_session();
      if (random_candidate(rng, session, ctx.current(), bench, cal) == 0) {
        session.rollback();
        continue;
      }
      const bool expected =
          full_verdict(cold.evaluate(ctx.tree), ctx.current(), objective);
      const long early_before = ctx.eval.counters().early_rejects;
      EXPECT_EQ(ctx.try_accept(session, objective), expected);
      early_total += ctx.eval.counters().early_rejects - early_before;
      // Accepted or rolled back, the incumbent is the tree's exact
      // evaluation.
      expect_bit_identical(ctx.current(), cold.evaluate(ctx.tree), "incumbent");
    }
  }
  EXPECT_GT(early_total, 0);
}

TEST(IvcEarlyReject, CriticalFirstOrderChangesNoValue) {
  std::uint64_t seed = 300;
  for (const Case& c : kCases) {
    SCOPED_TRACE(case_name(c));
    // Two copies of the tree take the same random edits: one is evaluated
    // in topo_slots() order, the other critical-first, each engine with its
    // own warm cache.
    ClockTree tree;
    const Benchmark bench = case_benchmark(c, tree);
    ClockTree twin = tree;
    Evaluator cold(bench);
    Evaluator owner(bench);
    IncrementalEvaluator topo_order(owner);
    IncrementalEvaluator critical_first(owner);
    topo_order.bind(tree);
    critical_first.bind(twin);
    const EvalResult incumbent = topo_order.evaluate();
    (void)critical_first.evaluate();
    const Calibration cal = calibrate(tree, bench, incumbent);
    ++seed;
    Rng rng(seed), twin_rng(seed), pick(seed);

    // The critical sinks are the incumbent's extremes.
    const std::vector<int> critical = critical_sinks(incumbent);
    ASSERT_GE(critical.size(), 2u);
    const auto& nominal = incumbent.corners.front().sinks[0];
    const Ps lo = nominal[static_cast<std::size_t>(critical[0])].latency;
    const Ps hi = nominal[static_cast<std::size_t>(critical[1])].latency;
    for (const SinkTiming& s : nominal) {
      EXPECT_GE(s.latency, lo);
      EXPECT_LE(s.latency, hi);
    }

    for (int trial = 0; trial < 8; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      TreeEditSession session(tree, &topo_order.netlist());
      TreeEditSession twin_session(twin, &critical_first.netlist());
      const int edits = random_candidate(rng, session, incumbent, bench, cal);
      ASSERT_EQ(random_candidate(twin_rng, twin_session, incumbent, bench, cal),
                edits);
      session.commit();
      twin_session.commit();

      RejectBound unbounded;  // never stops: only the order differs
      unbounded.first_sinks = critical;
      if (trial % 2) {
        // Arbitrary sinks, duplicates included.
        for (int k = 0; k < 6; ++k) {
          unbounded.first_sinks.push_back(static_cast<int>(pick.uniform_int(
              0, static_cast<std::int64_t>(bench.sinks.size()) - 1)));
        }
      }
      const long sims = critical_first.stage_sims();
      const long reuses = critical_first.stage_reuses();
      const std::optional<EvalResult> r = critical_first.evaluate(unbounded);
      ASSERT_TRUE(r.has_value());
      expect_bit_identical(*r, topo_order.evaluate(), "critical-first vs topo order");
      expect_bit_identical(*r, cold.evaluate(twin), "critical-first vs cold");
      // A complete sweep visits every live slot once.
      EXPECT_EQ(critical_first.stage_sims() - sims +
                    critical_first.stage_reuses() - reuses,
                static_cast<long>(critical_first.netlist().topo_slots().size() *
                                  bench.tech.corners.size()) *
                    kNumTransitions);
    }
  }
}

TEST(IvcEarlyReject, CapIsDecidedBeforeAnyStage) {
  Benchmark bench = make_scenario("ring", 2, 60);
  ClockTree tree = construction_tree(bench);
  // At the limit, not over it.
  bench.tech.cap_limit = Evaluator(bench).evaluate(tree).total_cap;
  Evaluator owner(bench);
  IncrementalEvaluator inc(owner);
  inc.bind(tree);
  const EvalResult incumbent = inc.evaluate();
  ASSERT_FALSE(incumbent.cap_violation);

  TreeEditSession session(tree, &inc.netlist());
  session.add_snake(tree.topological_order()[1], 50.0);  // adds cap
  const long sims = inc.stage_sims();
  const long reuses = inc.stage_reuses();
  const WorkCounters before = owner.counters();
  EXPECT_FALSE(inc.evaluate(FlowContext::reject_bound(incumbent, PassObjective::kSkew,
                                                      bench.tech.slew_limit))
                   .has_value());
  const WorkCounters spent = owner.counters() - before;
  EXPECT_EQ(spent.early_rejects, 1);
  EXPECT_EQ(spent.batched_stage_evals, 0);
  EXPECT_EQ(inc.stage_sims(), sims);
  EXPECT_EQ(inc.stage_reuses(), reuses);

  // The same candidate through a full evaluation: the cap half of the gate
  // refuses it.
  const EvalResult full = inc.evaluate();
  EXPECT_TRUE(full.cap_violation);
  EXPECT_FALSE(FlowContext::violation_ok(full, incumbent));
  session.rollback();
}

}  // namespace
}  // namespace contango
