// Batched SoA evaluation core: the batch kernel and the SoA netlist mirror
// must be bit-identical to the scalar calls and AoS stages they mirror;
// the one CNE sweep — cold (Evaluator), cached (IncrementalEvaluator) and
// over perturbed Monte-Carlo trials — must be bit-identical to the scalar
// corner-outer oracle in reference_evaluate.h; and the arena allocator
// underneath must keep slices consistent across incremental edits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "analysis/elmore.h"
#include "analysis/evaluate.h"
#include "analysis/montecarlo.h"
#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "rctree/extract.h"
#include "rctree/soa.h"
#include "util/rng.h"

#include "reference_evaluate.h"
#include "stage_sim.h"

namespace contango {
namespace {

/// Every field of an EvalResult compared exactly (operator== on doubles:
/// a single ULP of drift fails the test, which is the point).
void expect_bit_identical(const EvalResult& a, const EvalResult& b,
                          const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.nominal_skew, b.nominal_skew);
  EXPECT_EQ(a.clr, b.clr);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_EQ(a.worst_slew, b.worst_slew);
  EXPECT_EQ(a.total_cap, b.total_cap);
  EXPECT_EQ(a.slew_violation, b.slew_violation);
  EXPECT_EQ(a.cap_violation, b.cap_violation);
  EXPECT_EQ(a.all_sinks_reached, b.all_sinks_reached);
  ASSERT_EQ(a.corners.size(), b.corners.size());
  for (std::size_t c = 0; c < a.corners.size(); ++c) {
    EXPECT_EQ(a.corners[c].vdd, b.corners[c].vdd);
    EXPECT_EQ(a.corners[c].max_slew, b.corners[c].max_slew);
    for (int t = 0; t < kNumTransitions; ++t) {
      const auto& sa = a.corners[c].sinks[static_cast<std::size_t>(t)];
      const auto& sb = b.corners[c].sinks[static_cast<std::size_t>(t)];
      ASSERT_EQ(sa.size(), sb.size());
      for (std::size_t s = 0; s < sa.size(); ++s) {
        EXPECT_EQ(sa[s].reached, sb[s].reached);
        EXPECT_EQ(sa[s].latency, sb[s].latency);
        EXPECT_EQ(sa[s].slew, sb[s].slew);
      }
    }
  }
}

/// A realistic buffered tree: the construction half of the flow (no
/// optimization passes, so no dependence on the engine under test).
ClockTree construction_tree(const Benchmark& bench) {
  FlowResult r = Pipeline::from_spec("dme,repair,insert,polarity").run(bench);
  return std::move(r.tree);
}

/// A random stage-local RC tree: parent[i] < i (the extraction invariant
/// the kernels rely on), a mix of sink and buffer taps.
Stage random_stage(Rng& rng, int num_nodes, int num_taps) {
  Stage stage;
  stage.nodes.resize(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    RcNode& node = stage.nodes[static_cast<std::size_t>(i)];
    node.cap = rng.uniform(0.5, 30.0);
    if (i > 0) {
      node.parent = static_cast<int>(rng.uniform_int(0, i - 1));
      node.res = rng.uniform(0.001, 0.4);
    }
  }
  for (int k = 0; k < num_taps; ++k) {
    Tap tap;
    tap.rc_index = static_cast<int>(rng.uniform_int(1, num_nodes - 1));
    tap.is_sink = rng.uniform_int(0, 1) != 0;
    tap.sink_index = tap.is_sink ? k : -1;
    tap.pin_cap = rng.uniform(1.0, 20.0);
    stage.taps.push_back(tap);
  }
  stage.driver_pin_cap = rng.uniform(0.0, 8.0);
  return stage;
}

void expect_slice_matches_stage(const NetlistSoa& soa, int slot,
                                const Stage& stage) {
  SCOPED_TRACE("slot " + std::to_string(slot));
  ASSERT_TRUE(soa.has_slot(slot));
  const NetlistSoa::View v = soa.view(slot);
  ASSERT_EQ(v.num_nodes, stage.nodes.size());
  ASSERT_EQ(v.num_taps, stage.taps.size());
  EXPECT_EQ(v.driver_pin_cap, stage.driver_pin_cap);
  for (std::size_t i = 0; i < stage.nodes.size(); ++i) {
    EXPECT_EQ(v.cap[i], stage.nodes[i].cap);
    EXPECT_EQ(v.res[i], stage.nodes[i].res);
    EXPECT_EQ(v.parent[i], stage.nodes[i].parent);
  }
  for (std::size_t k = 0; k < stage.taps.size(); ++k) {
    EXPECT_EQ(v.tap_rc[k], stage.taps[k].rc_index);
    EXPECT_EQ(v.tap_sink[k],
              stage.taps[k].is_sink ? stage.taps[k].sink_index : -1);
    EXPECT_EQ(v.tap_pin_cap[k], stage.taps[k].pin_cap);
  }
}

/// Allocator invariants over every live slot: slices hold the stage
/// contents exactly, fit their capacity, and never overlap.
void expect_soa_consistent(const RcNetlist& net) {
  const NetlistSoa& soa = net.soa();
  std::vector<std::pair<std::size_t, std::size_t>> node_slices, tap_slices;
  for (const int slot : net.topo_slots()) {
    expect_slice_matches_stage(soa, slot, net.stage(slot));
    ASSERT_GE(soa.node_capacity(slot), net.stage(slot).nodes.size());
    ASSERT_GE(soa.tap_capacity(slot), net.stage(slot).taps.size());
    ASSERT_LE(soa.node_offset(slot) + soa.node_capacity(slot),
              soa.arena_nodes());
    ASSERT_LE(soa.tap_offset(slot) + soa.tap_capacity(slot), soa.arena_taps());
    node_slices.emplace_back(soa.node_offset(slot), soa.node_capacity(slot));
    tap_slices.emplace_back(soa.tap_offset(slot), soa.tap_capacity(slot));
  }
  const auto expect_disjoint = [](std::vector<std::pair<std::size_t, std::size_t>> s,
                                  const char* plane) {
    SCOPED_TRACE(plane);
    std::sort(s.begin(), s.end());
    for (std::size_t i = 1; i < s.size(); ++i) {
      EXPECT_LE(s[i - 1].first + s[i - 1].second, s[i].first)
          << "slices overlap at offset " << s[i].first;
    }
  };
  expect_disjoint(node_slices, "node plane");
  expect_disjoint(tap_slices, "tap plane");
}

// --------------------------------------------------------------- kernel ----

TEST(Batch, KernelRowsMatchScalarCallsExactly) {
  Rng rng(0xBA7C4);
  const TransientSimulator sim;
  for (int rep = 0; rep < 12; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    const int num_nodes = static_cast<int>(rng.uniform_int(2, 40));
    const int num_taps = static_cast<int>(rng.uniform_int(1, 6));
    StagedNetlist net;
    net.stages.push_back(random_stage(rng, num_nodes, num_taps));
    const Stage& stage = net.stages[0];

    std::vector<BatchDrive> drives;
    for (int b = 0; b < 5; ++b) {
      drives.push_back(BatchDrive{rng.uniform(0.05, 1.2), rng.uniform(5.0, 40.0),
                                  rng.uniform(2.0, 60.0)});
    }

    NetlistSoa soa;
    soa.build(net);
    TransientScratch scratch;
    std::vector<TapTiming> out(drives.size() * stage.taps.size());
    sim.simulate_stage_batch(soa.view(0), drives.data(), drives.size(),
                             out.data(), scratch);

    for (std::size_t b = 0; b < drives.size(); ++b) {
      const std::vector<TapTiming> scalar = simulate_stage(
          sim, stage, drives[b].r_drv, drives[b].intrinsic, drives[b].input_slew);
      ASSERT_EQ(scalar.size(), stage.taps.size());
      for (std::size_t k = 0; k < scalar.size(); ++k) {
        EXPECT_EQ(out[b * stage.taps.size() + k].delay, scalar[k].delay);
        EXPECT_EQ(out[b * stage.taps.size() + k].slew, scalar[k].slew);
      }
    }

    // Borrowing the Elmore sweep must change nothing either.
    const ElmoreStage elm(stage);
    const ElmoreView borrowed{elm.tau_data(), elm.total_cap()};
    std::vector<TapTiming> out2(out.size());
    sim.simulate_stage_batch(soa.view(0), drives.data(), drives.size(),
                             out2.data(), scratch, &borrowed);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out2[i].delay, out[i].delay);
      EXPECT_EQ(out2[i].slew, out[i].slew);
    }
  }
}

// -------------------------------------------------------------- oracle ----

/// The oracle's result for `tree`: a from-scratch extraction propagated
/// corner-outer through the scalar kernel, plus the capacitance half.
EvalResult reference_evaluate(const ClockTree& tree, const Benchmark& bench) {
  const StagedNetlist net = extract_stages(tree, bench);
  EvalResult r = reference::evaluate_netlist(net, bench, TransientSimulator{}, 10.0);
  std::vector<Ff> sink_caps;
  for (const Sink& s : bench.sinks) sink_caps.push_back(s.cap);
  account_capacitance(r, tree, bench, sink_caps);
  return r;
}

TEST(Oracle, ColdSweepMatchesReferenceOnEveryFamily) {
  for (const auto& family : ScenarioRegistry::builtin().families()) {
    SCOPED_TRACE(family.name);
    const Benchmark bench = make_scenario(family.name, 1, 24);
    const ClockTree tree = construction_tree(bench);
    const StagedNetlist net = extract_stages(tree, bench);
    const EvalResult expected = reference_evaluate(tree, bench);

    Evaluator eval(bench);
    expect_bit_identical(eval.evaluate(tree), expected, "Evaluator vs oracle");
    // One stage simulation per (stage x corner x transition).
    EXPECT_EQ(eval.batched_stage_evals(),
              static_cast<long>(net.stages.size()) *
                  static_cast<long>(bench.tech.corners.size()) * kNumTransitions);

    // A freshly bound incremental engine starts from an empty cache.
    IncrementalEvaluator inc(eval);
    inc.bind(tree);
    expect_bit_identical(inc.evaluate(), expected, "cold incremental vs oracle");
    EXPECT_EQ(inc.stage_reuses(), 0);
    // Nothing dirty: the second pass is pure cache replay.
    const long sims = inc.stage_sims();
    expect_bit_identical(inc.evaluate(), expected, "warm incremental vs oracle");
    EXPECT_EQ(inc.stage_sims(), sims);

    // The SoA mirror the sweep reads is the netlist it was built from.
    NetlistSoa soa;
    soa.build(net);
    for (std::size_t si = 0; si < net.stages.size(); ++si) {
      expect_slice_matches_stage(soa, static_cast<int>(si), net.stages[si]);
    }
  }
}

// Random edit transactions, committed or rolled back like IVC candidates:
// every evaluation through the warm cache must match a from-scratch oracle
// run, so a cache entry reused on a stale key (contents, input direction
// or input slew) shows as a timing mismatch; and the SoA arena under the
// netlist must stay consistent through splits, merges and rewrites.
TEST(Oracle, IncrementalSweepMatchesReferenceUnderRandomizedEdits) {
  for (const char* family : {"uniform", "high_fanout", "mixed_cap"}) {
    SCOPED_TRACE(family);
    const Benchmark bench = make_scenario(family, 11, 20);
    ClockTree tree = construction_tree(bench);

    Evaluator inc_owner(bench);
    IncrementalEvaluator inc(inc_owner);
    inc.bind(tree);
    expect_bit_identical(inc.evaluate(), reference_evaluate(tree, bench), "bind");
    expect_soa_consistent(inc.netlist());

    Rng rng(0x50A ^ std::hash<std::string>{}(family));
    for (int step = 0; step < 24; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      TreeEditSession session(tree, &inc.netlist());
      std::vector<NodeId> edges, buffers;
      for (NodeId id : tree.topological_order()) {
        if (id != tree.root()) edges.push_back(id);
        if (tree.node(id).is_buffer() && tree.node(id).children.size() == 1) {
          buffers.push_back(id);
        }
      }
      const auto pick = [&](const std::vector<NodeId>& v) {
        return v[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
      };

      // Split (insert_buffer_electrical), merge (remove_buffer) and
      // rewrite (snake / width) edits all hit the arena differently:
      // splits allocate, merges release, rewrites must land in place.
      const long kind = rng.uniform_int(0, 3);
      int edits = 0;
      switch (kind) {
        case 0: {
          const NodeId e = pick(edges);
          session.set_wire_width(e, tree.node(e).wire_width == 0 ? 1 : 0);
          ++edits;
          break;
        }
        case 1:
          session.add_snake(pick(edges), rng.uniform(5.0, 80.0));
          ++edits;
          break;
        case 2: {
          const NodeId e = pick(edges);
          session.insert_buffer_electrical(
              e, tree.edge_length(e) * rng.uniform(0.2, 0.8),
              CompositeBuffer{0, 2});
          ++edits;
          break;
        }
        default:
          if (buffers.size() > 3) {  // keep some stages around
            session.remove_buffer(pick(buffers));
            ++edits;
          }
          break;
      }
      if (edits > 0) {
        expect_bit_identical(inc.evaluate(), reference_evaluate(tree, bench),
                             "candidate");
        if (session.can_rollback() && rng.uniform_int(0, 1) == 0) {
          session.rollback();
        } else {
          session.commit();
        }
      }
      tree.validate();
      expect_bit_identical(inc.evaluate(), reference_evaluate(tree, bench),
                           "after commit/rollback");
      expect_soa_consistent(inc.netlist());
    }
    EXPECT_GT(inc.stage_reuses(), 0);
    EXPECT_EQ(inc_owner.batched_stage_evals(), inc.stage_sims());
  }
}

// ------------------------------------------------------------- allocator ----

TEST(Batch, ArenaGrowsRewritesInPlaceAndRecycles) {
  Rng rng(0xA11);
  NetlistSoa soa;

  const Stage small = random_stage(rng, 3, 1);
  soa.write_slot(0, small);
  ASSERT_TRUE(soa.has_slot(0));
  expect_slice_matches_stage(soa, 0, small);
  EXPECT_EQ(soa.node_capacity(0), 4u);  // power-of-two floor
  const std::size_t off0 = soa.node_offset(0);

  // Same-bucket rewrite stays in place, bigger one reallocates.
  const Stage same_bucket = random_stage(rng, 4, 1);
  soa.write_slot(0, same_bucket);
  expect_slice_matches_stage(soa, 0, same_bucket);
  EXPECT_EQ(soa.node_offset(0), off0);
  EXPECT_EQ(soa.node_capacity(0), 4u);

  const Stage grown = random_stage(rng, 5, 1);
  soa.write_slot(0, grown);
  expect_slice_matches_stage(soa, 0, grown);
  EXPECT_EQ(soa.node_capacity(0), 8u);
  EXPECT_NE(soa.node_offset(0), off0);

  // The grown slot freed its capacity-4 slice; a new small slot takes it.
  const Stage other = random_stage(rng, 2, 1);
  soa.write_slot(7, other);
  expect_slice_matches_stage(soa, 7, other);
  EXPECT_EQ(soa.node_offset(7), off0);

  // Shrinking keeps the larger slice (capacity is sticky in place).
  const Stage shrunk = random_stage(rng, 2, 1);
  const std::size_t grown_off = soa.node_offset(0);
  soa.write_slot(0, shrunk);
  expect_slice_matches_stage(soa, 0, shrunk);
  EXPECT_EQ(soa.node_offset(0), grown_off);
  EXPECT_EQ(soa.node_capacity(0), 8u);

  soa.release_slot(0);
  EXPECT_FALSE(soa.has_slot(0));
  EXPECT_THROW(soa.view(0), std::logic_error);
  // Released capacity-8 slice comes back for the next size-5..8 write.
  const Stage reuse = random_stage(rng, 6, 1);
  soa.write_slot(3, reuse);
  expect_slice_matches_stage(soa, 3, reuse);
  EXPECT_EQ(soa.node_offset(3), grown_off);

  soa.clear();
  EXPECT_EQ(soa.slot_count(), 0u);
  EXPECT_EQ(soa.arena_nodes(), 0u);
}

// ------------------------------------------------------------ Monte-Carlo ----

TEST(Oracle, MonteCarloTrialsMatchReferenceAtFixedSeeds) {
  const Benchmark bench = make_scenario("clustered", 9, 20);
  const ClockTree tree = construction_tree(bench);
  const StagedNetlist base = extract_stages(tree, bench);
  const TransientSimulator sim;

  VariationModel model;
  model.seed = 77;
  model.sigma_vdd = 0.05;
  model.sigma_wire_r = 0.03;
  model.sigma_wire_c = 0.03;
  model.sigma_sink_cap = 0.02;

  McOptions options;
  options.trials = 40;  // spans more than one 32-trial block
  options.threads = 1;
  const McReport report = run_montecarlo(bench, tree, model, options);

  ASSERT_EQ(report.samples.size(), 40u);
  StagedNetlist scratch;
  for (int trial = 0; trial < options.trials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const TrialVariation v = sample_trial(model, bench.tech, trial,
                                          base.stages.size(), bench.sinks.size());
    reference::apply_variation(base, v, scratch);
    const EvalResult expected =
        reference::evaluate_netlist(scratch, bench, sim, 10.0, &v.stage_vdd_delta);
    const McTrial& t = report.samples[static_cast<std::size_t>(trial)];
    EXPECT_EQ(t.skew, expected.nominal_skew);
    EXPECT_EQ(t.clr, expected.clr);
    EXPECT_EQ(t.max_latency, expected.max_latency);
    EXPECT_EQ(t.worst_slew, expected.worst_slew);
    EXPECT_EQ(t.constraint_violation, expected.constraint_violation());
    EXPECT_EQ(t.legal, !expected.slew_violation && expected.all_sinks_reached);

    // The cold sweep itself, on the perturbed trial, per sink.
    NetlistSoa soa;
    soa.build(scratch);
    expect_bit_identical(evaluate_netlist(base, soa, bench, sim, 10.0,
                                          &v.stage_vdd_delta),
                         expected, "perturbed trial vs oracle");
  }

  expect_bit_identical(report.nominal, reference_evaluate(tree, bench),
                       "MC nominal reference");

  // (trials + nominal) x stages x corners x transitions.
  EXPECT_EQ(report.batched_stage_evals,
            static_cast<long>(options.trials + 1) *
                static_cast<long>(base.stages.size()) *
                static_cast<long>(bench.tech.corners.size()) * kNumTransitions);
}

}  // namespace
}  // namespace contango
