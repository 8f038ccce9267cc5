// Incremental-vs-full evaluation equivalence: the RcNetlist dirty-subtree
// engine plus the cached Elmore/transient propagation must be
// bit-identical to a from-scratch extract+evaluate on the same tree, for
// every edit kind the IVC loops use (wire resize, snake, buffer resize,
// polarity flip via make/unmake, buffer insert/remove) and after
// rollbacks.  Locked over every registered scenario family.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "rctree/extract.h"
#include "util/rng.h"

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

std::vector<NodeId> live_edges(const ClockTree& tree) {
  std::vector<NodeId> edges;
  for (NodeId id : tree.topological_order()) {
    if (id != tree.root()) edges.push_back(id);
  }
  return edges;
}

std::vector<NodeId> buffers_with_one_child(const ClockTree& tree) {
  std::vector<NodeId> out;
  for (NodeId id : tree.topological_order()) {
    if (tree.node(id).is_buffer() && tree.node(id).children.size() == 1) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<NodeId> internal_nodes(const ClockTree& tree) {
  std::vector<NodeId> out;
  for (NodeId id : tree.topological_order()) {
    if (id != tree.root() && tree.node(id).kind == NodeKind::kInternal) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(Incremental, MatchesFullOnEveryScenarioFamily) {
  for (const auto& family : ScenarioRegistry::builtin().families()) {
    SCOPED_TRACE(family.name);
    const Benchmark bench = make_scenario(family.name, 1, 24);
    const ClockTree tree = construction_tree(bench);

    Evaluator full_eval(bench);
    Evaluator inc_owner(bench);
    IncrementalEvaluator inc(inc_owner);
    inc.bind(tree);

    expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                         "cold incremental vs full");
    // A second evaluation with nothing dirty is pure cache replay.
    expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                         "warm incremental vs full");
    EXPECT_GT(inc.stage_reuses(), 0);
    EXPECT_EQ(inc_owner.counters().incremental_evals, 2);
    EXPECT_EQ(full_eval.counters().full_evals, 2);
  }
}

TEST(Incremental, EveryEditKindStaysBitIdentical) {
  const Benchmark bench = make_scenario("ring", 3, 24);
  ClockTree tree = construction_tree(bench);

  Evaluator full_eval(bench);
  Evaluator inc_owner(bench);
  IncrementalEvaluator inc(inc_owner);
  inc.bind(tree);
  (void)inc.evaluate();  // warm the caches

  const std::vector<NodeId> edges = live_edges(tree);
  const std::vector<NodeId> buffers = buffers_with_one_child(tree);
  const std::vector<NodeId> internals = internal_nodes(tree);
  ASSERT_FALSE(edges.empty());
  ASSERT_FALSE(buffers.empty());
  ASSERT_FALSE(internals.empty());

  TreeEditSession session(tree, &inc.netlist());

  session.set_wire_width(edges[edges.size() / 2], 0);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "wire resize");

  session.add_snake(edges[edges.size() / 3], 35.0);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "snake");

  const CompositeBuffer old = tree.node(buffers.front()).buffer;
  session.set_buffer(buffers.front(),
                     CompositeBuffer{old.inverter_type, old.count + 2});
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "buffer resize");

  session.make_buffer(internals.front(), CompositeBuffer{0, 2});
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                       "polarity flip (make_buffer)");

  const NodeId inserted =
      session.insert_buffer_electrical(edges.back(),
                                       tree.edge_length(edges.back()) / 3.0,
                                       CompositeBuffer{0, 4});
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "insert buffer");
  EXPECT_TRUE(tree.node(inserted).is_buffer());

  session.unmake_buffer(inserted);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                       "polarity flip back (unmake_buffer)");

  // remove_buffer makes the session irreversible but must stay exact.
  session.remove_buffer(buffers.back());
  EXPECT_FALSE(session.can_rollback());
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "remove buffer");
  EXPECT_THROW(session.rollback(), std::logic_error);
  session.commit();
  tree.validate();
}

TEST(Incremental, RollbackRestoresTheIncumbentExactly) {
  const Benchmark bench = make_scenario("clustered", 7, 24);
  ClockTree tree = construction_tree(bench);

  Evaluator full_eval(bench);
  Evaluator inc_owner(bench);
  IncrementalEvaluator inc(inc_owner);
  inc.bind(tree);
  const EvalResult incumbent = inc.evaluate();

  const std::vector<NodeId> edges = live_edges(tree);
  const std::vector<NodeId> buffers = buffers_with_one_child(tree);
  ASSERT_FALSE(buffers.empty());

  // A candidate out of exactly the edit kinds the refine loops use: its
  // rollback must restore the tree — and therefore the evaluation — bit
  // for bit (SaveSolution semantics without the tree copy).
  TreeEditSession session(tree, &inc.netlist());
  session.set_wire_width(edges[1], 0);
  session.add_snake(edges[edges.size() / 2], 60.0);
  const CompositeBuffer old = tree.node(buffers.front()).buffer;
  session.set_buffer(buffers.front(),
                     CompositeBuffer{old.inverter_type, old.count + 3});
  EXPECT_EQ(session.edit_count(), 3);
  const EvalResult candidate = inc.evaluate();
  EXPECT_NE(candidate.nominal_skew, incumbent.nominal_skew);

  session.rollback();
  EXPECT_EQ(session.edit_count(), 0);
  // Dirty sets after rollback: the touched stages re-simulate from the
  // restored contents and land exactly on the incumbent numbers.
  expect_bit_identical(inc.evaluate(), incumbent, "rollback vs incumbent");
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                       "rollback vs full");
}

TEST(Incremental, RandomizedEditFuzzOverFamilies) {
  for (const char* family : {"uniform", "high_fanout", "obstacle_dense"}) {
    SCOPED_TRACE(family);
    const Benchmark bench = make_scenario(family, 11, 20);
    ClockTree tree = construction_tree(bench);

    Evaluator full_eval(bench);
    Evaluator inc_owner(bench);
    IncrementalEvaluator inc(inc_owner);
    inc.bind(tree);
    EvalResult last = inc.evaluate();

    Rng rng(0xC0FFEE ^ std::hash<std::string>{}(family));
    for (int step = 0; step < 24; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      TreeEditSession session(tree, &inc.netlist());
      const std::vector<NodeId> edges = live_edges(tree);
      const std::vector<NodeId> buffers = buffers_with_one_child(tree);
      const auto pick = [&](const std::vector<NodeId>& v) {
        return v[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
      };

      const long kind = rng.uniform_int(0, 5);
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
        case 2:
          if (!buffers.empty()) {
            const NodeId b = pick(buffers);
            const CompositeBuffer old = tree.node(b).buffer;
            const int delta = rng.uniform_int(0, 1) ? 1 : -1;
            session.set_buffer(
                b, CompositeBuffer{old.inverter_type,
                                   std::max(1, old.count + 2 * delta)});
            ++edits;
          }
          break;
        case 3: {
          const NodeId e = pick(edges);
          session.insert_buffer_electrical(
              e, tree.edge_length(e) * rng.uniform(0.2, 0.8),
              CompositeBuffer{0, 2});
          ++edits;
          break;
        }
        case 4:
          if (buffers.size() > 3) {  // keep some stages around
            session.remove_buffer(pick(buffers));
            ++edits;
          }
          break;
        default: {
          // A rejected multi-edit candidate: edit, evaluate, roll back.
          session.set_wire_width(pick(edges), 0);
          session.add_snake(pick(edges), 25.0);
          (void)inc.evaluate();
          session.rollback();
          expect_bit_identical(inc.evaluate(), last, "post-rollback incumbent");
          break;
        }
      }
      if (edits > 0) session.commit();
      tree.validate();
      last = inc.evaluate();
      expect_bit_identical(last, full_eval.evaluate(tree), "incremental vs full");
    }
    EXPECT_GT(inc.stage_reuses(), 0);
    EXPECT_EQ(inc_owner.counters().sim_runs,
              inc_owner.counters().full_evals + inc_owner.counters().incremental_evals);
  }
}

TEST(Incremental, FlowUsesTheEngineAndCountersReconcile) {
  const FlowResult r = run_contango(make_scenario("mixed_cap", 5, 32));
  // The refinement passes evaluate through the incremental engine, and
  // every simulation run is counted as exactly one full or incremental
  // evaluation.
  EXPECT_GT(r.incremental_evals, 0);
  EXPECT_EQ(r.sim_runs, r.full_evals + r.incremental_evals);
}

}  // namespace
}  // namespace contango
