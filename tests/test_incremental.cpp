// Incremental-vs-full evaluation equivalence: the RcNetlist dirty-stage
// engine plus the cached Elmore/transient propagation must be
// bit-identical to a from-scratch extract+evaluate on the same tree, for
// every edit kind the IVC loops use (wire resize, snake, buffer resize)
// and after rollbacks.  Locked over every registered scenario family.
// Structural rewrites replace the tree and rebuild the netlist; the
// RcNetlist tests pin that contract.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "rctree/extract.h"
#include "util/rng.h"

#include "expect_eval.h"

namespace contango {
namespace {

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

std::vector<NodeId> buffer_nodes(const ClockTree& tree) {
  std::vector<NodeId> out;
  for (NodeId id : tree.topological_order()) {
    if (tree.node(id).is_buffer()) out.push_back(id);
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
  const std::vector<NodeId> buffers = buffer_nodes(tree);
  ASSERT_FALSE(edges.empty());
  ASSERT_FALSE(buffers.empty());

  TreeEditSession session(tree, &inc.netlist());

  session.set_wire_width(edges[edges.size() / 2], 0);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "wire resize");

  session.add_snake(edges[edges.size() / 3], 35.0);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "snake");

  const CompositeBuffer old = tree.node(buffers.front()).buffer;
  session.set_buffer(buffers.front(),
                     CompositeBuffer{old.inverter_type, old.count + 2});
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "buffer resize");

  session.rollback();
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "rollback");
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
  const std::vector<NodeId> buffers = buffer_nodes(tree);
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
      const std::vector<NodeId> buffers = buffer_nodes(tree);
      const auto pick = [&](const std::vector<NodeId>& v) {
        return v[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
      };

      switch (rng.uniform_int(0, 3)) {
        case 0: {
          const NodeId e = pick(edges);
          session.set_wire_width(e, tree.node(e).wire_width == 0 ? 1 : 0);
          break;
        }
        case 1:
          session.add_snake(pick(edges), rng.uniform(5.0, 80.0));
          break;
        case 2: {
          const NodeId b = pick(buffers);
          const CompositeBuffer old = tree.node(b).buffer;
          const int delta = rng.uniform_int(0, 1) ? 1 : -1;
          session.set_buffer(
              b, CompositeBuffer{old.inverter_type, std::max(1, old.count + 2 * delta)});
          break;
        }
        default:
          // A rejected multi-edit candidate: edit, evaluate, roll back.
          session.set_wire_width(pick(edges), 0);
          session.add_snake(pick(edges), 25.0);
          (void)inc.evaluate();
          session.rollback();
          expect_bit_identical(inc.evaluate(), last, "post-rollback incumbent");
          break;
      }
      session.commit();
      tree.validate();
      last = inc.evaluate();
      expect_bit_identical(last, full_eval.evaluate(tree), "incremental vs full");
    }
    EXPECT_GT(inc.stage_reuses(), 0);
    EXPECT_EQ(inc_owner.counters().sim_runs,
              inc_owner.counters().full_evals + inc_owner.counters().incremental_evals);
  }
}

TEST(RcNetlist, StructuralEditWithoutRebuildThrows) {
  const Benchmark bench = make_scenario("ring", 3, 24);
  ClockTree tree = construction_tree(bench);

  Evaluator full_eval(bench);
  Evaluator inc_owner(bench);
  IncrementalEvaluator inc(inc_owner);
  inc.bind(tree);
  (void)inc.evaluate();

  // A new buffer tap splits a stage: the stage graph of the last build no
  // longer matches the tree, and only a rebuild may change it.
  const std::vector<NodeId> internals = internal_nodes(tree);
  ASSERT_FALSE(internals.empty());
  tree.make_buffer(internals.front(), CompositeBuffer{0, 2});
  EXPECT_THROW(
      {
        inc.netlist().mark_edge_dirty(internals.front());
        (void)inc.evaluate();
      },
      std::logic_error);

  inc.invalidate_all();
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "after rebuild");
}

TEST(RcNetlist, EditsWhileRebuildPendingMatchCold) {
  const Benchmark bench = make_scenario("clustered", 7, 24);
  ClockTree tree = Pipeline::from_spec("dme,repair,insert").run(bench).tree;

  Evaluator full_eval(bench);
  Evaluator inc_owner(bench);
  IncrementalEvaluator inc(inc_owner);
  inc.bind(tree);
  (void)inc.evaluate();

  // Wholesale replacement by a tree with buffers the last build never saw
  // (the polarity pass adds them), then edits inside their stages before
  // the next evaluation.  The pending rebuild covers the edits, so their
  // dirty marks must not consult the stale stage graph.
  const ClockTree before = tree;
  tree = construction_tree(bench);
  inc.invalidate_all();
  std::vector<NodeId> fresh;
  for (const NodeId b : buffer_nodes(tree)) {
    if (b >= before.size() || !before.node(b).is_buffer()) fresh.push_back(b);
  }
  ASSERT_FALSE(fresh.empty());

  TreeEditSession session(tree, &inc.netlist());
  const CompositeBuffer old = tree.node(fresh.front()).buffer;
  session.set_buffer(fresh.front(), CompositeBuffer{old.inverter_type, old.count + 2});
  const NodeId below = tree.node(fresh.back()).children.front();
  session.add_snake(below, 40.0);
  session.set_wire_width(below, 0);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "edits after replacement");

  session.rollback();
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "rollback after rebuild");
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
