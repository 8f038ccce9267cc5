#include <gtest/gtest.h>

#include <algorithm>

#include "cts/dme.h"
#include "cts/polarity.h"
#include "cts/vanginneken.h"
#include "netlist/generators.h"
#include "reference_tree.h"
#include "util/rng.h"

namespace contango {
namespace {

Benchmark flat_bench(int n) {
  Benchmark b;
  b.name = "flat";
  b.die = Rect{0, 0, 10000, 10000};
  b.source = Point{5000, 0};
  b.tech = ispd09_technology();
  b.tech.cap_limit = 1e9;
  for (int i = 0; i < n; ++i) {
    b.sinks.push_back(Sink{"s" + std::to_string(i),
                           Point{500.0 + (i % 8) * 1200.0, 1000.0 + (i / 8) * 1200.0},
                           10.0});
  }
  return b;
}

/// Builds a small chain/branch tree with buffers placed to realize the
/// given per-sink parities.
struct ParityTree {
  ClockTree tree;
  std::vector<NodeId> sinks;
};

/// Comb tree: a trunk with `parities.size()` teeth; tooth i gets
/// parities[i] inverters on its private edge.
ParityTree comb_tree(const std::vector<int>& parities) {
  ParityTree pt;
  const NodeId root = pt.tree.add_source({0, 0});
  NodeId spine = root;
  for (std::size_t i = 0; i < parities.size(); ++i) {
    const double x = 100.0 * (i + 1);
    const NodeId joint = pt.tree.add_child(spine, NodeKind::kInternal, {x, 0});
    NodeId sink = pt.tree.add_child(joint, NodeKind::kSink, {x, 200});
    pt.tree.node(sink).sink_index = static_cast<int>(i);
    NodeId cur = sink;
    for (int k = 0; k < parities[i]; ++k) {
      cur = pt.tree.insert_buffer(cur, 10.0 * (k + 1), CompositeBuffer{0, 1});
    }
    pt.sinks.push_back(sink);
    spine = joint;
  }
  pt.tree.validate();
  return pt;
}

TEST(Polarity, CountsInvertedSinks) {
  const ParityTree pt = comb_tree({0, 1, 2, 3});
  EXPECT_EQ(count_inverted_sinks(pt.tree), 2);  // parities 1 and 3
}

TEST(Polarity, NoopWhenAllCorrect) {
  ParityTree pt = comb_tree({0, 2, 4});
  Benchmark bench = flat_bench(3);
  const PolarityFix fix = correct_polarity(pt.tree, bench, CompositeBuffer{0, 1});
  EXPECT_EQ(fix.inverted_sinks, 0);
  EXPECT_EQ(fix.added_inverters, 0);
}

TEST(Polarity, FixesAllSinks) {
  ParityTree pt = comb_tree({0, 1, 2, 3, 1, 1});
  Benchmark bench = flat_bench(6);
  const PolarityFix fix = correct_polarity(pt.tree, bench, CompositeBuffer{0, 1});
  EXPECT_EQ(fix.inverted_sinks, 4);
  EXPECT_EQ(count_inverted_sinks(pt.tree), 0);
  EXPECT_GT(fix.added_inverters, 0);
}

TEST(Polarity, UniformWrongSubtreeGetsOneInverter) {
  // Two sinks under one branch, both inverted: exactly one inverter must
  // cover them both.
  ClockTree tree;
  const NodeId root = tree.add_source({0, 0});
  const NodeId buf = tree.add_child(root, NodeKind::kBuffer, {100, 0});
  tree.node(buf).buffer = CompositeBuffer{0, 1};
  const NodeId branch = tree.add_child(buf, NodeKind::kInternal, {200, 0});
  const NodeId s0 = tree.add_child(branch, NodeKind::kSink, {300, 100});
  tree.node(s0).sink_index = 0;
  const NodeId s1 = tree.add_child(branch, NodeKind::kSink, {300, -100});
  tree.node(s1).sink_index = 1;

  Benchmark bench = flat_bench(2);
  const PolarityFix fix = correct_polarity(tree, bench, CompositeBuffer{0, 1});
  EXPECT_EQ(fix.inverted_sinks, 2);
  EXPECT_EQ(fix.added_inverters, 1);
  EXPECT_EQ(count_inverted_sinks(tree), 0);
}

TEST(Polarity, WholeTreeInvertedGetsTopInverter) {
  ParityTree pt = comb_tree({1, 1, 1, 1});
  Benchmark bench = flat_bench(4);
  const PolarityFix fix = correct_polarity(pt.tree, bench, CompositeBuffer{0, 1});
  EXPECT_EQ(fix.inverted_sinks, 4);
  // One inverter at the top of the root edge covers everything.
  EXPECT_EQ(fix.added_inverters, 1);
  EXPECT_EQ(count_inverted_sinks(pt.tree), 0);
}

TEST(Polarity, AtMostOneCorrectiveInverterPerPath) {
  ParityTree pt = comb_tree({1, 0, 3, 2, 1, 1, 0, 5});
  Benchmark bench = flat_bench(8);
  const int before = pt.tree.buffer_count();
  std::vector<int> parity_before;
  for (NodeId s : pt.sinks) parity_before.push_back(reference::buffer_depth(pt.tree, s));
  correct_polarity(pt.tree, bench, CompositeBuffer{0, 1});
  EXPECT_EQ(count_inverted_sinks(pt.tree), 0);
  (void)before;
  for (std::size_t i = 0; i < pt.sinks.size(); ++i) {
    const int delta = reference::buffer_depth(pt.tree, pt.sinks[i]) - parity_before[i];
    EXPECT_GE(delta, 0);
    EXPECT_LE(delta, 1) << "more than one corrective inverter on a path";
  }
}

/// Minimality reference for the comb topology.  The optimum equals the
/// number of maximal wrong-uniform subtrees.  On a comb, the subtree of a
/// spine joint contains its tooth *and every later tooth*, so a run of odd
/// teeth in the middle is not a subtree — but a trailing run is: the spine
/// suffix above the first tooth of the run covers all of them with one
/// inverter.  Hence optimal = (#odd teeth - trailing run) + (1 if the
/// trailing run is non-empty).
int comb_optimal(const std::vector<int>& parities) {
  int odd = 0;
  for (int p : parities) odd += (p % 2);
  int trailing = 0;
  for (auto it = parities.rbegin(); it != parities.rend() && *it % 2 == 1; ++it) {
    ++trailing;
  }
  return (odd - trailing) + (trailing > 0 ? 1 : 0);
}

class PolarityMinimality : public ::testing::TestWithParam<int> {};

TEST_P(PolarityMinimality, MatchesCombOptimal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 5);
  std::vector<int> parities;
  for (int i = 0; i < 6 + GetParam() % 5; ++i) {
    parities.push_back(static_cast<int>(rng.uniform_int(0, 3)));
  }
  ParityTree pt = comb_tree(parities);
  Benchmark bench = flat_bench(static_cast<int>(parities.size()));
  const PolarityFix fix = correct_polarity(pt.tree, bench, CompositeBuffer{0, 1});
  EXPECT_EQ(fix.added_inverters, comb_optimal(parities));
  EXPECT_EQ(count_inverted_sinks(pt.tree), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolarityMinimality, ::testing::Range(0, 12));

TEST(Polarity, AfterVanGinnekenOnRealTree) {
  // The paper's Table II scenario: polarity correction after inverting
  // buffer insertion uses far fewer inverters than the number of inverted
  // sinks.
  Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  bench.obstacle_rects.clear();
  bench.invalidate_obstacles();
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  const int inverted = count_inverted_sinks(tree);
  const PolarityFix fix = correct_polarity(tree, bench, CompositeBuffer{0, 1});
  EXPECT_EQ(fix.inverted_sinks, inverted);
  EXPECT_EQ(count_inverted_sinks(tree), 0);
  if (inverted > 0) {
    EXPECT_LE(fix.added_inverters, inverted);
  }
}

}  // namespace
}  // namespace contango
