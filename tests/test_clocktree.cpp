#include <gtest/gtest.h>

#include <vector>

#include "cts/flow.h"
#include "cts/scenario.h"
#include "netlist/library.h"
#include "rctree/clocktree.h"
#include "rctree/extract.h"
#include "netlist/generators.h"
#include "reference_tree.h"
#include "util/rng.h"

namespace contango {
namespace {

/// Small fixture tree:
///   source(0,0) -> a(100,0) -> sink0(100,100)
///                          \-> b=buffer(200,0) -> sink1(300,0)
class SmallTree : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = tree_.add_source({0, 0});
    a_ = tree_.add_child(root_, NodeKind::kInternal, {100, 0});
    s0_ = tree_.add_child(a_, NodeKind::kSink, {100, 100});
    tree_.node(s0_).sink_index = 0;
    b_ = tree_.add_child(a_, NodeKind::kBuffer, {200, 0});
    tree_.node(b_).buffer = CompositeBuffer{0, 8};
    s1_ = tree_.add_child(b_, NodeKind::kSink, {300, 0});
    tree_.node(s1_).sink_index = 1;
    tree_.validate();
  }

  ClockTree tree_;
  NodeId root_ = 0, a_ = 0, s0_ = 0, b_ = 0, s1_ = 0;
};

TEST_F(SmallTree, BasicAccounting) {
  EXPECT_DOUBLE_EQ(tree_.edge_length(a_), 100.0);
  EXPECT_DOUBLE_EQ(tree_.edge_length(s0_), 100.0);
  EXPECT_DOUBLE_EQ(tree_.total_wirelength(), 400.0);
  EXPECT_EQ(tree_.buffer_count(), 1);
  EXPECT_DOUBLE_EQ(tree_.path_length(s1_), 300.0);
  EXPECT_EQ(tree_.downstream_sinks(root_).size(), 2u);
  EXPECT_EQ(tree_.downstream_sinks(b_).size(), 1u);
}

TEST_F(SmallTree, BufferDepths) {
  const std::vector<int> depth = tree_.buffer_depths();
  ASSERT_EQ(depth.size(), tree_.size());
  EXPECT_EQ(depth[root_], 0);
  EXPECT_EQ(depth[a_], 0);
  EXPECT_EQ(depth[s0_], 0);
  EXPECT_EQ(depth[b_], 1);  // a buffer counts itself
  EXPECT_EQ(depth[s1_], 1);
}

TEST_F(SmallTree, SplitEdgePreservesGeometry) {
  const Um before = tree_.total_wirelength();
  const NodeId mid = tree_.split_edge(s1_, 40.0);
  tree_.validate();
  EXPECT_DOUBLE_EQ(tree_.total_wirelength(), before);
  EXPECT_DOUBLE_EQ(tree_.edge_length(mid), 40.0);
  EXPECT_DOUBLE_EQ(tree_.edge_length(s1_), 60.0);
  EXPECT_EQ(tree_.node(mid).pos, (Point{240, 0}));
  EXPECT_EQ(tree_.node(s1_).parent, mid);
}

TEST_F(SmallTree, SplitEdgeDistributesSnake) {
  tree_.node(s1_).snake = 50.0;
  const NodeId mid = tree_.split_edge(s1_, 25.0);
  tree_.validate();
  EXPECT_NEAR(tree_.node(mid).snake, 12.5, 1e-9);
  EXPECT_NEAR(tree_.node(s1_).snake, 37.5, 1e-9);
  EXPECT_NEAR(tree_.edge_length(mid) + tree_.edge_length(s1_), 150.0, 1e-9);
}

TEST_F(SmallTree, SplitLShapedEdge) {
  const NodeId mid = tree_.split_edge(s0_, 50.0);
  EXPECT_EQ(tree_.node(mid).pos, (Point{100, 50}));
  tree_.validate();
}

TEST_F(SmallTree, InsertBufferAndSplice) {
  const NodeId buf = tree_.insert_buffer(s1_, 30.0, CompositeBuffer{0, 16});
  tree_.validate();
  EXPECT_TRUE(tree_.node(buf).is_buffer());
  EXPECT_EQ(tree_.buffer_count(), 2);
  EXPECT_EQ(tree_.buffer_depths()[s1_], 2);

  const NodeId absorbed = tree_.splice_out(buf);
  tree_.validate();
  EXPECT_EQ(absorbed, s1_);
  EXPECT_EQ(tree_.buffer_count(), 1);
  EXPECT_DOUBLE_EQ(tree_.edge_length(s1_), 100.0);
  EXPECT_FALSE(tree_.live(buf));
  EXPECT_EQ(tree_.buffer_depths()[buf], 0);  // tombstones read 0
  EXPECT_EQ(tree_.buffer_depths()[s1_], 1);
}

TEST_F(SmallTree, SpliceOutPreservesWirelength) {
  const Um before = tree_.total_wirelength();
  const NodeId mid = tree_.split_edge(s0_, 70.0);
  tree_.splice_out(mid);
  EXPECT_DOUBLE_EQ(tree_.total_wirelength(), before);
  tree_.validate();
}

TEST_F(SmallTree, TotalCapAccounting) {
  Technology tech = ispd09_technology();
  const std::vector<Ff> sink_caps{10.0, 20.0};
  const Ff cap = tree_.total_cap(tech, sink_caps);
  // Wire: 400 um at width 0 (0.2 fF/um) = 80 fF; buffer 8x small: 33.6+48.8;
  // sinks: 30.
  EXPECT_NEAR(cap, 80.0 + 33.6 + 48.8 + 30.0, 1e-9);

  // Subtree below the buffer: its own edge (100 um) + buffer + sink1.
  const Ff sub = tree_.subtree_cap(b_, tech, sink_caps);
  EXPECT_NEAR(sub, 20.0 + 20.0 + 33.6 + 48.8 + 20.0, 1e-9);
}

TEST_F(SmallTree, ValidateCatchesSinkWithChild) {
  // Deliberately corrupt: hang a node under a sink.
  tree_.add_child(s0_, NodeKind::kInternal, {100, 150});
  EXPECT_THROW(tree_.validate(), std::logic_error);
}

/// Every node's swept depth equals the root-walk oracle's.
void expect_depths_match_root_walk(const ClockTree& tree) {
  const std::vector<int> depth = tree.buffer_depths();
  ASSERT_EQ(depth.size(), tree.size());
  for (NodeId id = 0; id < tree.size(); ++id) {
    ASSERT_EQ(depth[id], reference::buffer_depth(tree, id)) << "node " << id;
  }
}

// Random trees grown, buffered on existing edges and spliced, so node ids
// are out of topological order and detached tombstones sit among live nodes.
TEST(BufferDepths, SweepMatchesRootWalkOnRandomTrees) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ClockTree tree;
    tree.add_source({0, 0});
    std::vector<NodeId> open{tree.root()};  // nodes that may take children
    for (int i = 0; i < 200; ++i) {
      const NodeId parent = open[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1))];
      const Point pos{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
      const double roll = rng.unit();
      if (roll < 0.3) {
        const NodeId sink = tree.add_child(parent, NodeKind::kSink, pos);
        tree.node(sink).sink_index = i;
      } else if (roll < 0.5) {
        open.push_back(tree.add_child(parent, NodeKind::kBuffer, pos));
      } else {
        open.push_back(tree.add_child(parent, NodeKind::kInternal, pos));
      }
    }
    // Buffers on existing edges get ids after their subtrees.
    for (int i = 0; i < 40; ++i) {
      const NodeId id = static_cast<NodeId>(
          rng.uniform_int(1, static_cast<std::int64_t>(tree.size()) - 1));
      if (!tree.live(id) || tree.routed_length(id) <= 0.0) continue;
      tree.insert_buffer(id, tree.routed_length(id) / 2.0, CompositeBuffer{0, 2});
    }
    for (NodeId id = 1; id < tree.size(); ++id) {
      if (tree.live(id) && tree.node(id).children.size() == 1 && rng.unit() < 0.3) {
        tree.splice_out(id);
      }
    }
    tree.validate();
    expect_depths_match_root_walk(tree);
  }
}

// huge:5000 at seed 4 comes out of insertion with every sink inverted, so
// polarity correction puts an inverter on each root edge.
TEST(BufferDepths, SweepMatchesRootWalkAfterRootInverter) {
  const Benchmark bench = make_scenario("huge", 4, 5000);
  FlowOptions options;
  options.pipeline = "dme,repair,insert,polarity";
  const FlowResult r = run_contango(bench, options);
  ASSERT_EQ(r.polarity.inverted_sinks, static_cast<int>(bench.sinks.size()));
  EXPECT_EQ(r.polarity.added_inverters,
            static_cast<int>(r.tree.node(r.tree.root()).children.size()));
  expect_depths_match_root_walk(r.tree);
}

TEST(ClockTreeErrors, DoubleSourceThrows) {
  ClockTree t;
  t.add_source({0, 0});
  EXPECT_THROW(t.add_source({1, 1}), std::logic_error);
}

TEST(ClockTreeErrors, SpliceRootOrBranchThrows) {
  ClockTree t;
  const NodeId root = t.add_source({0, 0});
  const NodeId a = t.add_child(root, NodeKind::kInternal, {10, 0});
  const NodeId s = t.add_child(a, NodeKind::kSink, {20, 0});
  t.node(s).sink_index = 0;
  EXPECT_THROW(t.splice_out(root), std::logic_error);
  EXPECT_THROW(t.splice_out(s), std::logic_error);  // sink has no child
}

TEST(Extract, StagesSplitAtBuffers) {
  ClockTree tree;
  const NodeId root = tree.add_source({0, 0});
  const NodeId buf = tree.add_child(root, NodeKind::kBuffer, {100, 0});
  tree.node(buf).buffer = CompositeBuffer{0, 8};
  const NodeId sink = tree.add_child(buf, NodeKind::kSink, {200, 0});
  tree.node(sink).sink_index = 0;

  Benchmark bench;
  bench.name = "t";
  bench.die = Rect{0, 0, 300, 100};
  bench.source = Point{0, 0};
  bench.tech = ispd09_technology();
  bench.sinks.push_back(Sink{"s0", Point{200, 0}, 12.0});

  const StagedNetlist net = extract_stages(tree, bench);
  ASSERT_EQ(net.stages.size(), 2u);
  // Stage 0: source -> buffer input.
  ASSERT_EQ(net.stages[0].taps.size(), 1u);
  EXPECT_FALSE(net.stages[0].taps[0].is_sink);
  ASSERT_EQ(net.stages[0].downstream_stages.size(), 1u);
  EXPECT_EQ(net.stages[0].downstream_stages[0], 1);
  // Stage 1: buffer -> sink.
  ASSERT_EQ(net.stages[1].taps.size(), 1u);
  EXPECT_TRUE(net.stages[1].taps[0].is_sink);
  EXPECT_EQ(net.stages[1].taps[0].sink_index, 0);

  // Capacitance bookkeeping: stage 0 holds wire cap + buffer input cap.
  const Ff c_wire = bench.tech.wires[0].c_per_um * 100.0;
  EXPECT_NEAR(net.stages[0].total_cap(), c_wire + 33.6, 1e-9);
  // Stage 1: buffer output cap + wire + sink cap.
  EXPECT_NEAR(net.stages[1].total_cap(), 48.8 + c_wire + 12.0, 1e-9);
}

TEST(Extract, SegmentationMatchesTotalRC) {
  ClockTree tree;
  const NodeId root = tree.add_source({0, 0});
  const NodeId sink = tree.add_child(root, NodeKind::kSink, {777, 0});
  tree.node(sink).sink_index = 0;

  Benchmark bench;
  bench.name = "t";
  bench.die = Rect{0, 0, 1000, 100};
  bench.source = Point{0, 0};
  bench.tech = ispd09_technology();
  bench.sinks.push_back(Sink{"s0", Point{777, 0}, 5.0});

  ExtractOptions opt;
  opt.max_segment_um = 50.0;
  const StagedNetlist net = extract_stages(tree, bench, opt);
  ASSERT_EQ(net.stages.size(), 1u);
  const Stage& st = net.stages[0];
  EXPECT_GE(st.nodes.size(), 16u);  // ceil(777/50) segments + driver node
  KOhm total_r = 0.0;
  for (const RcNode& n : st.nodes) {
    if (n.parent >= 0) total_r += n.res;
  }
  EXPECT_NEAR(total_r, bench.tech.wires[0].r_per_um * 777.0, 1e-9);
  EXPECT_NEAR(st.total_cap(), bench.tech.wires[0].c_per_um * 777.0 + 5.0, 1e-9);
}

TEST(Extract, SnakeAddsElectricalLength) {
  ClockTree tree;
  const NodeId root = tree.add_source({0, 0});
  const NodeId sink = tree.add_child(root, NodeKind::kSink, {100, 0});
  tree.node(sink).sink_index = 0;
  tree.node(sink).snake = 100.0;  // doubles the electrical length

  Benchmark bench;
  bench.name = "t";
  bench.die = Rect{0, 0, 1000, 100};
  bench.source = Point{0, 0};
  bench.tech = ispd09_technology();
  bench.sinks.push_back(Sink{"s0", Point{100, 0}, 5.0});

  const StagedNetlist net = extract_stages(tree, bench);
  KOhm total_r = 0.0;
  for (const RcNode& n : net.stages[0].nodes) {
    if (n.parent >= 0) total_r += n.res;
  }
  EXPECT_NEAR(total_r, bench.tech.wires[0].r_per_um * 200.0, 1e-9);
}

}  // namespace
}  // namespace contango
