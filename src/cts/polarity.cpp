#include "cts/polarity.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace contango {
namespace {

/// Uniform downstream polarity of a node: 0 = all sinks correct, 1 = all
/// sinks inverted, -1 = mixed (or no sinks below).
constexpr int kMixed = -1;

}  // namespace

int count_inverted_sinks(const ClockTree& tree) {
  // Detached tombstones are never sinks, so every sink is live.
  const std::vector<int> depth = tree.buffer_depths();
  int count = 0;
  for (NodeId id = 0; id < tree.size(); ++id) {
    if (tree.node(id).is_sink() && depth[id] % 2 == 1) ++count;
  }
  return count;
}

PolarityFix correct_polarity(ClockTree& tree, const Benchmark& bench,
                             const CompositeBuffer& inverter, Um offset_um) {
  (void)bench;
  PolarityFix fix;
  fix.inverted_sinks = count_inverted_sinks(tree);
  if (fix.inverted_sinks == 0) return fix;

  const std::vector<NodeId> topo = tree.topological_order();
  const std::vector<int> depth = tree.buffer_depths();

  // Bottom-up uniformity: children appear after parents in topo order.
  std::vector<int> uniform(tree.size(), kMixed);
  std::vector<char> has_sinks(tree.size(), 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    const TreeNode& n = tree.node(id);
    if (n.is_sink()) {
      uniform[id] = depth[id] % 2;
      has_sinks[id] = 1;
      continue;
    }
    int value = kMixed;
    bool first = true;
    bool any = false;
    for (NodeId ch : n.children) {
      if (!has_sinks[ch]) continue;
      any = true;
      if (first) {
        value = uniform[ch];
        first = false;
      } else if (uniform[ch] != value) {
        value = kMixed;
      }
      if (value == kMixed) break;
    }
    uniform[id] = any ? value : kMixed;
    has_sinks[id] = any ? 1 : 0;
  }

  // Marked nodes: uniform subtree whose parent is not uniform (or the
  // root).  Insert an inverter above each marked node with polarity 1.
  std::vector<NodeId> to_fix;
  for (NodeId id : topo) {
    if (!has_sinks[id] || uniform[id] == kMixed) continue;
    const bool parent_uniform =
        id != tree.root() && uniform[tree.node(id).parent] != kMixed;
    if (parent_uniform) continue;
    if (uniform[id] == 1) to_fix.push_back(id);
  }

  for (NodeId id : to_fix) {
    if (id == tree.root()) {
      // Whole tree inverted: one inverter near the top of each root edge.
      for (NodeId ch : std::vector<NodeId>(tree.node(id).children)) {
        tree.insert_buffer(ch, std::min(offset_um, tree.routed_length(ch) / 2.0),
                           inverter);
        ++fix.added_inverters;
      }
    } else {
      const Um len = tree.routed_length(id);
      tree.insert_buffer(id, std::max(len - offset_um, len / 2.0), inverter);
      ++fix.added_inverters;
    }
  }

  tree.validate();
  if (count_inverted_sinks(tree) != 0) {
    throw std::logic_error("correct_polarity: sinks remain inverted");
  }
  return fix;
}

}  // namespace contango
