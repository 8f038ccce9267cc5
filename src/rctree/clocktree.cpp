#include "rctree/clocktree.h"

#include <algorithm>
#include <stdexcept>

namespace contango {

NodeId ClockTree::add_source(const Point& pos) {
  if (root_ != kNoNode) throw std::logic_error("ClockTree: source already set");
  TreeNode n;
  n.kind = NodeKind::kSource;
  n.pos = pos;
  nodes_.push_back(std::move(n));
  root_ = 0;
  return root_;
}

NodeId ClockTree::add_child(NodeId parent, NodeKind kind, const Point& pos,
                            std::vector<Point> route) {
  if (parent >= nodes_.size()) throw std::logic_error("ClockTree: bad parent");
  TreeNode n;
  n.kind = kind;
  n.pos = pos;
  n.parent = parent;
  if (route.empty()) {
    route = {nodes_[parent].pos};
    if (!(pos == nodes_[parent].pos)) {
      // Default embedding: straight wire if collinear, else HV L-shape.
      if (pos.x != nodes_[parent].pos.x && pos.y != nodes_[parent].pos.y) {
        route.push_back(Point{pos.x, nodes_[parent].pos.y});
      }
      route.push_back(pos);
    }
  }
  if (!near(route.front(), nodes_[parent].pos) || !near(route.back(), pos)) {
    throw std::logic_error("ClockTree: route endpoints mismatch");
  }
  n.route = std::move(route);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  nodes_[parent].children.push_back(id);
  return id;
}

Um ClockTree::edge_length(NodeId id) const {
  return routed_length(id) + nodes_[id].snake;
}

Um ClockTree::routed_length(NodeId id) const {
  return polyline_length(nodes_[id].route);
}

Um ClockTree::total_wirelength() const {
  Um total = 0.0;
  for (NodeId id : topological_order()) {
    if (id != root_) total += edge_length(id);
  }
  return total;
}

NodeId ClockTree::split_edge(NodeId id, Um distance, NodeKind kind) {
  if (id == root_ || id >= nodes_.size()) {
    throw std::logic_error("ClockTree: cannot split above the root");
  }
  const Um len = routed_length(id);
  distance = std::clamp(distance, std::min(1e-9, len / 2.0), std::max(len - 1e-9, len / 2.0));

  TreeNode& lower = nodes_[id];
  const NodeId parent = lower.parent;
  const Point cut = point_along(lower.route, distance);

  // Partition the polyline at arc length `distance`.
  std::vector<Point> upper_route{lower.route.front()};
  std::vector<Point> lower_route;
  Um walked = 0.0;
  std::size_t i = 1;
  for (; i < lower.route.size(); ++i) {
    const Um seg = manhattan(lower.route[i - 1], lower.route[i]);
    if (walked + seg >= distance - 1e-12) break;
    walked += seg;
    upper_route.push_back(lower.route[i]);
  }
  if (!near(upper_route.back(), cut)) upper_route.push_back(cut);
  lower_route.push_back(cut);
  for (; i < lower.route.size(); ++i) {
    if (!near(lower_route.back(), lower.route[i])) {
      lower_route.push_back(lower.route[i]);
    }
  }
  if (!near(lower_route.back(), lower.pos)) lower_route.push_back(lower.pos);

  TreeNode mid;
  mid.kind = kind;
  mid.pos = cut;
  mid.parent = parent;
  mid.route = std::move(upper_route);
  mid.wire_width = lower.wire_width;
  const NodeId mid_id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(mid));

  TreeNode& lower2 = nodes_[id];  // re-acquire: push_back may reallocate
  TreeNode& parent_node = nodes_[parent];
  std::replace(parent_node.children.begin(), parent_node.children.end(), id, mid_id);
  nodes_[mid_id].children.push_back(id);
  lower2.parent = mid_id;
  lower2.route = std::move(lower_route);
  // Snake is distributed proportionally to routed length so the electrical
  // density of the edge is preserved across the split.
  if (lower2.snake > 0.0) {
    const double ratio = (len > 0.0) ? distance / len : 0.5;
    const Um upper_snake = lower2.snake * ratio;
    nodes_[mid_id].snake = upper_snake;
    lower2.snake -= upper_snake;
  }
  return mid_id;
}

NodeId ClockTree::insert_buffer(NodeId id, Um distance, const CompositeBuffer& buffer) {
  const NodeId mid = split_edge(id, distance, NodeKind::kBuffer);
  nodes_[mid].buffer = buffer;
  return mid;
}

NodeId ClockTree::split_edge_electrical(NodeId id, Um elec_distance,
                                        NodeKind kind) {
  const Um routed = routed_length(id);
  const Um elec = edge_length(id);
  elec_distance = std::clamp(elec_distance, 0.0, elec);
  const Um r_pos = (elec > 0.0) ? elec_distance * (routed / elec) : 0.0;
  const NodeId mid = split_edge(id, r_pos, kind);
  // Re-apportion snake so the upper part's electrical length is exact
  // (split_edge's proportional rule already does this when routed > 0;
  // zero-routed edges need the explicit assignment).
  TreeNode& upper = nodes_[mid];
  TreeNode& lower = nodes_[id];
  const Um upper_routed = routed_length(mid);
  const Um lower_routed = routed_length(id);
  upper.snake = std::max(0.0, elec_distance - upper_routed);
  lower.snake = std::max(0.0, (elec - elec_distance) - lower_routed);
  return mid;
}

NodeId ClockTree::insert_buffer_electrical(NodeId id, Um elec_distance,
                                           const CompositeBuffer& buffer) {
  const NodeId mid = split_edge_electrical(id, elec_distance, NodeKind::kBuffer);
  nodes_[mid].buffer = buffer;
  return mid;
}

void ClockTree::make_buffer(NodeId id, const CompositeBuffer& buffer) {
  if (id == root_) throw std::logic_error("ClockTree: root cannot be a buffer");
  if (nodes_[id].kind == NodeKind::kSink) {
    throw std::logic_error("ClockTree: sink cannot become a buffer");
  }
  nodes_[id].kind = NodeKind::kBuffer;
  nodes_[id].buffer = buffer;
}

NodeId ClockTree::splice_out(NodeId id) {
  if (id == root_) throw std::logic_error("ClockTree: cannot splice the root");
  TreeNode& n = nodes_[id];
  if (n.children.size() != 1) {
    throw std::logic_error("ClockTree: splice_out needs exactly one child");
  }
  const NodeId child = n.children.front();
  const NodeId parent = n.parent;
  TreeNode& c = nodes_[child];

  // Concatenate edge geometry: parent->id->child becomes parent->child.
  std::vector<Point> route = n.route;
  for (std::size_t i = 1; i < c.route.size(); ++i) route.push_back(c.route[i]);
  c.route = std::move(route);
  c.snake += n.snake;
  c.parent = parent;
  std::replace(nodes_[parent].children.begin(), nodes_[parent].children.end(), id, child);

  // Tombstone the removed node.
  n.parent = kNoNode;
  n.children.clear();
  n.route.clear();
  n.kind = NodeKind::kInternal;
  n.snake = 0.0;
  return child;
}

void ClockTree::reparent(NodeId child, NodeId new_parent,
                         std::vector<Point> route) {
  if (child == root_) throw std::logic_error("ClockTree: cannot reparent root");
  TreeNode& c = nodes_[child];
  if (route.empty() || !near(route.front(), nodes_[new_parent].pos) ||
      !near(route.back(), c.pos)) {
    throw std::logic_error("ClockTree: reparent route endpoints mismatch");
  }
  // Guard against cycles: new_parent must not be inside child's subtree.
  for (NodeId n = new_parent; n != kNoNode; n = nodes_[n].parent) {
    if (n == child) throw std::logic_error("ClockTree: reparent creates cycle");
  }
  auto& siblings = nodes_[c.parent].children;
  siblings.erase(std::remove(siblings.begin(), siblings.end(), child), siblings.end());
  c.parent = new_parent;
  c.route = std::move(route);
  nodes_[new_parent].children.push_back(child);
}

void ClockTree::detach_subtree(NodeId top) {
  if (top == root_) throw std::logic_error("ClockTree: cannot detach root");
  TreeNode& t = nodes_[top];
  if (t.parent != kNoNode) {
    auto& siblings = nodes_[t.parent].children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), top), siblings.end());
  }
  for (NodeId id : subtree(top)) {
    TreeNode& n = nodes_[id];
    n.parent = kNoNode;
    n.children.clear();
    n.route.clear();
    n.kind = NodeKind::kInternal;
    n.snake = 0.0;
  }
}

void ClockTree::reroute_edge(NodeId id, std::vector<Point> route) {
  if (id == root_) throw std::logic_error("ClockTree: root has no edge");
  TreeNode& n = nodes_[id];
  if (route.empty() || !near(route.front(), nodes_[n.parent].pos) ||
      !near(route.back(), n.pos)) {
    throw std::logic_error("ClockTree: reroute endpoints mismatch");
  }
  n.route = std::move(route);
}

std::vector<NodeId> ClockTree::topological_order() const {
  std::vector<NodeId> order;
  if (root_ == kNoNode) return order;
  order.reserve(nodes_.size());
  order.push_back(root_);
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (NodeId c : nodes_[order[i]].children) order.push_back(c);
  }
  return order;
}

std::vector<NodeId> ClockTree::subtree(NodeId id) const {
  std::vector<NodeId> order{id};
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (NodeId c : nodes_[order[i]].children) order.push_back(c);
  }
  return order;
}

std::vector<NodeId> ClockTree::downstream_sinks(NodeId id) const {
  std::vector<NodeId> sinks;
  for (NodeId n : subtree(id)) {
    if (nodes_[n].is_sink()) sinks.push_back(n);
  }
  return sinks;
}

std::vector<int> ClockTree::buffer_depths() const {
  std::vector<int> depth(nodes_.size(), 0);
  for (NodeId id : topological_order()) {
    const TreeNode& n = nodes_[id];
    depth[id] = (id == root_ ? 0 : depth[n.parent]) + (n.is_buffer() ? 1 : 0);
  }
  return depth;
}

Um ClockTree::path_length(NodeId id) const {
  Um total = 0.0;
  for (NodeId n = id; n != root_ && n != kNoNode; n = nodes_[n].parent) {
    total += edge_length(n);
  }
  return total;
}

Ff ClockTree::total_cap(const Technology& tech, const std::vector<Ff>& sink_caps) const {
  return subtree_cap(root_, tech, sink_caps);
}

Ff ClockTree::subtree_cap(NodeId id, const Technology& tech,
                          const std::vector<Ff>& sink_caps) const {
  Ff total = 0.0;
  for (NodeId n : subtree(id)) {
    const TreeNode& node = nodes_[n];
    if (n != root_) {
      total += edge_length(n) * tech.wires.at(static_cast<std::size_t>(node.wire_width)).c_per_um;
    }
    if (node.is_buffer()) {
      const CompositeElectrical e = tech.electrical(node.buffer);
      total += e.input_cap + e.output_cap;
    }
    if (node.is_sink()) {
      total += sink_caps.at(static_cast<std::size_t>(node.sink_index));
    }
  }
  return total;
}

int ClockTree::buffer_count() const {
  int count = 0;
  for (NodeId id : topological_order()) {
    if (nodes_[id].is_buffer()) ++count;
  }
  return count;
}

void ClockTree::validate() const {
  if (root_ == kNoNode) throw std::logic_error("ClockTree: no root");
  if (nodes_[root_].kind != NodeKind::kSource || nodes_[root_].parent != kNoNode) {
    throw std::logic_error("ClockTree: malformed root");
  }
  const std::vector<NodeId> order = topological_order();
  if (order.size() > nodes_.size()) throw std::logic_error("ClockTree: cycle");
  std::vector<char> seen(nodes_.size(), 0);
  for (NodeId id : order) {
    if (seen[id]) throw std::logic_error("ClockTree: node visited twice");
    seen[id] = 1;
    const TreeNode& n = nodes_[id];
    if (id != root_) {
      if (n.parent == kNoNode || n.parent >= nodes_.size()) {
        throw std::logic_error("ClockTree: dangling parent");
      }
      const auto& siblings = nodes_[n.parent].children;
      if (std::find(siblings.begin(), siblings.end(), id) == siblings.end()) {
        throw std::logic_error("ClockTree: parent/child mismatch");
      }
      if (n.route.size() < 1 || !near(n.route.front(), nodes_[n.parent].pos) ||
          !near(n.route.back(), n.pos)) {
        throw std::logic_error("ClockTree: route endpoints mismatch");
      }
      if (n.snake < 0.0) throw std::logic_error("ClockTree: negative snake");
      if (n.kind == NodeKind::kSource) {
        throw std::logic_error("ClockTree: duplicate source");
      }
    }
    if (n.is_sink() && !n.children.empty()) {
      throw std::logic_error("ClockTree: sink is not a leaf");
    }
    if (n.is_sink() && n.sink_index < 0) {
      throw std::logic_error("ClockTree: sink without index");
    }
  }
}

}  // namespace contango
