#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "geom/point.h"
#include "geom/segment.h"
#include "netlist/library.h"

namespace contango {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

enum class NodeKind : std::uint8_t {
  kSource,    ///< tree root, driven by the external clock source
  kInternal,  ///< Steiner/branch point or wire joint
  kBuffer,    ///< composite inverter inserted on a wire
  kSink,      ///< clock sink (flip-flop clock pin)
};

/// One tree node together with the wire edge connecting it to its parent.
///
/// The edge geometry is an axis-parallel polyline `route` running from the
/// parent's position to this node's position (both endpoints included).
/// `snake` is extra serpentine wirelength added by wiresnaking: it increases
/// electrical length without changing the endpoints.  `wire_width` indexes
/// the technology wire table.
struct TreeNode {
  NodeKind kind = NodeKind::kInternal;
  Point pos;
  NodeId parent = kNoNode;
  std::vector<NodeId> children;

  std::vector<Point> route;  ///< parent->this polyline; empty for the root
  int wire_width = 0;
  Um snake = 0.0;

  int sink_index = -1;                ///< kSink: index into Benchmark::sinks
  CompositeBuffer buffer{0, 1};       ///< kBuffer: inserted repeater

  bool is_buffer() const { return kind == NodeKind::kBuffer; }
  bool is_sink() const { return kind == NodeKind::kSink; }
};

/// A buffered, routed clock tree with value semantics: copying the tree is
/// the save/rollback primitive of Contango's iterative loops
/// ("SaveSolution" in Algorithm 1 of the paper).
///
/// Invariants (checked by validate()):
///  * exactly one source node, which is the root;
///  * parent/children links are mutually consistent and acyclic;
///  * every non-root node's route starts at its parent's position and ends
///    at its own; snake >= 0;
///  * sinks are leaves.
class ClockTree {
 public:
  ClockTree() = default;

  /// Creates the root/source node.  Must be called exactly once, first.
  NodeId add_source(const Point& pos);

  /// Adds a child of `parent` with a direct (single-segment or L-shaped)
  /// route.  The route defaults to the straight polyline; callers that
  /// maze-routed the connection pass the full polyline.
  NodeId add_child(NodeId parent, NodeKind kind, const Point& pos,
                   std::vector<Point> route = {});

  const TreeNode& node(NodeId id) const { return nodes_[id]; }
  TreeNode& node(NodeId id) { return nodes_[id]; }
  NodeId root() const { return root_; }
  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  /// Electrical length of the edge above `id`: routed length plus snake.
  Um edge_length(NodeId id) const;

  /// Routed (geometric) length only.
  Um routed_length(NodeId id) const;

  /// Total wirelength of the tree including snaking.
  Um total_wirelength() const;

  /// Splits the edge above `id` at arc-length `distance` from the parent
  /// along the routed polyline, inserting and returning a new node of
  /// `kind`.  The new node inherits the edge's wire width; snake length is
  /// distributed proportionally between the halves.  distance is clamped
  /// to (0, length).
  NodeId split_edge(NodeId id, Um distance, NodeKind kind = NodeKind::kInternal);

  /// Inserts a buffer node on the edge above `id` at `distance` from the
  /// parent.  Returns the new buffer node.
  NodeId insert_buffer(NodeId id, Um distance, const CompositeBuffer& buffer);

  /// Splits the edge above `id` at *electrical* arc position
  /// `elec_distance` in [0, edge_length()] (routed + snake, uniform snake
  /// density).  Works on zero-routed-length edges that carry pure snake:
  /// the upper part receives exactly `elec_distance` of electrical length.
  NodeId split_edge_electrical(NodeId id, Um elec_distance,
                               NodeKind kind = NodeKind::kInternal);

  /// Buffer insertion at an electrical arc position.
  NodeId insert_buffer_electrical(NodeId id, Um elec_distance,
                                  const CompositeBuffer& buffer);

  /// Converts an existing degree-2 internal node into a buffer.
  void make_buffer(NodeId id, const CompositeBuffer& buffer);

  /// Removes a degree-2 internal or buffer node, splicing its edge into the
  /// child's edge.  The node must have exactly one child; the root cannot
  /// be removed.  Returns the child whose edge absorbed the geometry.
  NodeId splice_out(NodeId id);

  /// Moves `child` (with its whole subtree) under `new_parent`, replacing
  /// its edge geometry with `route` (must run from new_parent's position to
  /// child's position).  Used by obstacle repair to re-attach subtrees to
  /// detour paths.
  void reparent(NodeId child, NodeId new_parent, std::vector<Point> route);

  /// Detaches the subtree rooted at `top` from the tree and tombstones all
  /// of its nodes.  The caller must have re-parented any content that
  /// should survive.
  void detach_subtree(NodeId top);

  /// Replaces the routed polyline of the edge above `id` (endpoints must
  /// still match parent/node positions).
  void reroute_edge(NodeId id, std::vector<Point> route);

  /// Nodes reachable from the root in topological (parent-before-child)
  /// order.  Spliced-out nodes are detached from the tree and do not appear.
  std::vector<NodeId> topological_order() const;

  /// True when the node is still attached to the tree (the root, or has a
  /// parent).  splice_out() leaves tombstone nodes behind; all traversals
  /// go through topological_order()/subtree() and skip them.
  bool live(NodeId id) const {
    return id == root_ || nodes_[id].parent != kNoNode;
  }

  /// Nodes of the subtree rooted at `id`, preorder.
  std::vector<NodeId> subtree(NodeId id) const;

  /// Sink nodes downstream of `id` (including `id` itself if a sink).
  std::vector<NodeId> downstream_sinks(NodeId id) const;

  /// Buffer depth of every node, indexed by NodeId: the number of
  /// inverting stages on the path from the root down to and including the
  /// node (composite buffers are inverters).  Even depth = positive
  /// polarity.  One top-down sweep; detached tombstones read 0.
  std::vector<int> buffer_depths() const;

  /// Sum over the path root..id of edge lengths.
  Um path_length(NodeId id) const;

  /// Total capacitance of the network: wire cap (width-dependent) + buffer
  /// input and output caps + sink pin caps.  `sink_caps[i]` is the pin cap
  /// of benchmark sink i.
  Ff total_cap(const Technology& tech, const std::vector<Ff>& sink_caps) const;

  /// Capacitance of the subtree hanging below `id` (including the edge
  /// above `id`): used for slew-free-capacitance tests in obstacle repair.
  Ff subtree_cap(NodeId id, const Technology& tech,
                 const std::vector<Ff>& sink_caps) const;

  /// Number of buffer nodes.
  int buffer_count() const;

  /// Throws std::logic_error if a structural invariant is broken.
  void validate() const;

 private:
  std::vector<TreeNode> nodes_;
  NodeId root_ = kNoNode;
};

}  // namespace contango
