// Test-only oracle: a node's buffer depth by walking its parent links up to
// the root, one node at a time.  It shares no traversal with
// ClockTree::buffer_depths(), the library's single top-down sweep, so an
// exact-equality test against it catches a sweep that visits a child before
// its parent, skips a subtree or miscounts the root.  Do not "optimize"
// this copy.

#pragma once

#include "rctree/clocktree.h"

namespace contango {
namespace reference {

/// Number of composite buffers (inverters) on the path root..id, `id`
/// included.  Even = positive polarity.
inline int buffer_depth(const ClockTree& tree, NodeId id) {
  int depth = 0;
  for (NodeId n = id; n != kNoNode; n = tree.node(n).parent) {
    if (tree.node(n).is_buffer()) ++depth;
  }
  return depth;
}

}  // namespace reference
}  // namespace contango
