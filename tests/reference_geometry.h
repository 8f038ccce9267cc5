// Test-only oracle: the obstacle queries of geom/obstacle_set.h by plain
// linear scan.  Rectangles are grouped into compounds by an O(n^2)
// union-find over every pair, and every query loops over all rectangles in
// ascending index order with the same Rect/HVSegment predicates the library
// applies to its index candidates.  It shares no index or grouping code
// with ObstacleSet, so an exact-equality test against it catches a spatial
// index that drops, reorders or invents a candidate, and a grouping that
// merges or splits compounds.  Do not "optimize" this copy.

#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "geom/segment.h"

namespace contango {
namespace reference {

class ScanObstacleSet {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit ScanObstacleSet(std::vector<Rect> rects) : rects_(std::move(rects)) {
    const std::size_t n = rects_.size();
    std::vector<std::size_t> parent(n);
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
    auto find = [&](std::size_t x) {
      while (parent[x] != x) x = parent[x];
      return x;
    };
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rects_[i].overlaps_interior(rects_[j]) || rects_[i].abuts(rects_[j])) {
          parent[find(i)] = find(j);
        }
      }
    }
    // Compounds are numbered by their lowest member rectangle.
    std::vector<std::size_t> root_compound(n, npos);
    rect_to_compound_.assign(n, npos);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t& c = root_compound[find(i)];
      if (c == npos) {
        c = members_.size();
        members_.emplace_back();
      }
      members_[c].push_back(i);
      rect_to_compound_[i] = c;
    }
  }

  std::size_t num_compounds() const { return members_.size(); }
  const std::vector<std::size_t>& members(std::size_t c) const {
    return members_[c];
  }
  std::size_t compound_of(std::size_t rect_index) const {
    return rect_to_compound_[rect_index];
  }

  std::vector<std::size_t> rects_intersecting(const Rect& window) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < rects_.size(); ++i) {
      if (rects_[i].intersects(window)) out.push_back(i);
    }
    return out;
  }

  bool blocks_point(const Point& p) const {
    for (const Rect& r : rects_) {
      if (r.contains_strict(p)) return true;
    }
    return false;
  }

  bool blocks_segment(const HVSegment& seg) const {
    for (const Rect& r : rects_) {
      if (seg.crosses_interior(r)) return true;
    }
    return false;
  }

  std::vector<std::size_t> crossed_compounds(const HVSegment& seg) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < rects_.size(); ++i) {
      if (seg.crosses_interior(rects_[i])) out.push_back(rect_to_compound_[i]);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  bool blocks_polyline(const std::vector<Point>& pts) const {
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (blocks_segment(HVSegment{pts[i - 1], pts[i]})) return true;
    }
    return false;
  }

  Um blocked_length(const HVSegment& seg) const {
    Um total = 0.0;
    for (const Rect& r : rects_) {
      const Rect clip = seg.bounds().intersection(r);
      if (!clip.valid()) continue;
      if (seg.horizontal()) {
        if (seg.a.y > r.ylo && seg.a.y < r.yhi) total += std::max(0.0, clip.width());
      } else if (seg.vertical()) {
        if (seg.a.x > r.xlo && seg.a.x < r.xhi) total += std::max(0.0, clip.height());
      }
    }
    return total;
  }

  Um blocked_length(const std::vector<Point>& pts) const {
    Um total = 0.0;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      total += blocked_length(HVSegment{pts[i - 1], pts[i]});
    }
    return total;
  }

  std::size_t compound_containing(const Point& p) const {
    for (std::size_t i = 0; i < rects_.size(); ++i) {
      if (rects_[i].contains_strict(p)) return rect_to_compound_[i];
    }
    return npos;
  }

 private:
  std::vector<Rect> rects_;
  std::vector<std::vector<std::size_t>> members_;
  std::vector<std::size_t> rect_to_compound_;
};

}  // namespace reference
}  // namespace contango
