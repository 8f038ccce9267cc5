#include "geom/spatial.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace contango {

// ---------------------------------------------------------------------------
// RectIntervalIndex

RectIntervalIndex::RectIntervalIndex(const std::vector<Rect>& rects) {
  xlo_.reserve(rects.size());
  xhi_.reserve(rects.size());
  ylo_.reserve(rects.size());
  yhi_.reserve(rects.size());
  for (const Rect& r : rects) {
    xlo_.push_back(r.xlo);
    xhi_.push_back(r.xhi);
    ylo_.push_back(r.ylo);
    yhi_.push_back(r.yhi);
  }
  construct();
}

void RectIntervalIndex::construct() {
  const std::size_t n = xlo_.size();
  if (n == 0) return;
  nodes_.reserve(2 * n);
  // STR bulk build: the *only* sorts of the whole build.  Every recursion
  // level below partitions these stably, so each node's spanning lists come
  // out already sorted (xlo ascending / xhi descending, ties by index).
  std::vector<std::size_t> by_lo(n), by_hi(n);
  for (std::size_t i = 0; i < n; ++i) by_lo[i] = by_hi[i] = i;
  std::sort(by_lo.begin(), by_lo.end(), [this](std::size_t a, std::size_t b) {
    return xlo_[a] != xlo_[b] ? xlo_[a] < xlo_[b] : a < b;
  });
  std::sort(by_hi.begin(), by_hi.end(), [this](std::size_t a, std::size_t b) {
    return xhi_[a] != xhi_[b] ? xhi_[a] > xhi_[b] : a < b;
  });
  root_ = build_str(by_lo, by_hi);
}

int RectIntervalIndex::build_str(std::vector<std::size_t>& by_lo,
                                 std::vector<std::size_t>& by_hi) {
  if (by_lo.empty()) return -1;
  const std::size_t n = by_lo.size();
  // Center on the median interval endpoint — the n-th smallest (0-indexed)
  // value of the multiset {xlo} u {xhi} — so every rect either spans it or
  // falls wholly to one side, and the two sides shrink geometrically.
  // Find that value by merge-walking
  // the two pre-sorted lists: by_lo yields xlo ascending, by_hi *reversed*
  // yields xhi ascending.  Ties pick either side — the k-th order statistic
  // of a multiset does not depend on which equal element is consumed first.
  double center = 0.0;
  {
    std::size_t li = 0;   // next by_lo entry (xlo ascending)
    std::size_t hj = n;   // by_hi[hj - 1] is the next xhi in ascending order
    for (std::size_t step = 0; step <= n; ++step) {
      const bool take_lo =
          li < n && (hj == 0 || xlo_[by_lo[li]] <= xhi_[by_hi[hj - 1]]);
      if (take_lo) {
        center = xlo_[by_lo[li++]];
      } else {
        center = xhi_[by_hi[--hj]];
      }
    }
  }

  Node node;
  node.center = center;
  // Stable three-way partition of both orderings.  The spanning sublist of
  // by_lo is already (xlo asc, id asc) and of by_hi already (xhi desc,
  // id asc) — the node's query orders, with no per-node sort.
  std::vector<std::size_t> left_lo, right_lo, left_hi, right_hi;
  for (const std::size_t i : by_lo) {
    if (xhi_[i] < center) {
      left_lo.push_back(i);
    } else if (xlo_[i] > center) {
      right_lo.push_back(i);
    } else {
      node.by_xlo.push_back(i);
    }
  }
  for (const std::size_t i : by_hi) {
    if (xhi_[i] < center) {
      left_hi.push_back(i);
    } else if (xlo_[i] > center) {
      right_hi.push_back(i);
    } else {
      node.by_xhi.push_back(i);
    }
  }
  // A degenerate split (everything on one side, nothing spanning) would
  // recurse forever; park the whole list at this node instead.  Happens
  // only when all intervals share a single endpoint pattern.  The full
  // lists are already in the node's sort orders, so this is a plain move.
  if (node.by_xlo.empty() && (left_lo.empty() || right_lo.empty())) {
    node.by_xlo = std::move(by_lo);
    node.by_xhi = std::move(by_hi);
    left_lo.clear();
    right_lo.clear();
    left_hi.clear();
    right_hi.clear();
  }
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(node));
  const int l = build_str(left_lo, left_hi);
  const int r = build_str(right_lo, right_hi);
  nodes_[static_cast<std::size_t>(id)].left = l;
  nodes_[static_cast<std::size_t>(id)].right = r;
  return id;
}

void RectIntervalIndex::query_node(int node_id, const Rect& q,
                                   std::vector<std::size_t>& out) const {
  if (node_id < 0) return;
  const Node& node = nodes_[static_cast<std::size_t>(node_id)];
  if (q.xhi < node.center) {
    // Only intervals starting at or before q.xhi can reach the query.
    for (const std::size_t i : node.by_xlo) {
      if (xlo_[i] > q.xhi) break;
      if (ylo_[i] <= q.yhi && yhi_[i] >= q.ylo) out.push_back(i);
    }
    query_node(node.left, q, out);
  } else if (q.xlo > node.center) {
    for (const std::size_t i : node.by_xhi) {
      if (xhi_[i] < q.xlo) break;
      if (ylo_[i] <= q.yhi && yhi_[i] >= q.ylo) out.push_back(i);
    }
    query_node(node.right, q, out);
  } else {
    // The query straddles the center: every spanning interval overlaps in x.
    for (const std::size_t i : node.by_xlo) {
      if (ylo_[i] <= q.yhi && yhi_[i] >= q.ylo) out.push_back(i);
    }
    query_node(node.left, q, out);
    query_node(node.right, q, out);
  }
}

std::vector<std::size_t> RectIntervalIndex::intersecting(
    const Rect& query) const {
  std::vector<std::size_t> out;
  query_node(root_, query, out);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Klee union area

double klee_union_area(const std::vector<Rect>& rects) {
  struct Event {
    double x;
    int delta;          ///< +1 opens the rect's y-interval, -1 closes it
    int ylo_i, yhi_i;   ///< compressed y-slot range [ylo_i, yhi_i)
  };
  std::vector<double> ys;
  ys.reserve(2 * rects.size());
  for (const Rect& r : rects) {
    if (r.width() <= 0.0 || r.height() <= 0.0) continue;  // zero-area rects
    ys.push_back(r.ylo);
    ys.push_back(r.yhi);
  }
  if (ys.empty()) return 0.0;
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  const int slots = static_cast<int>(ys.size()) - 1;
  if (slots <= 0) return 0.0;

  std::vector<Event> events;
  events.reserve(2 * rects.size());
  auto slot_of = [&ys](double y) {
    return static_cast<int>(std::lower_bound(ys.begin(), ys.end(), y) -
                            ys.begin());
  };
  for (const Rect& r : rects) {
    if (r.width() <= 0.0 || r.height() <= 0.0) continue;
    events.push_back(Event{r.xlo, +1, slot_of(r.ylo), slot_of(r.yhi)});
    events.push_back(Event{r.xhi, -1, slot_of(r.ylo), slot_of(r.yhi)});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.x != b.x) return a.x < b.x;
    if (a.delta != b.delta) return a.delta > b.delta;  // opens before closes
    if (a.ylo_i != b.ylo_i) return a.ylo_i < b.ylo_i;
    return a.yhi_i < b.yhi_i;
  });

  // Segment tree over y slots: cover count per node plus covered length.
  const int n = slots;
  std::vector<int> count(static_cast<std::size_t>(4 * n), 0);
  std::vector<double> covered(static_cast<std::size_t>(4 * n), 0.0);
  // Recursive update via an explicit lambda (C++17: Y-combinator style).
  const std::function<void(int, int, int, int, int, int)> update =
      [&](int node, int lo, int hi, int qlo, int qhi, int delta) {
        if (qhi <= lo || hi <= qlo) return;
        if (qlo <= lo && hi <= qhi) {
          count[static_cast<std::size_t>(node)] += delta;
        } else {
          const int mid = (lo + hi) / 2;
          update(2 * node, lo, mid, qlo, qhi, delta);
          update(2 * node + 1, mid, hi, qlo, qhi, delta);
        }
        if (count[static_cast<std::size_t>(node)] > 0) {
          covered[static_cast<std::size_t>(node)] = ys[static_cast<std::size_t>(hi)] -
                                                    ys[static_cast<std::size_t>(lo)];
        } else if (hi - lo == 1) {
          covered[static_cast<std::size_t>(node)] = 0.0;
        } else {
          covered[static_cast<std::size_t>(node)] =
              covered[static_cast<std::size_t>(2 * node)] +
              covered[static_cast<std::size_t>(2 * node + 1)];
        }
      };

  double area = 0.0;
  double prev_x = events.front().x;
  for (const Event& e : events) {
    area += covered[1] * (e.x - prev_x);
    prev_x = e.x;
    update(1, 0, n, e.ylo_i, e.yhi_i, e.delta);
  }
  return area;
}

// ---------------------------------------------------------------------------
// TiltedNnIndex

namespace {

TiltedRect bbox_union(const TiltedRect& a, const TiltedRect& b) {
  return TiltedRect{std::min(a.ulo, b.ulo), std::min(a.vlo, b.vlo),
                    std::max(a.uhi, b.uhi), std::max(a.vhi, b.vhi)};
}

constexpr std::size_t kNnLeafSize = 8;

}  // namespace

TiltedNnIndex::TiltedNnIndex(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  if (entries_.empty()) return;
  nodes_.reserve(2 * entries_.size() / kNnLeafSize + 2);
  root_ = build(0, entries_.size());
}

int TiltedNnIndex::build(std::size_t begin, std::size_t end) {
  Node node;
  node.bbox = entries_[begin].region;
  for (std::size_t i = begin + 1; i < end; ++i) {
    node.bbox = bbox_union(node.bbox, entries_[i].region);
  }
  if (end - begin <= kNnLeafSize) {
    node.begin = begin;
    node.end = end;
    const int id = static_cast<int>(nodes_.size());
    nodes_.push_back(node);
    return id;
  }
  // Split along the wider bbox axis at the median region center; ties on
  // the key fall back to the entry id so the partition is deterministic.
  const bool split_u =
      (node.bbox.uhi - node.bbox.ulo) >= (node.bbox.vhi - node.bbox.vlo);
  const std::size_t mid = begin + (end - begin) / 2;
  auto key = [split_u](const Entry& e) {
    return split_u ? e.region.ulo + e.region.uhi : e.region.vlo + e.region.vhi;
  };
  std::nth_element(entries_.begin() + static_cast<std::ptrdiff_t>(begin),
                   entries_.begin() + static_cast<std::ptrdiff_t>(mid),
                   entries_.begin() + static_cast<std::ptrdiff_t>(end),
                   [&key](const Entry& a, const Entry& b) {
                     const double ka = key(a), kb = key(b);
                     return ka != kb ? ka < kb : a.id < b.id;
                   });
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(node);
  const int l = build(begin, mid);
  const int r = build(mid, end);
  nodes_[static_cast<std::size_t>(id)].left = l;
  nodes_[static_cast<std::size_t>(id)].right = r;
  return id;
}

}  // namespace contango
