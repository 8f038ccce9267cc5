#include "cts/slack.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace contango {
namespace {

constexpr Ps kInf = std::numeric_limits<double>::max();

/// Extremes of one (corner, transition) latency vector.
struct Extremes {
  Ps lo = kInf;
  Ps hi = -kInf;
};

Extremes extremes(const std::vector<SinkTiming>& sinks) {
  Extremes e;
  for (const SinkTiming& s : sinks) {
    if (!s.reached) continue;
    e.lo = std::min(e.lo, s.latency);
    e.hi = std::max(e.hi, s.latency);
  }
  return e;
}

/// Per-domain extremes of one (corner, transition) latency vector, plus
/// the global earliest arrival (the window reference point Tref).
struct DomainExtremes {
  std::vector<Extremes> per_domain;
  Ps global_lo = kInf;
};

DomainExtremes domain_extremes(const std::vector<SinkTiming>& sinks,
                               const TimingConstraints& cons) {
  DomainExtremes e;
  e.per_domain.resize(cons.num_domains());
  for (std::size_t s = 0; s < sinks.size(); ++s) {
    if (!sinks[s].reached) continue;
    Extremes& d = e.per_domain[cons.domain_of(s)];
    d.lo = std::min(d.lo, sinks[s].latency);
    d.hi = std::max(d.hi, sinks[s].latency);
    e.global_lo = std::min(e.global_lo, sinks[s].latency);
  }
  return e;
}

/// Generalized Definition 1 for one sink under a non-trivial constraint
/// block: slack against the sink's own domain extrema, its arrival
/// window, and every inter-domain bound touching its domain.  Reduces to
/// (ex.hi - T, T - ex.lo) when the block is trivial.
void constrained_sink_slacks(std::size_t sink_index, Ps latency,
                             const DomainExtremes& ex,
                             const TimingConstraints& cons, Ps& slow,
                             Ps& fast) {
  const std::uint32_t d = cons.domain_of(sink_index);
  const Extremes& own = ex.per_domain[d];
  slow = std::min(slow, own.hi - latency);
  fast = std::min(fast, latency - own.lo);
  const ArrivalWindow w = cons.window_of(sink_index);
  if (!w.unbounded()) {
    const Ps r = latency - ex.global_lo;
    if (w.hi < kInf) slow = std::min(slow, w.hi - r);
    if (w.lo > -kInf) fast = std::min(fast, r - w.lo);
  }
  for (const DomainBound& b : cons.domain_bounds) {
    std::uint32_t other;
    if (b.a == d) {
      other = b.b;
    } else if (b.b == d) {
      other = b.a;
    } else {
      continue;
    }
    const Extremes& o = ex.per_domain[other];
    if (o.hi < o.lo) continue;  // no reached sinks in the other domain
    // Slowing s stretches T(s) - Tmin_other; speeding it stretches
    // Tmax_other - T(s).  Either spread is capped at b.bound.
    slow = std::min(slow, b.bound - (latency - o.lo));
    fast = std::min(fast, b.bound - (o.hi - latency));
  }
}

}  // namespace

EdgeSlacks compute_edge_slacks(const ClockTree& tree, const EvalResult& eval,
                               const SlackOptions& options) {
  EdgeSlacks slacks;
  slacks.slow.assign(tree.size(), kInf);
  slacks.fast.assign(tree.size(), kInf);

  const std::size_t corners =
      options.all_corners ? eval.corners.size() : std::min<std::size_t>(1, eval.corners.size());

  // Sink slacks: minimum over every constraining (corner, transition).
  const TimingConstraints* cons = options.constraints;
  const bool constrained = cons != nullptr && !cons->trivial();
  const std::vector<NodeId> topo = tree.topological_order();
  for (std::size_t c = 0; c < corners; ++c) {
    for (int t = 0; t < kNumTransitions; ++t) {
      const auto& sinks = eval.corners[c].sinks[static_cast<std::size_t>(t)];
      if (constrained) {
        const DomainExtremes ex = domain_extremes(sinks, *cons);
        if (ex.global_lo >= kInf) continue;
        for (NodeId id : topo) {
          const TreeNode& n = tree.node(id);
          if (!n.is_sink()) continue;
          const std::size_t s = static_cast<std::size_t>(n.sink_index);
          if (!sinks[s].reached) continue;
          constrained_sink_slacks(s, sinks[s].latency, ex, *cons,
                                  slacks.slow[id], slacks.fast[id]);
        }
        continue;
      }
      const Extremes ex = extremes(sinks);
      if (ex.hi < ex.lo) continue;
      for (NodeId id : topo) {
        const TreeNode& n = tree.node(id);
        if (!n.is_sink()) continue;
        const SinkTiming& st = sinks[static_cast<std::size_t>(n.sink_index)];
        if (!st.reached) continue;
        slacks.slow[id] = std::min(slacks.slow[id], ex.hi - st.latency);
        slacks.fast[id] = std::min(slacks.fast[id], st.latency - ex.lo);
      }
    }
  }

  // Edge slacks: min over downstream sinks, one reverse topological sweep
  // (Lemma 1).
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    const NodeId parent = tree.node(id).parent;
    if (parent == kNoNode) continue;
    slacks.slow[parent] = std::min(slacks.slow[parent], slacks.slow[id]);
    slacks.fast[parent] = std::min(slacks.fast[parent], slacks.fast[id]);
  }

  // Delta_e (Proposition 1).  For edges below the root the parent slack is
  // the root's aggregate, which is 0 whenever any sink is critical.
  slacks.delta_slow.assign(tree.size(), 0.0);
  slacks.delta_fast.assign(tree.size(), 0.0);
  for (NodeId id : topo) {
    if (id == tree.root()) continue;
    const NodeId parent = tree.node(id).parent;
    if (slacks.slow[id] < kInf) {
      const Ps p = (slacks.slow[parent] >= kInf) ? 0.0 : slacks.slow[parent];
      slacks.delta_slow[id] = slacks.slow[id] - p;
    }
    if (slacks.fast[id] < kInf) {
      const Ps p = (slacks.fast[parent] >= kInf) ? 0.0 : slacks.fast[parent];
      slacks.delta_fast[id] = slacks.fast[id] - p;
    }
  }
  return slacks;
}

std::vector<Ps> sink_slow_slacks(const ClockTree& tree, const EvalResult& eval,
                                 const SlackOptions& options) {
  const EdgeSlacks slacks = compute_edge_slacks(tree, eval, options);
  std::vector<Ps> out(tree.size(), 0.0);
  for (NodeId id : tree.topological_order()) {
    if (tree.node(id).is_sink()) {
      out[id] = (slacks.slow[id] >= kInf) ? 0.0 : slacks.slow[id];
    }
  }
  return out;
}

std::vector<Ps> probe_latency_rise(const ClockTree& tree, Evaluator& eval,
                                   const EvalResult& baseline,
                                   const std::vector<NodeId>& samples,
                                   const std::function<void(TreeNode&)>& edit) {
  ClockTree scratch = tree;
  for (NodeId id : samples) edit(scratch.node(id));
  const EvalResult probed = eval.evaluate(scratch);

  std::vector<Ps> rise(samples.size(), 0.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (NodeId s : tree.downstream_sinks(samples[i])) {
      const auto sink = static_cast<std::size_t>(tree.node(s).sink_index);
      for (std::size_t c = 0; c < baseline.corners.size(); ++c) {
        for (std::size_t t = 0; t < kNumTransitions; ++t) {
          const SinkTiming& b = baseline.corners[c].sinks[t][sink];
          const SinkTiming& p = probed.corners[c].sinks[t][sink];
          if (b.reached && p.reached) rise[i] = std::max(rise[i], p.latency - b.latency);
        }
      }
    }
  }
  return rise;
}

}  // namespace contango
