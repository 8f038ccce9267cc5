// Test-only oracle: Clock-Network Evaluation exactly as it stood before
// the library's full, batched and incremental evaluators were merged into
// one slot-outer sweep.  evaluate_netlist() here is the scalar
// corner-outer propagation — corners outermost, one source transition at
// a time, one simulate_stage() call per (stage, corner, transition) — and
// apply_variation() the array-of-structs Monte-Carlo perturbation it ran
// trials on.  Neither shares propagation code with the library sweep (only
// the aggregation of finished per-sink timings, aggregate_corners()), so
// an exact-equality test against them catches a sweep that reorders,
// drops or mis-keys any per-combination work.  Do not "fix" or modernize
// this copy.

#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "analysis/transient.h"
#include "analysis/variation.h"
#include "rctree/extract.h"
#include "stage_sim.h"

namespace contango {
namespace reference {

/// Event at a stage driver's input.
struct StageEvent {
  Ps time = 0.0;
  Ps slew = 0.0;
  Transition dir = Transition::kRise;  ///< direction at the driver input
};

/// The clock source is non-inverting; composite buffers invert.
inline Transition stage_output_dir(const Stage& stage, Transition in_dir) {
  if (!stage.driver_inverts) return in_dir;
  return (in_dir == Transition::kRise) ? Transition::kFall : Transition::kRise;
}

/// Effective driver view of `stage` under supply `vdd` driving `out_dir`.
struct DriverView {
  KOhm r_drv = 0.0;
  Ps intrinsic = 0.0;
};

inline DriverView stage_driver_view(const Stage& stage, const Technology& tech,
                                    Volt vdd, Transition out_dir) {
  return DriverView{
      effective_driver_res(stage.driver_res_nom, tech, vdd, out_dir),
      effective_intrinsic(stage.driver_intrinsic_nom, tech, vdd)};
}

/// Fans one stage's tap timings out: sink taps land in `corner` (source
/// transition `t`), buffer taps pair with the stage's downstream entries
/// in order and hand the child its input event through
/// `schedule(child, event)`.  `taps` points at stage.taps.size() entries —
/// a row of a batched result or a scalar vector's data().
template <typename ScheduleFn>
inline void fan_out_taps(const Stage& stage, const StageEvent& ev,
                         Transition out_dir, const TapTiming* taps,
                         CornerTiming& corner, int t, ScheduleFn&& schedule) {
  std::size_t next_stage = 0;
  for (std::size_t k = 0; k < stage.taps.size(); ++k) {
    const Tap& tap = stage.taps[k];
    corner.max_slew = std::max(corner.max_slew, taps[k].slew);
    if (tap.is_sink) {
      SinkTiming& st = corner.sinks[t][static_cast<std::size_t>(tap.sink_index)];
      st.latency = ev.time + taps[k].delay;
      st.slew = taps[k].slew;
      st.reached = true;
    } else {
      const int child = stage.downstream_stages.at(next_stage++);
      schedule(child, StageEvent{ev.time + taps[k].delay, taps[k].slew, out_dir});
    }
  }
}

inline EvalResult evaluate_netlist(const StagedNetlist& net, const Benchmark& bench,
                                   const TransientSimulator& sim, Ps source_input_slew,
                                   const std::vector<Volt>* stage_vdd_delta = nullptr) {
  if (stage_vdd_delta && stage_vdd_delta->size() != net.stages.size()) {
    throw std::invalid_argument("evaluate_netlist: stage_vdd_delta size " +
                                std::to_string(stage_vdd_delta->size()) +
                                " != stage count " + std::to_string(net.stages.size()));
  }
  EvalResult result;

  for (Volt vdd : bench.tech.corners) {
    CornerTiming corner;
    corner.vdd = vdd;
    for (auto& per_transition : corner.sinks) {
      per_transition.assign(bench.sinks.size(), SinkTiming{});
    }

    for (int t = 0; t < kNumTransitions; ++t) {
      const auto source_dir = static_cast<Transition>(t);
      std::vector<StageEvent> events(net.stages.size());
      std::vector<char> scheduled(net.stages.size(), 0);
      events[0] = StageEvent{0.0, source_input_slew, source_dir};
      scheduled[0] = 1;

      // Stages are created parent-before-child by extraction, so a single
      // forward sweep is a valid topological propagation.
      for (std::size_t si = 0; si < net.stages.size(); ++si) {
        if (!scheduled[si]) {
          throw std::logic_error("evaluate_netlist: stage scheduled out of order");
        }
        const Stage& stage = net.stages[si];
        const StageEvent& ev = events[si];

        const Transition out_dir = stage_output_dir(stage, ev.dir);
        const Volt vdd_stage = stage_vdd_delta ? vdd + (*stage_vdd_delta)[si] : vdd;
        const DriverView drv =
            stage_driver_view(stage, bench.tech, vdd_stage, out_dir);

        const std::vector<TapTiming> taps =
            simulate_stage(sim, stage, drv.r_drv, drv.intrinsic, ev.slew);

        fan_out_taps(stage, ev, out_dir, taps.data(), corner, t,
                     [&](int child, const StageEvent& e) {
                       events[static_cast<std::size_t>(child)] = e;
                       scheduled[static_cast<std::size_t>(child)] = 1;
                     });
      }
    }
    result.corners.push_back(std::move(corner));
  }

  aggregate_corners(result, bench);
  return result;
}

/// Applies one trial's perturbation to a scratch copy of the base netlist.
///
/// Wire R/C scale globally; pin capacitances (sink pins, buffer input and
/// output pins) are exempt from wire scaling — extraction records them per
/// tap/stage — and sink pins additionally take their per-sink jitter
/// factor.  With the zero model every adjustment is exactly 0.0 and the
/// scratch netlist is bit-identical to the base.
inline void apply_variation(const StagedNetlist& base, const TrialVariation& v,
                            StagedNetlist& scratch) {
  scratch = base;  // copy-assign reuses the scratch buffers across trials
  const double rs = v.wire_r_scale;
  const double cs = v.wire_c_scale;
  for (Stage& stage : scratch.stages) {
    for (RcNode& node : stage.nodes) {
      node.res *= rs;
      node.cap *= cs;
    }
    stage.nodes[0].cap += stage.driver_pin_cap * (1.0 - cs);
    for (const Tap& tap : stage.taps) {
      const double pin_scale =
          tap.is_sink ? v.sink_cap_scale[static_cast<std::size_t>(tap.sink_index)]
                      : 1.0;
      stage.nodes[static_cast<std::size_t>(tap.rc_index)].cap +=
          tap.pin_cap * (pin_scale - cs);
    }
  }
}

}  // namespace reference
}  // namespace contango
