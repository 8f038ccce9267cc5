#pragma once

#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "cts/obstacles.h"
#include "cts/polarity.h"
#include "netlist/benchmark.h"
#include "rctree/clocktree.h"
#include "util/cancel.h"

namespace contango {

/// Options of the full Contango flow (paper Fig. 1).  Every per-pass
/// setting (ladder, reserve, round caps, snaking units, ...) is a
/// `pass:key=value` parameter of the pipeline spec, defaulted by the pass.
struct FlowOptions {
  EvalOptions eval;

  /// Pass-pipeline spec (cts/pipeline.h): comma-separated pass names with
  /// optional `pass:key=value` overrides, e.g.
  /// `"dme,repair,insert,polarity,twsz,twsn"`.  Empty runs the default
  /// sequence (default_pipeline_spec()).  Suite drivers bind this to the
  /// CONTANGO_PIPELINE env knob.
  std::string pipeline;

  /// Cooperative cancellation (util/cancel.h).  The pipeline polls this
  /// token at every pass boundary and throws CancelledError when it fired,
  /// so an in-flight flow stops with the tree and all reports consistent;
  /// the suite runner additionally polls it between benchmarks and marks
  /// affected runs `cancelled`.  The default token is inert (never fires).
  /// Producers: the service daemon's cancel endpoint (src/service/) and the
  /// SIGINT/SIGTERM bridge of the bench binaries (util/signal.h).
  CancelToken cancel;
};

/// Metrics recorded after each optimization stage (paper Table III rows).
/// Names are unique within one flow: a pass that repeats in a pipeline
/// snapshots as "TWSZ", "TWSZ#2", ... (FlowContext::unique_stage_name).
struct StageSnapshot {
  std::string name;  ///< INITIAL, TBSZ, TWSZ, TWSN, BWSN, TWSZ#2, ...
  Ps skew = 0.0;
  Ps clr = 0.0;
  Ps max_latency = 0.0;
  Ff cap = 0.0;
  long sim_runs = 0;  ///< cumulative evaluation count at snapshot time
  double seconds = 0.0;
};

/// Cost accounting of one executed pass (cts/pipeline.h): where the flow's
/// wall time, CPU time and simulation budget actually went.  The
/// WorkCounters are the work this pass spent.
struct PassTiming : WorkCounters {
  std::string name;  ///< unique stage name, e.g. "INSERT", "TWSZ", "TWSZ#2"
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  ///< thread CPU time of the pass
};

/// Full result of one Contango run.  The WorkCounters are the work of the
/// whole flow (Table V reports sim_runs and its full/incremental split).
struct FlowResult : WorkCounters {
  ClockTree tree;
  EvalResult eval;
  std::vector<StageSnapshot> stages;
  ObstacleRepairReport obstacles;
  PolarityFix polarity;
  CompositeBuffer buffer{0, 1};  ///< composite selected for insertion
  double seconds = 0.0;

  /// The spec the flow actually ran (resolved_pipeline_spec of the options).
  std::string pipeline_spec;
  /// Per-pass wall/CPU time and simulation counts, in execution order.
  std::vector<PassTiming> pass_timings;

  /// Looks a stage snapshot up by name; nullptr when the stage did not run.
  /// Snapshot names are unique even when a pass repeats in the pipeline
  /// ("TWSZ", "TWSZ#2"), so the first match is the only match.
  const StageSnapshot* stage(const std::string& name) const {
    for (const StageSnapshot& s : stages) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

/// Runs the integrated Contango methodology (paper Fig. 1):
///   ZST/DME -> obstacle repair -> composite selection + fast buffer
///   insertion -> polarity correction -> [CNE] -> trunk sliding/
///   interleaving + iterative buffer sizing (TBSZ, CLR objective) ->
///   iterative top-down wiresizing (TWSZ) -> top-down wiresnaking (TWSN)
///   -> bottom-level fine-tuning (BWSN).
/// Every optimization is gated by Clock-Network Evaluation plus
/// Improvement- & Violation-Checking: a step that fails to improve its
/// objective or violates slew/capacitance is rolled back and the flow
/// moves on.
///
/// This is a thin wrapper over the pass pipeline (cts/pipeline.h): it runs
/// `Pipeline::from_options(options)` — `options.pipeline` when set, else
/// the default sequence — and produces bit-identical results to the
/// historical monolithic flow.
FlowResult run_contango(const Benchmark& bench, const FlowOptions& options = {});

}  // namespace contango
