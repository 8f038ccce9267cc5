#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/elmore.h"
#include "analysis/transient.h"
#include "netlist/benchmark.h"
#include "rctree/clocktree.h"
#include "rctree/extract.h"

namespace contango {

/// Transition direction at the clock source.
enum class Transition : int { kRise = 0, kFall = 1 };
inline constexpr int kNumTransitions = 2;

/// Latency and slew of one sink for one (corner, source transition) pair.
struct SinkTiming {
  Ps latency = 0.0;
  Ps slew = 0.0;
  bool reached = false;  ///< false if the sink is missing from the tree
};

/// Timing of the full network at one supply corner.
struct CornerTiming {
  Volt vdd = 0.0;
  /// sinks[transition][sink_index]
  std::array<std::vector<SinkTiming>, kNumTransitions> sinks;
  Ps max_slew = 0.0;  ///< worst 10-90% slew at any tap (sinks + buffer inputs)

  Ps max_latency() const;
  Ps min_latency() const;
  /// Worst skew over transitions: max over t of (max - min latency).
  Ps skew() const;
};

/// Result of one Clock-Network Evaluation (CNE) pass.
struct EvalResult {
  std::vector<CornerTiming> corners;  ///< same order as Technology::corners

  Ps nominal_skew = 0.0;  ///< corner 0 skew (the contest's "skew")
  Ps clr = 0.0;           ///< max latency @ low corner - min latency @ nominal
  Ps max_latency = 0.0;   ///< nominal corner
  Ps worst_slew = 0.0;    ///< across all corners
  Ff total_cap = 0.0;
  bool slew_violation = false;
  bool cap_violation = false;
  bool all_sinks_reached = true;

  /// Constraint metrics (netlist/constraints.h), filled only when the
  /// benchmark carries a non-trivial constraint block; all three stay at
  /// their defaults otherwise, so the legacy result is bit-identical.
  /// Per-domain skew `Tmax_d - Tmin_d` at the nominal corner, worst over
  /// transitions (the per-domain analogue of `nominal_skew`).
  std::vector<Ps> domain_skews;
  /// Worst per-sink window violation over every (corner, transition):
  /// max over sinks of `max(lo - r, r - hi, 0)` where `r` is the sink's
  /// arrival relative to the earliest reached sink.  0 = all windows hold.
  Ps worst_window_violation = 0.0;
  /// Worst inter-domain bound violation over every (corner, transition):
  /// max over bounds {a, b, B} of `max(Tmax_a - Tmin_b, Tmax_b - Tmin_a) - B`
  /// clamped at 0.  0 = all bounds hold.
  Ps worst_domain_bound_violation = 0.0;

  bool legal() const { return !slew_violation && !cap_violation && all_sinks_reached; }

  /// Worst violation of the generalized constraint vector (0 when every
  /// window and inter-domain bound holds — always 0 for trivial blocks).
  Ps constraint_violation() const {
    return worst_window_violation > worst_domain_bound_violation
               ? worst_window_violation
               : worst_domain_bound_violation;
  }
  bool constraints_met() const { return constraint_violation() <= 0.0; }
};

/// Options of the evaluation harness.
struct EvalOptions {
  ExtractOptions extract;
  TransientOptions transient;
  Ps source_input_slew = 10.0;  ///< transition time of the external clock
};

class JsonWriter;  // io/json.h

/// Reusable per-thread workspace of a CNE sweep: the kernel scratch and one
/// stage's drive and tap staging.  Only capacity carries over between
/// sweeps, never values.
struct EvalScratch {
  TransientScratch kernel;
  std::vector<BatchDrive> drives;
  std::vector<int> combos;  ///< (corner x transition) index of each drive
  std::vector<TapTiming> taps;
};

/// \brief Full Clock-Network Evaluation over an already-extracted staged
/// netlist: every (supply corner x source transition) combination, skew,
/// CLR and slew aggregation.
///
/// Runs the one CNE sweep (shared with IncrementalEvaluator) without a
/// timing cache: stages are visited once in topological order, every
/// combination's input event is resolved, and one simulate_stage_batch()
/// call covers all combinations of the stage.  Evaluator::evaluate() and
/// the Monte-Carlo engine (analysis/montecarlo.h) call it.  Capacitance
/// accounting (`total_cap`, `cap_violation`) is the caller's job — it
/// needs the ClockTree, not the staged netlist.
///
/// \param soa SoA mirror of `net` with slot i == stage i (NetlistSoa::build,
///        or a Monte-Carlo trial copy carrying perturbed values); `net`
///        still supplies the topology/driver metadata.
/// \param stage_vdd_delta optional per-stage supply offsets (volts), indexed
///        like net.stages; each corner evaluates stage i at
///        `corner + (*stage_vdd_delta)[i]`.  nullptr means every stage sits
///        exactly at the corner voltage.
/// \param scratch optional reusable workspace (per thread)
EvalResult evaluate_netlist(const StagedNetlist& net, const NetlistSoa& soa,
                            const Benchmark& bench, const TransientSimulator& sim,
                            Ps source_input_slew,
                            const std::vector<Volt>* stage_vdd_delta = nullptr,
                            EvalScratch* scratch = nullptr);

/// Derives the summary fields of `result` — worst slew, reachability,
/// skew, CLR and the constraint metrics — from its per-corner timings: the
/// aggregation tail of every CNE pass.
void aggregate_corners(EvalResult& result, const Benchmark& bench);

/// Fills `total_cap`/`cap_violation` of `result` — the capacitance half of
/// CNE that evaluate_netlist() cannot compute (it needs the ClockTree).
/// `sink_caps[i]` is the pin cap of benchmark sink i.
void account_capacitance(EvalResult& result, const ClockTree& tree,
                         const Benchmark& bench, const std::vector<Ff>& sink_caps);

/// \brief Deterministic work counters of the evaluation engine: the
/// analogue of the paper's SPICE-run budget (Table V reports those counts).
///
/// The one declaration of every counter.  Evaluator accumulates them;
/// PassTiming, FlowResult and McReport (and SuiteReport::totals()) carry a
/// snapshot, delta or sum of them.  A new counter is one field here plus
/// one line in each of operator+=, operator- and write_json().
struct WorkCounters {
  /// Clock-network evaluations ("SPICE runs").  Every run is counted once
  /// more as either a *full* evaluation (from-scratch extraction +
  /// whole-tree propagation: Evaluator::evaluate(), calibration probes,
  /// Monte-Carlo trials) or an *incremental* one (IncrementalEvaluator,
  /// re-propagated along dirty paths only), so
  /// sim_runs == full_evals + incremental_evals.
  long sim_runs = 0;
  long full_evals = 0;
  long incremental_evals = 0;
  /// Finer-grained work: (stage x corner x transition) transient stage
  /// simulations.
  long batched_stage_evals = 0;
  /// Incremental evaluations whose sweep stopped once the IVC gate's
  /// rejection was certain (IncrementalEvaluator::evaluate(const
  /// RejectBound&)).  Each is still one incremental evaluation, so
  /// early_rejects <= incremental_evals.
  long early_rejects = 0;
  /// Always 0; perfbench/ still reads it.
  static constexpr long scalar_stage_evals = 0;

  WorkCounters& operator+=(const WorkCounters& o) {
    sim_runs += o.sim_runs;
    full_evals += o.full_evals;
    incremental_evals += o.incremental_evals;
    batched_stage_evals += o.batched_stage_evals;
    early_rejects += o.early_rejects;
    return *this;
  }

  /// Writes the counters as `<key_prefix>sim_runs`, `<key_prefix>full_evals`,
  /// `<key_prefix>incremental_evals`, `<key_prefix>batched_stage_evals`,
  /// `<key_prefix>early_rejects`, in that order, into the currently open
  /// JSON object.
  void write_json(JsonWriter& w, const std::string& key_prefix = "") const;
};

/// Counter delta `after - before`, e.g. the work one pass spent.
inline WorkCounters operator-(const WorkCounters& after, const WorkCounters& before) {
  WorkCounters d;
  d.sim_runs = after.sim_runs - before.sim_runs;
  d.full_evals = after.full_evals - before.full_evals;
  d.incremental_evals = after.incremental_evals - before.incremental_evals;
  d.batched_stage_evals = after.batched_stage_evals - before.batched_stage_evals;
  d.early_rejects = after.early_rejects - before.early_rejects;
  return d;
}

/// Clock-Network Evaluation: runs the transient engine over every stage of
/// the tree for every (supply corner x source transition) combination and
/// aggregates skew, CLR, slew and capacitance checks.  Each evaluate() call
/// counts as one full simulation run (WorkCounters).
class Evaluator {
 public:
  explicit Evaluator(const Benchmark& bench, EvalOptions options = {});

  EvalResult evaluate(const ClockTree& tree);

  /// Work spent so far by evaluate() and every IncrementalEvaluator bound
  /// to this Evaluator.  Read on the evaluating thread (like evaluate(),
  /// the counters are not synchronized).
  const WorkCounters& counters() const { return counters_; }

  /// counters().batched_stage_evals; perfbench/ reads it.
  long batched_stage_evals() const { return counters_.batched_stage_evals; }
  /// Always 0; perfbench/ still reads it.
  long scalar_stage_evals() const { return WorkCounters::scalar_stage_evals; }

  const Benchmark& benchmark() const { return bench_; }
  const EvalOptions& options() const { return options_; }
  const TransientSimulator& simulator() const { return sim_; }
  const std::vector<Ff>& sink_caps() const { return sink_caps_; }

 private:
  friend class IncrementalEvaluator;

  const Benchmark& bench_;
  EvalOptions options_;
  TransientSimulator sim_;
  std::vector<Ff> sink_caps_;
  WorkCounters counters_;
  /// Reusable evaluation workspace: the SoA mirror rebuilt per evaluate()
  /// (buffers recycled) and the sweep scratch.  evaluate() is not
  /// concurrently reentrant — each suite worker owns its Evaluator.
  NetlistSoa soa_;
  EvalScratch scratch_;
};

/// One cached stage simulation of IncrementalEvaluator: a slot's tap
/// timings for one (corner x transition) combination, keyed on every input
/// of the simulation that can change between evaluations.
struct CachedTiming {
  std::uint64_t version = 0;  ///< stage contents stamp; 0 = invalid
  Transition in_dir = Transition::kRise;
  Ps in_slew = 0.0;
  std::vector<TapTiming> taps;
};

/// \brief Rejection bound of an early-decided CNE sweep: the IVC gate's
/// verdict thresholds, taken from the incumbent (cts/pass.h).
///
/// As sinks are reached the sweep keeps running bounds: per-transition
/// min/max latency at corner 0, the max latency at the last corner, and the
/// worst tap slew so far.  Over any subset of the sinks `hi - lo` can only
/// grow as more sinks arrive, and IEEE subtraction is monotone, so a
/// partial skew (or CLR, `hi_last - lo_first`) is a lower bound on the
/// final one; the running worst slew is a lower bound on `worst_slew`.  The
/// sweep stops as soon as one of them proves the candidate fails the gate.
/// Every threshold defaults to "never stop".
struct RejectBound {
  static constexpr double kNever = std::numeric_limits<double>::infinity();
  /// Stop once the partial nominal skew is >= skew (the gate needs `<`).
  Ps skew = kNever;
  /// Stop once the partial CLR is >= clr.
  Ps clr = kNever;
  /// Stop once the running worst tap slew is > slew.
  Ps slew = kNever;
  /// Stop before any stage is simulated when the candidate violates the
  /// cap limit with total_cap > cap (capacitance needs only the tree).
  Ff cap = kNever;
  /// Benchmark sinks whose root-to-sink stage paths are visited first
  /// (critical_sinks() of the incumbent); every other slot follows
  /// in topo_slots() order.  Still parent before child, so the order
  /// changes no value: each sink's latency comes from the same recurrence
  /// and the aggregation loops by sink index.
  std::vector<int> first_sinks;
};

/// The extreme-latency sinks of `incumbent`: per transition the earliest
/// and the latest sink at corner 0, and the latest sink at the last corner
/// — the sinks that set its skew and CLR, and so the ones most likely to
/// prove a worse candidate's rejection early.  Deduplicated, in that
/// order.
std::vector<int> critical_sinks(const EvalResult& incumbent);

/// \brief Incremental Clock-Network Evaluation over a persistent RcNetlist.
///
/// Binds to one evolving ClockTree and keeps three layers of state alive
/// between evaluations:
///   * the staged RC netlist itself (RcNetlist — dirty stages re-extract);
///   * per-stage Elmore sweeps (ElmoreCache — bottom-up load state);
///   * per-(stage x corner x source transition) transient tap timings —
///     the top-down delay state.
///
/// evaluate() refreshes the netlist, then runs the same CNE sweep as
/// Evaluator::evaluate() with the tap-timing cache attached: the transient
/// engine re-runs only where a stage's contents or its input (direction,
/// slew) changed; everything else reuses the cached tap timings, and only
/// the cheap arrival-time additions are redone.  A stage is re-simulated
/// exactly when any input of the simulation differs from the cached call,
/// so the result is **bit-identical** to Evaluator::evaluate() on the same
/// tree — the equivalence the IVC loops (cts/pass.h) and the fuzz tests
/// rely on.
///
/// Edits reach the engine through a TreeEditSession constructed with
/// netlist(); each evaluate() counts one simulation run (an incremental
/// one) on the owning Evaluator.
class IncrementalEvaluator {
 public:
  explicit IncrementalEvaluator(Evaluator& eval) : eval_(eval) {}

  /// (Re)binds to `tree` and schedules a full rebuild.  The tree must
  /// outlive the binding (FlowContext owns both).
  void bind(const ClockTree& tree);
  bool bound() const { return tree_ != nullptr; }
  const ClockTree* bound_tree() const { return tree_; }

  /// Dirty-tracking handle for TreeEditSession.  \pre bound()
  RcNetlist& netlist() { return net_; }

  /// Everything is stale (the bound tree changed behind our back): the
  /// next evaluate() rebuilds and re-simulates from scratch.
  void invalidate_all() { net_.mark_all_dirty(); }

  /// One CNE pass over the bound tree; see class comment.  \pre bound()
  EvalResult evaluate();

  /// \brief The same pass, stopped as soon as `bound` proves rejection.
  ///
  /// Checks the cap bound before any stage is simulated, then sweeps the
  /// slots on the paths to `bound.first_sinks` first and the rest in
  /// topo_slots() order, stopping when a running bound crosses its
  /// threshold (RejectBound).  Returns no result when the sweep stopped
  /// early, so a partial result can never be accepted; otherwise the
  /// result is bit-identical to evaluate().  Either way the call counts as
  /// one incremental evaluation, plus one early reject when it stopped.
  /// Cache entries stay keyed on their inputs, so slots the sweep never
  /// reached keep their entries and the next evaluation stays exact.
  /// \pre bound()
  std::optional<EvalResult> evaluate(const RejectBound& bound);

  /// Stage simulations spent / avoided by cache hits so far —
  /// (stage x corner x transition) units of transient work.  Reuses count
  /// only the slots a sweep visited.
  long stage_sims() const { return stage_sims_; }
  long stage_reuses() const { return stage_reuses_; }

 private:
  std::optional<EvalResult> run(const RejectBound* reject);
  /// Fills visit_order_: the slots on the root-to-sink paths of
  /// `sinks` (in that order, parents first), then every other slot
  /// in topo_slots() order.
  void order_critical_first(const std::vector<int>& sinks);

  Evaluator& eval_;
  const ClockTree* tree_ = nullptr;
  RcNetlist net_;
  ElmoreCache elmore_;
  /// timings_[slot][corner * kNumTransitions + transition]
  std::vector<std::vector<CachedTiming>> timings_;
  long stage_sims_ = 0;
  long stage_reuses_ = 0;
  EvalScratch scratch_;
  std::vector<int> visit_order_;  ///< order_critical_first() output
  std::vector<int> parent_;       ///< order_critical_first() workspace
};

/// Effective driver resistance for a stage driver: applies supply-corner
/// scaling and rise/fall asymmetry to the nominal output resistance.
KOhm effective_driver_res(KOhm nominal, const Technology& tech, Volt vdd,
                          Transition output_transition);

/// Effective intrinsic delay under supply scaling.
Ps effective_intrinsic(Ps nominal, const Technology& tech, Volt vdd);

}  // namespace contango
