#include "cts/pass.h"

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cts/bottomlevel.h"
#include "cts/buflib.h"
#include "cts/bufferopt.h"
#include "cts/dme.h"
#include "cts/obstacles.h"
#include "cts/pipeline.h"
#include "cts/rebalance.h"
#include "cts/vanginneken.h"
#include "cts/wiresizing.h"
#include "cts/wiresnaking.h"
#include "util/log.h"

namespace contango {

// ------------------------------------------------------------- FlowContext --

FlowContext::FlowContext(const Benchmark& bench_in, const FlowOptions& options_in)
    : bench(bench_in),
      options(options_in),
      eval(bench_in, options_in.eval),
      unit_(best_unit_composite(bench_in.tech)),
      unit_slew_cap_(
          slew_free_cap(bench_in.tech, unit_, BufferInsertionOptions{}.slew_margin)),
      incremental_(eval) {}

EvalResult FlowContext::evaluate_tree() {
  // `tree` is a member object, so its address is stable across the moves
  // the construction passes and try_accept perform on its *contents*;
  // wholesale content replacements invalidate through note_tree_mutated()/
  // restore_saved().
  if (incremental_.bound_tree() != &tree) incremental_.bind(tree);
  return incremental_.evaluate();
}

TreeEditSession FlowContext::edit_session() {
  if (incremental_.bound_tree() != &tree) incremental_.bind(tree);
  return TreeEditSession(tree, &incremental_.netlist());
}

void FlowContext::note_tree_mutated() {
  if (incremental_.bound()) incremental_.invalidate_all();
}

void FlowContext::restore_saved(ClockTree&& saved_tree,
                                const EvalResult& saved_eval) {
  tree = std::move(saved_tree);
  current_ = saved_eval;
  note_tree_mutated();
}

void FlowContext::require_tree(const char* who) const {
  if (tree.size() > 0) return;
  throw PipelineError(std::string(who) +
                      " needs a clock tree, but no tree-building pass ran "
                      "before it — start the pipeline spec with e.g. "
                      "'dme,repair,insert,polarity'");
}

void FlowContext::ensure_initial() {
  if (has_current_) return;
  require_tree("clock-network evaluation");
  current_ = evaluate_tree();
  has_current_ = true;
  snapshot(unique_stage_name("INITIAL"));
}

void FlowContext::snapshot(const std::string& name) {
  result.stages.push_back(StageSnapshot{name, current_.nominal_skew,
                                        current_.clr, current_.max_latency,
                                        current_.total_cap, eval.counters().sim_runs,
                                        timer_.seconds()});
  Log::info("contango[%s] %s: skew %.3f ps, CLR %.3f ps, cap %.1f fF, %ld sims",
            bench.name.c_str(), name.c_str(), current_.nominal_skew,
            current_.clr, current_.total_cap, eval.counters().sim_runs);
}

std::string FlowContext::unique_stage_name(const std::string& base) {
  const int count = ++stage_name_counts_[base];
  if (count == 1) return base;
  return base + "#" + std::to_string(count);
}

bool FlowContext::violation_ok(const EvalResult& candidate,
                               const EvalResult& incumbent) {
  const bool slew_ok = !candidate.slew_violation ||
                       candidate.worst_slew <= incumbent.worst_slew + 1e-6;
  const bool cap_ok = !candidate.cap_violation ||
                      candidate.total_cap <= incumbent.total_cap + 1e-6;
  // Generalized violation vector: under a non-trivial constraint block a
  // candidate must keep every sink window and inter-domain bound no worse
  // than the incumbent's.  Identically 0 <= 0 for trivial blocks, so the
  // legacy gate is unchanged.
  const bool constraints_ok =
      candidate.constraints_met() ||
      candidate.constraint_violation() <=
          incumbent.constraint_violation() + 1e-6;
  return slew_ok && cap_ok && constraints_ok;
}

bool FlowContext::try_accept(ClockTree&& candidate, PassObjective objective) {
  const EvalResult r = eval.evaluate(candidate);
  const bool improves = objective == PassObjective::kClr
                            ? r.clr < current_.clr
                            : r.nominal_skew < current_.nominal_skew;
  if (improves && violation_ok(r, current_)) {
    tree = std::move(candidate);
    current_ = r;
    note_tree_mutated();  // wholesale replacement: rebuild, don't diff
    return true;
  }
  return false;
}

bool FlowContext::try_accept(TreeEditSession& session, PassObjective objective) {
  const EvalResult r = evaluate_tree();
  const bool improves = objective == PassObjective::kClr
                            ? r.clr < current_.clr
                            : r.nominal_skew < current_.nominal_skew;
  if (improves && violation_ok(r, current_)) {
    session.commit();
    current_ = r;
    return true;
  }
  session.rollback();  // O(dirty): undo the journal, re-mark the stages
  return false;
}

void FlowContext::refine(
    int max_rounds, PassObjective objective,
    const std::function<int(TreeEditSession&, const EdgeSlacks&, double)>&
        round_fn) {
  double scale = 1.0;
  int rejects = 0;
  for (int round = 0; round < max_rounds && rejects < 5; ++round) {
    // Slacks against the benchmark's constraint block: per-domain extrema
    // and window caps when non-trivial, Definition 1 otherwise.
    SlackOptions slack_options;
    slack_options.constraints = &bench.constraints;
    const EdgeSlacks slacks = compute_edge_slacks(tree, current_, slack_options);
    // SaveSolution as an edit journal: the round edits the incumbent in
    // place; a rejected round rolls the journal back instead of restoring
    // a whole-tree copy.
    TreeEditSession session = edit_session();
    if (round_fn(session, slacks, scale) == 0) break;
    if (try_accept(session, objective)) {
      rejects = 0;
    } else {
      ++rejects;     // keep the saved solution,
      scale *= 0.4;  // take a smaller bite next time
    }
  }
}

// -------------------------------------------------------------------- Pass --

Pass::~Pass() = default;

void Pass::set_param(const std::string& key, const std::string& value) {
  (void)value;
  throw PipelineError("pass '" + std::string(name()) +
                      "' has no parameter '" + key + "'");
}

namespace {

// ----------------------------------------------------- parameter plumbing --

long parse_long_param(const Pass& pass, const std::string& key,
                      const std::string& value) {
  try {
    std::size_t pos = 0;
    const long parsed = std::stol(value, &pos, 10);
    if (pos == value.size()) return parsed;
  } catch (const std::exception&) {
  }
  throw PipelineError("pass '" + std::string(pass.name()) + "': parameter '" +
                      key + "=" + value + "' is not a valid integer");
}

double parse_double_param(const Pass& pass, const std::string& key,
                          const std::string& value) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(value, &pos);
    // std::stod also parses "nan" and "inf"; no parameter means either.
    if (pos == value.size() && std::isfinite(parsed)) return parsed;
  } catch (const std::exception&) {
  }
  throw PipelineError("pass '" + std::string(pass.name()) + "': parameter '" +
                      key + "=" + value + "' is not a valid finite number");
}

/// Smallest-input-cap library cell, used for polarity-correcting inverters.
CompositeBuffer smallest_inverter(const Technology& tech) {
  int best = 0;
  for (int i = 1; i < static_cast<int>(tech.inverters.size()); ++i) {
    if (tech.inverters[static_cast<std::size_t>(i)].input_cap <
        tech.inverters[static_cast<std::size_t>(best)].input_cap) {
      best = i;
    }
  }
  return CompositeBuffer{best, 1};
}

// ------------------------------------------------------ construction passes --

/// Initial tree: ZST/DME (paper Fig. 1 step 1).
class DmePass : public Pass {
 public:
  const char* name() const override { return "dme"; }
  const char* display_name() const override { return "DME"; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "balance") {
      if (value == "pathlength") {
        balance_ = DmeBalance::kPathLength;
      } else if (value == "elmore") {
        balance_ = DmeBalance::kElmore;
      } else {
        throw PipelineError(
            "pass 'dme': parameter 'balance=" + value +
            "' must be 'pathlength' or 'elmore'");
      }
    } else if (key == "wire_width") {
      wire_width_ = parse_long_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    DmeOptions dme;
    if (balance_) dme.balance = *balance_;
    if (wire_width_) {
      // The wire library is the benchmark's, so the range check waits
      // until the pass runs.
      const long widths = static_cast<long>(ctx.bench.tech.wires.size());
      if (*wire_width_ < 0 || *wire_width_ >= widths) {
        throw PipelineError("pass 'dme': parameter 'wire_width=" +
                            std::to_string(*wire_width_) + "' must be in [0, " +
                            std::to_string(widths) +
                            "), the benchmark's wire-library size");
      }
      dme.wire_width = static_cast<int>(*wire_width_);
    }
    ctx.tree = build_zst(ctx.bench, dme);
  }

 private:
  std::optional<DmeBalance> balance_;
  std::optional<long> wire_width_;
};

/// Obstacle legalization + post-detour rebalance (paper section IV-A).
class RepairPass : public Pass {
 public:
  const char* name() const override { return "repair"; }
  const char* display_name() const override { return "REPAIR"; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "max_crossing") {
      max_crossing_ = parse_double_param(*this, key, value);
    } else if (key == "cap_factor") {
      cap_factor_ = parse_double_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    ctx.require_tree("pass 'repair'");
    ObstacleRepairOptions repair;
    repair.slew_free_cap = ctx.unit_slew_cap();
    if (max_crossing_) repair.max_crossing_um = *max_crossing_;
    if (cap_factor_) repair.crossing_cap_factor = *cap_factor_;
    ctx.result.obstacles = repair_obstacles(ctx.tree, ctx.bench, repair);
    // Detours unbalance the tree; restore electrical-length balance before
    // any buffers go in (analytic, no simulation; buffered path delay
    // tracks electrical length).
    rebalance_pathlength(ctx.tree);
  }

 private:
  std::optional<Um> max_crossing_;
  std::optional<double> cap_factor_;
};

/// Composite selection + fast buffer insertion (paper section IV-C): try
/// successively stronger composites; keep the strongest whose total
/// capacitance stays within (1 - gamma) of the budget and whose evaluation
/// is slew-clean.
class InsertPass : public Pass {
 public:
  const char* name() const override { return "insert"; }
  const char* display_name() const override { return "INSERT"; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "max_ladder") {
      const long ladder = parse_long_param(*this, key, value);
      if (ladder < 1) {
        throw PipelineError("pass 'insert': parameter 'max_ladder=" + value +
                            "' must be >= 1");
      }
      max_ladder_ = static_cast<int>(ladder);
    } else if (key == "reserve") {
      reserve_ = parse_double_param(*this, key, value);
    } else if (key == "spacing") {
      const double spacing = parse_double_param(*this, key, value);
      // The candidate walk steps by the spacing: 0 never advances and a
      // negative step never ends.
      if (!(spacing > 0.0)) {
        throw PipelineError("pass 'insert': parameter 'spacing=" + value +
                            "' must be > 0");
      }
      insertion_.spacing = spacing;
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    ctx.require_tree("pass 'insert'");
    const CompositeBuffer unit = ctx.unit();

    std::vector<Ff> sink_caps;
    for (const Sink& s : ctx.bench.sinks) sink_caps.push_back(s.cap);
    const Ff cap_budget =
        ctx.bench.tech.cap_limit > 0.0
            ? (1.0 - reserve_) * ctx.bench.tech.cap_limit
            : std::numeric_limits<double>::max();

    ClockTree buffered;
    bool have_candidate = false;
    for (int k = 1; k <= max_ladder_; ++k) {
      const CompositeBuffer composite{unit.inverter_type, unit.count * k};
      ClockTree candidate = ctx.tree;
      insert_buffers(candidate, ctx.bench, composite, insertion_);
      // Van Ginneken spares buffers on fast paths; topping those paths up
      // to the common depth slows exactly the fast sinks and keeps
      // per-path supply sensitivity uniform.
      equalize_stage_counts(candidate, ctx.bench, composite);
      const Ff cap = candidate.total_cap(ctx.bench.tech, sink_caps);
      if (have_candidate && cap > cap_budget) break;  // stronger only costs more
      const EvalResult r = ctx.eval.evaluate(candidate);
      const bool fits = cap <= cap_budget && !r.slew_violation;
      if (!have_candidate || fits) {
        buffered = std::move(candidate);
        ctx.result.buffer = composite;
        have_candidate = true;
      }
      if (cap > cap_budget) break;
    }
    ctx.tree = std::move(buffered);
  }

 private:
  /// Strongest composite tried is unit x max_ladder (the paper's "batches
  /// of 16x, 24x, etc.").
  int max_ladder_ = 8;
  /// Power/capacitance reserve gamma: buffer selection stays within
  /// (1 - gamma) of the capacitance budget (paper: gamma = 10%).
  double reserve_ = 0.10;
  BufferInsertionOptions insertion_;  ///< `spacing` is settable
};

/// Sink polarity correction (paper section IV-D).
class PolarityPass : public Pass {
 public:
  const char* name() const override { return "polarity"; }
  const char* display_name() const override { return "POLARITY"; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "offset") {
      offset_ = parse_double_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    ctx.require_tree("pass 'polarity'");
    const CompositeBuffer inverter = smallest_inverter(ctx.bench.tech);
    ctx.result.polarity =
        offset_ ? correct_polarity(ctx.tree, ctx.bench, inverter, *offset_)
                : correct_polarity(ctx.tree, ctx.bench, inverter);
  }

 private:
  std::optional<Um> offset_;
};

// ------------------------------------------------------ optimization passes --

/// TBSZ: trunk sliding/interleaving + iterative buffer sizing (paper
/// sections IV-H, IV-I; CLR objective).
class TbszPass : public Pass {
 public:
  const char* name() const override { return "tbsz"; }
  const char* display_name() const override { return "TBSZ"; }
  PassObjective objective() const override { return PassObjective::kClr; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "iters") {
      iters_ = static_cast<int>(parse_long_param(*this, key, value));
    } else if (key == "levels") {
      levels_ = static_cast<int>(parse_long_param(*this, key, value));
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    const Ff unit_slew_cap = ctx.unit_slew_cap();
    const Um max_spacing =
        0.8 * unit_slew_cap / ctx.bench.tech.wires.back().c_per_um;

    {
      // Trunk sliding/interleaving rewrites the tree structurally
      // (buffers are spliced out and re-inserted): still a whole-tree
      // candidate.
      ClockTree candidate = ctx.tree;
      slide_and_interleave_trunk(candidate, ctx.bench, ctx.result.buffer,
                                 max_spacing);
      ctx.try_accept(std::move(candidate), PassObjective::kClr);
    }
    for (int i = 1; i <= iters_; ++i) {
      const double fraction = 1.0 / (i + 3);
      // Buffer resizes are pure edit deltas: only the resized buffers'
      // stages re-simulate, and a rejected iteration rolls back O(dirty).
      TreeEditSession session = ctx.edit_session();
      if (upsize_trunk_buffers(session, fraction) == 0) break;
      if (!ctx.try_accept(session, PassObjective::kClr)) {
        break;  // IVC fail: rollback and stop sizing
      }
    }
    {
      // Branch sizing pays for itself by borrowing bottom-level cap.
      TreeEditSession session = ctx.edit_session();
      upsize_branch_buffers(session, levels_, 0.25);
      downsize_bottom_buffers(session, 1);
      ctx.try_accept(session, PassObjective::kClr);
    }
  }

 private:
  int iters_ = 5;   ///< sizing schedule length (p_i = 1/(i+3))
  int levels_ = 4;  ///< levels sized by capacitance borrowing
};

/// TWSZ: iterative top-down wiresizing (paper section IV-E).
class TwszPass : public Pass {
 public:
  const char* name() const override { return "twsz"; }
  const char* display_name() const override { return "TWSZ"; }
  PassObjective objective() const override { return PassObjective::kSkew; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "rounds") {
      rounds_ = static_cast<int>(parse_long_param(*this, key, value));
    } else if (key == "safety") {
      safety_ = parse_double_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    WireSizingParams params;
    params.tws_per_um = calibrate_tws(ctx.tree, ctx.eval, ctx.current());
    if (safety_) params.safety = *safety_;
    const double base_safety = params.safety;
    ctx.refine(rounds_, PassObjective::kSkew,
               [&](TreeEditSession& session, const EdgeSlacks& slacks,
                   double scale) {
                 params.safety = base_safety * scale;
                 return wiresizing_round(session, slacks, params);
               });
  }

 private:
  int rounds_ = 10;
  std::optional<double> safety_;
};

/// TWSN: iterative top-down wiresnaking (paper section IV-F).
class TwsnPass : public Pass {
 public:
  const char* name() const override { return "twsn"; }
  const char* display_name() const override { return "TWSN"; }
  PassObjective objective() const override { return PassObjective::kSkew; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "rounds") {
      rounds_ = static_cast<int>(parse_long_param(*this, key, value));
    } else if (key == "unit") {
      unit_ = parse_double_param(*this, key, value);
    } else if (key == "safety") {
      safety_ = parse_double_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    WireSnakingParams params;
    params.unit = unit_;
    params.twn_per_unit =
        calibrate_twn(ctx.tree, ctx.eval, ctx.current(), params.unit);
    if (safety_) params.safety = *safety_;
    const double base_safety = params.safety;
    ctx.refine(rounds_, PassObjective::kSkew,
               [&](TreeEditSession& session, const EdgeSlacks& slacks,
                   double scale) {
                 params.safety = base_safety * scale;
                 return wiresnaking_round(session, slacks, params);
               });
  }

 private:
  int rounds_ = 14;
  Um unit_ = 20.0;  ///< l_wn, the snaking step
  std::optional<double> safety_;
};

/// BWSN: bottom-level fine-tuning (paper section IV-G).
class BwsnPass : public Pass {
 public:
  const char* name() const override { return "bwsn"; }
  const char* display_name() const override { return "BWSN"; }
  PassObjective objective() const override { return PassObjective::kSkew; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "rounds") {
      rounds_ = static_cast<int>(parse_long_param(*this, key, value));
    } else if (key == "unit") {
      unit_ = parse_double_param(*this, key, value);
    } else if (key == "safety") {
      safety_ = parse_double_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    BottomLevelParams params;
    params.unit = unit_;
    params.twn_per_unit =
        calibrate_bottom_twn(ctx.tree, ctx.eval, ctx.current(), params.unit);
    if (safety_) params.safety = *safety_;
    const double base_safety = params.safety;
    ctx.refine(rounds_, PassObjective::kSkew,
               [&](TreeEditSession& session, const EdgeSlacks& slacks,
                   double scale) {
                 params.safety = base_safety * scale;
                 return bottom_level_round(session, slacks, params);
               });
  }

 private:
  int rounds_ = 10;
  Um unit_ = 5.0;  ///< l_wn, the fine-tuning step
  std::optional<double> safety_;
};

}  // namespace

void register_builtin_passes(PassRegistry& registry) {
  registry.add("dme", [] { return std::make_unique<DmePass>(); });
  registry.add("repair", [] { return std::make_unique<RepairPass>(); });
  registry.add("insert", [] { return std::make_unique<InsertPass>(); });
  registry.add("polarity", [] { return std::make_unique<PolarityPass>(); });
  registry.add("tbsz", [] { return std::make_unique<TbszPass>(); });
  registry.add("twsz", [] { return std::make_unique<TwszPass>(); });
  registry.add("twsn", [] { return std::make_unique<TwsnPass>(); });
  registry.add("bwsn", [] { return std::make_unique<BwsnPass>(); });
}

}  // namespace contango
