#include "analysis/evaluate.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "io/json.h"

namespace contango {

Ps CornerTiming::max_latency() const {
  Ps best = -std::numeric_limits<double>::max();
  for (const auto& per_transition : sinks) {
    for (const SinkTiming& s : per_transition) {
      if (s.reached) best = std::max(best, s.latency);
    }
  }
  return best;
}

Ps CornerTiming::min_latency() const {
  Ps best = std::numeric_limits<double>::max();
  for (const auto& per_transition : sinks) {
    for (const SinkTiming& s : per_transition) {
      if (s.reached) best = std::min(best, s.latency);
    }
  }
  return best;
}

Ps CornerTiming::skew() const {
  Ps worst = 0.0;
  for (const auto& per_transition : sinks) {
    Ps lo = std::numeric_limits<double>::max();
    Ps hi = -std::numeric_limits<double>::max();
    bool any = false;
    for (const SinkTiming& s : per_transition) {
      if (!s.reached) continue;
      lo = std::min(lo, s.latency);
      hi = std::max(hi, s.latency);
      any = true;
    }
    if (any) worst = std::max(worst, hi - lo);
  }
  return worst;
}

namespace {

/// \name The CNE sweep
/// Event recurrence, driver view, tap fan-out and aggregation of the one
/// propagation sweep behind evaluate_netlist() and IncrementalEvaluator.
/// @{

/// Event at a stage driver's input.
struct StageEvent {
  Ps time = 0.0;
  Ps slew = 0.0;
  Transition dir = Transition::kRise;  ///< direction at the driver input
};

/// The clock source is non-inverting; composite buffers invert.
Transition stage_output_dir(const Stage& stage, Transition in_dir) {
  if (!stage.driver_inverts) return in_dir;
  return (in_dir == Transition::kRise) ? Transition::kFall : Transition::kRise;
}

/// Effective driver view of `stage` under supply `vdd` driving `out_dir`.
struct DriverView {
  KOhm r_drv = 0.0;
  Ps intrinsic = 0.0;
};

DriverView stage_driver_view(const Stage& stage, const Technology& tech,
                             Volt vdd, Transition out_dir) {
  return DriverView{
      effective_driver_res(stage.driver_res_nom, tech, vdd, out_dir),
      effective_intrinsic(stage.driver_intrinsic_nom, tech, vdd)};
}

/// Fans one stage's tap timings out: sink taps land in `corner` (source
/// transition `t`), buffer taps pair with the stage's downstream entries
/// in order and hand the child its input event through
/// `schedule(child, event)`.  `taps` points at stage.taps.size() entries —
/// a row of a batched result or a cache entry's data().
template <typename ScheduleFn>
void fan_out_taps(const Stage& stage, const StageEvent& ev, Transition out_dir,
                  const TapTiming* taps, CornerTiming& corner,
                  int t, ScheduleFn&& schedule) {
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

/// Constraint half of the aggregation: per-domain skews, window and
/// inter-domain bound violations.  A trivial block returns immediately, so
/// legacy benchmarks pay nothing and their results stay bit-identical.
/// Violations are evaluated at every (corner, transition) — a constraint
/// holds only if it holds everywhere — while the reported per-domain skews
/// use the nominal corner, mirroring `nominal_skew`.
void aggregate_constraints(EvalResult& result, const Benchmark& bench) {
  const TimingConstraints& cons = bench.constraints;
  if (cons.trivial()) return;

  const std::size_t num_domains = cons.num_domains();
  constexpr Ps kInf = std::numeric_limits<Ps>::infinity();
  result.domain_skews.assign(num_domains, 0.0);
  std::vector<Ps> lo(num_domains), hi(num_domains);

  for (std::size_t c = 0; c < result.corners.size(); ++c) {
    const CornerTiming& corner = result.corners[c];
    for (int t = 0; t < kNumTransitions; ++t) {
      const std::vector<SinkTiming>& sinks =
          corner.sinks[static_cast<std::size_t>(t)];
      std::fill(lo.begin(), lo.end(), kInf);
      std::fill(hi.begin(), hi.end(), -kInf);
      Ps global_lo = kInf;
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        if (!sinks[s].reached) continue;
        const std::uint32_t d = cons.domain_of(s);
        lo[d] = std::min(lo[d], sinks[s].latency);
        hi[d] = std::max(hi[d], sinks[s].latency);
        global_lo = std::min(global_lo, sinks[s].latency);
      }
      if (global_lo == kInf) continue;  // nothing reached in this combo

      if (c == 0) {
        for (std::size_t d = 0; d < num_domains; ++d) {
          if (hi[d] >= lo[d]) {
            result.domain_skews[d] =
                std::max(result.domain_skews[d], hi[d] - lo[d]);
          }
        }
      }

      if (!cons.sink_windows.empty()) {
        for (std::size_t s = 0; s < sinks.size(); ++s) {
          if (!sinks[s].reached) continue;
          const ArrivalWindow w = cons.window_of(s);
          if (w.unbounded()) continue;
          // Windows constrain the arrival relative to the earliest reached
          // sink: shift-invariant, since synthesis moves insertion delay
          // wholesale.
          const Ps r = sinks[s].latency - global_lo;
          const Ps v = std::max(w.lo - r, r - w.hi);
          if (v > result.worst_window_violation) {
            result.worst_window_violation = v;
          }
        }
      }

      for (const DomainBound& b : cons.domain_bounds) {
        if (hi[b.a] < lo[b.a] || hi[b.b] < lo[b.b]) continue;  // empty domain
        const Ps spread = std::max(hi[b.a] - lo[b.b], hi[b.b] - lo[b.a]);
        const Ps v = spread - b.bound;
        if (v > result.worst_domain_bound_violation) {
          result.worst_domain_bound_violation = v;
        }
      }
    }
  }
}

/// Running lower bounds of a bounded sweep (RejectBound) over the sinks
/// reached so far.
class PartialBounds {
 public:
  /// Folds the sinks whose taps `stage` just fanned out into the bounds.
  void reach(const Stage& stage, const EvalResult& result) {
    const CornerTiming& first = result.corners.front();
    const CornerTiming& last = result.corners.back();
    for (const Tap& tap : stage.taps) {
      if (!tap.is_sink) continue;
      const auto i = static_cast<std::size_t>(tap.sink_index);
      for (std::size_t t = 0; t < kNumTransitions; ++t) {
        lo0_[t] = std::min(lo0_[t], first.sinks[t][i].latency);
        hi0_[t] = std::max(hi0_[t], first.sinks[t][i].latency);
        hi_last_ = std::max(hi_last_, last.sinks[t][i].latency);
      }
    }
  }

  /// True once the bounds prove the gate rejects the candidate.
  bool rejects(const RejectBound& bound, const EvalResult& result) const {
    Ps slew = 0.0;
    for (const CornerTiming& corner : result.corners) {
      slew = std::max(slew, corner.max_slew);
    }
    if (slew > bound.slew) return true;
    // Every combination reaches the same sinks, so transition 0 at corner
    // 0 tells whether any sink was reached yet.
    if (hi0_[0] < lo0_[0]) return false;
    const Ps skew = std::max(hi0_[0] - lo0_[0], hi0_[1] - lo0_[1]);
    const Ps clr = result.corners.size() >= 2
                       ? hi_last_ - std::min(lo0_[0], lo0_[1])
                       : skew;
    return skew >= bound.skew || clr >= bound.clr;
  }

 private:
  static constexpr Ps kInf = std::numeric_limits<Ps>::infinity();
  std::array<Ps, kNumTransitions> lo0_{kInf, kInf};    ///< corner 0
  std::array<Ps, kNumTransitions> hi0_{-kInf, -kInf};  ///< corner 0
  Ps hi_last_ = -kInf;  ///< last corner, either transition
};

/// What one sweep did.
struct SweepOutcome {
  long simulated = 0;       ///< stage simulations run
  std::size_t visited = 0;  ///< slots visited
  bool stopped = false;     ///< a RejectBound proved rejection
};

/// Optional timing cache of a sweep — IncrementalEvaluator's state.
struct SweepCache {
  const RcNetlist& net;  ///< slot versions
  ElmoreCache& elmore;   ///< borrowed Elmore sweeps
  std::vector<std::vector<CachedTiming>>& timings;  ///< [slot][combo]
};

/// The one CNE propagation sweep.  Slots are visited once, parent before
/// child (`order`, or 0, 1, ..., slot_count - 1 when null), with one
/// propagation front per (corner x transition) combination: combo
/// c = corner * kNumTransitions + transition owns the slice
/// [c * slot_count, (c + 1) * slot_count) of `events`/`scheduled`.  At
/// each slot every combo's input event is final (its parent came first),
/// so the combos that need a simulation are gathered into one
/// simulate_stage_batch() call over the slot's SoA slice.  Each combo's
/// event recurrence and order of additions along every root-to-sink path
/// is that of a one-combo-at-a-time walk, so the combo order inside a slot
/// changes no value.
///
/// Without `cache` every combo is simulated.  With it, a combo reuses its
/// cache entry exactly when every input of the simulation matches the
/// cached call — same stage contents (version), same input direction
/// (fixes r_drv via out_dir), bit-equal input slew; corner and transition
/// are the entry's index.  A cached sweep takes no `stage_vdd_delta`.
///
/// With `bound` the sweep checks the running bounds after every slot and
/// stops once they prove rejection (RejectBound), leaving `result`
/// partial and unaggregated.
template <typename StageOf>
SweepOutcome sweep(const Benchmark& bench, const TransientSimulator& sim,
                   Ps source_input_slew, std::size_t slot_count,
                   const std::vector<int>* order, StageOf stage_of,
                   const NetlistSoa& soa, const std::vector<Volt>* stage_vdd_delta,
                   const SweepCache* cache, const RejectBound* bound,
                   EvalScratch& scratch, EvalResult& result) {
  const std::size_t nc = bench.tech.corners.size();
  const std::size_t combos = nc * kNumTransitions;
  const std::size_t num_visits = order ? order->size() : slot_count;

  result.corners.resize(nc);
  for (std::size_t ci = 0; ci < nc; ++ci) {
    result.corners[ci].vdd = bench.tech.corners[ci];
    for (auto& per_transition : result.corners[ci].sinks) {
      per_transition.assign(bench.sinks.size(), SinkTiming{});
    }
  }

  std::vector<StageEvent> events(combos * slot_count);
  std::vector<char> scheduled(combos * slot_count, 0);
  if (num_visits > 0) {
    const auto root = static_cast<std::size_t>(order ? order->front() : 0);
    for (std::size_t c = 0; c < combos; ++c) {
      events[c * slot_count + root] =
          StageEvent{0.0, source_input_slew,
                     static_cast<Transition>(c % kNumTransitions)};
      scheduled[c * slot_count + root] = 1;
    }
  }
  if (cache && cache->timings.size() < slot_count) {
    cache->timings.resize(slot_count);
  }

  SweepOutcome outcome;
  PartialBounds partial;
  for (std::size_t i = 0; i < num_visits; ++i) {
    const int slot = order ? (*order)[i] : static_cast<int>(i);
    const auto s = static_cast<std::size_t>(slot);
    const Stage& stage = stage_of(slot);
    const std::size_t nt = stage.taps.size();

    std::vector<CachedTiming>* entries = nullptr;
    std::uint64_t version = 0;
    if (cache) {
      entries = &cache->timings[s];
      if (entries->size() != combos) entries->assign(combos, CachedTiming{});
      version = cache->net.version(slot);
    }

    scratch.drives.clear();
    scratch.combos.clear();
    for (std::size_t ci = 0; ci < nc; ++ci) {
      const Volt vdd = bench.tech.corners[ci];
      for (int t = 0; t < kNumTransitions; ++t) {
        const std::size_t c = ci * kNumTransitions + static_cast<std::size_t>(t);
        // The stage graph must hand every slot its event before the slot
        // is processed — an ordering bug must throw, not return plausible
        // timings from a zero event.
        if (!scheduled[c * slot_count + s]) {
          throw std::logic_error("CNE sweep: stage scheduled out of order");
        }
        const StageEvent& ev = events[c * slot_count + s];
        if (cache) {
          CachedTiming& entry = (*entries)[c];
          if (entry.version == version && entry.in_dir == ev.dir &&
              entry.in_slew == ev.slew) {
            continue;
          }
          entry.version = version;
          entry.in_dir = ev.dir;
          entry.in_slew = ev.slew;
        }
        const Transition out_dir = stage_output_dir(stage, ev.dir);
        const Volt vdd_stage = stage_vdd_delta ? vdd + (*stage_vdd_delta)[s] : vdd;
        const DriverView drv =
            stage_driver_view(stage, bench.tech, vdd_stage, out_dir);
        scratch.drives.push_back(BatchDrive{drv.r_drv, drv.intrinsic, ev.slew});
        scratch.combos.push_back(static_cast<int>(c));
      }
    }

    const std::size_t runs = scratch.drives.size();
    if (runs > 0) {
      ElmoreView borrowed;
      if (cache) {
        const ElmoreStage& elm = cache->elmore.get(slot, version, stage);
        borrowed = ElmoreView{elm.tau_data(), elm.total_cap()};
      }
      scratch.taps.resize(runs * nt);
      sim.simulate_stage_batch(soa.view(slot), scratch.drives.data(), runs,
                               scratch.taps.data(), scratch.kernel,
                               cache ? &borrowed : nullptr);
      if (cache) {
        for (std::size_t m = 0; m < runs; ++m) {
          const auto row = scratch.taps.begin() + static_cast<std::ptrdiff_t>(m * nt);
          (*entries)[static_cast<std::size_t>(scratch.combos[m])].taps.assign(
              row, row + static_cast<std::ptrdiff_t>(nt));
        }
      }
      outcome.simulated += static_cast<long>(runs);
    }

    for (std::size_t ci = 0; ci < nc; ++ci) {
      for (int t = 0; t < kNumTransitions; ++t) {
        const std::size_t c = ci * kNumTransitions + static_cast<std::size_t>(t);
        const StageEvent ev = events[c * slot_count + s];
        // Uncached, every combo ran and row c of the batch is combo c.
        const TapTiming* taps = cache ? (*entries)[c].taps.data()
                                      : scratch.taps.data() + c * nt;
        fan_out_taps(stage, ev, stage_output_dir(stage, ev.dir), taps,
                     result.corners[ci], t, [&](int child, const StageEvent& e) {
                       events[c * slot_count + static_cast<std::size_t>(child)] = e;
                       scheduled[c * slot_count + static_cast<std::size_t>(child)] = 1;
                     });
      }
    }

    ++outcome.visited;
    if (bound) {
      partial.reach(stage, result);
      if (partial.rejects(*bound, result)) {
        outcome.stopped = true;
        return outcome;
      }
    }
  }

  aggregate_corners(result, bench);
  return outcome;
}

/// @}

/// The reached sink of `corner` with the least (`latest` false) or the
/// greatest latency over transitions [t_begin, t_end); -1 when none is
/// reached.  The first one found wins ties.
int extreme_sink(const CornerTiming& corner, int t_begin, int t_end, bool latest) {
  int best = -1;
  Ps best_latency = 0.0;
  for (int t = t_begin; t < t_end; ++t) {
    const std::vector<SinkTiming>& timings = corner.sinks[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < timings.size(); ++i) {
      if (!timings[i].reached) continue;
      const Ps latency = timings[i].latency;
      if (best < 0 || (latest ? latency > best_latency : latency < best_latency)) {
        best = static_cast<int>(i);
        best_latency = latency;
      }
    }
  }
  return best;
}

}  // namespace

std::vector<int> critical_sinks(const EvalResult& incumbent) {
  std::vector<int> sinks;
  const auto add = [&](int s) {
    if (s >= 0 && std::find(sinks.begin(), sinks.end(), s) == sinks.end()) {
      sinks.push_back(s);
    }
  };
  if (incumbent.corners.empty()) return sinks;
  for (int t = 0; t < kNumTransitions; ++t) {
    add(extreme_sink(incumbent.corners.front(), t, t + 1, false));
    add(extreme_sink(incumbent.corners.front(), t, t + 1, true));
  }
  if (incumbent.corners.size() >= 2) {
    add(extreme_sink(incumbent.corners.back(), 0, kNumTransitions, true));
  }
  return sinks;
}

void aggregate_corners(EvalResult& result, const Benchmark& bench) {
  for (const CornerTiming& corner : result.corners) {
    result.worst_slew = std::max(result.worst_slew, corner.max_slew);
    for (const auto& per_transition : corner.sinks) {
      for (const SinkTiming& s : per_transition) {
        if (!s.reached) result.all_sinks_reached = false;
      }
    }
  }
  result.slew_violation = result.worst_slew > bench.tech.slew_limit;
  if (!result.corners.empty()) {
    result.nominal_skew = result.corners.front().skew();
    result.max_latency = result.corners.front().max_latency();
  }
  if (result.corners.size() >= 2) {
    // Clock Latency Range (ISPD'09): greatest sink latency at the low
    // supply minus least sink latency at the nominal supply.
    result.clr = result.corners.back().max_latency() - result.corners.front().min_latency();
  } else {
    result.clr = result.nominal_skew;
  }
  aggregate_constraints(result, bench);
}

KOhm effective_driver_res(KOhm nominal, const Technology& tech, Volt vdd,
                          Transition output_transition) {
  const double corner = std::pow(tech.vdd_nom / vdd, tech.supply_alpha);
  const double asym = (output_transition == Transition::kRise)
                          ? tech.rise_fall_ratio
                          : 1.0 / tech.rise_fall_ratio;
  return nominal * corner * asym;
}

Ps effective_intrinsic(Ps nominal, const Technology& tech, Volt vdd) {
  return nominal * std::pow(tech.vdd_nom / vdd, tech.supply_alpha);
}

void WorkCounters::write_json(JsonWriter& w, const std::string& key_prefix) const {
  w.kv(key_prefix + "sim_runs", sim_runs);
  w.kv(key_prefix + "full_evals", full_evals);
  w.kv(key_prefix + "incremental_evals", incremental_evals);
  w.kv(key_prefix + "batched_stage_evals", batched_stage_evals);
  w.kv(key_prefix + "early_rejects", early_rejects);
}

Evaluator::Evaluator(const Benchmark& bench, EvalOptions options)
    : bench_(bench), options_(options), sim_(options.transient) {
  sink_caps_.reserve(bench.sinks.size());
  for (const Sink& s : bench.sinks) sink_caps_.push_back(s.cap);
}

EvalResult evaluate_netlist(const StagedNetlist& net, const NetlistSoa& soa,
                            const Benchmark& bench, const TransientSimulator& sim,
                            Ps source_input_slew,
                            const std::vector<Volt>* stage_vdd_delta,
                            EvalScratch* scratch) {
  if (stage_vdd_delta && stage_vdd_delta->size() != net.stages.size()) {
    throw std::invalid_argument("evaluate_netlist: stage_vdd_delta size " +
                                std::to_string(stage_vdd_delta->size()) +
                                " != stage count " + std::to_string(net.stages.size()));
  }
  EvalScratch local_scratch;
  EvalResult result;
  sweep(bench, sim, source_input_slew, net.stages.size(), nullptr,
        [&](int slot) -> const Stage& {
          return net.stages[static_cast<std::size_t>(slot)];
        },
        soa, stage_vdd_delta, nullptr, nullptr,
        scratch ? *scratch : local_scratch, result);
  return result;
}

void account_capacitance(EvalResult& result, const ClockTree& tree,
                         const Benchmark& bench, const std::vector<Ff>& sink_caps) {
  result.total_cap = tree.total_cap(bench.tech, sink_caps);
  result.cap_violation = bench.tech.cap_limit > 0.0 && result.total_cap > bench.tech.cap_limit;
}

EvalResult Evaluator::evaluate(const ClockTree& tree) {
  ++counters_.sim_runs;
  ++counters_.full_evals;
  const StagedNetlist net = extract_stages(tree, bench_, options_.extract);
  soa_.build(net);
  EvalResult result = evaluate_netlist(net, soa_, bench_, sim_,
                                       options_.source_input_slew, nullptr,
                                       &scratch_);
  counters_.batched_stage_evals += static_cast<long>(net.stages.size()) *
                                   static_cast<long>(bench_.tech.corners.size()) *
                                   kNumTransitions;
  account_capacitance(result, tree, bench_, sink_caps_);
  return result;
}

// ---------------------------------------------------- IncrementalEvaluator --

void IncrementalEvaluator::bind(const ClockTree& tree) {
  tree_ = &tree;
  net_.build(tree, eval_.bench_, eval_.options_.extract);
  // Slot versions are globally monotonic, so stale cache entries could
  // never be mistaken for fresh ones — clearing just releases memory.
  elmore_.clear();
  timings_.clear();
}

EvalResult IncrementalEvaluator::evaluate() { return *run(nullptr); }

std::optional<EvalResult> IncrementalEvaluator::evaluate(const RejectBound& bound) {
  return run(&bound);
}

std::optional<EvalResult> IncrementalEvaluator::run(const RejectBound* reject) {
  if (!bound()) {
    throw std::logic_error("IncrementalEvaluator: evaluate before bind");
  }
  net_.refresh();
  ++eval_.counters_.sim_runs;
  ++eval_.counters_.incremental_evals;

  const Benchmark& bench = eval_.bench_;
  EvalResult result;
  account_capacitance(result, *tree_, bench, eval_.sink_caps_);
  if (reject && result.cap_violation && result.total_cap > reject->cap) {
    ++eval_.counters_.early_rejects;
    return std::nullopt;
  }

  const std::vector<int>* order = &net_.topo_slots();
  if (reject && !reject->first_sinks.empty()) {
    order_critical_first(reject->first_sinks);
    order = &visit_order_;
  }
  const SweepCache cache{net_, elmore_, timings_};
  const SweepOutcome outcome =
      sweep(bench, eval_.sim_, eval_.options_.source_input_slew,
            net_.slot_count(), order,
            [&](int slot) -> const Stage& { return net_.stage(slot); },
            net_.soa(), nullptr, &cache, reject, scratch_, result);

  stage_sims_ += outcome.simulated;
  stage_reuses_ += static_cast<long>(outcome.visited * bench.tech.corners.size()) *
                       kNumTransitions -
                   outcome.simulated;
  eval_.counters_.batched_stage_evals += outcome.simulated;
  if (outcome.stopped) {
    ++eval_.counters_.early_rejects;
    return std::nullopt;
  }
  return result;
}

void IncrementalEvaluator::order_critical_first(const std::vector<int>& sinks) {
  const std::vector<int>& topo = net_.topo_slots();
  parent_.assign(net_.slot_count(), -1);
  std::vector<int> sink_slot(sinks.size(), -1);
  for (const int slot : topo) {
    const Stage& stage = net_.stage(slot);
    for (const int child : stage.downstream_stages) {
      parent_[static_cast<std::size_t>(child)] = slot;
    }
    for (const Tap& tap : stage.taps) {
      if (!tap.is_sink) continue;
      for (std::size_t k = 0; k < sinks.size(); ++k) {
        if (sinks[k] == tap.sink_index) sink_slot[k] = slot;
      }
    }
  }

  // parent_ doubles as the visited mark once a slot is queued.
  constexpr int kQueued = -2;
  visit_order_.clear();
  for (const int leaf : sink_slot) {
    const std::size_t path_start = visit_order_.size();
    for (int slot = leaf; slot >= 0 && parent_[static_cast<std::size_t>(slot)] != kQueued;) {
      const int up = parent_[static_cast<std::size_t>(slot)];
      visit_order_.push_back(slot);
      parent_[static_cast<std::size_t>(slot)] = kQueued;
      slot = up;
    }
    std::reverse(visit_order_.begin() + static_cast<std::ptrdiff_t>(path_start),
                 visit_order_.end());
  }
  for (const int slot : topo) {
    if (parent_[static_cast<std::size_t>(slot)] != kQueued) visit_order_.push_back(slot);
  }
}

}  // namespace contango
