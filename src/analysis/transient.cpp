#include "analysis/transient.h"

#include <algorithm>
#include <cmath>

#include "analysis/elmore.h"
#include "util/units.h"

namespace contango {

namespace {

/// Drive-independent data of one stage, shared by every lane group of a
/// simulate_stage_batch() call.
struct StageData {
  std::size_t n = 0;
  std::size_t nt = 0;
  const Ff* cap = nullptr;
  const int* parent = nullptr;
  const int* tap_rc = nullptr;
  const double* g = nullptr;   ///< conductance to parent
  const double* g2 = nullptr;  ///< g / 2, hoisted per node
  Ff total_cap = 0.0;
  Ps max_tau = 0.0;
};

/// Driver source waveform: delay `t0`, then a linear `ramp` (normalized
/// 0 -> 1).
inline double source(Ps t, Ps t0, Ps ramp) {
  if (t <= t0) return 0.0;
  if (t >= t0 + ramp) return 1.0;
  return (t - t0) / ramp;
}

/// Integrates `L` drives of one stage in lockstep.  Every per-node array is
/// node-major, lane-minor (`x[i * L + l]`), so each sweep's inner loop runs
/// over the lanes and the lanes' independent divide chains overlap.  Lane l
/// performs exactly the IEEE operations, in exactly the order, of a lone
/// drive; the lanes share nothing but the stage data, so results do not
/// depend on which drives are grouped together.
template <std::size_t L>
void integrate_lanes(const StageData& s, const TransientOptions& opt,
                     const BatchDrive* drives, TapTiming* out,
                     TransientScratch& scratch) {
  const std::size_t n = s.n;
  const std::size_t nt = s.nt;
  const Ff* cap = s.cap;
  const int* parent = s.parent;
  const double* g = s.g;
  const double* g2 = s.g2;

  Ps h[L], t0[L], ramp[L], t_stop[L], g_drv[L], t[L];
  std::size_t pending[L];
  for (std::size_t l = 0; l < L; ++l) {
    const KOhm r_drv = drives[l].r_drv;
    const Ps input_slew = drives[l].input_slew;
    const Ps tau_char = std::max(r_drv * s.total_cap + s.max_tau, 0.5);
    t0[l] = drives[l].intrinsic + opt.slew_to_delay * input_slew;
    ramp[l] = opt.ramp_base + opt.slew_feedthrough * input_slew;
    h[l] = std::clamp(std::min(tau_char / opt.time_step_div, ramp[l] / 4.0),
                      opt.min_step, opt.max_step);
    t_stop[l] = t0[l] + ramp[l] + 40.0 * tau_char;
    g_drv[l] = 1.0 / std::max(r_drv, 1e-9);
    t[l] = 0.0;
    pending[l] = nt;
  }

  // Trapezoidal discretization:
  //   (C/h + G/2) v+  =  (C/h) v - (G v)/2 + (b+ + b)/2.
  // The LHS matrix is constant per lane (h depends on the drive); factor it
  // once with a leaf-to-root sweep.
  scratch.caph.resize(n * L);
  scratch.adiag.resize(n * L);
  scratch.mult.resize(n * L);
  double* caph = scratch.caph.data();
  double* adiag = scratch.adiag.data();
  double* mult = scratch.mult.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < L; ++l) {
      caph[i * L + l] = cap[i] / h[l];
      adiag[i * L + l] = caph[i * L + l];
    }
  }
  for (std::size_t l = 0; l < L; ++l) adiag[l] += g_drv[l] / 2.0;
  for (std::size_t i = 1; i < n; ++i) {
    const auto p = static_cast<std::size_t>(parent[i]);
    for (std::size_t l = 0; l < L; ++l) {
      adiag[i * L + l] += g2[i];
      adiag[p * L + l] += g2[i];
    }
  }
  // Cholesky-style tree elimination: children have larger indices.
  for (std::size_t i = n; i-- > 1;) {
    const auto p = static_cast<std::size_t>(parent[i]);
    for (std::size_t l = 0; l < L; ++l) {
      mult[i * L + l] = g2[i] / adiag[i * L + l];
      adiag[p * L + l] -= g2[i] * mult[i * L + l];
    }
  }

  // v starts at +0, and so does its conductance product gv (a +0 state
  // scatters only +0 flows).
  scratch.v.assign(n * L, 0.0);
  scratch.rhs.resize(n * L);
  scratch.gv.assign(n * L, 0.0);
  double* v = scratch.v.data();
  double* rhs = scratch.rhs.data();
  double* gv = scratch.gv.data();

  // Threshold bookkeeping per (tap, lane).
  constexpr double kTh10 = 0.1, kTh50 = 0.5, kTh90 = 0.9;
  scratch.cross.assign(nt * L, TransientScratch::Crossings{});
  scratch.tap_prev.assign(nt * L, 0.0);
  TransientScratch::Crossings* cross = scratch.cross.data();
  double* tap_prev = scratch.tap_prev.data();

  // Dead steps: while t + h <= t0 both source samples are 0, so a step maps
  // v == +0 to v == +0 and crosses nothing; only t advances, by the same
  // repeated addition a solved step would make.
  if (nt > 0) {
    for (std::size_t l = 0; l < L; ++l) {
      while (t[l] < t_stop[l] && t[l] + h[l] <= t0[l]) t[l] = t[l] + h[l];
    }
  }

  for (;;) {
    // A lane is live until all of its taps crossed 90% or it hit t_stop; a
    // finished lane keeps riding the sweeps but its t and crossings freeze.
    bool live[L];
    bool any_live = false;
    for (std::size_t l = 0; l < L; ++l) {
      live[l] = pending[l] > 0 && t[l] < t_stop[l];
      any_live = any_live || live[l];
    }
    if (!any_live) break;

    // rhs = (C/h) v - (G v)/2 + (b(t) + b(t+h))/2, with G v scattered by
    // the previous step's back-substitution.
    for (std::size_t j = 0; j < n * L; ++j) {
      rhs[j] = caph[j] * v[j] - gv[j] / 2.0;
    }
    for (std::size_t l = 0; l < L; ++l) {
      rhs[l] += g_drv[l] *
                (source(t[l], t0[l], ramp[l]) + source(t[l] + h[l], t0[l], ramp[l])) /
                2.0;
    }

    // Forward elimination (leaves to root), then back-substitution.
    for (std::size_t i = n; i-- > 1;) {
      const auto p = static_cast<std::size_t>(parent[i]);
      for (std::size_t l = 0; l < L; ++l) {
        rhs[p * L + l] += mult[i * L + l] * rhs[i * L + l];
      }
    }
    // Each new v also scatters into gv = G v for the next step, node by
    // node in index order.  gv is zero-filled and then accumulated
    // (0.0 + -0.0 is +0.0, unlike a plain store).
    std::fill(gv, gv + n * L, 0.0);
    for (std::size_t l = 0; l < L; ++l) {
      v[l] = rhs[l] / adiag[l];
      gv[l] = g_drv[l] * v[l];
    }
    for (std::size_t i = 1; i < n; ++i) {
      const auto p = static_cast<std::size_t>(parent[i]);
      for (std::size_t l = 0; l < L; ++l) {
        v[i * L + l] = (rhs[i * L + l] + g2[i] * v[p * L + l]) / adiag[i * L + l];
        const double flow = g[i] * (v[i * L + l] - v[p * L + l]);
        gv[i * L + l] += flow;
        gv[p * L + l] -= flow;
      }
    }

    for (std::size_t l = 0; l < L; ++l) {
      if (!live[l]) continue;
      for (std::size_t k = 0; k < nt; ++k) {
        TransientScratch::Crossings& c = cross[k * L + l];
        if (c.t90 >= 0.0) continue;
        const double prev = tap_prev[k * L + l];
        const double now = v[static_cast<std::size_t>(s.tap_rc[k]) * L + l];
        auto interp = [&](double th) {
          return t[l] + h[l] * (th - prev) / std::max(now - prev, 1e-12);
        };
        if (c.t10 < 0.0 && now >= kTh10) c.t10 = interp(kTh10);
        if (c.t50 < 0.0 && now >= kTh50) c.t50 = interp(kTh50);
        if (c.t90 < 0.0 && now >= kTh90) {
          c.t90 = interp(kTh90);
          --pending[l];
        }
        tap_prev[k * L + l] = now;
      }
      t[l] = t[l] + h[l];
    }
  }

  for (std::size_t l = 0; l < L; ++l) {
    TapTiming* result = out + l * nt;
    for (std::size_t k = 0; k < nt; ++k) {
      TransientScratch::Crossings& c = cross[k * L + l];
      if (c.t10 < 0.0) c.t10 = t_stop[l];
      if (c.t50 < 0.0) c.t50 = t_stop[l];
      if (c.t90 < 0.0) c.t90 = t_stop[l];
      result[k].delay = c.t50;
      result[k].slew = c.t90 - c.t10;
    }
  }
}

}  // namespace

void TransientSimulator::simulate_stage_batch(
    const NetlistSoa::View& stage, const BatchDrive* drives, std::size_t count,
    TapTiming* out, TransientScratch& scratch, const ElmoreView* elmore) const {
  const std::size_t n = stage.num_nodes;
  const std::size_t nt = stage.num_taps;
  for (std::size_t i = 0; i < count * nt; ++i) out[i] = TapTiming{};
  if (n == 0 || count == 0) return;

  const Ff* cap = stage.cap;
  const int* parent = stage.parent;

  // --- drive-independent stage data, computed once per batch ------------

  // Conductance to parent, and its half (the trapezoidal weight).
  scratch.g.assign(n, 0.0);
  scratch.g2.assign(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) {
    scratch.g[i] = 1.0 / std::max(stage.res[i], 1e-9);
    scratch.g2[i] = scratch.g[i] / 2.0;
  }

  // Elmore sweep for timestep selection and the stop guard — borrowed from
  // the caller's cache, or rebuilt here with exactly the ElmoreStage
  // accumulation order (one reverse cdown/total sweep, one forward tau
  // sweep), so both paths produce identical bits.
  const Ps* tau = nullptr;
  Ff total_cap = 0.0;
  if (elmore) {
    tau = elmore->tau;
    total_cap = elmore->total_cap;
  } else {
    scratch.cdown.assign(n, 0.0);
    scratch.tau.assign(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      scratch.cdown[i] += cap[i];
      if (parent[i] >= 0) {
        scratch.cdown[static_cast<std::size_t>(parent[i])] += scratch.cdown[i];
      }
      total_cap += cap[i];
    }
    for (std::size_t i = 1; i < n; ++i) {
      scratch.tau[i] = scratch.tau[static_cast<std::size_t>(parent[i])] +
                       stage.res[i] * scratch.cdown[i];
    }
    tau = scratch.tau.data();
  }
  Ps max_tau = 0.0;
  for (std::size_t k = 0; k < nt; ++k) {
    max_tau = std::max(max_tau, tau[static_cast<std::size_t>(stage.tap_rc[k])]);
  }

  StageData s;
  s.n = n;
  s.nt = nt;
  s.cap = cap;
  s.parent = parent;
  s.tap_rc = stage.tap_rc;
  s.g = scratch.g.data();
  s.g2 = scratch.g2.data();
  s.total_cap = total_cap;
  s.max_tau = max_tau;

  // --- drives in lane groups of up to kMaxLanes, run in lockstep ---------
  for (std::size_t b = 0; b < count; b += kMaxLanes) {
    const BatchDrive* group = drives + b;
    TapTiming* group_out = out + b * nt;
    switch (std::min(kMaxLanes, count - b)) {
      case 4:
        integrate_lanes<4>(s, options_, group, group_out, scratch);
        break;
      case 3:
        integrate_lanes<3>(s, options_, group, group_out, scratch);
        break;
      case 2:
        integrate_lanes<2>(s, options_, group, group_out, scratch);
        break;
      default:
        integrate_lanes<1>(s, options_, group, group_out, scratch);
        break;
    }
  }
}

}  // namespace contango
