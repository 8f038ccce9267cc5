#pragma once

#include <cstddef>
#include <vector>

#include "rctree/extract.h"
#include "rctree/soa.h"

namespace contango {

/// Timing measured at one tap of a stage by waveform analysis.
struct TapTiming {
  Ps delay = 0.0;  ///< driver-input 50% crossing to tap 50% crossing
  Ps slew = 0.0;   ///< 10%-90% transition time at the tap
};

/// Numerical options of the transient engine.
struct TransientOptions {
  /// Timestep = clamp(tau_char / time_step_div, min_step, max_step) where
  /// tau_char is the stage's dominant time constant estimate.
  double time_step_div = 80.0;
  Ps min_step = 0.02;
  Ps max_step = 2.0;

  /// Driver waveform model constants (see simulate_stage_batch).
  double slew_to_delay = 0.12;  ///< extra driver delay per ps of input slew
  double slew_feedthrough = 0.5;  ///< source ramp lengthening per ps input slew
  Ps ramp_base = 2.0;             ///< minimum source ramp duration
};

/// One right-hand side of a batched stage simulation: the effective driver
/// view plus the input slew of one (corner x transition) combination — or
/// of one Monte-Carlo trial's combination.
struct BatchDrive {
  KOhm r_drv = 0.0;
  Ps intrinsic = 0.0;
  Ps input_slew = 0.0;
};

/// Borrowed Elmore sweep of a stage (tau per RC node + total cap), e.g. an
/// ElmoreCache entry; lets the batch kernel skip its in-kernel sweep.
struct ElmoreView {
  const Ps* tau = nullptr;
  Ff total_cap = 0.0;
};

/// Reusable workspace of the transient kernel: per-node factorization and
/// state arrays plus per-tap threshold bookkeeping, grown on demand and
/// recycled across stages, combos and trials so the hot loop never
/// allocates.  Each thread needs its own instance.
///
/// The per-lane arrays are node-major, lane-minor: entry `i * L + l` holds
/// node (or tap) i of lane l in a group of L lockstep drives.
struct TransientScratch {
  std::vector<double> g;      ///< conductance to parent (shared per stage)
  std::vector<double> g2;     ///< g / 2 (shared per stage)
  std::vector<double> cdown;  ///< in-kernel Elmore sweep (when not borrowed)
  std::vector<double> tau;
  std::vector<double> caph;   ///< per-lane factorization: C / h
  std::vector<double> adiag;
  std::vector<double> mult;
  std::vector<double> v;      ///< per-lane integration state
  std::vector<double> rhs;
  std::vector<double> gv;
  std::vector<double> tap_prev;
  struct Crossings {
    double t10 = -1.0, t50 = -1.0, t90 = -1.0;
  };
  std::vector<Crossings> cross;
};

/// SPICE-substitute engine: trapezoidal integration of each stage's RC tree
/// with an O(n) sparse tree factorization per step.
///
/// Driver model: a Thevenin source behind the composite buffer's output
/// resistance.  After the driver input crosses 50% (stage-local t = 0) the
/// source waits the intrinsic delay plus a slew-dependent penalty, then
/// ramps linearly across the supply over a duration that grows with input
/// slew.  Output polarity, supply corner and rise/fall asymmetry enter only
/// through the effective driver resistance and intrinsic delay, which the
/// caller computes; the RC network is linear, so rising and falling
/// responses are mirrors and we always integrate a normalized 0 -> 1 swing.
///
/// This reproduces the properties Contango's optimizations rely on:
/// resistive shielding in long wires, slew propagation through stages, and
/// the impact of slew on delay — the effects the paper lists as missing
/// from closed-form models (section III-A).
///
/// The engine has one integrator core, simulate_stage_batch(): it reads the
/// stage through a SoA view, hoists everything drive-independent — the
/// conductance array, the Elmore sweep, the worst tap tau — out of the
/// per-drive work, and then integrates the drives in lane groups of up to
/// kMaxLanes, lockstep within a group.  Lockstep lanes hide the latency of
/// one drive's serial tree elimination and divide chain behind the other
/// lanes' work; each lane still performs exactly the arithmetic of a lone
/// drive, in the same order, so a drive's result does not depend on the
/// group it rides in.
class TransientSimulator {
 public:
  /// Widest lane group simulate_stage_batch() runs in lockstep.
  static constexpr std::size_t kMaxLanes = 4;

  explicit TransientSimulator(TransientOptions options = {})
      : options_(options) {}

  /// Batched integrator core: simulates `stage` once per entry of
  /// `drives[0..count)`, writing `out[b * stage.num_taps + k]` for drive b,
  /// tap k (the caller provides `count * stage.num_taps` slots).  The
  /// stage's conductances and Elmore sweep are computed once and shared.
  /// The drives then run in groups of kMaxLanes consecutive rows (the last
  /// group holds the remaining 1..kMaxLanes), each group as lockstep lanes:
  /// every sweep of a trapezoidal step loops over the group's lanes, and a
  /// lane that has finished (all taps past 90%, or its stop time reached)
  /// freezes its time and crossings while the others go on.  Steps before
  /// a lane's source starts to ramp are skipped without a solve, since
  /// they leave the state at exactly +0.  Each lane runs exactly the
  /// arithmetic of a batch of one, so every row is bit-identical to a
  /// one-drive call with the same drive.
  ///
  /// `elmore` optionally borrows a prebuilt sweep (ElmoreCache entry built
  /// from the same stage contents); null computes it in-kernel.
  void simulate_stage_batch(const NetlistSoa::View& stage,
                            const BatchDrive* drives, std::size_t count,
                            TapTiming* out, TransientScratch& scratch,
                            const ElmoreView* elmore = nullptr) const;

  const TransientOptions& options() const { return options_; }

 private:
  TransientOptions options_;
};

}  // namespace contango
