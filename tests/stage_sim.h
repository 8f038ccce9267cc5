// Test helper: one drive through one array-of-structs Stage.  It packs the
// stage into SoA buffers and runs the library's batched kernel with a
// batch of one (a one-lane group), so its results equal the matching row
// of any simulate_stage_batch() call on the same stage.  The library has
// no scalar entry point; unit tests and the reference evaluator use this.

#pragma once

#include <cstddef>
#include <vector>

#include "analysis/transient.h"
#include "rctree/extract.h"
#include "rctree/soa.h"

namespace contango {

/// Simulates `stage` under one drive; one TapTiming per stage tap (same
/// order as stage.taps).  `r_drv` is the effective driver resistance,
/// `intrinsic` the effective driver intrinsic delay, `input_slew` the
/// 10-90% transition time at the driver input.
inline std::vector<TapTiming> simulate_stage(const TransientSimulator& sim,
                                             const Stage& stage, KOhm r_drv,
                                             Ps intrinsic, Ps input_slew) {
  const std::size_t n = stage.nodes.size();
  std::vector<TapTiming> result(stage.taps.size());
  if (n == 0) return result;

  std::vector<Ff> cap(n);
  std::vector<KOhm> res(n);
  std::vector<int> parent(n);
  for (std::size_t i = 0; i < n; ++i) {
    cap[i] = stage.nodes[i].cap;
    res[i] = stage.nodes[i].res;
    parent[i] = stage.nodes[i].parent;
  }
  std::vector<int> tap_rc(stage.taps.size());
  for (std::size_t k = 0; k < stage.taps.size(); ++k) {
    tap_rc[k] = stage.taps[k].rc_index;
  }

  NetlistSoa::View view;
  view.cap = cap.data();
  view.res = res.data();
  view.parent = parent.data();
  view.num_nodes = n;
  view.tap_rc = tap_rc.data();
  view.num_taps = stage.taps.size();

  thread_local TransientScratch scratch;
  const BatchDrive drive{r_drv, intrinsic, input_slew};
  sim.simulate_stage_batch(view, &drive, 1, result.data(), scratch);
  return result;
}

}  // namespace contango
