// The lane-interleaved transient kernel against an independent oracle, and
// an absolute lock on the default flow's numbers.
//
// The one-drive helper (stage_sim.h) and simulate_stage_batch() share one
// lane kernel, so batch-vs-single identity alone cannot see a change in its arithmetic.
// Here every row of the kernel must equal, bit for bit, the historical
// one-drive-at-a-time integrator kept verbatim in reference_transient.h —
// across every lane-group shape, lanes finishing far apart, long dead
// prefixes, taps cut off at the stop time and degenerate stages.  The
// golden table pins the absolute skew/CLR/latency/cap of the default flow
// on every scenario family, so a change that moves every mode together
// still fails.

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/elmore.h"
#include "analysis/transient.h"
#include "cts/flow.h"
#include "cts/scenario.h"
#include "rctree/extract.h"
#include "rctree/soa.h"
#include "reference_transient.h"
#include "stage_sim.h"
#include "util/rng.h"

namespace contango {
namespace {

Stage random_stage(Rng& rng, int num_nodes, int num_taps) {
  Stage stage;
  stage.nodes.resize(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    RcNode& node = stage.nodes[static_cast<std::size_t>(i)];
    node.cap = rng.uniform(0.5, 30.0);
    if (i > 0) {
      node.parent = static_cast<int>(rng.uniform_int(0, i - 1));
      node.res = rng.uniform(0.001, 0.4);
    }
  }
  for (int k = 0; k < num_taps; ++k) {
    Tap tap;
    tap.rc_index = static_cast<int>(rng.uniform_int(0, num_nodes - 1));
    tap.is_sink = true;
    tap.sink_index = k;
    tap.pin_cap = rng.uniform(1.0, 20.0);
    stage.taps.push_back(tap);
  }
  return stage;
}

/// Drives whose lanes finish far apart: strong and weak drivers, fast and
/// very slow input slews, and (when `late`) intrinsic delays long enough
/// that most of the run is dead steps before the source ramps.
std::vector<BatchDrive> random_drives(Rng& rng, std::size_t count, bool late) {
  std::vector<BatchDrive> drives;
  for (std::size_t b = 0; b < count; ++b) {
    const KOhm r_drv = rng.uniform_int(0, 1) != 0 ? 0.05 : 1.2;
    const Ps intrinsic = late && b % 2 == 0 ? rng.uniform(400.0, 3000.0)
                                            : rng.uniform(0.0, 40.0);
    drives.push_back(BatchDrive{r_drv * rng.uniform(0.9, 1.1), intrinsic,
                                rng.uniform(2.0, 200.0)});
  }
  return drives;
}

/// Runs the kernel and the oracle on `drives` and requires every row to be
/// identical; returns the kernel's rows.
std::vector<TapTiming> expect_matches_reference(
    const TransientSimulator& sim, const NetlistSoa::View& view,
    const std::vector<BatchDrive>& drives, TransientScratch& scratch,
    const ElmoreView* elmore) {
  const std::size_t nt = view.num_taps;
  std::vector<TapTiming> got(drives.size() * nt);
  std::vector<TapTiming> want(drives.size() * nt);
  sim.simulate_stage_batch(view, drives.data(), drives.size(), got.data(),
                           scratch, elmore);
  reference::simulate_stage_batch(sim.options(), view, drives.data(),
                                  drives.size(), want.data(), elmore);
  for (std::size_t b = 0; b < drives.size(); ++b) {
    for (std::size_t k = 0; k < nt; ++k) {
      SCOPED_TRACE("drive " + std::to_string(b) + " tap " + std::to_string(k));
      EXPECT_EQ(got[b * nt + k].delay, want[b * nt + k].delay);
      EXPECT_EQ(got[b * nt + k].slew, want[b * nt + k].slew);
    }
  }
  return got;
}

TEST(LaneKernel, MatchesReferenceIntegratorOnRandomStages) {
  Rng rng(0x1A4E5);
  const TransientSimulator sim;
  TransientScratch scratch;  // reused across shapes, as the evaluators do
  for (std::size_t count = 1; count <= 9; ++count) {
    for (int rep = 0; rep < 4; ++rep) {
      SCOPED_TRACE("count " + std::to_string(count) + " rep " +
                   std::to_string(rep));
      const int num_nodes = static_cast<int>(rng.uniform_int(2, 40));
      const int num_taps = static_cast<int>(rng.uniform_int(1, 6));
      StagedNetlist net;
      net.stages.push_back(random_stage(rng, num_nodes, num_taps));
      NetlistSoa soa;
      soa.build(net);
      const std::vector<BatchDrive> drives = random_drives(rng, count, rep % 2 == 1);

      const std::vector<TapTiming> own =
          expect_matches_reference(sim, soa.view(0), drives, scratch, nullptr);
      const ElmoreStage elm(net.stages[0]);
      const ElmoreView borrowed{elm.tau_data(), elm.total_cap()};
      expect_matches_reference(sim, soa.view(0), drives, scratch, &borrowed);

      // A drive's row must not depend on the group it rode in: each row
      // equals a lone (one-lane) run of the same drive.
      for (std::size_t b = 0; b < count; ++b) {
        const std::vector<TapTiming> lone =
            simulate_stage(sim, net.stages[0], drives[b].r_drv,
                           drives[b].intrinsic, drives[b].input_slew);
        for (std::size_t k = 0; k < lone.size(); ++k) {
          EXPECT_EQ(own[b * lone.size() + k].delay, lone[k].delay);
          EXPECT_EQ(own[b * lone.size() + k].slew, lone[k].slew);
        }
      }
    }
  }
}

TEST(LaneKernel, MatchesReferenceWhenTapsNeverReachNinetyPercent) {
  // An understated borrowed sweep (zero tau, zero cap) pins the timestep at
  // its floor and t_stop only 20 ps past the ramp, too early for most taps:
  // the stop guard, not the 90% crossing, ends those lanes.  Lanes with a
  // late intrinsic delay run ~3000 ps longer in the same group, so a
  // stopped lane that kept recording crossings would show.
  Rng rng(0x57095);
  const TransientSimulator sim;
  TransientScratch scratch;
  const TransientOptions& opt = sim.options();
  int cut_off = 0;
  for (std::size_t count = 2; count <= 8; ++count) {
    SCOPED_TRACE("count " + std::to_string(count));
    StagedNetlist net;
    net.stages.push_back(random_stage(rng, 24, 5));
    NetlistSoa soa;
    soa.build(net);
    const std::vector<Ps> zero_tau(net.stages[0].nodes.size(), 0.0);
    const ElmoreView understated{zero_tau.data(), 0.0};

    const std::vector<BatchDrive> drives = random_drives(rng, count, true);
    const std::vector<TapTiming> got =
        expect_matches_reference(sim, soa.view(0), drives, scratch, &understated);
    for (std::size_t b = 0; b < count; ++b) {
      const Ps t0 = drives[b].intrinsic + opt.slew_to_delay * drives[b].input_slew;
      const Ps ramp = opt.ramp_base + opt.slew_feedthrough * drives[b].input_slew;
      const Ps t_stop = t0 + ramp + 40.0 * 0.5;
      for (std::size_t k = 0; k < net.stages[0].taps.size(); ++k) {
        if (got[b * net.stages[0].taps.size() + k].delay == t_stop) ++cut_off;
      }
    }
  }
  EXPECT_GT(cut_off, 0) << "no tap was cut off at t_stop; the case is untested";
}

TEST(LaneKernel, MatchesReferenceOnDegenerateStages) {
  Rng rng(0xD06E);
  const TransientSimulator sim;
  TransientScratch scratch;

  // One node carrying the only tap.
  StagedNetlist one;
  one.stages.push_back(random_stage(rng, 1, 1));
  ASSERT_EQ(one.stages[0].taps[0].rc_index, 0);
  // Several nodes, no taps at all: nothing to time, nothing to write.
  StagedNetlist tapless;
  tapless.stages.push_back(random_stage(rng, 9, 0));

  for (const StagedNetlist* net : {&one, &tapless}) {
    NetlistSoa soa;
    soa.build(*net);
    for (std::size_t count = 1; count <= 6; ++count) {
      SCOPED_TRACE("nodes " + std::to_string(net->stages[0].nodes.size()) +
                   " count " + std::to_string(count));
      const std::vector<BatchDrive> drives = random_drives(rng, count, true);
      expect_matches_reference(sim, soa.view(0), drives, scratch, nullptr);
    }
  }
  EXPECT_TRUE(simulate_stage(sim, tapless.stages[0], 0.3, 10.0, 20.0).empty());
}

// ---------------------------------------------------------------- golden --

/// One pinned default-flow run: family at seed 1 and `sinks` (0 = the
/// family's default size), with its absolute metrics.
struct GoldenRow {
  const char* family;
  int sinks;
  double skew, clr, max_latency, cap, worst_slew;
  int sim_runs;
  long stage_evals;
};

// Absolute values of the default 8-pass flow, recorded at %.17g by a
// program linked against the library before the full, batched-MC and
// incremental evaluators became one sweep; the huge:200 row predates the
// lane kernel.  Every later engine must reproduce them exactly.
constexpr GoldenRow kGolden[] = {
    {"uniform", 0, 19.780766672024356, 68.300888344348323, 1094.413437515763,
     85640.732110263532, 119.67240699404732, 32, 27698},
    {"clustered", 0, 4.1165970249404609, 33.933413657002234, 799.48699770118969,
     96626.078763304875, 79.832147662179835, 34, 16420},
    {"ring", 0, 10.963771958623283, 43.891346193051277, 781.42863057954605,
     71453.778093269633, 106.01380620973531, 36, 22440},
    {"obstacle_dense", 0, 82.762126220885648, 196.01379359838029, 1834.8056251770863,
     99643.385946042443, 296.59034549547948, 16, 17770},
    {"high_fanout", 0, 9.5447959491119718, 34.211671832403113, 724.78813459772516,
     137767.52851838651, 90.412171146328873, 38, 38308},
    {"mixed_cap", 0, 10.495649352731107, 41.261408838417083, 924.73652727990213,
     100955.32461809607, 89.777434708263257, 31, 21781},
    {"huge", 0, 20.165782844591604, 100.80798464906434, 1765.2385697859822,
     516801.00626899517, 119.08595438365015, 25, 120235},
    {"multidomain", 0, 7.0228067880120761, 37.847083678958711, 840.96257607038422,
     91703.392098234326, 88.450280539553702, 32, 16692},
    {"usefulskew", 0, 29.712478733956686, 168.28303915414131, 1511.4402819232264,
     98380.071392216865, 577.04760909058564, 25, 15012},
    {"mega", 0, 35.446875081095641, 171.43664683368479, 2933.3368449055761,
     1076889.8691852982, 119.32136642788106, 26, 228269},
    {"huge", 200, 91.080572723452406, 213.99491530711884, 1946.1839547751956,
     158467.95574183317, 286.17791538650675, 21, 33379},
};

TEST(Golden, DefaultFlowOnEveryFamilySeed1) {
  // Every registered family has a row (plus the extra huge:200 one).
  ASSERT_EQ(std::size(kGolden), ScenarioRegistry::builtin().families().size() + 1);
  for (const GoldenRow& g : kGolden) {
    SCOPED_TRACE(std::string(g.family) + ":" + std::to_string(g.sinks));
    const FlowResult r = run_contango(make_scenario(g.family, 1, g.sinks));
    EXPECT_EQ(r.eval.nominal_skew, g.skew);
    EXPECT_EQ(r.eval.clr, g.clr);
    EXPECT_EQ(r.eval.max_latency, g.max_latency);
    EXPECT_EQ(r.eval.total_cap, g.cap);
    EXPECT_EQ(r.eval.worst_slew, g.worst_slew);
    EXPECT_EQ(r.sim_runs, g.sim_runs);
    EXPECT_EQ(r.batched_stage_evals, g.stage_evals);
    EXPECT_EQ(r.pipeline_spec, "dme,repair,insert,polarity,tbsz,twsz,twsn,bwsn");
  }
}

}  // namespace
}  // namespace contango
