// Reproduces Table IV of the paper: final CLR, capacitance usage (% of the
// benchmark limit) and runtime of Contango against weaker flows on the
// seven-benchmark suite.  The ISPD'09 contest teams' binaries are not
// available; a ladder of three shorter pipelines (see docs/ARCHITECTURE.md)
// spans the same qualitative range, each a spec (table4_rungs.h) run
// through the same suite runner and IVC gate as the full flow:
//
//   CONSTR  dme,repair,insert:max_ladder=1,polarity   (construction only)
//   WSIZE   CONSTR + twsz:rounds=1                     (one wiresizing round)
//   TUNED   WSIZE + twsn:rounds=1                      (plus one snaking round)
//
// WSIZE adds nothing on any of cns01..cns07: on five entries the T_ws
// calibration measures no slow-down, so the round proposes no edit, and on
// cns05/cns07 the round worsens skew and the gate rejects it.  WSIZE's
// columns therefore equal CONSTR's.
//
// Shape to match: Contango's average CLR is a multiple (the paper: 2.15x -
// 3.99x) better than the baselines at comparable capacitance, and every
// benchmark completes within the capacitance limit.
//
// Every column is one run_suite() pass over the benchmarks on the same
// worker count (CONTANGO_THREADS, default: hardware concurrency); only the
// Contango pass runs the optional Monte-Carlo analysis and writes the JSON
// report.
//
// The workload defaults to the seven generated cns01..cns07 entries
// (CONTANGO_TABLE4_BENCHMARKS caps how many).  Set CONTANGO_WORKLOADS to a
// collect_workloads() spec — registered scenario families, .bench files,
// or directories of them — to run the same four-flow comparison on any
// workload, e.g.:
//
//   CONTANGO_WORKLOADS=benchmarks ./bench_table4_contest
//   CONTANGO_WORKLOADS=ring,obstacle_dense:200 CONTANGO_SEED=7 ./bench_table4_contest

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cts/scenario.h"
#include "cts/suite.h"
#include "io/table.h"
#include "netlist/generators.h"
#include "util/env.h"
#include "util/signal.h"

#include "table4_rungs.h"

using namespace contango;

int main() {
  std::printf("== Table IV: results on the CNS benchmark suite ==\n");
  std::printf("(CLR in ps; Cap in %% of the benchmark limit; CPU in s)\n\n");

  long limit = 0;
  std::uint64_t seed = 0;
  // CONTANGO_THREADS, CONTANGO_PIPELINE, CONTANGO_MC_TRIALS/
  // CONTANGO_MC_SIGMA_VDD (optional per-benchmark Monte-Carlo pass) and
  // CONTANGO_JSON_OUT (machine-readable report for CI perf tracking).
  SuiteOptions options;
  try {
    limit = env_long_strict("CONTANGO_TABLE4_BENCHMARKS", 7);
    seed = static_cast<std::uint64_t>(env_long_strict("CONTANGO_SEED", 1));
    options = suite_options_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad environment: %s\n", e.what());
    return 1;
  }

  // ^C / SIGTERM stop the suite at the next safe boundary instead of
  // killing the process mid-write; the partial table and JSON report
  // (remaining rows marked CANCELLED) still come out.
  install_signal_cancel();
  options.flow.cancel = signal_cancel_token();

  std::vector<Benchmark> suite;
  const std::string workloads = env_string("CONTANGO_WORKLOADS", "");
  if (!workloads.empty()) {
    try {
      suite = collect_workloads(workloads, seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "CONTANGO_WORKLOADS: %s\n", e.what());
      return 1;
    }
  } else {
    for (int i = 0; i < static_cast<int>(limit) && i < 7; ++i) {
      suite.push_back(generate_ispd_like(ispd09_suite_params(i)));
    }
  }
  const int rows = static_cast<int>(suite.size());

  // The baseline ladder in the table's column order, strongest first.  Each
  // rung is the same suite pass with its own spec, no Monte-Carlo analysis
  // and no JSON report.
  const char* const rung_specs[] = {table4::kTunedSpec, table4::kWsizeSpec,
                                    table4::kConstrSpec};
  SuiteReport contango;
  std::vector<SuiteReport> rungs;
  try {
    contango = run_suite(suite, options);
    for (const char* spec : rung_specs) {
      SuiteOptions rung = options;
      rung.pipeline_spec = spec;
      rung.mc_trials = 0;
      rung.json_report_path.clear();
      rungs.push_back(run_suite(suite, rung));
    }
  } catch (const std::exception& e) {  // e.g. CONTANGO_JSON_OUT unwritable
    std::fprintf(stderr, "bench_table4_contest: %s\n", e.what());
    return 1;
  }

  if (signal_cancel_token().cancelled()) {
    std::printf("%s\n", contango.table().c_str());
    std::fprintf(stderr, "bench_table4_contest: interrupted; partial "
                         "Contango results above, baselines skipped\n");
    return 128 + signal_received();
  }

  TextTable table({"Benchmark", "CONTANGO CLR", "Cap%", "CPU", "TUNED CLR",
                   "Cap%", "WSIZE CLR", "Cap%", "CONSTR CLR", "Cap%"});

  double sum_contango = 0.0, sum_tuned = 0.0, sum_ws = 0.0, sum_con = 0.0;
  double skew_sum = 0.0;
  int averaged_rows = 0;
  for (int i = 0; i < rows; ++i) {
    const Benchmark& bench = suite[static_cast<std::size_t>(i)];
    const SuiteRun& run = contango.runs[static_cast<std::size_t>(i)];
    std::string error = run.ok ? "" : run.error;
    for (const SuiteReport& r : rungs) {
      const SuiteRun& rung = r.runs[static_cast<std::size_t>(i)];
      if (error.empty() && !rung.ok) error = rung.error;
    }
    if (!error.empty()) {
      table.add_row({bench.name, "FAILED: " + error});
      continue;
    }
    const EvalResult& tuned = rungs[0].runs[static_cast<std::size_t>(i)].result.eval;
    const EvalResult& wsize = rungs[1].runs[static_cast<std::size_t>(i)].result.eval;
    const EvalResult& con = rungs[2].runs[static_cast<std::size_t>(i)].result.eval;

    auto cap_pct = [&](Ff cap) {
      return TextTable::num(100.0 * cap / bench.tech.cap_limit, 1);
    };
    table.add_row({bench.name,
                   TextTable::num(run.result.eval.clr, 2),
                   cap_pct(run.result.eval.total_cap),
                   TextTable::num(run.seconds, 1),
                   TextTable::num(tuned.clr, 2), cap_pct(tuned.total_cap),
                   TextTable::num(wsize.clr, 2), cap_pct(wsize.total_cap),
                   TextTable::num(con.clr, 2), cap_pct(con.total_cap)});
    sum_contango += run.result.eval.clr;
    sum_tuned += tuned.clr;
    sum_ws += wsize.clr;
    sum_con += con.clr;
    skew_sum += run.result.eval.nominal_skew;
    ++averaged_rows;
  }
  std::printf("%s", table.to_string().c_str());
  if (const int n = averaged_rows; n > 0) {
    std::printf("\nAverage CLR: CONTANGO %.2f | TUNED %.2f (%.2fx) | "
                "WSIZE %.2f (%.2fx) | CONSTR %.2f (%.2fx)\n",
                sum_contango / n, sum_tuned / n, sum_tuned / sum_contango,
                sum_ws / n, sum_ws / sum_contango, sum_con / n,
                sum_con / sum_contango);
    std::printf("Average final skew (CONTANGO): %.2f ps\n", skew_sum / n);
    std::printf("Contango pass: %d threads, %.1f s wall (%.1f s CPU)\n",
                contango.threads, contango.wall_seconds, contango.cpu_seconds());
    std::printf("(paper Table IV: Contango beat the three contest teams by\n"
                " 2.15x / 2.35x / 3.99x on average CLR)\n");
  }
  if (!options.json_report_path.empty()) {
    std::printf("JSON report written to %s\n", options.json_report_path.c_str());
  }
  return contango.all_ok() ? 0 : 1;
}
