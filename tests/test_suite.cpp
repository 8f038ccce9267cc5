#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cts/suite.h"
#include "netlist/generators.h"
#include "util/parallel.h"

namespace contango {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);

  // The pool stays usable after wait().
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, InlineModeRunsOnCallerThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int count = 0;  // no atomic needed: inline mode never spawns workers
  pool.submit([&count] { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, CoversEachIndexExactlyOnce) {
  for (int threads : {1, 3, 8}) {
    std::vector<std::atomic<int>> hits(57);
    parallel_for(57, threads, [&hits](int i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
  }
  parallel_for(0, 4, [](int) { FAIL() << "no iterations expected"; });
}

TEST(Suite, EmptySuite) {
  const SuiteReport report = run_suite({});
  EXPECT_TRUE(report.runs.empty());
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.totals().sim_runs, 0);
}

/// The acceptance test of the runner: a 4-thread run must be bit-identical
/// to a 1-thread run of the same benchmark list — same stage snapshots,
/// same sink latencies and slews at every corner, same simulation counts.
TEST(Suite, FourThreadsMatchSerialBitForBit) {
  std::vector<Benchmark> suite;
  for (int n : {80, 120, 160, 200}) suite.push_back(generate_ti_like(n));

  SuiteOptions options;
  options.threads = 1;
  const SuiteReport serial = run_suite(suite, options);
  options.threads = 4;
  const SuiteReport parallel = run_suite(suite, options);

  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(parallel.threads, 4);
  ASSERT_EQ(serial.runs.size(), suite.size());
  ASSERT_EQ(parallel.runs.size(), suite.size());

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const SuiteRun& s = serial.runs[i];
    const SuiteRun& p = parallel.runs[i];
    SCOPED_TRACE(s.benchmark);

    // Input-order stability: slot i holds benchmark i for both runs.
    EXPECT_EQ(s.benchmark, suite[i].name);
    EXPECT_EQ(p.benchmark, suite[i].name);
    ASSERT_TRUE(s.ok) << s.error;
    ASSERT_TRUE(p.ok) << p.error;

    // Stage snapshots: identical metrics (wall times excluded).
    ASSERT_EQ(s.result.stages.size(), p.result.stages.size());
    for (std::size_t k = 0; k < s.result.stages.size(); ++k) {
      const StageSnapshot& ss = s.result.stages[k];
      const StageSnapshot& ps = p.result.stages[k];
      EXPECT_EQ(ss.name, ps.name);
      EXPECT_EQ(ss.skew, ps.skew);
      EXPECT_EQ(ss.clr, ps.clr);
      EXPECT_EQ(ss.max_latency, ps.max_latency);
      EXPECT_EQ(ss.cap, ps.cap);
      EXPECT_EQ(ss.sim_runs, ps.sim_runs);
    }
    EXPECT_EQ(s.result.sim_runs, p.result.sim_runs);

    // Sink timings: identical latency and slew for every sink at every
    // (corner, transition) pair.
    ASSERT_EQ(s.result.eval.corners.size(), p.result.eval.corners.size());
    for (std::size_t c = 0; c < s.result.eval.corners.size(); ++c) {
      for (int t = 0; t < kNumTransitions; ++t) {
        const auto& ssinks = s.result.eval.corners[c].sinks[static_cast<std::size_t>(t)];
        const auto& psinks = p.result.eval.corners[c].sinks[static_cast<std::size_t>(t)];
        ASSERT_EQ(ssinks.size(), psinks.size());
        for (std::size_t j = 0; j < ssinks.size(); ++j) {
          EXPECT_EQ(ssinks[j].latency, psinks[j].latency);
          EXPECT_EQ(ssinks[j].slew, psinks[j].slew);
          EXPECT_EQ(ssinks[j].reached, psinks[j].reached);
        }
      }
    }
  }

  // The report renders through io/table and carries the aggregate counters.
  EXPECT_EQ(serial.totals().sim_runs, parallel.totals().sim_runs);
  EXPECT_FALSE(parallel.table().empty());
  EXPECT_GT(parallel.cpu_seconds(), 0.0);
}

TEST(Suite, MonteCarloPassAddsColumnsAndStaysDeterministic) {
  std::vector<Benchmark> suite;
  for (int n : {60, 90}) suite.push_back(generate_ti_like(n));

  SuiteOptions options;
  options.threads = 1;
  options.mc_trials = 8;
  options.variation.sigma_vdd = 0.05;
  options.variation.seed = 11;

  const SuiteReport serial = run_suite(suite, options);
  options.threads = 4;
  const SuiteReport parallel = run_suite(suite, options);

  ASSERT_EQ(serial.runs.size(), 2u);
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    const SuiteRun& s = serial.runs[i];
    const SuiteRun& p = parallel.runs[i];
    ASSERT_TRUE(s.ok) << s.error;
    ASSERT_TRUE(s.has_mc);
    ASSERT_TRUE(p.has_mc);
    EXPECT_EQ(s.mc.trials, 8);
    // The MC pass inherits the runner's determinism: suite thread count
    // must not move a single bit of the variation statistics.
    EXPECT_EQ(s.mc.skew.mean, p.mc.skew.mean);
    EXPECT_EQ(s.mc.skew.p99, p.mc.skew.p99);
    EXPECT_EQ(s.mc.clr.p95, p.mc.clr.p95);
    EXPECT_EQ(s.mc.yield, p.mc.yield);
  }
  // MC trials are CNE passes and count toward the suite's sim total.
  long flow_sims = 0;
  for (const SuiteRun& r : serial.runs) flow_sims += r.result.sim_runs;
  EXPECT_EQ(serial.totals().sim_runs, flow_sims + 2 * 8);

  // The text table grows the MC columns only when MC ran.
  EXPECT_NE(serial.table().find("Yield%"), std::string::npos);
  EXPECT_NE(serial.table().find("MC p95"), std::string::npos);
  const SuiteReport plain = run_suite({suite[0]});
  EXPECT_EQ(plain.table().find("Yield%"), std::string::npos);
}

/// The five counter keys as the report writes them, in order.
std::string counter_json(const WorkCounters& c, const std::string& prefix = "") {
  return "\"" + prefix + "sim_runs\":" + std::to_string(c.sim_runs) + ",\"" +
         prefix + "full_evals\":" + std::to_string(c.full_evals) + ",\"" +
         prefix + "incremental_evals\":" + std::to_string(c.incremental_evals) +
         ",\"" + prefix + "batched_stage_evals\":" +
         std::to_string(c.batched_stage_evals) + ",\"" + prefix +
         "early_rejects\":" + std::to_string(c.early_rejects);
}

TEST(Suite, WritesJsonReportToRequestedPath) {
  const std::string path = ::testing::TempDir() + "contango_suite_report.json";
  std::vector<Benchmark> suite{generate_ti_like(60)};

  SuiteOptions options;
  options.threads = 1;
  options.mc_trials = 4;
  options.json_report_path = path;
  const SuiteReport report = run_suite(suite, options);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "report not written to " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_EQ(json, report.to_json() + "\n");
  EXPECT_NE(json.find("\"type\":\"contango_suite_report\""), std::string::npos);
  EXPECT_NE(json.find("\"benchmark\":"), std::string::npos);
  EXPECT_NE(json.find("\"mc\":"), std::string::npos);
  EXPECT_EQ(json.find("\"samples\""), std::string::npos);  // summaries only

  // The work counters keep their key order in all three blocks: the suite
  // totals (synthesis plus MC trials), each run and each pass.
  ASSERT_TRUE(report.all_ok());
  const WorkCounters totals = report.totals();
  EXPECT_EQ(totals.sim_runs, report.runs[0].result.sim_runs + 4);
  EXPECT_NE(json.find(counter_json(totals, "total_") + ",\"all_ok\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(counter_json(report.runs[0].result) + ",\"clr_ps\":"),
            std::string::npos)
      << json;
  ASSERT_FALSE(report.runs[0].result.pass_timings.empty());
  for (const PassTiming& p : report.runs[0].result.pass_timings) {
    EXPECT_NE(json.find(counter_json(p) + "}"), std::string::npos) << p.name;
  }

  // Balanced containers: the writer closed everything it opened.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path.c_str());

  // An unwritable path fails loudly, not silently.
  options.json_report_path = "/nonexistent_dir_xyz/report.json";
  EXPECT_THROW(run_suite(suite, options), std::runtime_error);
}

TEST(Suite, PipelineSpecFlowsIntoRunsAndJson) {
  std::vector<Benchmark> suite{generate_ispd_like(ispd09_suite_params(3))};
  SuiteOptions options;
  options.threads = 1;
  options.pipeline_spec = "dme,repair,insert,polarity";
  const SuiteReport report = run_suite(suite, options);
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.runs[0].result.pipeline_spec, options.pipeline_spec);
  ASSERT_EQ(report.runs[0].result.pass_timings.size(), 4u);
  EXPECT_EQ(report.runs[0].result.pass_timings[0].name, "DME");

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"pipeline_spec\":\"dme,repair,insert,polarity\""),
            std::string::npos);
  EXPECT_NE(json.find("\"passes\":["), std::string::npos);
  EXPECT_NE(json.find("\"stages\":["), std::string::npos);
  EXPECT_NE(json.find("\"cpu_seconds\":"), std::string::npos);

  // A malformed spec throws before any run starts.
  options.pipeline_spec = "dme,bogus";
  EXPECT_THROW(run_suite(suite, options), std::runtime_error);

  // A syntactically valid spec that never builds a tree is a per-run
  // failure (recorded, no crash), since up-front validation cannot know
  // which registered passes build trees.
  options.pipeline_spec = "twsz,twsn";
  const SuiteReport no_tree = run_suite(suite, options);
  ASSERT_EQ(no_tree.runs.size(), 1u);
  EXPECT_FALSE(no_tree.all_ok());
  EXPECT_NE(no_tree.runs[0].error.find("tree"), std::string::npos)
      << no_tree.runs[0].error;
}

/// Scoped setenv/unsetenv so env tests cannot leak into other tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(SuiteEnv, ValidValuesParse) {
  ScopedEnv threads("CONTANGO_THREADS", "3");
  ScopedEnv trials("CONTANGO_MC_TRIALS", "16");
  ScopedEnv sigma("CONTANGO_MC_SIGMA_VDD", "0.07");
  ScopedEnv pipeline("CONTANGO_PIPELINE", "dme,repair,insert,polarity,twsn");
  const SuiteOptions options = suite_options_from_env();
  EXPECT_EQ(options.threads, 3);
  EXPECT_EQ(options.mc_trials, 16);
  EXPECT_DOUBLE_EQ(options.variation.sigma_vdd, 0.07);
  EXPECT_EQ(options.pipeline_spec, "dme,repair,insert,polarity,twsn");
}

TEST(SuiteEnv, MalformedNumericValuesRejectedNamingTheVariable) {
  {
    ScopedEnv bad("CONTANGO_THREADS", "abc");
    try {
      suite_options_from_env();
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("CONTANGO_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
  {
    ScopedEnv bad("CONTANGO_MC_TRIALS", "12x");
    EXPECT_THROW(suite_options_from_env(), std::runtime_error);
  }
  {
    ScopedEnv bad("CONTANGO_MC_SIGMA_VDD", "five percent");
    try {
      suite_options_from_env();
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("CONTANGO_MC_SIGMA_VDD"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SuiteEnv, NegativeCountsRejected) {
  {
    ScopedEnv bad("CONTANGO_MC_TRIALS", "-5");
    try {
      suite_options_from_env();
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("CONTANGO_MC_TRIALS"),
                std::string::npos)
          << e.what();
    }
  }
  {
    ScopedEnv bad("CONTANGO_THREADS", "-1");
    EXPECT_THROW(suite_options_from_env(), std::runtime_error);
  }
}

TEST(SuiteEnv, UnknownContangoVariablesAreReportedNotFatal) {
  ScopedEnv typo("CONTANGO_THREAD", "4");  // the classic knob typo
  ScopedEnv reserved("CONTANGO_TEST_SCRATCH", "1");
  ScopedEnv known("CONTANGO_THREADS", "1");
  // A knob that no longer exists is reported like any typo.
  ScopedEnv retired("CONTANGO_SPATIAL", "0");
  const std::vector<std::string> unknown = unknown_contango_env_vars();
  EXPECT_NE(std::find(unknown.begin(), unknown.end(), "CONTANGO_THREAD"),
            unknown.end());
  EXPECT_NE(std::find(unknown.begin(), unknown.end(), "CONTANGO_SPATIAL"),
            unknown.end());
  // Real knobs and the CONTANGO_TEST_ namespace never warn about themselves.
  EXPECT_EQ(std::find(unknown.begin(), unknown.end(), "CONTANGO_THREADS"),
            unknown.end());
  EXPECT_EQ(std::find(unknown.begin(), unknown.end(), "CONTANGO_TEST_SCRATCH"),
            unknown.end());
  // A typo warns (through Log::warn) but must not reject the environment:
  // the variable may belong to a different binary's future knob set.
  EXPECT_NO_THROW(suite_options_from_env());
}

TEST(SuiteEnv, BadPipelineSpecRejectedNamingTheKnob) {
  ScopedEnv bad("CONTANGO_PIPELINE", "dme,definitely_not_a_pass");
  try {
    suite_options_from_env();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("CONTANGO_PIPELINE"), std::string::npos) << message;
    EXPECT_NE(message.find("definitely_not_a_pass"), std::string::npos)
        << message;
  }
}

}  // namespace
}  // namespace contango
