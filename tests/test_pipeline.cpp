#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cts/bufferopt.h"
#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "cts/vanginneken.h"
#include "expect_eval.h"
#include "netlist/generators.h"

namespace contango {
namespace {

// ------------------------------------------------------------ spec parsing --

TEST(PipelineSpec, ParsesNamesAndParams) {
  const auto items =
      parse_pipeline_spec("dme, repair ,insert,twsn:rounds=3:unit=10.5");
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].name, "dme");
  EXPECT_EQ(items[1].name, "repair");  // whitespace trimmed
  EXPECT_TRUE(items[1].params.empty());
  EXPECT_EQ(items[3].name, "twsn");
  ASSERT_EQ(items[3].params.size(), 2u);
  EXPECT_EQ(items[3].params[0].first, "rounds");
  EXPECT_EQ(items[3].params[0].second, "3");
  EXPECT_EQ(items[3].params[1].first, "unit");
  EXPECT_EQ(items[3].params[1].second, "10.5");
}

TEST(PipelineSpec, RejectsEmptySpec) {
  EXPECT_THROW(parse_pipeline_spec(""), PipelineError);
  EXPECT_THROW(parse_pipeline_spec("   "), PipelineError);
}

TEST(PipelineSpec, RejectsStrayCommas) {
  EXPECT_THROW(parse_pipeline_spec("dme,,repair"), PipelineError);
  EXPECT_THROW(parse_pipeline_spec("dme,"), PipelineError);
  EXPECT_THROW(parse_pipeline_spec(",dme"), PipelineError);
}

TEST(PipelineSpec, RejectsMalformedParams) {
  EXPECT_THROW(parse_pipeline_spec("twsz:safety"), PipelineError);   // no '='
  EXPECT_THROW(parse_pipeline_spec("twsz:=0.5"), PipelineError);     // no key
  EXPECT_THROW(parse_pipeline_spec("twsz:rounds="), PipelineError);  // no value
}

TEST(PipelineSpec, UnknownPassNamedInError) {
  try {
    Pipeline::from_spec("dme,bogus,twsz");
    FAIL() << "expected PipelineError";
  } catch (const PipelineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("bogus"), std::string::npos) << message;
    EXPECT_NE(message.find("twsn"), std::string::npos)
        << "known passes should be listed: " << message;
  }
}

TEST(PipelineSpec, UnknownOrMalformedParamRejected) {
  EXPECT_THROW(Pipeline::from_spec("twsz:bogus=1"), PipelineError);
  EXPECT_THROW(Pipeline::from_spec("twsz:rounds=abc"), PipelineError);
  EXPECT_THROW(Pipeline::from_spec("twsn:unit=abc"), PipelineError);
  EXPECT_THROW(Pipeline::from_spec("dme:balance=sideways"), PipelineError);
  // Values that would hang, crash or silently void a run are rejected up
  // front, naming the parameter: a zero or negative candidate spacing
  // never ends the insertion walk, a snaking unit <= 0 calibrates on
  // negative snakes and then edits nothing, fewer than one refine round
  // spends the calibration sim on nothing, a negative sizing count means
  // nothing, a count past int would wrap, and std::stod accepts "nan" and
  // "inf".
  const std::pair<const char*, const char*> bad_values[] = {
      {"insert:spacing=0", "spacing"},   {"insert:spacing=-5", "spacing"},
      {"twsz:safety=nan", "safety"},     {"twsz:safety=inf", "safety"},
      {"twsn:unit=-inf", "unit"},        {"twsn:unit=-20", "unit"},
      {"twsn:unit=0", "unit"},           {"bwsn:unit=-5", "unit"},
      {"twsz:rounds=0", "rounds"},       {"twsn:rounds=0", "rounds"},
      {"bwsn:rounds=-3", "rounds"},      {"twsz:rounds=4294967297", "rounds"},
      {"tbsz:iters=-1", "iters"},        {"tbsz:levels=-2", "levels"},
      {"insert:max_ladder=0", "max_ladder"}};
  for (const auto& [spec, param] : bad_values) {
    try {
      Pipeline::from_spec(spec);
      ADD_FAILURE() << "expected PipelineError for " << spec;
    } catch (const PipelineError& e) {
      EXPECT_NE(std::string(e.what()).find(param), std::string::npos) << e.what();
    }
  }
}

// A wire width outside the benchmark's library is caught when DME runs
// (the library is only known then), with an error naming the parameter.
TEST(Pipeline, DmeWireWidthOutsideLibraryRejected) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  FlowOptions options;
  options.pipeline = "dme:wire_width=99,repair,insert,polarity";
  try {
    run_contango(bench, options);
    FAIL() << "expected PipelineError";
  } catch (const PipelineError& e) {
    EXPECT_NE(std::string(e.what()).find("wire_width"), std::string::npos)
        << e.what();
  }
}

TEST(PipelineSpec, ContainsAndWithoutHelpers) {
  EXPECT_TRUE(pipeline_spec_contains("dme, repair, twsz:rounds=2", "twsz"));
  EXPECT_FALSE(pipeline_spec_contains("dme,repair", "twsz"));
  // Removal keeps the other passes' overrides and normalizes whitespace.
  EXPECT_EQ(pipeline_spec_without("dme, repair, twsz:rounds=2, bwsn", "twsz"),
            "dme,repair,bwsn");
  EXPECT_EQ(pipeline_spec_without("dme,twsn:unit=10,bwsn", "bwsn"),
            "dme,twsn:unit=10");
  EXPECT_THROW(pipeline_spec_without("dme", "dme"), PipelineError);
  EXPECT_THROW(pipeline_spec_contains("dme,,twsz", "dme"), PipelineError);
}

TEST(PipelineRegistry, BuiltinCarriesTheEightStockPasses) {
  const std::vector<std::string> expected{"dme",  "repair", "insert",
                                          "polarity", "tbsz", "twsz",
                                          "twsn", "bwsn"};
  EXPECT_EQ(PassRegistry::builtin().names(), expected);
  for (const std::string& name : expected) {
    EXPECT_TRUE(PassRegistry::builtin().contains(name));
    EXPECT_EQ(PassRegistry::builtin().create(name)->name(), name);
  }
}

TEST(PipelineRegistry, RejectsDuplicateRegistration) {
  PassRegistry registry;
  register_builtin_passes(registry);
  EXPECT_THROW(register_builtin_passes(registry), std::invalid_argument);
}

// -------------------------------------------------------------- execution --

/// What the reference ladder saw while choosing the composite.
struct LadderStats {
  int evaluated = 0;            ///< candidates it simulated
  int fitting_after_first = 0;  ///< candidates k >= 2 within the cap budget
  int slew_rejected = 0;        ///< of those, the ones a slew violation lost
};

/// Test-only reference of INSERT's composite ladder at its default
/// parameters: it cold-evaluates every candidate it builds, the first
/// included, and keeps the strongest one within the cap budget whose
/// evaluation is slew-clean, or the first when none is.
class ReferenceInsertPass : public Pass {
 public:
  explicit ReferenceInsertPass(LadderStats* stats) : stats_(stats) {}
  const char* name() const override { return "refinsert"; }
  const char* display_name() const override { return "INSERT"; }

  void run(FlowContext& ctx) override {
    const CompositeBuffer unit = ctx.unit();
    std::vector<Ff> sink_caps;
    for (const Sink& s : ctx.bench.sinks) sink_caps.push_back(s.cap);
    const Ff cap_budget = ctx.bench.tech.cap_limit > 0.0
                              ? 0.9 * ctx.bench.tech.cap_limit
                              : std::numeric_limits<double>::max();
    ClockTree buffered;
    bool have_candidate = false;
    for (int k = 1; k <= 8; ++k) {
      const CompositeBuffer composite{unit.inverter_type, unit.count * k};
      ClockTree candidate = ctx.tree;
      insert_buffers(candidate, ctx.bench, composite, BufferInsertionOptions{});
      equalize_stage_counts(candidate, ctx.bench, composite);
      const Ff cap = candidate.total_cap(ctx.bench.tech, sink_caps);
      if (have_candidate && cap > cap_budget) break;
      if (have_candidate) ++stats_->fitting_after_first;
      const EvalResult r = ctx.eval.evaluate(candidate);
      ++stats_->evaluated;
      if (have_candidate && r.slew_violation) ++stats_->slew_rejected;
      if (!have_candidate || !r.slew_violation) {
        buffered = std::move(candidate);
        ctx.result.buffer = composite;
        have_candidate = true;
      }
      if (cap > cap_budget) break;
    }
    ctx.tree = std::move(buffered);
  }

 private:
  LadderStats* stats_;
};

/// Construction (`dme,repair,<insert>,polarity`) with the reference ladder
/// in INSERT's place.
FlowResult run_reference_construction(const Benchmark& bench, LadderStats* stats) {
  PassRegistry registry = PassRegistry::builtin();
  registry.add("refinsert",
               [stats] { return std::make_unique<ReferenceInsertPass>(stats); });
  return Pipeline::from_spec("dme,repair,refinsert,polarity", registry).run(bench);
}

/// The product ladder skips only evaluations whose verdict cannot change
/// the choice, so it picks what the evaluate-everything reference picks and
/// simulates exactly the candidates after the first that fit the budget.
/// `stats` receives what the reference ladder saw.
void expect_insert_matches_reference(const Benchmark& bench, LadderStats* stats) {
  const FlowResult ref = run_reference_construction(bench, stats);
  FlowOptions options;
  options.pipeline = "dme,repair,insert,polarity";
  const FlowResult r = run_contango(bench, options);

  EXPECT_EQ(r.buffer, ref.buffer);
  EXPECT_EQ(r.tree.size(), ref.tree.size());
  EXPECT_EQ(r.tree.total_wirelength(), ref.tree.total_wirelength());
  expect_bit_identical(r.eval, ref.eval, "final eval");
  ASSERT_EQ(r.pass_timings.size(), 4u);
  ASSERT_EQ(ref.pass_timings.size(), 4u);
  ASSERT_EQ(ref.pass_timings[2].name, "INSERT");
  EXPECT_EQ(ref.pass_timings[2].sim_runs, stats->evaluated);
  EXPECT_EQ(stats->evaluated, stats->fitting_after_first + 1);
  EXPECT_EQ(r.pass_timings[2].sim_runs, stats->fitting_after_first);
  EXPECT_EQ(r.pass_timings[2].full_evals, stats->fitting_after_first);
  EXPECT_EQ(r.sim_runs + 1, ref.sim_runs);
}

TEST(InsertLadder, SkippedEvaluationsNeverChangeTheChoice) {
  for (const auto& family : ScenarioRegistry::builtin().families()) {
    SCOPED_TRACE(family.name);
    LadderStats stats;
    expect_insert_matches_reference(make_scenario(family.name, 1), &stats);
  }
}

// With a loosened cap limit the stronger composites fit the budget, so the
// ladder simulates them; under a tight slew limit some of them violate and
// the slew verdict decides the choice (on clustered it keeps 3x, not 7x).
TEST(InsertLadder, LoosenedCapEvaluatesStrongerCandidates) {
  for (const bool tight_slew : {false, true}) {
    for (const char* family : {"uniform", "clustered", "high_fanout"}) {
      SCOPED_TRACE(std::string(family) + (tight_slew ? " tight slew" : ""));
      Benchmark bench = make_scenario(family, 1);
      bench.tech.cap_limit *= 1.5;
      if (tight_slew) bench.tech.slew_limit = 64.0;
      LadderStats stats;
      expect_insert_matches_reference(bench, &stats);
      EXPECT_GE(stats.fitting_after_first, 2) << "k=2 and k=3 fit the budget";
      if (tight_slew) EXPECT_GE(stats.slew_rejected, 1);
    }
  }
}

TEST(Pipeline, PassTimingsCoverEveryPassInOrder) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult r = run_contango(bench);

  const std::vector<std::string> expected{"DME",  "REPAIR", "INSERT",
                                          "POLARITY", "TBSZ", "TWSZ",
                                          "TWSN", "BWSN"};
  ASSERT_EQ(r.pass_timings.size(), expected.size());
  long total_sims = 0;
  long total_stage_evals = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const PassTiming& p = r.pass_timings[i];
    EXPECT_EQ(p.name, expected[i]);
    EXPECT_GE(p.wall_seconds, 0.0);
    EXPECT_GE(p.cpu_seconds, 0.0);
    EXPECT_GE(p.sim_runs, 0);
    // Every run is exactly one full or one incremental evaluation.
    EXPECT_EQ(p.sim_runs, p.full_evals + p.incremental_evals) << p.name;
    EXPECT_GE(p.batched_stage_evals, 0) << p.name;
    total_sims += p.sim_runs;
    total_stage_evals += p.batched_stage_evals;
  }
  EXPECT_EQ(r.sim_runs, r.full_evals + r.incremental_evals);
  // Composite selection keeps its first candidate unsimulated and
  // simulates each later one that fits the cap budget.
  LadderStats stats;
  run_reference_construction(bench, &stats);
  EXPECT_EQ(r.pass_timings[2].sim_runs, stats.fitting_after_first)
      << "INSERT simulates the candidates after the first within budget";
  // Every simulation is attributed to a pass except the single INITIAL
  // snapshot evaluation, which belongs to the pipeline itself.
  EXPECT_EQ(total_sims + 1, r.sim_runs);
  EXPECT_LE(total_stage_evals, r.batched_stage_evals);
}

// Satellite lock: repeated passes must snapshot under unique names.
TEST(Pipeline, RepeatedPassGetsUniqueSnapshotNames) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  FlowOptions options;
  options.pipeline = "dme,repair,insert,polarity,twsz,twsz";
  const FlowResult r = run_contango(bench, options);

  std::vector<std::string> names;
  for (const StageSnapshot& s : r.stages) names.push_back(s.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"INITIAL", "TWSZ", "TWSZ#2"}));
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size()) << "duplicate snapshot names";

  // stage() resolves both instances unambiguously.
  ASSERT_NE(r.stage("TWSZ"), nullptr);
  ASSERT_NE(r.stage("TWSZ#2"), nullptr);
  EXPECT_LE(r.stage("TWSZ#2")->skew, r.stage("TWSZ")->skew + 1e-9);

  // Timing names stay unique as well.
  std::set<std::string> timing_names;
  for (const PassTiming& p : r.pass_timings) timing_names.insert(p.name);
  EXPECT_EQ(timing_names.size(), r.pass_timings.size());
}

TEST(Pipeline, ZeroSafetyOverrideIsANoOpStage) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  FlowOptions construction;
  construction.pipeline = "dme,repair,insert,polarity";
  const FlowResult base = run_contango(bench, construction);
  ASSERT_EQ(base.stages.size(), 1u);
  EXPECT_EQ(base.stages[0].name, "INITIAL");

  FlowOptions with_noop = construction;
  // A zero safety factor leaves no slack budget, so the first round edits
  // nothing and the refine loop ends there.
  with_noop.pipeline = "dme,repair,insert,polarity,twsn:safety=0";
  const FlowResult noop = run_contango(bench, with_noop);
  ASSERT_EQ(noop.stages.size(), 2u);
  EXPECT_EQ(noop.stages[1].name, "TWSN");
  // The stage edits nothing: the network is exactly the constructed one.
  EXPECT_EQ(noop.eval.nominal_skew, base.eval.nominal_skew);
  EXPECT_EQ(noop.eval.clr, base.eval.clr);
  EXPECT_EQ(noop.tree.size(), base.tree.size());
}

TEST(Pipeline, ParameterOverrideChangesTheFlow) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  FlowOptions coarse;
  coarse.pipeline = "dme,repair,insert,polarity,twsn:unit=80";
  const FlowResult a = run_contango(bench, coarse);
  FlowOptions fine;
  fine.pipeline = "dme,repair,insert,polarity,twsn:unit=5";
  const FlowResult b = run_contango(bench, fine);
  // Different snake units must visibly change the synthesis outcome.
  EXPECT_NE(a.eval.nominal_skew, b.eval.nominal_skew);
  // Both still end legal and IVC-monotone from INITIAL.
  EXPECT_LE(a.eval.nominal_skew, a.stages[0].skew + 1e-9);
  EXPECT_LE(b.eval.nominal_skew, b.stages[0].skew + 1e-9);
}

// A spec that never builds a tree must fail with a clear error, not crash
// — it is reachable straight from the CONTANGO_PIPELINE env knob.
TEST(Pipeline, SpecWithoutTreeBuildingPassesFailsCleanly) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  for (const char* spec : {"twsz", "insert,twsz", "repair", "polarity"}) {
    FlowOptions options;
    options.pipeline = spec;
    SCOPED_TRACE(spec);
    try {
      run_contango(bench, options);
      FAIL() << "expected PipelineError";
    } catch (const PipelineError& e) {
      EXPECT_NE(std::string(e.what()).find("tree"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Pipeline, ConstructionOnlyPipelineStillEvaluates) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  FlowOptions options;
  options.pipeline = "dme,repair,insert,polarity";
  const FlowResult r = run_contango(bench, options);
  EXPECT_TRUE(r.eval.all_sinks_reached);
  EXPECT_GT(r.eval.max_latency, 0.0);
  EXPECT_GT(r.sim_runs, 0);
  EXPECT_EQ(r.pipeline_spec, options.pipeline);
  r.tree.validate();
}

}  // namespace
}  // namespace contango
