// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--tiny] [--tamper]
//
// Runs one named workload as a closed loop with one caller: set up the
// input from the seed, then repeat the timed operation back to back until
// `--seconds` have elapsed, checking every operation's output.  The last
// stdout line is one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  Every number is reached from outside the library, by timing
// calls to public functions and reading the counters the library already
// reports (FlowResult::pass_timings, Evaluator counts, McReport).
//
// Workloads (perfbench/ledger.json records why each is included):
//   flow_huge5k     text .bench load + the default 8-pass Contango flow
//   build_huge100k  .cbench load + the construction passes only
//   mc_highfanout   run_montecarlo over a synthesized high_fanout tree
//
// --tiny shrinks every workload to a smoke-test size and --tamper perturbs
// the expected evaluation so every check fails; both exist for
// perfbench/selftest.py.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/evaluate.h"
#include "analysis/montecarlo.h"
#include "analysis/transient.h"
#include "analysis/variation.h"
#include "cts/flow.h"
#include "cts/scenario.h"
#include "netlist/binio.h"
#include "netlist/io.h"
#include "rctree/extract.h"
#include "rctree/soa.h"

using namespace contango;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Index of the lower-median element of `v` (the sample a decomposition is
// read from, so its parts add up exactly).
std::size_t median_index(const std::vector<double>& v) {
  std::vector<std::size_t> idx(v.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return idx[(idx.size() - 1) / 2];
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ------------------------------------------------------------------ spans --

// Spans recorded from this file around each call into the library: name,
// start, end, parent span and the operation they belong to.  Kept in memory
// and written out once the run ends.  A disabled tracer reads no clock.
class Tracer {
 public:
  struct Span {
    std::string name;
    int op = -1;
    int parent = -1;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (tracer_.enabled) id_ = tracer_.open(name);
    }
    ~Scope() {
      if (id_ >= 0) tracer_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_ = -1;
  };

  bool enabled = false;
  int op = -1;  ///< operation id stamped on new spans

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: duration minus the part covered by children.
  std::map<std::string, std::pair<double, double>> totals() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = spans_[i].end - spans_[i].start;
      out[spans_[i].name].first += d;
      out[spans_[i].name].second += d - child[i];
    }
    return out;
  }

  void write_json(const std::string& path) const {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot write trace file " + path);
    f << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "  {\"id\": %zu, \"name\": \"%s\", \"op\": %d, \"parent\": %d, "
                    "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                    i, s.name.c_str(), s.op, s.parent, s.start, s.end,
                    i + 1 < spans_.size() ? "," : "");
      f << line;
    }
    f << "]\n";
  }

 private:
  int open(const char* name) {
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = seconds_since(origin_);
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = seconds_since(origin_);
    stack_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    list_.push_back({name, value, unit});
  }
  double get(const std::string& name) const {
    for (const Metric& m : list_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ------------------------------------------------------------------- args --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool tamper = false;
  std::string workdir = ".bench_build/perfbench/work";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (k == "--seed") {
      const long long s = std::stoll(value());
      if (s < 0) throw std::invalid_argument("--seed must be >= 0");
      a.seed = static_cast<std::uint64_t>(s);
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (k == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--workdir") {
      a.workdir = value();
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--tamper") {
      a.tamper = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

// -------------------------------------------------------------- workloads --

constexpr const char* kPasses[] = {"dme",  "repair", "insert", "polarity",
                                   "tbsz", "twsz",   "twsn",   "bwsn"};
// Set-up repeats, cycling over the instances, at least kSetupReps times
// (and once per instance) and until it has run for kSetupMinSeconds, so a
// fast set-up is still a steady median.
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kSetupMaxReps = 100;
constexpr double kSetupMinSeconds = 1.0;
constexpr double kReplayMinSeconds = 0.5;
constexpr int kMcTrials = 64;
constexpr int kMcTrialsTiny = 8;
constexpr Ps kMcSkewTarget = 10.0;

// The Table VI variation model.  VariationModel{} has every sigma at zero,
// which would make every trial equal the nominal corner.
VariationModel mc_model(std::uint64_t seed) {
  VariationModel m;
  m.sigma_vdd = 0.05;
  m.sigma_wire_r = 0.03;
  m.sigma_wire_c = 0.03;
  m.sigma_sink_cap = 0.02;
  m.seed = seed;
  return m;
}

// What one timed operation produced, beyond pass/fail.
struct OpSample {
  int instance = 0;
  bool ok = false;
  bool traced = false;
  double solve_s = 0.0;
  double cpu_s = 0.0;
  double load_s = 0.0;
  // Quality of the result (nominal corner of the reported tree).
  double skew = 0.0, clr = 0.0, max_latency = 0.0, cap = 0.0;
  double mc_yield = 0.0, mc_skew_p95 = 0.0;
  // Work counters read from the library's own reports.
  long sim_runs = 0, full_evals = 0, incremental_evals = 0;
  long stage_evals = 0, mc_stage_evals = 0;
  int mc_trials = 0;
  std::vector<PassTiming> passes;
};

// Throws std::runtime_error naming the first field where the fresh
// evaluation and the expected one differ bit-wise.
void require_same_eval(const EvalResult& fresh, const EvalResult& expected,
                       const char* what) {
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"skew", {fresh.nominal_skew, expected.nominal_skew}},
      {"clr", {fresh.clr, expected.clr}},
      {"max_latency", {fresh.max_latency, expected.max_latency}},
      {"total_cap", {fresh.total_cap, expected.total_cap}},
  };
  for (const auto& f : fields) {
    if (!bit_equal(f.second.first, f.second.second)) {
      char msg[256];
      std::snprintf(msg, sizeof msg, "%s: %s %.17g != expected %.17g", what,
                    f.first, f.second.first, f.second.second);
      throw std::runtime_error(msg);
    }
  }
}

// Planted mismatch for the self-test: the smallest possible change.
void tamper(EvalResult& e) {
  e.nominal_skew = std::nextafter(e.nominal_skew, std::numeric_limits<double>::max());
}

void require_tree_reaches_all_sinks(const ClockTree& tree, const Benchmark& bench,
                                    const EvalResult& eval) {
  tree.validate();
  std::vector<char> seen(bench.sinks.size(), 0);
  std::size_t reached = 0;
  for (NodeId id : tree.topological_order()) {
    const TreeNode& n = tree.node(id);
    if (!n.is_sink()) continue;
    if (n.sink_index < 0 || static_cast<std::size_t>(n.sink_index) >= seen.size() ||
        seen[static_cast<std::size_t>(n.sink_index)]) {
      throw std::runtime_error("tree has a bad or duplicate sink node");
    }
    seen[static_cast<std::size_t>(n.sink_index)] = 1;
    ++reached;
  }
  if (reached != bench.sinks.size() || !eval.all_sinks_reached) {
    throw std::runtime_error("tree reaches " + std::to_string(reached) + " of " +
                             std::to_string(bench.sinks.size()) + " sinks");
  }
}

// Everything a workload supplies to the shared closed loop.  A run rotates
// its operations over `instances` inputs drawn from the seed, so one run
// averages over more than one instance.
struct Workload {
  int instances = 1;
  /// Sets up input instance k; returns the seconds it spent producing the
  /// input, which excludes the benchmark's own bookkeeping.
  std::function<double(int k)> setup;
  /// One timed operation on instance k; fills `s` and keeps its output for
  /// check().
  std::function<void(int k, OpSample& s)> op;
  /// Checks the output of the operation just run; throws on a mismatch.
  std::function<void()> check;
  /// Replays on the last operation's output (traced run only); adds
  /// per-layer metrics.
  std::function<void(Metrics& m)> replay;
};

// Replays the analysis layers on one output tree: extraction, cold
// evaluation, a one-edge incremental candidate, and the transient kernel
// alone.  Each replay repeats until it has run for kReplayMinSeconds (at
// least once) and reports its median.
void replay_analysis(const Benchmark& bench, const ClockTree& tree, Tracer& tracer,
                     Metrics& m) {
  const EvalOptions eopts;
  auto repeat = [&](const std::function<double()>& once) {
    std::vector<double> t;
    const auto t0 = Clock::now();
    do {
      t.push_back(once());
    } while (seconds_since(t0) < kReplayMinSeconds && t.size() < 50);
    return median(t);
  };

  StagedNetlist net;
  const double extract_s = repeat([&] {
    Tracer::Scope span(tracer, "rctree.extract_stages");
    const auto t0 = Clock::now();
    net = extract_stages(tree, bench, eopts.extract);
    return seconds_since(t0);
  });
  m.set("rctree.extract_s", extract_s, "s");
  m.set("rctree.stages", static_cast<double>(net.stages.size()), "count");
  m.set("rctree.nodes", static_cast<double>(net.node_count()), "count");

  long cold_units = 0;
  const double cold_s = repeat([&] {
    Evaluator ev(bench, eopts);
    Tracer::Scope span(tracer, "analysis.Evaluator::evaluate");
    const auto t0 = Clock::now();
    ev.evaluate(tree);
    const double s = seconds_since(t0);
    cold_units = ev.batched_stage_evals() + ev.scalar_stage_evals();
    return s;
  });
  m.set("analysis.cold_eval_s", cold_s, "s");
  m.set("analysis.cold_stage_evals", static_cast<double>(cold_units), "count");
  m.set("analysis.us_per_stage_eval_cold",
        cold_units > 0 ? cold_s * 1e6 / static_cast<double>(cold_units) : 0.0, "us");

  // One IVC candidate: a single-edge snake edit on a sink edge, then an
  // incremental evaluation; rolled back before the next candidate.
  {
    ClockTree work = tree;
    Evaluator ev(bench, eopts);
    IncrementalEvaluator inc(ev);
    inc.bind(work);
    inc.evaluate();
    std::vector<NodeId> sinks;
    for (NodeId id : work.topological_order()) {
      if (work.node(id).is_sink()) sinks.push_back(id);
    }
    const std::size_t candidates = std::min<std::size_t>(16, sinks.size());
    std::vector<double> times, units;
    for (std::size_t c = 0; c < candidates; ++c) {
      const NodeId target = sinks[c * sinks.size() / candidates];
      TreeEditSession edit(work, &inc.netlist());
      edit.add_snake(target, 1.0);
      const long before = inc.stage_sims();
      {
        Tracer::Scope span(tracer, "analysis.IncrementalEvaluator::evaluate");
        const auto t0 = Clock::now();
        inc.evaluate();
        times.push_back(seconds_since(t0));
      }
      units.push_back(static_cast<double>(inc.stage_sims() - before));
      edit.rollback();
      inc.evaluate();
    }
    const double inc_units = median(units);
    m.set("analysis.incremental_eval_s", median(times), "s");
    m.set("analysis.incremental_stage_evals", inc_units, "count");
    m.set("analysis.reuse_frac_est",
          cold_units > 0 ? 1.0 - inc_units / static_cast<double>(cold_units) : 0.0,
          "frac");
  }

  // simulate_stage_batch alone over every stage, at the nominal drives of
  // every (corner x transition) and the source input slew.
  NetlistSoa soa;
  soa.build(net);
  const TransientSimulator sim(eopts.transient);
  TransientScratch scratch;
  std::vector<BatchDrive> drives;
  std::vector<TapTiming> out;
  long kernel_units = 0;
  const double kernel_s = repeat([&] {
    Tracer::Scope span(tracer, "analysis.TransientSimulator::simulate_stage_batch");
    const auto t0 = Clock::now();
    long units = 0;
    for (std::size_t si = 0; si < net.stages.size(); ++si) {
      const Stage& st = net.stages[si];
      drives.clear();
      for (Volt vdd : bench.tech.corners) {
        for (int t = 0; t < kNumTransitions; ++t) {
          drives.push_back(BatchDrive{
              effective_driver_res(st.driver_res_nom, bench.tech, vdd,
                                   static_cast<Transition>(t)),
              effective_intrinsic(st.driver_intrinsic_nom, bench.tech, vdd),
              eopts.source_input_slew});
        }
      }
      out.resize(drives.size() * st.taps.size());
      sim.simulate_stage_batch(soa.view(static_cast<int>(si)), drives.data(),
                               drives.size(), out.data(), scratch);
      units += static_cast<long>(drives.size());
    }
    kernel_units = units;
    return seconds_since(t0);
  });
  m.set("analysis.kernel_us_per_stage_eval",
        kernel_units > 0 ? kernel_s * 1e6 / static_cast<double>(kernel_units) : 0.0,
        "us");
}

// Seed of instance k of a run: instance 0 is the run's own seed.
std::uint64_t instance_seed(std::uint64_t seed, int k) {
  return seed + static_cast<std::uint64_t>(k) * 1000003u;
}

// flow_huge5k and build_huge100k: generate `huge`, write it to disk, then
// time load + pipeline.
Workload flow_workload(const Args& a, int instances, int sinks, bool binary,
                       const std::string& pipeline, Tracer& tracer) {
  struct Instance {
    std::string path;
    Hash128 hash;
    bool hashed = false;
  };
  struct State {
    std::vector<Instance> inst;
    FlowOptions options;
    int current = 0;  ///< instance of the last operation
    Benchmark bench;
    FlowResult result;
  };
  auto st = std::make_shared<State>();
  st->inst.resize(static_cast<std::size_t>(instances));
  for (int k = 0; k < instances; ++k) {
    st->inst[static_cast<std::size_t>(k)].path =
        a.workdir + "/huge_s" + std::to_string(instance_seed(a.seed, k)) + "_n" +
        std::to_string(sinks) + (binary ? ".cbench" : ".bench");
  }
  st->options.pipeline = pipeline;

  Workload w;
  w.instances = instances;
  w.setup = [&a, st, sinks, binary](int k) {
    Instance& in = st->inst[static_cast<std::size_t>(k)];
    const auto t0 = Clock::now();
    const Benchmark gen = make_scenario("huge", instance_seed(a.seed, k), sinks);
    if (binary) {
      write_cbench_file(gen, in.path);
    } else {
      write_benchmark_file(gen, in.path);
    }
    const double seconds = seconds_since(t0);
    if (!in.hashed) {  // expected by check()
      in.hash = benchmark_content_hash(gen);
      in.hashed = true;
    }
    return seconds;
  };
  w.op = [&tracer, st, binary](int k, OpSample& s) {
    st->current = k;
    st->result = FlowResult{};
    const std::string& path = st->inst[static_cast<std::size_t>(k)].path;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, binary ? "netlist.read_cbench_file"
                                        : "netlist.read_benchmark_file");
      st->bench = binary ? read_cbench_file(path) : read_benchmark_file(path);
    }
    s.load_s = seconds_since(t0);
    {
      Tracer::Scope span(tracer, "cts.run_contango");
      st->result = run_contango(st->bench, st->options);
    }
    s.solve_s = seconds_since(t0);
    s.cpu_s = process_cpu_seconds() - cpu0;

    const FlowResult& r = st->result;
    s.skew = r.eval.nominal_skew;
    s.clr = r.eval.clr;
    s.max_latency = r.eval.max_latency;
    s.cap = r.eval.total_cap;
    s.sim_runs = r.sim_runs;
    s.full_evals = r.full_evals;
    s.incremental_evals = r.incremental_evals;
    s.stage_evals = r.batched_stage_evals + r.scalar_stage_evals;
    s.passes = r.pass_timings;
  };
  w.check = [&a, &tracer, st] {
    Tracer::Scope span(tracer, "check");
    if (benchmark_content_hash(st->bench) !=
        st->inst[static_cast<std::size_t>(st->current)].hash) {
      throw std::runtime_error("loaded benchmark hash differs from the generated one");
    }
    require_tree_reaches_all_sinks(st->result.tree, st->bench, st->result.eval);
    EvalResult expected = st->result.eval;
    if (a.tamper) tamper(expected);
    Evaluator ev(st->bench, st->options.eval);
    require_same_eval(ev.evaluate(st->result.tree), expected, "fresh evaluation");
  };
  w.replay = [&tracer, st](Metrics& m) {
    replay_analysis(st->bench, st->result.tree, tracer, m);
  };
  return w;
}

// mc_highfanout: synthesize a high_fanout tree, then time run_montecarlo.
Workload mc_workload(const Args& a, int instances, Tracer& tracer) {
  struct Instance {
    Benchmark bench;
    FlowResult synth;
  };
  struct State {
    std::vector<Instance> inst;
    McOptions options;
    VariationModel model;
    int current = 0;  ///< instance of the last operation
    McReport report;
  };
  auto st = std::make_shared<State>();
  st->inst.resize(static_cast<std::size_t>(instances));
  st->options.trials = a.tiny ? kMcTrialsTiny : kMcTrials;
  st->options.threads = 1;
  st->options.skew_target = kMcSkewTarget;
  st->model = mc_model(a.seed);

  Workload w;
  w.instances = instances;
  w.setup = [&a, st](int k) {
    Instance& in = st->inst[static_cast<std::size_t>(k)];
    const auto t0 = Clock::now();
    in.bench = make_scenario("high_fanout", instance_seed(a.seed, k), a.tiny ? 60 : 0);
    in.synth = run_contango(in.bench);
    return seconds_since(t0);
  };
  w.op = [&tracer, st](int k, OpSample& s) {
    st->current = k;
    st->report = McReport{};
    const Instance& in = st->inst[static_cast<std::size_t>(k)];
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "analysis.run_montecarlo");
      st->report = run_montecarlo(in.bench, in.synth.tree, st->model, st->options);
    }
    s.solve_s = seconds_since(t0);
    s.cpu_s = process_cpu_seconds() - cpu0;

    const McReport& r = st->report;
    s.skew = r.nominal.nominal_skew;
    s.clr = r.nominal.clr;
    s.max_latency = r.nominal.max_latency;
    s.cap = r.nominal.total_cap;
    s.mc_yield = r.yield;
    s.mc_skew_p95 = r.skew.p95;
    s.mc_trials = r.trials;
    s.sim_runs = r.trials;  // each trial is one simulation run
    s.full_evals = r.trials;
    s.mc_stage_evals = r.batched_stage_evals + r.scalar_stage_evals;
    s.stage_evals = s.mc_stage_evals;
  };
  w.check = [&a, &tracer, st] {
    Tracer::Scope span(tracer, "check");
    const Instance& in = st->inst[static_cast<std::size_t>(st->current)];
    Evaluator ev(in.bench, st->options.eval);
    EvalResult expected = ev.evaluate(in.synth.tree);
    require_tree_reaches_all_sinks(in.synth.tree, in.bench, expected);
    if (a.tamper) tamper(expected);
    require_same_eval(st->report.nominal, expected, "McReport::nominal");
    if (st->report.trials != st->options.trials ||
        st->report.samples.size() != static_cast<std::size_t>(st->options.trials)) {
      throw std::runtime_error("Monte-Carlo ran " + std::to_string(st->report.trials) +
                               " trials, asked for " +
                               std::to_string(st->options.trials));
    }
  };
  w.replay = [&tracer, st](Metrics& m) {
    const Instance& in = st->inst[static_cast<std::size_t>(st->current)];
    replay_analysis(in.bench, in.synth.tree, tracer, m);
  };
  return w;
}

// ------------------------------------------------------------------- main --

void print_host_facts() {
  std::printf("host: nproc %ld, compiler %s, build %s\n", sysconf(_SC_NPROCESSORS_ONLN),
#if defined(__clang__)
              "clang " __clang_version__,
#elif defined(__GNUC__)
              "gcc " __VERSION__,
#else
              "unknown",
#endif
#if defined(NDEBUG) && defined(__OPTIMIZE__)
              "optimized (NDEBUG)"
#elif defined(__OPTIMIZE__)
              "optimized (asserts on)"
#else
              "unoptimized"
#endif
  );
}

int run(const Args& a) {
  const std::string& w = a.workload;
  Tracer tracer;
  Workload wl;
  if (w == "flow_huge5k") {
    wl = flow_workload(a, 3, a.tiny ? 200 : 5000, false, "", tracer);
  } else if (w == "build_huge100k") {
    wl = flow_workload(a, 1, a.tiny ? 200 : 100000, true, "dme,repair,insert,polarity",
                       tracer);
  } else if (w == "mc_highfanout") {
    wl = mc_workload(a, 3, tracer);
  } else {
    throw std::invalid_argument("unknown workload '" + w +
                                "' (flow_huge5k, build_huge100k, mc_highfanout)");
  }

  print_host_facts();
  const auto instances = static_cast<std::size_t>(wl.instances);
  std::vector<double> setup_times;
  double setup_total = 0.0;
  while (setup_times.size() < std::max(kSetupReps, instances) ||
         (setup_total < kSetupMinSeconds && setup_times.size() < kSetupMaxReps)) {
    setup_times.push_back(wl.setup(static_cast<int>(setup_times.size() % instances)));
    setup_total += setup_times.back();
  }

  // Closed loop, one caller: the next operation starts when the previous
  // one (and its check) ends.  The untraced run rotates over the instances.
  // The traced run stays on instance 0, the seed's own, so its per-layer
  // counts belong to one input; it leaves its first operation untraced so
  // the tracing overhead is measured in the same process.
  std::vector<OpSample> samples;
  const std::size_t rotate = a.trace ? 1 : instances;
  const std::size_t min_ops = a.trace ? 2 : instances;
  const auto loop_t0 = Clock::now();
  while (samples.size() < min_ops || seconds_since(loop_t0) < a.seconds) {
    OpSample s;
    s.instance = static_cast<int>(samples.size() % rotate);
    s.traced = a.trace && !samples.empty();
    tracer.enabled = s.traced;
    tracer.op = static_cast<int>(samples.size());
    try {
      Tracer::Scope span(tracer, "op");
      wl.op(s.instance, s);
      wl.check();
      s.ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "operation %zu failed: %s\n", samples.size(), e.what());
    }
    samples.push_back(std::move(s));
  }
  tracer.enabled = false;

  // solve_s and cap_ff average the instances: per instance the median
  // solve time and the (deterministic) capacitance.
  long failed = 0;
  std::vector<std::vector<double>> solve_of(instances);
  std::vector<const OpSample*> first_ok_of(instances, nullptr);
  for (const OpSample& s : samples) {
    if (!s.ok) {
      ++failed;
      continue;
    }
    const auto k = static_cast<std::size_t>(s.instance);
    solve_of[k].push_back(s.solve_s);
    if (!first_ok_of[k]) first_ok_of[k] = &s;
  }
  const long attempted = static_cast<long>(samples.size());
  double solve_sum = 0.0, cap_sum = 0.0;
  int solved = 0;
  for (std::size_t k = 0; k < instances; ++k) {
    const OpSample* q = first_ok_of[k];
    if (!q) continue;
    solve_sum += median(solve_of[k]);
    cap_sum += q->cap;
    ++solved;
    std::printf("instance %zu (seed %llu): %zu ok operations, solve_s median %.4f; "
                "skew %.17g ps, clr %.17g ps, max_latency %.17g ps, cap %.17g fF\n",
                k, static_cast<unsigned long long>(instance_seed(a.seed, static_cast<int>(k))),
                solve_of[k].size(), median(solve_of[k]), q->skew, q->clr, q->max_latency,
                q->cap);
  }
  std::printf("workload %s seed %llu: %ld operations, %ld failed\n", w.c_str(),
              static_cast<unsigned long long>(a.seed), attempted, failed);

  Metrics m;
  if (!a.trace) {
    m.set("setup_s", median(setup_times), "s");
    m.set("solve_s", solved ? solve_sum / solved : 0.0, "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("ok_frac", 1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
          "frac");
    m.set("cap_ff", solved ? cap_sum / solved : 0.0, "fF");
  } else {
    // Decompose the traced operation with the median solve time, so load +
    // passes + unattributed add up to its solve_s exactly.
    std::vector<const OpSample*> traced;
    for (const OpSample& s : samples) {
      if (s.ok && s.traced) traced.push_back(&s);
    }
    std::vector<double> traced_solve;
    for (const OpSample* s : traced) traced_solve.push_back(s->solve_s);
    const OpSample* rep = traced.empty() ? nullptr : traced[median_index(traced_solve)];
    const OpSample* untraced = (!samples.empty() && samples[0].ok) ? &samples[0] : nullptr;

    OpSample none;
    const OpSample& r = rep ? *rep : none;
    m.set("netlist.load_s", r.load_s, "s");
    double pass_sum = 0.0;
    for (const char* p : kPasses) {
      double wall = 0.0, sims = 0.0, units = 0.0;
      for (const PassTiming& pt : r.passes) {
        std::string lower = pt.name;
        for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        if (lower == p || lower.rfind(std::string(p) + "#", 0) == 0) {
          wall += pt.wall_seconds;
          sims += pt.sim_runs;
          units += static_cast<double>(pt.batched_stage_evals + pt.scalar_stage_evals);
        }
      }
      pass_sum += wall;
      m.set(std::string("cts.") + p + "_s", wall, "s");
      m.set(std::string("cts.") + p + ".sim_runs", sims, "count");
      m.set(std::string("cts.") + p + ".stage_evals", units, "count");
    }
    const bool flow = !r.passes.empty();
    m.set("cts.unattributed_s", flow ? r.solve_s - r.load_s - pass_sum : 0.0, "s");
    m.set("cts.attributed_frac",
          flow && r.solve_s > 0 ? (r.load_s + pass_sum) / r.solve_s : 0.0, "frac");

    m.set("analysis.sim_runs", static_cast<double>(r.sim_runs), "count");
    m.set("analysis.full_evals", static_cast<double>(r.full_evals), "count");
    m.set("analysis.incremental_evals", static_cast<double>(r.incremental_evals), "count");
    m.set("analysis.stage_evals", static_cast<double>(r.stage_evals), "count");
    m.set("analysis.mc_stage_evals", static_cast<double>(r.mc_stage_evals), "count");
    m.set("analysis.mc_trial_ms",
          r.mc_trials > 0 ? r.solve_s * 1e3 / r.mc_trials : 0.0, "ms");

    m.set("quality.skew_ps", r.skew, "ps");
    m.set("quality.clr_ps", r.clr, "ps");
    m.set("quality.max_latency_ps", r.max_latency, "ps");
    m.set("quality.mc_yield", r.mc_yield, "frac");
    m.set("quality.mc_skew_p95_ps", r.mc_skew_p95, "ps");

    m.set("proc.cpu_s", r.cpu_s, "s");
    m.set("proc.concurrency", r.solve_s > 0 ? r.cpu_s / r.solve_s : 0.0, "ratio");

    m.set("trace.solve_s", median(traced_solve), "s");
    m.set("trace.untraced_solve_s", untraced ? untraced->solve_s : 0.0, "s");
    m.set("trace.overhead_frac",
          untraced && !traced_solve.empty()
              ? median(traced_solve) / untraced->solve_s - 1.0
              : 0.0,
          "frac");

    // Replays on the last operation's output, after every timed operation.
    if (samples.back().ok) {
      tracer.enabled = true;
      tracer.op = -1;
      wl.replay(m);
      tracer.enabled = false;
    }
    const double kernel_s = m.get("analysis.kernel_us_per_stage_eval") * 1e-6 *
                            static_cast<double>(r.stage_evals);
    m.set("analysis.kernel_est_s", kernel_s, "s");
    m.set("analysis.kernel_share_est", r.solve_s > 0 ? kernel_s / r.solve_s : 0.0, "frac");

    if (flow) {
      std::printf("decomposition of the traced operation: solve_s %.4f = load %.4f + "
                  "passes %.4f + unattributed %.4f (load + passes cover %.1f%%)\n",
                  r.solve_s, r.load_s, pass_sum, r.solve_s - r.load_s - pass_sum,
                  100.0 * (r.load_s + pass_sum) / r.solve_s);
    }
    std::printf("analysis.kernel_share_est is an estimate: kernel-only us per stage "
                "eval x %ld stage evals / solve_s %.4f\n",
                r.stage_evals, r.solve_s);

    const std::string trace_path = a.workdir + "/trace_" + w + "_s" +
                                   std::to_string(a.seed) + ".json";
    tracer.write_json(trace_path);
    std::printf("%zu spans written to %s\n", tracer.spans().size(), trace_path.c_str());
    for (const auto& kv : tracer.totals()) {
      std::printf("span %-52s total %10.4f s  self %10.4f s\n", kv.first.c_str(),
                  kv.second.first, kv.second.second);
    }
  }

  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& x : m.list()) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + x.name + "\": {\"value\": " + json_number(x.value) +
            ", \"unit\": \"" + x.unit + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
