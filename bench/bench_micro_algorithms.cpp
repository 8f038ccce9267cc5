// Microbenchmarks (google-benchmark) of the core algorithmic kernels:
// DME construction, van Ginneken insertion, staged extraction, the batched
// transient kernel and one full transient evaluation, across benchmark
// sizes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "analysis/evaluate.h"
#include "analysis/transient.h"
#include "cts/dme.h"
#include "cts/vanginneken.h"
#include "netlist/generators.h"
#include "rctree/extract.h"
#include "rctree/soa.h"

using namespace contango;

static void BM_BuildZst(benchmark::State& state) {
  const Benchmark bench = generate_ti_like(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ClockTree tree = build_zst(bench);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildZst)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

static void BM_InsertBuffers(benchmark::State& state) {
  const Benchmark bench = generate_ti_like(static_cast<int>(state.range(0)));
  const ClockTree base = build_zst(bench);
  for (auto _ : state) {
    ClockTree tree = base;
    insert_buffers(tree, bench, CompositeBuffer{0, 8});
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InsertBuffers)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

static void BM_ExtractStages(benchmark::State& state) {
  const Benchmark bench = generate_ti_like(static_cast<int>(state.range(0)));
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  for (auto _ : state) {
    const StagedNetlist net = extract_stages(tree, bench);
    benchmark::DoNotOptimize(net.node_count());
  }
}
BENCHMARK(BM_ExtractStages)->Arg(400)->Arg(1600);

static void BM_TransientEvaluate(benchmark::State& state) {
  const Benchmark bench = generate_ti_like(static_cast<int>(state.range(0)));
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  Evaluator eval(bench);
  for (auto _ : state) {
    const EvalResult r = eval.evaluate(tree);
    benchmark::DoNotOptimize(r.nominal_skew);
  }
}
BENCHMARK(BM_TransientEvaluate)->Arg(100)->Arg(400);

// One simulate_stage_batch() call on a median-size stage of a buffered
// `huge` tree, with 1/4/8 drives (the nominal corner x transition drives,
// repeated).  Items are drives, so items/s is the kernel's per-drive
// throughput: up to TransientSimulator::kMaxLanes drives share one lockstep
// pass.
static void BM_SimulateStageBatch(benchmark::State& state) {
  HugeGenParams params;
  params.num_sinks = 2000;
  params.seed = 1;
  const Benchmark bench = generate_huge(params);
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  const StagedNetlist net = extract_stages(tree, bench);
  std::vector<std::size_t> by_size(net.stages.size());
  for (std::size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
  std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
    return net.stages[a].nodes.size() < net.stages[b].nodes.size();
  });
  const std::size_t si = by_size[by_size.size() / 2];
  const Stage& stage = net.stages[si];
  NetlistSoa soa;
  soa.build(net);

  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<BatchDrive> nominal;
  for (Volt vdd : bench.tech.corners) {
    for (int t = 0; t < kNumTransitions; ++t) {
      nominal.push_back(BatchDrive{
          effective_driver_res(stage.driver_res_nom, bench.tech, vdd,
                               static_cast<Transition>(t)),
          effective_intrinsic(stage.driver_intrinsic_nom, bench.tech, vdd), 10.0});
    }
  }
  std::vector<BatchDrive> drives;
  for (std::size_t b = 0; b < count; ++b) drives.push_back(nominal[b % nominal.size()]);
  const TransientSimulator sim;
  TransientScratch scratch;
  std::vector<TapTiming> out(count * stage.taps.size());
  for (auto _ : state) {
    sim.simulate_stage_batch(soa.view(static_cast<int>(si)), drives.data(),
                             count, out.data(), scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["nodes"] = static_cast<double>(stage.nodes.size());
}
BENCHMARK(BM_SimulateStageBatch)->Arg(1)->Arg(4)->Arg(8);

BENCHMARK_MAIN();
