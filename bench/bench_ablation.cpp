// Ablation study over a construction choice of the flow (the per-stage
// ablation is bench_table3_ablation): Elmore-balance DME instead of
// pathlength-balance DME.

#include <algorithm>
#include <cstdio>
#include <exception>

#include "analysis/evaluate.h"
#include "cts/buflib.h"
#include "cts/dme.h"
#include "cts/obstacles.h"
#include "cts/rebalance.h"
#include "cts/vanginneken.h"
#include "io/table.h"
#include "netlist/generators.h"
#include "util/env.h"

using namespace contango;

int main() {
  int index = 0;
  try {
    index = static_cast<int>(env_long_strict("CONTANGO_ABLATION_BENCHMARK", 3));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad environment: %s\n", e.what());
    return 1;
  }
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(index));
  std::printf("== DME-balance ablation on %s ==\n\n", bench.name.c_str());

  ObstacleRepairOptions repair;
  repair.slew_free_cap = slew_free_cap(bench.tech, CompositeBuffer{0, 8}, 0.68);
  Evaluator eval(bench);

  // ---- DME balance-metric ablation. ----
  TextTable dme_table({"DME balance", "Wirelength, mm", "Path spread, um",
                       "Buffered skew, ps"});
  for (DmeBalance balance : {DmeBalance::kPathLength, DmeBalance::kElmore}) {
    DmeOptions options;
    options.balance = balance;
    ClockTree tree = build_zst(bench, options);
    double lo = 1e300, hi = 0.0;
    for (NodeId id : tree.topological_order()) {
      if (!tree.node(id).is_sink()) continue;
      lo = std::min(lo, tree.path_length(id));
      hi = std::max(hi, tree.path_length(id));
    }
    repair_obstacles(tree, bench, repair);
    if (balance == DmeBalance::kPathLength) rebalance_pathlength(tree);
    ClockTree buffered = tree;
    insert_buffers(buffered, bench, CompositeBuffer{0, 8});
    const EvalResult r = eval.evaluate(buffered);
    dme_table.add_row({balance == DmeBalance::kPathLength ? "pathlength" : "Elmore",
                       TextTable::num(tree.total_wirelength() / 1000.0, 1),
                       TextTable::num(hi - lo, 0),
                       TextTable::num(r.nominal_skew, 2)});
  }
  std::printf("-- DME balance metric --\n%s", dme_table.to_string().c_str());
  std::printf("(buffered delay tracks electrical length: the pathlength\n"
              " metric gives the buffered tree its small initial skew)\n");
  return 0;
}
