// Ablation study over two construction choices of the flow (the per-stage
// ablation is bench_table3_ablation):
//   * delay-contour balanced insertion instead of van Ginneken + stage
//     equalization (why the flow rejects the contour inserter: its stage
//     capacitances blow up in low-delay-gradient regions);
//   * Elmore-balance DME instead of pathlength-balance DME.

#include <cstdio>
#include <exception>

#include "analysis/evaluate.h"
#include "cts/balanced_insertion.h"
#include "cts/buflib.h"
#include "cts/dme.h"
#include "cts/flow.h"
#include "cts/obstacles.h"
#include "cts/rebalance.h"
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
  std::printf("== Ablation studies on %s ==\n\n", bench.name.c_str());

  // ---- Insertion-strategy ablation. ----
  // Front-end (ZST + repair + rebalance) shared by both inserters.
  ClockTree front = build_zst(bench);
  ObstacleRepairOptions repair;
  repair.slew_free_cap = slew_free_cap(bench.tech, CompositeBuffer{0, 8}, 0.68);
  repair_obstacles(front, bench, repair);
  rebalance_pathlength(front);

  Evaluator eval(bench);
  TextTable ins_table({"Inserter", "Skew, ps", "CLR, ps", "Worst slew, ps",
                       "Buffers"});
  {
    ClockTree tree = front;
    insert_buffers_balanced(tree, bench, CompositeBuffer{0, 8});
    const EvalResult r = eval.evaluate(tree);
    ins_table.add_row({"delay-contour balanced", TextTable::num(r.nominal_skew, 2),
                       TextTable::num(r.clr, 2), TextTable::num(r.worst_slew, 1),
                       std::to_string(tree.buffer_count())});
  }
  std::printf("-- insertion strategy (before any optimization) --\n");
  {
    // Flow's inserter: the construction-only pipeline prefix.
    FlowOptions only_insertion;
    only_insertion.pipeline = "dme,repair,insert,polarity";
    const FlowResult r = run_contango(bench, only_insertion);
    ins_table.add_row({"van Ginneken + equalize", TextTable::num(r.eval.nominal_skew, 2),
                       TextTable::num(r.eval.clr, 2),
                       TextTable::num(r.eval.worst_slew, 1),
                       std::to_string(r.tree.buffer_count())});
  }
  std::printf("%s\n", ins_table.to_string().c_str());
  std::printf("(the delay-contour inserter balances buffer counts but lets\n"
              " stage capacitance blow up where the delay gradient is low —\n"
              " visible as a large worst slew)\n\n");

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
