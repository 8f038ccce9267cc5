#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload's code path at a tiny size (huge:200, high_fanout:60
with 8 Monte-Carlo trials) and checks that:
  * BENCHMARK.json and perfbench/ledger.json list the same metrics, units
    and directions;
  * --trace 0 prints exactly the end-to-end metrics, each with its unit and
    nonzero, and --trace 1 exactly the per-layer metrics;
  * every operation passes its output check;
  * a planted mismatch (--tamper: the expected evaluation is off by one ulp)
    is counted as a failed operation, never dropped.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def main():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    ledger = load(os.path.join(HERE, "ledger.json"))
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
            print("FAIL", what)

    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in bench[kind]]
        recorded = [(m["name"], m["unit"], m["better"]) for m in ledger[kind]]
        expect(declared == recorded, "ledger.json %s matches BENCHMARK.json" % kind)

    for w in [w["name"] for w in bench["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = run(w, trace)
            expect(set(out) == {"correct", "attempted", "failed", "metrics"},
                   "%s trace %d: result keys" % (w, trace))
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                   "%s trace %d: every operation passes its check" % (w, trace))
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == want, "%s trace %d: metrics and units as declared" % (w, trace))
            if kind == "end_to_end":
                expect(all(v["value"] for v in out["metrics"].values()),
                       "%s: end-to-end metrics are nonzero" % w)

        out = run(w, 0, "--tamper")
        expect(not out["correct"] and out["attempted"] >= 1 and
               out["failed"] == out["attempted"] and
               out["metrics"]["ok_frac"]["value"] == 0,
               "%s: planted mismatch counted as failed operations" % w)

    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
