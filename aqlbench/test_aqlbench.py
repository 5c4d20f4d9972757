#!/usr/bin/env python3
"""Self-check of the AQL end-to-end benchmark, on tiny inputs (--smoke).

Run from the repository root:

    python3 aqlbench/test_aqlbench.py

Builds the benchmark through run.py, then checks that the same seed gives
identical outputs and accuracy figures, that another seed changes the
inputs, that the governed script escalates and relaxes without refusing,
and that every result line carries exactly the metrics BENCHMARK.json
names.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["fig5c_analytical", "fig5c_bootstrap", "grouped_mtest", "late_governed"]
SMOKE = re.compile(r"^smoke (.*)$", re.M)


def run(workload, seed, trace=0):
    """Runs one smoke-mode benchmark; returns (smoke fields, result line)."""
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fields = {}
    match = SMOKE.search(out.stdout)
    if match:
        fields = dict(kv.split("=", 1) for kv in match.group(1).split())
    return fields, result


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)[kind]]


class SmokeTest(unittest.TestCase):
    def test_same_seed_gives_identical_outputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, ra = run(w, 7)
                b, rb = run(w, 7)
                for key in ("inputs_digest", "output_digest", "ci_coverage",
                            "ci_halfwidth_mean"):
                    self.assertEqual(a[key], b[key], key)
                self.assertTrue(ra["correct"] and rb["correct"])
                self.assertEqual(ra["failed"], 0)

    def test_other_seed_changes_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = run(w, 7)
                b, _ = run(w, 8)
                self.assertNotEqual(a["inputs_digest"], b["inputs_digest"])
                self.assertNotEqual(a["output_digest"], b["output_digest"])

    def test_governed_script_escalates_and_never_refuses(self):
        fields, result = run("late_governed", 7)
        self.assertGreaterEqual(int(fields["escalations"]), 2)
        self.assertEqual(fields["relaxations"], fields["escalations"])
        self.assertEqual(int(fields["refusals"]), 0)
        self.assertTrue(result["correct"])

    def test_result_lines_carry_the_declared_metrics(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run("late_governed", 3, trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(list(result["metrics"]), declared(kind))
            self.assertGreaterEqual(result["attempted"], 1)

    def test_traced_run_counts_no_bootstrap_on_analytical(self):
        _, analytical = run("fig5c_analytical", 5, 1)
        _, bootstrap = run("fig5c_bootstrap", 5, 1)
        self.assertEqual(analytical["metrics"]["bootstrap.calls"]["value"], 0)
        self.assertGreater(bootstrap["metrics"]["bootstrap.calls"]["value"], 0)
        self.assertEqual(bootstrap["metrics"]["bootstrap.values_per_call"]["value"], 400)


if __name__ == "__main__":
    unittest.main()
