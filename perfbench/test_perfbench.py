#!/usr/bin/env python3
"""Self-tests of the benchmark, at small sizes.

    python3 perfbench/test_perfbench.py

Run it from the root of the repository. It drives the benchmark through
the command in BENCHMARK.json, so the first test builds it.
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SMALL = ["--points", "2000", "--warmup", "2", "--ticks", "4", "--instances", "2",
         "--seconds", "0"]


def run(workload, seed=1, trace=0, extra=()):
    """Run the benchmark; return (info, result) from its last two lines."""
    args = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                               "--trace", str(trace)] + SMALL + list(extra)
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{args} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


class SelfTest(unittest.TestCase):
    def test_wrappers_are_transparent(self):
        for w in WORKLOADS:
            info, result = run(w, trace=1)
            self.assertTrue(result["correct"], w)
            for i, instance in enumerate(info["instances"]):
                by_mode = {r["traced"]: r["digest"] for r in info["runs"] if r["instance"] == i}
                # result_pairs, checksum, queries, removals and inserts.
                self.assertEqual(by_mode[False], by_mode[True], w)
                self.assertEqual(by_mode[False], instance["reference"], w)

    def test_seed_changes_inputs_and_reference(self):
        for w in WORKLOADS:
            a, _ = run(w, seed=1)
            b, _ = run(w, seed=2)
            again, _ = run(w, seed=1)
            self.assertEqual(a["instances"], again["instances"], w)
            seen = [(i["inputs"], json.dumps(i["reference"]))
                    for i in a["instances"] + b["instances"]]
            self.assertEqual(len({s[0] for s in seen}), len(seen), w)
            self.assertEqual(len({s[1] for s in seen}), len(seen), w)

    def test_every_printed_metric_is_declared_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in BENCH[key]}
            for w in WORKLOADS:
                _, result = run(w, trace=trace)
                printed = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(printed, declared, (w, key))
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})

    def test_perturbed_reference_fails_the_run(self):
        for w in WORKLOADS:
            info, result = run(w, extra=["--perturb-reference"])
            self.assertFalse(result["correct"], w)
            # Only instance 0's reference is perturbed: exactly its runs fail.
            failed = sum(r["digest"]["queries"] for r in info["runs"] if r["instance"] == 0)
            self.assertEqual(result["failed"], failed, w)
            self.assertGreater(result["attempted"], result["failed"], w)

    def test_bad_arguments_fail_without_a_result(self):
        for extra in (["--workload", "nope"], ["--workload", "churn", "--trace", "2"]):
            args = BENCH["command"] + ["--seed", "1", "--seconds", "1"] + extra
            proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
