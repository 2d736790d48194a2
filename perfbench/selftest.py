"""Self-tests of the benchmark at reduced size.

Run from the root of the repository (takes about two minutes):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import reference
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def scratch_dir():
    run.WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK)


def small(workload, trace=0, references=None, seed=0):
    return run.benchmark(workload, seed, 0.1, trace, sizes=run.SMALL, references=references)


def outputs(out):
    """(checked values, pivots) of every iteration, in order."""
    return [([o["value"] for o in it["outputs"]], it["pivots"]) for it in out["iterations"]]


class Metrics(unittest.TestCase):
    def test_every_metric_prints_with_name_and_unit_and_end_to_end_never_0(self):
        declared = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
        for workload in run.FULL:
            for trace in (0, 1):
                out = small(workload, trace)
                self.assertTrue(out["correct"], out)
                if trace == 0:
                    for name, m in out["metrics"].items():
                        self.assertGreater(m["value"], 0.0, (workload, name))
                    raw = out["raw"]
                    self.assertAlmostEqual(
                        out["metrics"]["wall_norm_s"]["value"],
                        raw["wall_s"] * reference.NOMINAL_S / raw["kernel_s"],
                    )
                units = {m["name"]: m["unit"] for m in declared[trace]}
                got = {k: m["unit"] for k, m in out["metrics"].items()}
                self.assertEqual(got, units, (workload, trace))
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    run.report(out, {"workload": workload})
                lines = buf.getvalue().splitlines()
                last = json.loads(lines[-1])
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                for name, unit in units.items():
                    self.assertTrue(
                        any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                            for line in lines),
                        (workload, name),
                    )


class Correctness(unittest.TestCase):
    def test_corrupted_reference_objective_is_an_error(self):
        clean = small("map_regime")
        (objective,), _ = outputs(clean)[0]
        out = small("map_regime", references={"objective": objective * (1 + 1e-6)})
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], out["attempted"])

        clean = small("stay_at_rest")
        objective_b = outputs(clean)[0][0][2]  # solve_a, decompose_a, solve_b, ...
        self.assertGreater(objective_b, 0.0)
        out = small("stay_at_rest", references={"a": 0.0, "b": objective_b * (1 - 1e-6)})
        self.assertGreater(out["failed"], 0)
        self.assertEqual(out["failed"] * 4, out["attempted"])  # only solve_b fails

    def test_matching_reference_passes(self):
        clean = small("map_regime")
        (objective,), _ = outputs(clean)[0]
        self.assertTrue(small("map_regime", references={"objective": objective})["correct"])

    def test_traced_and_untraced_runs_agree(self):
        for workload in ("map_regime", "stay_at_rest"):
            plain = outputs(small(workload, trace=0))
            traced = outputs(small(workload, trace=1))
            self.assertGreaterEqual(len(traced), 2)
            for row in plain + traced:
                self.assertEqual(row, plain[0], workload)
            self.assertGreater(plain[0][1], 0)

    def test_seed_zero_reproduces_criterion_8_clouds(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        from concave_ot import load_measure, uniform_box

        with scratch_dir() as tmp:
            inputs, _ = run.make_inputs("map_regime", 0, {"n": 50}, Path(tmp))
            self.assertEqual(load_measure(inputs["mu"]),
                             uniform_box(50, 2, corner_lo=(0, 0), corner_hi=(1, 1), seed=10))
            self.assertEqual(load_measure(inputs["nu"]),
                             uniform_box(50, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=11))


class Isolation(unittest.TestCase):
    def test_fails_without_the_program(self):
        with scratch_dir() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            for path in BENCHMARK["paths"]:
                shutil.copytree(run.ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [*BENCHMARK["command"], "--workload", "map_regime", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
