"""Self-tests of the benchmark: printed metric names, and checkers that
reject corrupted outputs.

    python3 perfbench/selftest.py

The checker tests run each workload at a small size (about 10 s in all);
the metric-name test runs the benchmark itself on split-stepping for one
operation per trace mode (about 15 s).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

WORKDIR = HERE / ".work"


def printed_metrics(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "split-stepping",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: m["unit"] for name, m in result["metrics"].items()}


class MetricNames(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(printed_metrics(0),
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})
        self.assertEqual(printed_metrics(1),
                         {m["name"]: m["unit"] for m in spec["per_layer"]})


class Checkers(unittest.TestCase):
    def rejects(self, wl, output, needle):
        problems = wl.check(output)
        self.assertTrue(any(needle in p for p in problems), problems)

    def test_default_trajectory(self):
        WORKDIR.mkdir(exist_ok=True)
        wl = workloads.DefaultTrajectory(5, WORKDIR, points=11)
        good = wl.run()
        self.assertEqual(wl.check(good), [])

        def corrupt(column, row, value):
            out = copy.deepcopy(good)
            out[1][column][row] = value
            return out

        self.rejects(wl, corrupt("split3_trace", 4, 1.01), "split3 trace")
        self.rejects(wl, corrupt("oracle_expm_p0", 3, float("nan")), "oracle p0")
        row = good[1]["oracle_expm_mean_n"][6]
        self.rejects(wl, corrupt("oracle_expm_mean_n", 6, row + 1e-9), "oracle mean_n")
        self.rejects(wl, corrupt("split2_min_eig", 3, -1e-6), "split2 min_eig")
        row = good[1]["split2_p1"][2]
        self.rejects(wl, corrupt("split2_p1", 2, row + 1e-8), "example_solution")
        self.rejects(wl, corrupt("split3_tdist_oracle", 5, 0.5), "split3 distance")
        self.rejects(wl, corrupt("split2_tdist_oracle", 7, 0.0), "tdist_oracle")

    def test_split_stepping(self):
        wl = workloads.SplitStepping(5, WORKDIR, dim=24, t_max=0.2, points=5)
        good = wl.run()
        self.assertEqual(wl.check(good), [])
        bad = dict(good, split3=list(good["split3"]))
        state = bad["split3"][2].copy()
        state.rho00[1, 1] += 2e-4
        bad["split3"][2] = state
        self.rejects(wl, bad, "split3 trace distance")

    def test_convergence_study(self):
        WORKDIR.mkdir(exist_ok=True)
        wl = workloads.ConvergenceStudy(5, WORKDIR, dim=16)
        comments, columns = wl.run()
        self.assertEqual(wl.check((comments, columns)), [])
        slope = [c if not c.startswith("slope_split3=") else "slope_split3=2.5"
                 for c in comments]
        self.rejects(wl, (slope, columns), "split3 slope")
        errors = dict(columns, split2_err=columns["split2_err"].copy())
        errors["split2_err"][1] *= 1 + 1e-6
        self.rejects(wl, (comments, errors), "split2 study errors")


if __name__ == "__main__":
    unittest.main()
