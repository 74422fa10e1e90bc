"""dampedjc benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own process
(worker.py), which imports dampedjc from src/.  Set-up is timed over
SETUP_SAMPLES fresh interpreters; the last of them goes on to time whole
operations for --seconds.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1).  Exits 1 without a result
if a worker fails or cannot import the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("default-trajectory", "split-stepping", "convergence-study")
SETUP_SAMPLES = 7
DEADLINE_S = 175.0


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(argv: list, timeout: float):
    """Run one worker; returns (set-up seconds, its last stdout line)."""
    env = dict(os.environ)
    env.pop("LINDBLAD_JC_THREADS", None)   # the CLI's single-threaded default
    started = clock()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = next(float(line.split()[1]) for line in lines if line.startswith("ready "))
    return ready - started, lines[-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]

    deadline = clock() + DEADLINE_S
    try:
        setups = [spawn(argv + ["--setup-only"], deadline - clock())[0]
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        setup, line = spawn(argv, deadline - clock())
    except (RuntimeError, StopIteration) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    res = json.loads(line)

    if args.trace:
        metrics = res["per_layer"]
        print(f"traced run_s {res['run_s']:.4f} s; layer times as a share of it:",
              file=sys.stderr)
        for name, m in metrics.items():
            share = f"{m['value'] / res['run_s']:7.1%}" if m["unit"] == "s" else ""
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']:15s} {share}",
                  file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [setup]), "unit": "s"},
            "run_s": {"value": res["run_s"], "unit": "s"},
            "cpu_s": {"value": res["cpu_s"], "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
