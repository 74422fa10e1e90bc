"""One benchmark process for one workload (started by run.py).

It imports dampedjc from the checkout's src/, builds the workload's inputs
and warms up, then prints 'ready <CLOCK_MONOTONIC time>' so that run.py can
time set-up from the moment it started this interpreter.  With --setup-only
it stops there.  Otherwise it times whole operations, one after another on a
single thread, until starting another would overrun --seconds; checks each
output outside the timed region; and prints one JSON line with the counts,
the median wall and CPU time of one operation, the peak resident memory of
this process and, with --trace 1, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import dampedjc
    if not Path(dampedjc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"dampedjc was imported from {dampedjc.__file__}, not {SRC}")
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.warm_up()
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0
    wl.expected()

    walls, cpus, ok_ops, cycles = [], [], [], []
    failed, correct = 0, True
    start = time.perf_counter()
    while True:
        op = len(cycles)
        if tracer:
            tracer.op = op
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out, raised = wl.run(), False
        except Exception:
            traceback.print_exc()
            raised = True
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer:
            tracer.op = None
        print(f"{wl.name}: operation {op}: wall {wall:.4f} s, cpu {cpu:.4f} s",
              file=sys.stderr)
        try:
            problems = [] if raised else wl.check(out)
        except Exception as e:   # e.g. a column missing from the output
            problems = [f"the check raised {e!r}"]
        walls.append(wall)
        cpus.append(cpu)
        if raised or problems:
            failed += 1
            correct = correct and not problems
            for p in problems:
                print(f"{wl.name}: check failed: {p}", file=sys.stderr)
        else:
            ok_ops.append(op)
        cycles.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(cycles) > args.seconds:
            break

    timed = ok_ops or list(range(len(cycles)))   # all ops only if none succeeded
    result = {
        "attempted": len(cycles),
        "failed": failed,
        "correct": correct,
        "run_s": statistics.median(walls[i] for i in timed),
        "cpu_s": statistics.median(cpus[i] for i in timed),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.write(workdir / f"spans-{wl.name}-seed{args.seed}.json")
        result["per_layer"] = tracing.per_layer_metrics(tracer.spans, timed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
