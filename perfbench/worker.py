"""One workload in one process: set-up, timed closed loop, checks.

Started by ``run.py``, which sets the thread variables before this
interpreter loads numpy.  ``--t0`` is the parent's ``time.monotonic()``
just before it started this process (the clock is system-wide), so
``setup_s`` covers interpreter start, imports, input set-up and warm-up.
With ``--setup-only`` the process stops there and reports its set-up time
and the yardstick timed at the start of set-up (before ``pcsemi`` and numpy
load) and at its end; the first timing's own cost is left out of the set-up
time.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import pcsemi from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import pcsemi

    where = Path(pcsemi.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: pcsemi imported from {where}, not from {SRC}")
    import workloads

    return workloads


def measure(wl, seed: int, seconds: float, min_ops: int, rescaler):
    """Closed loop of whole rounds for at least ``seconds`` and ``min_ops``.

    Returns (inputs, outputs, wall times, rescaled times, failed count).
    Inputs are made before each operation's clock starts; the yardstick
    runs between operations, outside their clocks, on every workload, but
    rescales only the workloads whose time is spent in the interpreter.
    """
    inputs, outputs, wall, scaled = [], [], [], []
    failed = 0
    rounds = len(wl.rounds)
    start = time.perf_counter()
    while len(inputs) < min_ops or len(inputs) % rounds or time.perf_counter() - start < seconds:
        inp = wl.make_input(seed, len(inputs))
        t = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception:
            traceback.print_exc()
            failed += 1
            out = None
        dt = time.perf_counter() - t
        factor = rescaler.scale()
        wall.append(dt)
        scaled.append(dt * factor if wl.interpreter_bound else dt)
        inputs.append(inp)
        outputs.append(out)
    return inputs, outputs, wall, scaled, failed


def traced_pass(wl, inputs, outputs, rescaler):
    """Repeat the measured operations under the tracer.

    Returns (tracer, wall times, rescaled times, mismatching outputs).
    """
    import spans

    tracer = spans.Tracer()
    wall, scaled, mismatched = [], [], 0
    tracer.install()
    try:
        for inp, out in zip(inputs, outputs):
            t = time.perf_counter()
            idx = tracer.open(spans.ROOT_SPAN)
            try:
                again = wl.op(inp)
            finally:
                tracer.close(idx)
            dt = time.perf_counter() - t
            factor = rescaler.scale()
            wall.append(dt)
            scaled.append(dt * factor if wl.interpreter_bound else dt)
            if out is not None and not wl.same(out, again):
                mismatched += 1
    finally:
        tracer.uninstall()
    return tracer, wall, scaled, mismatched


def run_checks(wl, inputs, outputs):
    """Check every output the workload checks; return (failures, tally)."""
    import checks

    failures, tally = [], {}
    for index, (inp, out) in enumerate(zip(inputs, outputs)):
        if out is None:
            continue
        try:
            wl.check(index, inp, out, tally)
        except checks.CheckFailed as exc:
            failures.append(f"operation {index}: {exc}")
    return failures, tally


def timing_metrics(times, tail_pct: float) -> dict:
    import numpy as np

    arr = np.asarray(times)
    return {
        "ops_per_s": len(times) / math.fsum(times),
        "op_p50_s": float(np.median(arr)),
        "op_tail_s": float(np.percentile(arr, tail_pct)),
    }


def environment() -> dict:
    import numpy

    keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": {k: os.environ.get(k) for k in keys},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    gauge_start = time.monotonic()
    stick = yardstick.Yardstick()
    speed_before = stick.time()
    gauge_s = time.monotonic() - gauge_start
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    wl.warm_up()
    if args.setup_only:
        setup_s = time.monotonic() - args.t0 - gauge_s
        print(json.dumps({"setup_s": setup_s, "speeds": [speed_before, stick.time()]}))
        return 0

    rescaler = yardstick.Rescaler(stick)
    inputs, outputs, wall, scaled, failed = measure(wl, args.seed, args.seconds, wl.min_ops, rescaler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "attempted": len(wall),
        "failed": failed,
        "tail_pct": wl.tail_pct,
        "environment": environment(),
        "wall": timing_metrics(wall, wl.tail_pct),
        "yardstick": {"factor": math.fsum(rescaler.factors) / len(rescaler.factors),
                      "applied": wl.interpreter_bound},
    }
    if args.trace:
        tracer, traced_wall, traced, mismatched = traced_pass(wl, inputs, outputs, yardstick.Rescaler(stick))
        # self times are wall clock; rescale them by the traced pass's
        # time-weighted yardstick factor
        factor = math.fsum(traced) / math.fsum(traced_wall)
        per_layer = {
            name: value * factor if name.endswith("self_s") else value
            for name, value in tracer.per_layer(len(traced)).items()
        }
        per_layer["trace.op_s"] = math.fsum(traced) / len(traced)
        per_layer["trace.overhead_s"] = (math.fsum(traced) - math.fsum(scaled)) / len(traced)
        result["per_layer"] = per_layer
        result["mismatched"] = mismatched
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl")
    else:
        result["end_to_end"] = dict(timing_metrics(scaled, wl.tail_pct), peak_rss_mb=peak_rss_mb)
    failures, tally = run_checks(wl, inputs, outputs)
    if args.trace and result["mismatched"]:
        failures.append(f"{result['mismatched']} traced outputs differ from untraced ones")
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result["check_failures"] = len(failures)
    result["checks"] = tally
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
