"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload coupled-lower --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced repeat of the same
operations.  Times of interpreter-bound work are wall seconds rescaled by
``yardstick.py`` to a machine of fixed speed.  Every workload process is
single-threaded: BLAS and OpenMP pools are pinned to one thread before
numpy loads.  ``setup_s`` is the median over SETUP_RUNS fresh processes
that stop after set-up of each one's set-up time, rescaled by the mean of
four yardstick timings: here just before the process starts, inside it at
the start and at the end of its set-up, and here just after it ends.
Exit code 2 means the benchmark could not run (for instance, no
``src/pcsemi`` next to this directory); no result line is printed then.
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

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 170
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_time(workload: str, seed: int, seconds: float, stick: yardstick.Yardstick) -> tuple[float, float]:
    """Set-up seconds of one fresh process, and its rescale factor."""
    before = stick.time()
    child = spawn(workload, seed, seconds, 0, True)
    speeds = [before, *child["speeds"], stick.time()]
    return child["setup_s"], yardstick.NOMINAL_S / statistics.fmean(speeds)


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pcsemi" / "__init__.py").is_file():
        print(f"error: no pcsemi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    stick = yardstick.Yardstick()
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_RUNS):
                setups.append(setup_time(args.workload, args.seed, args.seconds, stick))
        res = spawn(args.workload, args.seed, args.seconds, args.trace, False)
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        values = res["per_layer"]
    else:
        setup_s = statistics.median(wall * factor for wall, factor in setups)
        values = dict(res["end_to_end"], setup_s=setup_s)
    units = declared_units(args.trace)
    if set(values) != set(units):
        print(f"error: measured {sorted(values)}, declared {sorted(units)}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"# environment {json.dumps(res['environment'], sort_keys=True)}")
    print(f"# workload {res['workload']} seed {res['seed']} trace {args.trace}")
    print(f"# operations attempted {res['attempted']} failed {res['failed']}, tail percentile p{res['tail_pct']}")
    for name, m in metrics.items():
        print(f"#   {name:<44} {m['value']:.6g} {m['unit']}")
    wall = ", ".join(f"{name} {value:.6g}" for name, value in res["wall"].items())
    if not args.trace:
        wall += f", setup_s {statistics.median(w for w, _ in setups):.6g}"
    print(f"# unscaled wall clock: {wall}")
    stick_note = "applied" if res["yardstick"]["applied"] else "measured, not applied"
    stick_line = f"# yardstick factor: operations {res['yardstick']['factor']:.4f} ({stick_note})"
    if not args.trace:
        stick_line += f", set-up {statistics.median(f for _, f in setups):.4f} (applied)"
    print(stick_line)
    checked = ", ".join(f"{k} {v}" for k, v in sorted(res["checks"].items()))
    verdict = "pass" if res["check_failures"] == 0 else f"FAIL ({res['check_failures']})"
    print(f"# output checks {verdict}: {checked}")
    result = {
        "correct": res["check_failures"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
