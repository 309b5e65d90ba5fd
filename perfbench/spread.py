"""Run workloads repeatedly and print each end-to-end metric's run-to-run
spread beside its bound from BENCHMARK.json.

    python3 perfbench/spread.py --runs 10                       # every workload
    python3 perfbench/spread.py --workload ledger-lines --runs 5 --first-seed 100

Run i uses seed first_seed + i.  The spread is the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median; a bound below that spread would reject unchanged code, and
this benchmark aims for spreads below a third of each bound.  Every run
lasts BENCHMARK.json's ``run_seconds``, the length the bounds were set for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WALL_PREFIX = "# unscaled wall clock:"
FACTOR_PREFIX = "# yardstick factor:"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(WALL_PREFIX):
            pairs = (item.split() for item in line[len(WALL_PREFIX):].split(","))
            result["unscaled"] = {name: float(value) for name, value in pairs}
        if line.startswith(FACTOR_PREFIX):
            # "operations <f> (...), set-up <f> (applied)"
            words = line[len(FACTOR_PREFIX):].split()
            result["factors"] = (float(words[1]), float(words[words.index("set-up") + 1]))
    return result


def spread(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            results.append(run_once(workload, args.first_seed + i, bench["run_seconds"]))
            print(f"  {workload} seed {args.first_seed + i}: done", file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, all correct {correct}, failed shares {sorted(shares)}")
        ops_f, setup_f = zip(*(r["factors"] for r in results))
        print(f"  yardstick factor: operations {min(ops_f):.3f}..{max(ops_f):.3f}, "
              f"set-up {min(setup_f):.3f}..{max(setup_f):.3f}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, _, share = spread(values)
            flag = "ok" if share < bound / 3 else ("within bound" if share <= bound else "ABOVE BOUND")
            line = f"  {name:<12} median {med:<12.6g} spread {share:8.4f}  bound {bound:.2f}  {flag}"
            if name in results[0].get("unscaled", {}):
                raw = spread([r["unscaled"][name] for r in results])[2]
                line += f"  (unscaled spread {raw:.4f})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
