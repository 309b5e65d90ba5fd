"""Command line front end: instance generation, recovery, bound
verification sweeps, chained-bound reports, and Jaccard experiments.

Every subcommand is deterministic given its parameters and seed.  A run
manifest (parameters, seed, version, timestamps, output digests) is written
next to each file output; ``--manifest`` replays one, with explicit flags
winning on conflict.  Exit codes: 0 success / all checks pass, 1 at least
one violated inequality, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .analysis import (
    chained_kl_bound,
    column_law_grid,
    column_law_lines,
    exact_chain_rhs,
    exact_joint_kl,
    hg_bound,
    hg_expectation,
    jaccard_experiment,
    kl_local_bound_grid,
    kl_local_bound_lines,
    random_prefix_state,
)
from .graph_model import (
    AdversarySpec,
    bowtie,
    dump_instance,
    gen_classical,
    gen_coupled,
    gen_null_grid,
    gen_null_lines,
    gen_semirandom,
    instance_from_json,
    instance_record,
    instance_to_json,
    stream,
)
from .perturbed_bernoulli import (
    INEQUALITY_TOL,
    bernoulli_lift,
    compare,
    kl_exact,
    random_spec,
)
from .recovery import DEFAULT_BUDGET, jaccard, recover, union_bound_probability

ENV_SEED = "PCSEMI_SEED"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _open_output(path):
    """Open a file for writing; an unwritable path is a usage error."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from exc


def _emit_csv(header, rows, path: str | None) -> list[Path]:
    text_rows = [[_fmt(v) for v in row] for row in rows]
    if path:
        with _open_output(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(text_rows)
        return [Path(path)]
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(text_rows)
    return []


def _write_manifest(command: str, params: dict, outputs: list[Path], started: str):
    finished = datetime.now(timezone.utc).isoformat()
    for out in outputs:
        manifest = {
            "subcommand": command,
            "params": params,
            "seed": params.get("seed"),
            "version": __version__,
            "started": started,
            "finished": finished,
            "output_digest": {str(out): _sha256(out)},
        }
        out.with_name(out.name + ".manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )


def _merge_params(args: argparse.Namespace, schema: dict) -> dict:
    """builtin defaults < PCSEMI_SEED < manifest < explicit flags."""
    params = {key: default for key, default in schema.items()}
    if "seed" in schema and os.environ.get(ENV_SEED):
        params["seed"] = int(os.environ[ENV_SEED])
    manifest_path = getattr(args, "manifest", None)
    if manifest_path:
        try:
            loaded = json.loads(Path(manifest_path).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read manifest: {exc}") from exc
        replay = loaded.get("params", {}) if isinstance(loaded, dict) else None
        if not isinstance(replay, dict):
            raise ValueError("manifest is not a JSON object with a params object")
        if loaded.get("subcommand") != args.command:
            raise ValueError(
                f"manifest is for {loaded.get('subcommand')!r}, not {args.command!r}"
            )
        for key, val in replay.items():
            if key in params:
                if not isinstance(val, (str, int, float, type(None))):
                    raise ValueError(f"manifest param {key!r} is {val!r}, not a scalar")
                params[key] = val
    for key in schema:
        given = getattr(args, key, None)
        if given is not None:
            params[key] = given
    return params


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

_GEN_SCHEMA = {
    "model": None,
    "n": None,
    "s": None,
    "m": None,
    "k": 2,
    "adversary": "empty",
    "seed": 0,
    "out": "instance.json",
}

_GEN_REQUIRED = {
    "classical": ("n", "s"),
    "semirandom": ("n", "s"),
    "null-grid": ("n", "m"),
    "null-lines": ("n", "m", "k"),
    "coupled": ("n", "m", "k"),
}


def cmd_gen(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    p = _merge_params(args, _GEN_SCHEMA)
    model = p["model"]
    if model is None:
        raise ValueError("--model is required")
    if model not in _GEN_REQUIRED:
        raise ValueError(f"unknown model {model!r}")
    missing = [key for key in _GEN_REQUIRED[model] if p[key] is None]
    if missing:
        flags = ", ".join(f"--{key}" for key in missing)
        raise ValueError(f"model {model} requires {flags}")
    seed = int(p["seed"])
    if model == "classical":
        inst = gen_classical(int(p["n"]), int(p["s"]), seed)
        record = instance_to_json(inst)
    elif model == "semirandom":
        inst = gen_semirandom(
            int(p["n"]), int(p["s"]), AdversarySpec.parse(p["adversary"]), seed
        )
        record = instance_to_json(inst)
    elif model == "null-grid":
        graph, cfg = gen_null_grid(int(p["n"]), int(p["m"]), seed)
        record = instance_record(
            graph, "null-grid", {"n": int(p["n"]), "m": int(p["m"])}, seed, grid=cfg
        )
    elif model == "null-lines":
        graph, cfg = gen_null_lines(int(p["n"]), int(p["m"]), int(p["k"]), seed)
        record = instance_record(
            graph,
            "null-lines",
            {"n": int(p["n"]), "m": int(p["m"]), "k": int(p["k"])},
            seed,
            grid=cfg,
        )
    else:
        inst = gen_coupled(int(p["n"]), int(p["m"]), int(p["k"]), seed)
        record = instance_to_json(inst)
    out = Path(p["out"])
    with _open_output(out) as fh:
        fh.write(dump_instance(record))
    print(f"{out} sha256:{_sha256(out)}")
    _write_manifest("gen", p, [out], started)
    return 0


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------

_RECOVER_SCHEMA = {
    "infile": None,
    "v": None,
    "s": None,
    "budget": DEFAULT_BUDGET,
    "out": None,
}


def cmd_recover(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    p = _merge_params(args, _RECOVER_SCHEMA)
    if p["infile"] is None:
        raise ValueError("--in is required")
    try:
        record = json.loads(Path(p["infile"]).read_text())
        loaded = instance_from_json(record)
    except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed instance file: {exc}") from exc
    v = p["v"] if p["v"] is not None else loaded.revealed
    if v is None:
        raise ValueError("instance has no revealed vertex; pass --v")
    s = p["s"] if p["s"] is not None else (len(loaded.clique) or None)
    if s is None:
        raise ValueError("instance has no clique size; pass --s")
    result = recover(loaded.graph, int(v), int(s), budget=int(p["budget"]))
    payload = {
        "recovered": sorted(result.vertices),
        "jaccard": (
            jaccard(result.vertices, loaded.clique) if loaded.clique else None
        ),
        "good_clique_count": result.good_clique_count,
        "truncated": result.truncated,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if p["out"]:
        out = Path(p["out"])
        with _open_output(out) as fh:
            fh.write(text)
        _write_manifest("recover", p, [out], started)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_pb_bound(p):
    rng = stream(int(p["seed"]), "pb-bound")
    header = ["case", "s", "q", "kl_exact", "chi2_exact", "kl_bound", "slack", "ok"]
    rows, bad = [], 0
    trials = int(p["trials"])
    case = 0
    for s in range(2, 9):
        for _ in range(trials):
            q = float(rng.uniform(0.1, 0.9))
            a = random_spec(rng, s, q)
            if rng.random() < 0.5:
                b = random_spec(rng, s, q, include_empty=True)
            else:
                b = bernoulli_lift(q, float(rng.uniform(q, 0.95)), s)
            r = compare(a, b)
            ok = (
                r.kl_exact <= r.chi2_exact + INEQUALITY_TOL
                and r.kl_exact <= r.bound + INEQUALITY_TOL
            )
            bad += not ok
            rows.append([case, s, q, r.kl_exact, r.chi2_exact, r.bound, r.slack, int(ok)])
            case += 1
    return header, rows, bad


_LAW_SWEEP = [
    ("grid", m, 2, s) for m in (7, 11, 13) for s in (2, 3, 4)
] + [
    ("lines", m, k, s)
    for m in (7, 11, 13)
    for k in (2, 3)
    for s in (2, 3, 4)
]


def _suite_column_laws(p):
    rng = stream(int(p["seed"]), "column-laws")
    header = ["mode", "m", "k", "s", "trial", "prefix", "match"]
    rows, bad = [], 0
    trials = int(p["trials"])
    for mode, m, k, s in _LAW_SWEEP:
        for t in range(trials):
            d = int(rng.integers(0, 2 * m + 1))
            state = random_prefix_state(rng, mode, m, k, s, d)
            if mode == "grid":
                law = column_law_grid(state)
                observed = {}
                for cand in state.unused_candidates():
                    mask = state.perturb_mask(cand)
                    observed[mask] = observed.get(mask, 0) + 1
                match = observed == law.sigma_counts and law.denominator == len(
                    state.unused_candidates()
                )
            else:
                law = column_law_lines(state)
                match = True
                for j, cpt in enumerate(state.clique_points):
                    hits = sum(
                        1
                        for prior in state.prior_points
                        if bowtie(prior, cpt, m, k)
                    )
                    enumerated = Fraction(
                        sum(
                            c
                            for mask, c in law.sigma_counts.items()
                            if mask >> j & 1
                        ),
                        law.denominator,
                    )
                    formula = Fraction(
                        (k - 1) * (m - 1) - hits, m * m - m - len(state.prior_points)
                    )
                    match = match and enumerated == formula
            bad += not match
            rows.append([mode, m, k, s, t, d, int(match)])
    return header, rows, bad


_LINE_BOUND_CONFIGS = [(29, 2, 2), (29, 2, 3), (37, 3, 2)]


def _suite_local_bounds(p):
    rng = stream(int(p["seed"]), "local-bounds")
    header = [
        "mode", "n", "m", "k", "s", "trial", "prefix",
        "exact", "bound", "slack", "hypotheses_ok", "ok",
    ]
    rows, bad = [], 0
    trials = int(p["trials"])
    grid_configs = [
        ("grid", m, k, s) for mode, m, k, s in _LAW_SWEEP
        if mode == "grid" and s <= m - 6
    ]
    line_configs = [
        ("lines", m, k, s) for mode, m, k, s in _LAW_SWEEP
        if mode == "lines" and 4 * k <= m and 2 * k * (s + 4) <= m
    ] + [("lines", m, k, s) for m, k, s in _LINE_BOUND_CONFIGS]
    for mode, m, k, s in grid_configs + line_configs:
        n = m * (m - 1) // 2
        for t in range(trials):
            d = int(rng.integers(0, 2 * m + 1))
            state = random_prefix_state(rng, mode, m, k, s, d)
            if mode == "grid":
                law = column_law_grid(state)
                bound = kl_local_bound_grid(law, m)
            else:
                law = column_law_lines(state)
                bound = kl_local_bound_lines(law, n, m, k)
            exact = kl_exact(law.spec, bernoulli_lift(state.q, 0.5, s))
            ok = exact <= bound + INEQUALITY_TOL
            bad += not ok
            rows.append(
                [mode, n, m, k, s, t, d, exact, bound, bound - exact, 1, int(ok)]
            )
    return header, rows, bad


def _suite_chain(p):
    n = int(p["n"] or 5)
    m = int(p["m"] or 3)
    header = ["n", "m", "mode", "joint_kl", "chain_rhs", "slack", "ok"]
    lhs = exact_joint_kl(n, m, "grid")
    rhs = exact_chain_rhs(n, m, "grid")
    ok = lhs <= rhs + INEQUALITY_TOL
    return header, [[n, m, "grid", lhs, rhs, rhs - lhs, int(ok)]], int(not ok)


def _suite_hg(p):
    header = ["k", "s", "m", "expectation", "bound", "ok"]
    rows, bad = [], 0
    for k in range(1, 7):
        for s in range(1, 13):
            for m in range(1, 65):
                if s > m or k - 1 > m or 2 * (k - 1) * s > m:
                    continue
                expectation = hg_expectation(k - 1, s, m)
                bound = hg_bound(k, s, m)
                ok = expectation <= bound + 1e-12
                bad += not ok
                rows.append([k, s, m, expectation, bound, int(ok)])
    return header, rows, bad


def _suite_union_bound(p):
    n = int(p["n"] or 1000)
    s = int(p["s"] or 60)
    l0 = int(p["l0"]) if p["l0"] is not None else math.ceil(3 * math.log2(n))
    header = ["n", "s", "l0", "value", "cap", "ok"]
    value = union_bound_probability(n, s, l0)
    cap = 2.0 * s / n**2
    ok = value <= cap
    return header, [[n, s, l0, value, cap, int(ok)]], int(not ok)


_SUITES = {
    "pb-bound": _suite_pb_bound,
    "column-laws": _suite_column_laws,
    "local-bounds": _suite_local_bounds,
    "chain": _suite_chain,
    "hg": _suite_hg,
    "union-bound": _suite_union_bound,
}

_VERIFY_SCHEMA = {
    "suite": None,
    "trials": None,
    "seed": 0,
    "n": None,
    "s": None,
    "m": None,
    "l0": None,
    "csv": None,
}


def cmd_verify(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    p = _merge_params(args, _VERIFY_SCHEMA)
    suite = p["suite"]
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    if p["trials"] is None:
        p["trials"] = 500 if suite == "pb-bound" else 50
    if int(p["trials"]) < 1:
        raise ValueError(f"need --trials >= 1, got {p['trials']}")
    header, rows, bad = _SUITES[suite](p)
    outputs = _emit_csv(header, rows, p["csv"])
    print(f"suite={suite} cases={len(rows)} violations={bad}", file=sys.stderr)
    shown = 0
    for row in rows:
        if bad and row[-1] == 0:  # every suite ends its row with an ok flag
            named = ", ".join(f"{h}={_fmt(v)}" for h, v in zip(header, row))
            print(f"violation: {named}", file=sys.stderr)
            shown += 1
            if shown >= 20:
                print("... further violations omitted", file=sys.stderr)
                break
    if outputs:
        _write_manifest("verify", p, outputs, started)
    return 0 if bad == 0 else 1


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

_BOUNDS_SCHEMA = {
    "mode": "grid",
    "n": 20,
    "m": 13,
    "k": 2,
    "s": 2,
    "trials": 100,
    "seed": 0,
    "csv": None,
}


def cmd_bounds(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    p = _merge_params(args, _BOUNDS_SCHEMA)
    ledger = chained_kl_bound(
        int(p["n"]),
        int(p["m"]),
        int(p["k"]),
        int(p["s"]),
        int(p["trials"]),
        int(p["seed"]),
        mode=p["mode"],
    )
    header = ["mode", "n", "m", "k", "s", "trials", "seed", "kind", "name", "exact", "bound"]
    prefix = [ledger.mode, ledger.n, ledger.m, ledger.k, ledger.s, ledger.trials, ledger.seed]
    rows = []
    for i, (ex, bd) in enumerate(zip(ledger.per_column_exact, ledger.per_column_bound)):
        rows.append(prefix + ["column", ledger.column_index[i], ex, bd])
    rows.append(prefix + ["chained", "mean", ledger.chained_exact, ledger.chained_bound])
    rows.append(
        prefix + ["chained", "stderr", ledger.chained_exact_stderr, ledger.chained_bound_stderr]
    )
    for name, value in ledger.closed_form_terms.items():
        rows.append(prefix + ["closed-form", name, None, value])
    rows.append(prefix + ["closed-form", "total", None, ledger.closed_form_total])
    rows.append(prefix + ["pinsker", "tv", None, ledger.tv_pinsker])
    for name, flag in ledger.hypotheses.items():
        rows.append(prefix + ["hypothesis", name, None, int(flag)])
    outputs = _emit_csv(header, rows, p["csv"])
    if outputs:
        _write_manifest("bounds", p, outputs, started)
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

_EXPERIMENTS = {
    "recovery-upper": {
        "model": "semirandom",
        "estimator": "recover",
        "n": 60,
        "s": 15,
        "adversary": "extra_cliques:2",
    },
    "coupled-lower": {"model": "coupled", "estimator": "recover", "n": 50, "m": 11, "k": 3},
    "oracle-line": {"model": "coupled", "estimator": "oracle-line", "n": 50, "m": 11, "k": 3},
}

_EXPERIMENT_SCHEMA = {
    "tag": None,
    "n": None,
    "s": None,
    "m": None,
    "k": None,
    "adversary": None,
    "trials": 100,
    "seed": 0,
    "threads": 1,
    "csv": None,
}


def cmd_experiment(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    p = _merge_params(args, _EXPERIMENT_SCHEMA)
    tag = p["tag"]
    if tag not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {tag!r}; choose from {sorted(_EXPERIMENTS)}")
    setup = dict(_EXPERIMENTS[tag])
    for key in ("n", "s", "m", "k", "adversary"):
        if p[key] is not None:
            setup[key] = p[key]
    result = jaccard_experiment(
        setup.pop("model"),
        setup.pop("estimator"),
        int(p["trials"]),
        int(p["seed"]),
        n=int(setup["n"]),
        s=None if setup.get("s") is None else int(setup["s"]),
        m=None if setup.get("m") is None else int(setup["m"]),
        k=None if setup.get("k") is None else int(setup["k"]),
        adversary=setup.get("adversary") or "empty",
        threads=int(p["threads"]),
    )
    header = ["trial", "jaccard", "runtime_s"]
    rows = [[t, v, r] for t, (v, r) in enumerate(zip(result.values, result.runtimes))]
    rows.append(["mean", result.mean, None])
    rows.append(["ci95_halfwidth", result.ci95, None])
    outputs = _emit_csv(header, rows, p["csv"])
    if outputs:
        _write_manifest("experiment", p, outputs, started)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcsemi",
        description="Planted-clique semi-random model laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--model", choices=["classical", "semirandom", "null-grid", "null-lines", "coupled"])
    gen.add_argument("--n", type=int)
    gen.add_argument("--s", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--adversary", type=str)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", type=str)
    gen.add_argument("--manifest", type=str)
    gen.set_defaults(func=cmd_gen)

    rec = sub.add_parser("recover", help="run the recovery rule on an instance file")
    rec.add_argument("--in", dest="infile", type=str)
    rec.add_argument("--v", type=int)
    rec.add_argument("--s", type=int)
    rec.add_argument("--budget", type=int)
    rec.add_argument("--out", type=str)
    rec.add_argument("--manifest", type=str)
    rec.set_defaults(func=cmd_recover)

    ver = sub.add_parser("verify", help="run a property sweep; exit 1 on any violation")
    ver.add_argument("suite", nargs="?", default=None)
    ver.add_argument("--trials", type=int)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--n", type=int)
    ver.add_argument("--s", type=int)
    ver.add_argument("--m", type=int)
    ver.add_argument("--l0", type=int)
    ver.add_argument("--csv", type=str)
    ver.add_argument("--manifest", type=str)
    ver.set_defaults(func=cmd_verify)

    bnd = sub.add_parser("bounds", help="chained KL bound ledger for one configuration")
    bnd.add_argument("--mode", choices=["grid", "lines"])
    bnd.add_argument("--n", type=int)
    bnd.add_argument("--m", type=int)
    bnd.add_argument("--k", type=int)
    bnd.add_argument("--s", type=int)
    bnd.add_argument("--trials", type=int)
    bnd.add_argument("--seed", type=int)
    bnd.add_argument("--csv", type=str)
    bnd.add_argument("--manifest", type=str)
    bnd.set_defaults(func=cmd_bounds)

    exp = sub.add_parser("experiment", help="seeded Jaccard experiment")
    exp.add_argument("tag", nargs="?", default=None)
    exp.add_argument("--n", type=int)
    exp.add_argument("--s", type=int)
    exp.add_argument("--m", type=int)
    exp.add_argument("--k", type=int)
    exp.add_argument("--adversary", type=str)
    exp.add_argument("--trials", type=int)
    exp.add_argument("--seed", type=int)
    exp.add_argument("--threads", type=int)
    exp.add_argument("--csv", type=str)
    exp.add_argument("--manifest", type=str)
    exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
