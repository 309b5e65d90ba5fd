"""Command line front end: instance generation, recovery, bound
verification sweeps, chained-bound reports, and Jaccard experiments.

Every subcommand is deterministic given its parameters and seed.  Each
subcommand declares its parameters once, in one table of name -> (kind,
default); that table drives the parser, manifest replay and type checks.
The four commands with variants (a gen model, a verify suite, a bounds mode,
an experiment tag) follow one flag rule: each variant names the parameters
it reads and their defaults, and a flag that the chosen variant does not
read is a usage error.  A run manifest (parameters, seed, version,
timestamps, output digests) is written next to each file output;
``--manifest`` replays one, with explicit flags winning on conflict.  Exit
codes: 0 success / all checks pass, 1 at least one violated inequality, 2
usage or parameter error, 141 stdout closed by its reader before the output
was written.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .analysis import (
    chained_kl_bound,
    column_law,
    column_scores,
    exact_chain_rhs,
    exact_joint_kl,
    hg_bound,
    hg_expectation,
    jaccard_experiment,
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
    instance_to_json,
    stream,
)
from .perturbed_bernoulli import (
    INEQUALITY_TOL,
    bernoulli_lift,
    compare,
    random_spec,
)
from .recovery import (
    DEFAULT_BUDGET,
    check_query,
    good_cliques,
    jaccard,
    maximal_cliques,
    union_bound_probability,
    unique_holding,
)

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


def _typed(key: str, value, kind) -> None:
    """Check ``value`` against the declared kind of ``key``: ``int`` takes an
    integer (never a bool), ``str`` a string, and both take ``None`` for
    unset; any other kind is a table of choices, and the value must be one
    of its keys."""
    if kind is int:
        ok, want = value is None or type(value) is int, "an integer"
    elif kind is str:
        ok, want = value is None or isinstance(value, str), "a string"
    else:
        ok, want = isinstance(value, str) and value in kind, f"one of {sorted(kind)}"
    if not ok:
        raise ValueError(f"param {key!r} is {value!r}, not {want}")


def _merge_params(args: argparse.Namespace, table: dict) -> dict:
    """builtin defaults < PCSEMI_SEED < manifest < explicit flags.

    A ``null`` in a manifest leaves the default in place, and every value is
    checked against the kind that ``table`` declares for it.
    """
    params = {key: default for key, (_, default) in table.items()}
    env_seed = os.environ.get(ENV_SEED)
    if "seed" in table and env_seed:
        try:
            params["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"{ENV_SEED} is {env_seed!r}, not an integer") from None
    if args.manifest:
        try:
            loaded = json.loads(Path(args.manifest).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read manifest: {exc}") from exc
        replay = loaded.get("params", {}) if isinstance(loaded, dict) else None
        if not isinstance(replay, dict):
            raise ValueError("manifest is not a JSON object with a params object")
        if loaded.get("subcommand") != args.command:
            raise ValueError(
                f"manifest is for {loaded.get('subcommand')!r}, not {args.command!r}"
            )
        params.update(
            (key, val) for key, val in replay.items() if key in params and val is not None
        )
    for key, (kind, _) in table.items():
        given = getattr(args, key)
        if given is not None:
            params[key] = given
        _typed(key, params[key], kind)
    return params


# the default of a parameter that its variant reads and that has to be given
_REQUIRED = object()


def _variant_params(args: argparse.Namespace, p: dict, table: dict) -> None:
    """The flag rule of every command with variants.

    The variant is the parameter whose kind is a variant table; each row of
    that table ends with the parameters the variant reads and their
    defaults.  A parameter that another variant reads is refused when it was
    given as a flag, and dropped to ``None`` when it came from a manifest or
    ``PCSEMI_SEED``, so earlier manifests still replay.  The variant's own
    parameters still unset take its defaults, and a ``_REQUIRED`` one must
    be given.
    """
    found = [key for key, (kind, _) in table.items() if isinstance(kind, dict)]
    if not found:
        return
    (key,) = found
    variants = table[key][0]
    reads = variants[p[key]][-1]
    unread = [
        name for name in table
        if name not in reads and any(name in row[-1] for row in variants.values())
    ]
    given = [f"--{name}" for name in unread if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{args.command} {p[key]} does not read {', '.join(given)}")
    p.update(dict.fromkeys(unread))
    p.update((name, default) for name, default in reads.items() if p[name] is None)
    missing = [f"--{name}" for name in reads if p[name] is _REQUIRED]
    if missing:
        raise ValueError(f"{key} {p[key]} requires {', '.join(missing)}")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

# model -> (instance builder, the parameters it reads, with their defaults)
_GEN_MODELS = {
    "classical": (
        lambda p: gen_classical(p["n"], p["s"], p["seed"]), {"n": _REQUIRED, "s": _REQUIRED}
    ),
    "semirandom": (
        lambda p: gen_semirandom(
            p["n"], p["s"], AdversarySpec.parse(p["adversary"]), p["seed"]
        ),
        {"n": _REQUIRED, "s": _REQUIRED, "adversary": "empty"},
    ),
    "null-grid": (
        lambda p: gen_null_grid(p["n"], p["m"], p["seed"]), {"n": _REQUIRED, "m": _REQUIRED}
    ),
    "null-lines": (
        lambda p: gen_null_lines(p["n"], p["m"], p["k"], p["seed"]),
        {"n": _REQUIRED, "m": _REQUIRED, "k": 2},
    ),
    "coupled": (
        lambda p: gen_coupled(p["n"], p["m"], p["k"], p["seed"]),
        {"n": _REQUIRED, "m": _REQUIRED, "k": 2},
    ),
}

_GEN_PARAMS = {
    "model": (_GEN_MODELS, None),
    "n": (int, None),
    "s": (int, None),
    "m": (int, None),
    "k": (int, None),
    "adversary": (str, None),
    "seed": (int, 0),
    "out": (str, "instance.json"),
}


def cmd_gen(p: dict) -> tuple[int, list[Path]]:
    build, _ = _GEN_MODELS[p["model"]]
    text = dump_instance(instance_to_json(build(p)))
    out = Path(p["out"])
    with _open_output(out) as fh:
        fh.write(text)
    print(f"{out} sha256:{_sha256(out)}")
    return 0, [out]


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------

_RECOVER_PARAMS = {
    "infile": (str, None),
    "v": (int, None),
    "s": (int, None),
    "budget": (int, DEFAULT_BUDGET),
    "out": (str, None),
}


def cmd_recover(p: dict) -> tuple[int, list[Path]]:
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
    check_query(loaded.graph.n, v, s)
    # the count needs every clique of size >= s, so the rule runs on that listing
    listed = maximal_cliques(loaded.graph, min_size=s, budget=p["budget"])
    good = good_cliques(listed, s, loaded.graph.n).cliques
    recovered = unique_holding(good, v)
    payload = {
        "recovered": sorted(recovered),
        "jaccard": jaccard(recovered, loaded.clique) if loaded.clique else None,
        "good_clique_count": len(good),
        "truncated": listed.truncated,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    outputs = [Path(p["out"])] if p["out"] else []
    for out in outputs:
        with _open_output(out) as fh:
            fh.write(text)
    print(text, end="")
    return 0, outputs


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_pb_bound(p):
    rng = stream(p["seed"], "pb-bound")
    header = ["case", "s", "q", "kl_exact", "chi2_exact", "kl_bound", "slack", "ok"]
    rows, bad = [], 0
    case = 0
    for s in range(2, 9):
        for _ in range(p["trials"]):
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
    """Enumerated column laws against the occupancy formula as exact
    rationals, S({j}) = ((k-1)(m-1) - hits_j) / (m^2 - m - d), with hits_j
    counted by a scalar relation of its own (same row or column in grid mode,
    where k = 2; ``bowtie`` in line mode).  A candidate meets the planted
    structure once per non-parallel family, so it forces at most k - 1
    coordinates."""
    rng = stream(p["seed"], "column-laws")
    header = ["mode", "m", "k", "s", "trial", "prefix", "match"]
    rows, bad = [], 0
    for mode, m, k, s in _LAW_SWEEP:
        for t in range(p["trials"]):
            d = int(rng.integers(0, 2 * m + 1))
            state = random_prefix_state(rng, mode, m, k, s, d)
            law = column_law(state)
            denom = m * m - m - d
            match = law.denominator == denom and all(
                mask.bit_count() <= k - 1 for mask in law.sigma_counts
            )
            for j, cpt in enumerate(state.clique_points):
                hits = sum(
                    (u[0] == cpt[0] or u[1] == cpt[1]) if mode == "grid" else bowtie(u, cpt, m, k)
                    for u in state.prior_points
                )
                enumerated = Fraction(
                    sum(c for mask, c in law.sigma_counts.items() if mask >> j & 1),
                    law.denominator,
                )
                match = match and enumerated == Fraction((k - 1) * (m - 1) - hits, denom)
            bad += not match
            rows.append([mode, m, k, s, t, d, int(match)])
    return header, rows, bad


# (mode, m, k, s), each inside its local bound's hypotheses
_LOCAL_BOUND_CONFIGS = [
    ("grid", 11, 2, 2), ("grid", 11, 2, 3), ("grid", 11, 2, 4),
    ("grid", 13, 2, 2), ("grid", 13, 2, 3), ("grid", 13, 2, 4),
    ("lines", 29, 2, 2), ("lines", 29, 2, 3), ("lines", 37, 3, 2),
]


def _suite_local_bounds(p):
    rng = stream(p["seed"], "local-bounds")
    header = ["mode", "n", "m", "k", "s", "trial", "prefix", "exact", "bound", "slack", "ok"]
    rows, bad = [], 0
    for mode, m, k, s in _LOCAL_BOUND_CONFIGS:
        n = m * (m - 1) // 2
        for t in range(p["trials"]):
            d = int(rng.integers(0, 2 * m + 1))
            state = random_prefix_state(rng, mode, m, k, s, d)
            exact, bound = column_scores(column_law(state), mode, n, m, k)
            ok = exact <= bound + INEQUALITY_TOL
            bad += not ok
            rows.append([mode, n, m, k, s, t, d, exact, bound, bound - exact, int(ok)])
    return header, rows, bad


def _suite_chain(p):
    n, m = p["n"], p["m"]
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
    n, s = p["n"], p["s"]
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= --s <= --n, got --s={s}, --n={n}")
    # the smallest integer >= 3 log2 n, in exact integer arithmetic, and at
    # least 1, where overlaps start
    l0 = p["l0"] if p["l0"] is not None else max(1, (n**3 - 1).bit_length())
    header = ["n", "s", "l0", "value", "cap", "ok"]
    value = union_bound_probability(n, s, l0)
    cap = 2.0 * s / n**2
    ok = value <= cap
    return header, [[n, s, l0, value, cap, int(ok)]], int(not ok)


# suite -> (sweep, the parameters it reads, with their defaults)
_SUITES = {
    "pb-bound": (_suite_pb_bound, {"trials": 500, "seed": 0}),
    "column-laws": (_suite_column_laws, {"trials": 50, "seed": 0}),
    "local-bounds": (_suite_local_bounds, {"trials": 50, "seed": 0}),
    "chain": (_suite_chain, {"n": 5, "m": 3}),
    "hg": (_suite_hg, {}),
    "union-bound": (_suite_union_bound, {"n": 1000, "s": 60, "l0": None}),
}

_VERIFY_PARAMS = {
    "suite": (_SUITES, None),
    "trials": (int, None),
    "seed": (int, 0),
    "n": (int, None),
    "s": (int, None),
    "m": (int, None),
    "l0": (int, None),
    "csv": (str, None),
}


def cmd_verify(p: dict) -> tuple[int, list[Path]]:
    suite = p["suite"]
    sweep, reads = _SUITES[suite]
    if "trials" in reads and p["trials"] < 1:
        raise ValueError(f"need --trials >= 1, got {p['trials']}")
    header, rows, bad = sweep(p)
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
    return (0 if bad == 0 else 1), outputs


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

# mode -> (the parameters it reads besides the common ones, with their
# defaults); grid mode has two line families, so it runs with k = 2
_BOUNDS_MODES = {"grid": ({},), "lines": ({"k": 2},)}

_BOUNDS_PARAMS = {
    "mode": (_BOUNDS_MODES, "grid"),
    "n": (int, 20),
    "m": (int, 13),
    "k": (int, None),
    "s": (int, 2),
    "trials": (int, 100),
    "seed": (int, 0),
    "csv": (str, None),
}


def cmd_bounds(p: dict) -> tuple[int, list[Path]]:
    ledger = chained_kl_bound(
        p["n"], p["m"], p["k"], p["s"], p["trials"], p["seed"], mode=p["mode"]
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
    return 0, _emit_csv(header, rows, p["csv"])


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

# tag -> (model, estimator, the parameters its trials read, with their defaults)
_EXPERIMENTS = {
    "recovery-upper": (
        "semirandom", "recover", {"n": 60, "s": 15, "adversary": "extra_cliques:2"}
    ),
    "coupled-lower": ("coupled", "recover", {"n": 50, "m": 11, "k": 3}),
    "oracle-line": ("coupled", "oracle-line", {"n": 50, "m": 11, "k": 3}),
}

_EXPERIMENT_PARAMS = {
    "tag": (_EXPERIMENTS, None),
    "n": (int, None),
    "s": (int, None),
    "m": (int, None),
    "k": (int, None),
    "adversary": (str, None),
    "trials": (int, 100),
    "seed": (int, 0),
    "threads": (int, 1),
    "csv": (str, None),
}


def cmd_experiment(p: dict) -> tuple[int, list[Path]]:
    model, estimator, reads = _EXPERIMENTS[p["tag"]]
    result = jaccard_experiment(
        model,
        estimator,
        p["trials"],
        p["seed"],
        threads=p["threads"],
        **{key: p[key] for key in reads},
    )
    header = ["trial", "jaccard", "runtime_s"]
    rows = [[t, v, r] for t, (v, r) in enumerate(zip(result.values, result.runtimes))]
    rows.append(["mean", result.mean, None])
    rows.append(["ci95_halfwidth", result.ci95, None])
    return 0, _emit_csv(header, rows, p["csv"])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# subcommand -> (body, parameter table, help); a body takes the merged
# parameters and returns (exit code, files written)
_COMMANDS = {
    "gen": (cmd_gen, _GEN_PARAMS, "generate an instance file"),
    "recover": (cmd_recover, _RECOVER_PARAMS, "run the recovery rule on an instance file"),
    "verify": (cmd_verify, _VERIFY_PARAMS, "run a property sweep; exit 1 on any violation"),
    "bounds": (cmd_bounds, _BOUNDS_PARAMS, "chained KL bound ledger for one configuration"),
    "experiment": (cmd_experiment, _EXPERIMENT_PARAMS, "seeded Jaccard experiment"),
}

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcsemi",
        description="Planted-clique semi-random model laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, table, summary) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        for key, (kind, _) in table.items():
            parse = int if kind is int else str
            choices = None if kind in (int, str) else "{" + ",".join(kind) + "}"
            if key in ("suite", "tag"):
                cmd.add_argument(key, nargs="?", type=parse, metavar=choices)
            else:
                flag = "--in" if key == "infile" else f"--{key}"
                cmd.add_argument(flag, dest=key, type=parse, metavar=choices)
        cmd.add_argument("--manifest", type=str)
    return parser


# the shell's status for a process that SIGPIPE ends (128 + 13): the reader
# of stdout closed it, as ``pcsemi verify hg | head -1`` does
EXIT_CLOSED_PIPE = 141


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    body, table, _ = _COMMANDS[args.command]
    try:
        try:
            params = _merge_params(args, table)
            _variant_params(args, params, table)
            code, outputs = body(params)
            _write_manifest(args.command, params, outputs, started)
        except (ValueError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        sys.stdout.flush()
    except BrokenPipeError:
        # whatever is still buffered goes nowhere, so the interpreter's
        # final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
