"""Golden digests: the behaviour contract for refactors.

Each case runs one fixed (subcommand, flags, seed) through the command line
and hashes what it writes: instance JSON for every model, the chained-bound
ledgers, two verification sweeps, and the ``trial,jaccard`` columns of all
three experiments (``runtime_s`` is wall time and is left out).  A change that
keeps these digests keeps every seeded output of the corpus byte-identical.
A digest may change only with a stated reason.

The command-line cases stay at small dimensions, so a second set hashes the
raw bytes of every 2^s-state table and the ``repr`` of every divergence for
fixed seeded law pairs at the largest dimensions, where a change in rounding
would otherwise go unseen.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from pcsemi.analysis import exact_coupled_law
from pcsemi.cli import main
from pcsemi.perturbed_bernoulli import (
    MAX_DIM,
    chi2_exact,
    kl_bound,
    kl_exact,
    mobius_invert,
    pmf_fourier_vector,
    pmf_vector,
    random_spec,
    superset_sum,
    support_vector,
)

CASES = {
    "gen-classical": ["gen", "--model", "classical", "--n", "40", "--s", "10", "--seed", "1"],
    "gen-semirandom": [
        "gen", "--model", "semirandom", "--n", "40", "--s", "10",
        "--adversary", "extra_cliques:2", "--seed", "2",
    ],
    "gen-semirandom-empty": [
        "gen", "--model", "semirandom", "--n", "40", "--s", "10",
        "--adversary", "empty", "--seed", "2",
    ],
    "gen-semirandom-random": [
        "gen", "--model", "semirandom", "--n", "40", "--s", "10",
        "--adversary", "random:0.3", "--seed", "3",
    ],
    "gen-null-grid": ["gen", "--model", "null-grid", "--n", "40", "--m", "9", "--seed", "3"],
    "gen-null-lines": [
        "gen", "--model", "null-lines", "--n", "40", "--m", "11", "--k", "3", "--seed", "4",
    ],
    **{
        f"gen-coupled-50-seed{seed}": [
            "gen", "--model", "coupled", "--n", "50", "--m", "11", "--k", "3",
            "--seed", str(seed),
        ]
        for seed in range(4)
    },
    "gen-coupled-200": [
        "gen", "--model", "coupled", "--n", "200", "--m", "29", "--k", "3", "--seed", "0",
    ],
    # a 16-point clique; no other case plants a coupled clique above 10 points
    "gen-coupled-400": [
        "gen", "--model", "coupled", "--n", "400", "--m", "29", "--k", "5", "--seed", "1",
    ],
    "bounds-lines": [
        "bounds", "--mode", "lines", "--n", "40", "--m", "29", "--k", "2", "--s", "3",
        "--trials", "4", "--seed", "1",
    ],
    "bounds-lines-k3": [
        "bounds", "--mode", "lines", "--n", "30", "--m", "37", "--k", "3", "--s", "2",
        "--trials", "3", "--seed", "6",
    ],
    # the ledger-lines benchmark configuration
    "bounds-lines-60": [
        "bounds", "--mode", "lines", "--n", "60", "--m", "29", "--k", "2", "--s", "3",
        "--trials", "2", "--seed", "0",
    ],
    "bounds-grid": ["bounds", "--mode", "grid", "--trials", "10", "--seed", "1"],
    "verify-chain": ["verify", "chain", "--n", "5", "--m", "3"],
    "verify-column-laws": ["verify", "column-laws", "--trials", "3", "--seed", "2"],
    "verify-local-bounds": ["verify", "local-bounds", "--trials", "2", "--seed", "3"],
    "verify-pb-bound": ["verify", "pb-bound", "--trials", "6", "--seed", "8"],
    "experiment-coupled-lower": ["experiment", "coupled-lower", "--trials", "6", "--seed", "4"],
    # about 200 coupled instances and recovery decisions
    "experiment-coupled-lower-200": [
        "experiment", "coupled-lower", "--trials", "200", "--seed", "11",
    ],
    "experiment-oracle-line": ["experiment", "oracle-line", "--trials", "12", "--seed", "5"],
    # a random adversary at this size leaves mixed 0/1 scores; the defaults give all 1s
    "experiment-recovery-upper": [
        "experiment", "recovery-upper", "--n", "60", "--s", "10", "--adversary", "random:0.6",
        "--trials", "8", "--seed", "3",
    ],
}

DIGESTS = {
    "bounds-grid": "84b1939516805da82da03b7e3e967d1e89b52c86eae4dabe2e59986e22fef572",
    "bounds-lines": "fa8b2c866d134a9db5a97a7f44d5e47b9c15ebdd497f3c35511b06cbac98fbb1",
    "bounds-lines-60": "e434673d3a37fba9880baf9bf7b50ae72bdcbd32f3312a8d5420262b62b6ac10",
    "bounds-lines-k3": "70e6aaf32143aeea222c232795a388d7b335f48933432575b56253bc3f1ee3d4",
    "experiment-coupled-lower": "b133e71892663909924e97eef4017419d56b6a406d54581ad1f898452e28d879",
    "experiment-coupled-lower-200": "34da9b94fb9446d0143e2c21d5f6ce266ab07fcf442f3b26b1c5759206044304",
    "experiment-oracle-line": "5dbb93273df14df5b87b1a7e6d81d2e083a71ae26b73d2b64ca66a3436a4da28",
    "experiment-recovery-upper": "fded30b64f90aaea399df4b18b69bd53cd204fc7723aa745fde977892106220a",
    "gen-classical": "719f69c1021607b545d28a358fee7793e6ba7f60e61e08fb32554bbb0aacdced",
    "gen-coupled-200": "4bf6c99b359f41b744f5f0b6e777512eee2ef12d590733179a2942d4d12116a1",
    "gen-coupled-400": "4a911525a8b1d89ae4ce55a9ca01dd049159a80687dbbfb54d13b6d78197e276",
    "gen-coupled-50-seed0": "8a5b3e87e80f65675f488cdde14802b68e47a4fd6bc47913cee87a5294b02cf2",
    "gen-coupled-50-seed1": "a1d687d3bc5c8c938ec021e9d5256ec8c8339e5ac88f4fbda699b3f06aa44f76",
    "gen-coupled-50-seed2": "08e6b234022428fb8aa83daf3f1cec3d5bdaecaba55ebd98af2412a3bd61ca22",
    "gen-coupled-50-seed3": "602c5a97b2726cd8c6c886173122a0c6cda800f941ffab8a66c214bee306f2d2",
    "gen-null-grid": "e6e19b98d849fc39fedf36c36ecc51fba22e3b6a5b3db478b3d1f5eea7cb65c8",
    "gen-null-lines": "18f2a1f57c46893e97edd2854560976d16c2b8a327dc5825059045197bc77f8a",
    "gen-semirandom": "c27c837c7b9e6b25c79119634d440f3cfae1afab363235b7c409d2e3d25f8289",
    "gen-semirandom-empty": "7c56c2136c1b5403a1151a124a64e069b1e2296bd704ff2237ebdf78acc7da26",
    "gen-semirandom-random": "ca59b8b66182a5d6f25335422ef4a72dd4824ff0b022cb7801f0a7bd22951248",
    "verify-chain": "01a840d21f53f9afc07dc93e2a1670cfa56727b9934b653c0c89f140ddf3eca3",
    "verify-column-laws": "362aab26717088fd0f3d911a225ef5e2810239e3a6ea5206c9e6fa4321cad36b",
    # re-recorded without the constant hypotheses_ok column; the rest is unchanged
    "verify-local-bounds": "2fcb93fe05b94e6f8fbdddcef26f2d631e7a168f9c7fbaa99127b05924c5d097",
    # re-recorded when kl_bound moved from np.dot to a numpy sum, whose order
    # does not depend on the BLAS thread count; the exact divergences are unchanged
    "verify-pb-bound": "9e9e84e8002beceecc87b86cb85a00aa9d361e70671de96892caae11ebdcdf5f",
}

# ``recover`` on one instance of each model: (gen flags, recover flags,
# sha256 of the printed payload).
RECOVER_CASES = {
    "classical-30": (
        ["--model", "classical", "--n", "30", "--s", "8"], [],
        "aca0f39aedcdea96db5036d9afcfb4bdfacae2d516f4f5072133e1b73eb1c999",
    ),
    "semirandom-60": (
        ["--model", "semirandom", "--n", "60", "--s", "15", "--adversary", "extra_cliques:2",
         "--seed", "42"], [],
        "ad138c35194096b63e00be2d4c1d7f52a226e552aabf62b1746895c5a6cc3d07",
    ),
    "semirandom-200": (
        ["--model", "semirandom", "--n", "200", "--s", "30", "--adversary", "extra_cliques:2"],
        [],
        "306036847a5f1f0f2f316f03d17d0459dff023dc223aba0e57900e607132659f",
    ),
    **{
        f"coupled-50-seed{seed}": (
            ["--model", "coupled", "--n", "50", "--m", "11", "--k", "3", "--seed", str(seed)],
            [],
            digest,
        )
        for seed, digest in enumerate([
            "c6a61654568864d9df9b32499487a7e51ca181fbed1d0fd9863babd5d00f4b95",
            "e7ec74d4dacd42803afa5286619cb280f3a9eea3e6f8e7a443fb0e2631e72831",
            "8a7628f22751277eee3aabf6f9506ee967ed432d83dba19a5a58d60da0eb4c02",
            "d614ea775406e0b3a1b91ebc1c1113300702733280e1db30b5752abc27d089d5",
        ])
    },
    "null-lines-30": (
        ["--model", "null-lines", "--n", "30", "--m", "11", "--k", "2", "--seed", "3"],
        ["--v", "0", "--s", "3"],
        "edbf81018bc29387dcc732b16931d7282677d723d0a73a1aff300e5850c16331",
    ),
}

LARGE_DIGESTS = {
    # re-recorded with kl_bound's thread-independent sum, like verify-pb-bound;
    # at MAX_DIM that sum equals what the two-thread np.dot gave
    18: "7ae6cf828674c38c25b91e8c1d066f4e7a838cc53d95ecdb90db9fea64e0dd4e",
    MAX_DIM: "af9846a54edb3603ea327613c65297f8ceb31f515517518f22381ed1a7106a0d",
}


def output_digest(command: str, out) -> str:
    if command != "experiment":
        return hashlib.sha256(out.read_bytes()).hexdigest()
    with open(out, newline="") as fh:
        kept = "".join(f"{row['trial']},{row['jaccard']}\n" for row in csv.DictReader(fh))
    return hashlib.sha256(kept.encode()).hexdigest()


def output_flag(command: str) -> str:
    return "--out" if command == "gen" else "--csv"


def case_digest(name: str, tmp_path) -> str:
    argv = CASES[name]
    out = tmp_path / f"{name}.out"
    assert main(argv + [output_flag(argv[0]), str(out)]) == 0
    return output_digest(argv[0], out)


def replay_digest(command: str, manifest, tmp_path) -> str:
    out = tmp_path / "replay.out"
    assert main([command, "--manifest", str(manifest), output_flag(command), str(out)]) == 0
    return output_digest(command, out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path, capsys):
    assert case_digest(name, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_manifest_replay_digest(name, tmp_path, capsys):
    """Replaying the manifest a case wrote reproduces the case's output."""
    case_digest(name, tmp_path)
    manifest = tmp_path / f"{name}.out.manifest.json"
    assert replay_digest(CASES[name][0], manifest, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RECOVER_CASES))
def test_recover_payload_digest(name, tmp_path, capsys):
    gen, flags, digest = RECOVER_CASES[name]
    inst = tmp_path / "inst.json"
    assert main(["gen", *gen, "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["recover", "--in", str(inst), *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# Manifests in earlier formats: one wrote null for every parameter a verify
# suite or an experiment tag fills in, a later one wrote the adversary
# "empty" into coupled-tag experiments, which never read it, gen manifests
# once carried k = 2 and the adversary "empty" for every model, and bounds
# manifests k = 2 in grid mode; the digest is of the output.
EARLIER_MANIFESTS = {
    "gen-classical": (
        {
            "subcommand": "gen",
            "params": {"adversary": "empty", "k": 2, "m": None, "model": "classical", "n": 40,
                       "out": "i.json", "s": 10, "seed": 1},
        },
        DIGESTS["gen-classical"],
    ),
    "gen-null-grid": (
        {
            "subcommand": "gen",
            "params": {"adversary": "empty", "k": 2, "m": 9, "model": "null-grid", "n": 40,
                       "out": "i.json", "s": None, "seed": 3},
        },
        DIGESTS["gen-null-grid"],
    ),
    "bounds-grid": (
        {
            "subcommand": "bounds",
            "params": {"csv": "b.csv", "k": 2, "m": 13, "mode": "grid", "n": 20, "s": 2,
                       "seed": 1, "trials": 10},
        },
        DIGESTS["bounds-grid"],
    ),
    "verify-chain": (
        {
            "subcommand": "verify",
            "params": {"csv": "c.csv", "l0": None, "m": None, "n": None, "s": None,
                       "seed": 0, "suite": "chain", "trials": 50},
        },
        DIGESTS["verify-chain"],
    ),
    "experiment-coupled-lower": (
        {
            "subcommand": "experiment",
            "params": {"adversary": None, "csv": "e.csv", "k": None, "m": None, "n": None,
                       "s": None, "seed": 4, "tag": "coupled-lower", "threads": 1,
                       "trials": 6},
        },
        DIGESTS["experiment-coupled-lower"],
    ),
    "experiment-coupled-lower-adversary-empty": (
        {
            "subcommand": "experiment",
            "params": {"adversary": "empty", "csv": "e.csv", "k": 3, "m": 11, "n": 50,
                       "s": None, "seed": 4, "tag": "coupled-lower", "threads": 1,
                       "trials": 6},
        },
        DIGESTS["experiment-coupled-lower"],
    ),
}


@pytest.mark.parametrize("name", sorted(EARLIER_MANIFESTS))
def test_earlier_manifest_replays(name, tmp_path, capsys):
    manifest, digest = EARLIER_MANIFESTS[name]
    path = tmp_path / "earlier.manifest.json"
    path.write_text(json.dumps(manifest))
    assert replay_digest(manifest["subcommand"], path, tmp_path) == digest


def test_exact_coupled_law_lines_digest():
    """The command-line cases reach the exact laws in grid mode only
    (``verify chain``), so the bytes of one line-mode coupled law are pinned
    here."""
    law = exact_coupled_law(3, 5, "lines", 2)
    assert hashlib.sha256(law.tobytes()).hexdigest() == (
        "4a2ae9387630163321c5831dcc21f2ce7d20ffe92d142bacef5bdfb50864e3c8"
    )


def large_digest(s: int) -> str:
    """Digest of every table and divergence of one seeded law pair at s."""
    rng = np.random.default_rng(s)
    q = float(rng.uniform(0.3, 0.5))
    a = random_spec(rng, s, q)
    b = random_spec(rng, s, q, include_empty=True)
    h = hashlib.sha256()
    for spec in (a, b):
        stats = superset_sum(spec)
        h.update(pmf_vector(spec).tobytes())
        h.update(pmf_fourier_vector(spec).tobytes())
        h.update(stats.tobytes())
        h.update(support_vector(spec).tobytes())
        h.update(repr(sorted(mobius_invert(stats).items())).encode())
    h.update(repr((kl_exact(a, b), chi2_exact(a, b), kl_bound(a, b))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("s", sorted(LARGE_DIGESTS))
def test_large_dimension_digest(s):
    assert large_digest(s) == LARGE_DIGESTS[s]
