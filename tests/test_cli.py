"""End-to-end tests of the command line interface: exit codes, file
outputs, manifests, and the verification suites' wiring."""

import argparse
import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsemi.analysis import column_law, column_scores, random_prefix_state
from pcsemi.cli import _LAW_SWEEP, _LOCAL_BOUND_CONFIGS, _build_parser, main
from pcsemi.graph_model import (
    gen_classical,
    gen_coupled,
    gen_null_grid,
    instance_to_json,
    stream,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_deterministic_digest(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        code1, text1, _ = run(
            capsys, "gen", "--model", "semirandom", "--n", "30", "--s", "8",
            "--adversary", "extra_cliques:2", "--seed", "42", "--out", str(out),
        )
        code2, text2, _ = run(
            capsys, "gen", "--model", "semirandom", "--n", "30", "--s", "8",
            "--adversary", "extra_cliques:2", "--seed", "42", "--out", str(out),
        )
        assert code1 == code2 == 0
        assert text1 == text2 and "sha256:" in text1

    def test_missing_required_parameter(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--model", "coupled", "--n", "20",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2 and "--m" in err

    def test_coupled_without_vertices_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--model", "coupled", "--n", "0", "--m", "5", "--k", "2",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2 and "n >= 1" in err

    @pytest.mark.parametrize(
        "flags", [("--model", "null-grid", "--m", "5"), ("--model", "null-lines", "--m", "11")]
    )
    def test_null_vertex_count(self, flags, tmp_path, capsys):
        """n < 0 is refused by name; n = 0 writes an empty null instance."""
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "gen", *flags, "--n", "-3", "--out", str(out))
        assert code == 2 and err == "error: need n >= 0, got n=-3\n"
        code, _, _ = run(capsys, "gen", *flags, "--n", "0", "--out", str(out))
        record = json.loads(out.read_text())
        assert code == 0 and record["n"] == 0 and record["grid"]["points"] == []

    def test_nonprime_m_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--model", "null-lines", "--n", "20", "--m", "12",
            "--k", "2", "--seed", "1", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "prime" in err

    def test_extra_cliques_instance_contains_three_cliques(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, _, _ = run(
            capsys, "gen", "--model", "semirandom", "--n", "60", "--s", "15",
            "--adversary", "extra_cliques:2", "--seed", "42", "--out", str(out),
        )
        assert code == 0
        record = json.loads(out.read_text())
        from pcsemi.graph_model import instance_from_json
        from pcsemi.recovery import maximal_cliques

        loaded = instance_from_json(record)
        cs = maximal_cliques(loaded.graph, min_size=15)
        assert sum(len(c) >= 15 for c in cs.cliques) >= 3

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("PCSEMI_SEED", "777")
        run(capsys, "gen", "--model", "classical", "--n", "10", "--s", "3", "--out", str(out1))
        monkeypatch.delenv("PCSEMI_SEED")
        run(
            capsys, "gen", "--model", "classical", "--n", "10", "--s", "3",
            "--seed", "777", "--out", str(out2),
        )
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_replay_is_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(
            capsys, "gen", "--model", "coupled", "--n", "30", "--m", "11",
            "--k", "2", "--seed", "5", "--out", str(out1),
        )
        manifest = tmp_path / "a.json.manifest.json"
        assert manifest.exists()
        record = json.loads(manifest.read_text())
        assert record["subcommand"] == "gen" and record["seed"] == 5
        run(capsys, "gen", "--manifest", str(manifest), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_unread_manifest_values_are_dropped(self, tmp_path, capsys):
        """A manifest value that the model does not read is recorded as null,
        and the instance is the one the model's own flags give."""
        manifest = tmp_path / "old.manifest.json"
        manifest.write_text(json.dumps({"subcommand": "gen", "params": {
            "model": "classical", "n": 10, "s": 3, "m": 7, "k": 4, "adversary": "random:0.5",
            "seed": 1,
        }}))
        replayed, direct = tmp_path / "a.json", tmp_path / "b.json"
        code, _, _ = run(capsys, "gen", "--manifest", str(manifest), "--out", str(replayed))
        assert code == 0
        written = json.loads((tmp_path / "a.json.manifest.json").read_text())["params"]
        assert written["m"] is None and written["k"] is None and written["adversary"] is None
        run(capsys, "gen", *CLASSICAL_10, "--seed", "1", "--out", str(direct))
        assert replayed.read_bytes() == direct.read_bytes()

    def test_flags_override_manifest(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(
            capsys, "gen", "--model", "classical", "--n", "12", "--s", "4",
            "--seed", "1", "--out", str(out1),
        )
        run(
            capsys, "gen", "--manifest", str(tmp_path / "a.json.manifest.json"),
            "--seed", "2", "--out", str(out2),
        )
        assert out1.read_bytes() != out2.read_bytes()


class TestRecover:
    def test_clean_instance_recovers_exactly(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        run(
            capsys, "gen", "--model", "semirandom", "--n", "60", "--s", "15",
            "--adversary", "extra_cliques:2", "--seed", "42", "--out", str(out),
        )
        code, text, _ = run(capsys, "recover", "--in", str(out))
        assert code == 0
        payload = json.loads(text)
        record = json.loads(out.read_text())
        assert payload["jaccard"] == 1.0
        assert payload["recovered"] == record["clique"]
        assert payload["truncated"] is False
        assert payload["good_clique_count"] >= 3

    def test_budget_truncates_the_counting_listing(self, tmp_path, capsys):
        """The good-clique count and the flag come from one listing, so a
        budget too small for it reports truncated (1,279 good cliques at the
        default budget, 429 in the nodes that 1,000 allows)."""
        out = tmp_path / "c.json"
        run(
            capsys, "gen", "--model", "coupled", "--n", "50", "--m", "11", "--k", "3",
            "--seed", "0", "--out", str(out),
        )
        code, text, _ = run(capsys, "recover", "--in", str(out), "--budget", "1000")
        assert code == 0
        short = json.loads(text)
        assert short["truncated"] is True
        code, text, _ = run(capsys, "recover", "--in", str(out))
        full = json.loads(text)
        assert full["truncated"] is False
        assert short["good_clique_count"] < full["good_clique_count"] == 1279

    def test_null_instance_needs_overrides(self, tmp_path, capsys):
        out = tmp_path / "null.json"
        run(
            capsys, "gen", "--model", "null-lines", "--n", "30", "--m", "11",
            "--k", "2", "--seed", "3", "--out", str(out),
        )
        code, _, err = run(capsys, "recover", "--in", str(out))
        assert code == 2 and "--v" in err
        code, text, _ = run(capsys, "recover", "--in", str(out), "--v", "0", "--s", "3")
        assert code == 0
        assert json.loads(text)["jaccard"] is None

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, err = run(capsys, "recover", "--in", str(bad))
        assert code == 2 and "malformed" in err

    def test_out_of_range_edge(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--model", "classical", "--n", "10", "--s", "3", "--out", str(out))
        record = json.loads(out.read_text())
        record["edges"].append([3, 10])
        out.write_text(json.dumps(record))
        code, _, err = run(capsys, "recover", "--in", str(out))
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error:") and "outside" in err

    def test_every_generated_size_is_recovered(self, tmp_path, capsys):
        """``gen`` writes n = 513, above the enumeration cap the listing once
        had; the node budget bounds the work, and the planted clique comes
        back whole."""
        out = tmp_path / "c.json"
        code, _, _ = run(
            capsys, "gen", "--model", "classical", "--n", "513", "--s", "40", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        code, text, _ = run(capsys, "recover", "--in", str(out))
        assert code == 0
        payload = json.loads(text)
        assert payload["jaccard"] == 1.0 and payload["truncated"] is False


class TestClosedPipe:
    """A reader that closes stdout early (``pcsemi verify hg | head -1``)
    ends the run quietly with the SIGPIPE status, never with a traceback or
    the codes 0, 1 (a violated bound) and 2 (bad input)."""

    @pytest.mark.parametrize(
        # verify hg writes about 95 kB as it runs; union-bound writes one
        # short row that reaches the pipe only at the final flush
        "argv", [["verify", "hg"], ["verify", "union-bound"]], ids=["long", "short"]
    )
    def test_closed_stdout_exits_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pcsemi.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert "Traceback" not in done.stderr and "Error" not in done.stderr


class TestVerify:
    def test_union_bound_suite(self, tmp_path, capsys):
        csv_path = tmp_path / "ub.csv"
        code, _, err = run(
            capsys, "verify", "union-bound", "--n", "1000", "--s", "60",
            "--l0", "30", "--csv", str(csv_path),
        )
        assert code == 0 and "violations=0" in err
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 1
        value = float(rows[0]["value"])
        assert value <= 1.2e-4
        # 17-significant-digit serialization round-trips exactly
        from pcsemi.recovery import union_bound_probability

        assert value == union_bound_probability(1000, 60, 30)

    def test_hg_suite_passes(self, capsys):
        code, out, err = run(capsys, "verify", "hg")
        assert code == 0 and "violations=0" in err

    def test_pb_bound_suite_small(self, capsys):
        code, _, err = run(capsys, "verify", "pb-bound", "--trials", "30", "--seed", "7")
        assert code == 0 and "violations=0" in err

    def test_column_laws_suite_small(self, capsys):
        code, _, err = run(capsys, "verify", "column-laws", "--trials", "3", "--seed", "1")
        assert code == 0 and "violations=0" in err

    def test_local_bounds_suite_small(self, capsys):
        code, _, err = run(capsys, "verify", "local-bounds", "--trials", "2", "--seed", "1")
        assert code == 0 and "violations=0" in err

    def test_local_bounds_sweep_is_the_hypothesis_filter(self):
        """The listed configurations are exactly those of the law sweep and
        the three wide line designs that satisfy the local bounds'
        hypotheses (grid s <= m - 6; lines 4k <= m and 2k(s + 4) <= m), and
        each scores cleanly at both ends of the prefix range."""
        wide = [("lines", 29, 2, 2), ("lines", 29, 2, 3), ("lines", 37, 3, 2)]
        grid = [c for c in _LAW_SWEEP if c[0] == "grid" and c[3] <= c[1] - 6]
        lines = [
            (mode, m, k, s)
            for mode, m, k, s in _LAW_SWEEP + wide
            if mode == "lines" and 4 * k <= m and 2 * k * (s + 4) <= m
        ]
        assert _LOCAL_BOUND_CONFIGS == grid + lines
        rng = stream(0, "local-bounds-pin")
        for mode, m, k, s in _LOCAL_BOUND_CONFIGS:
            for d in (0, 2 * m):
                law = column_law(random_prefix_state(rng, mode, m, k, s, d))
                exact, bound = column_scores(law, mode, m * (m - 1) // 2, m, k)
                assert 0.0 <= exact <= bound + 1e-9

    def test_union_bound_default_l0_is_exact(self, capsys):
        # 3 log2(2^60 + 1) lies just above 180, which float log2 rounds onto
        code, out, _ = run(capsys, "verify", "union-bound", "--n", str(2**60 + 1))
        assert code == 0
        assert next(csv.DictReader(io.StringIO(out)))["l0"] == "181"

    def test_union_bound_default_l0_at_least_one(self, capsys):
        # 3 log2 1 = 0, but an overlap starts at one vertex
        code, out, err = run(capsys, "verify", "union-bound", "--n", "1", "--s", "1")
        assert code == 0 and "violations=0" in err
        assert next(csv.DictReader(io.StringIO(out)))["l0"] == "1"

    def test_chain_suite(self, capsys):
        code, out, err = run(capsys, "verify", "chain", "--n", "4", "--m", "3")
        assert code == 0 and "violations=0" in err

    def test_unread_seed_from_env_or_manifest_is_dropped(self, tmp_path, capsys, monkeypatch):
        """Only a flag is refused: a seed from PCSEMI_SEED or a manifest
        that the suite does not read is recorded as null."""
        monkeypatch.setenv("PCSEMI_SEED", "7")
        manifest = tmp_path / "hg.manifest.json"
        manifest.write_text(json.dumps(
            {"subcommand": "verify", "params": {"suite": "hg", "seed": 3, "trials": 50}}
        ))
        csv_path = tmp_path / "hg.csv"
        code, _, err = run(
            capsys, "verify", "--manifest", str(manifest), "--csv", str(csv_path)
        )
        assert code == 0 and "violations=0" in err
        written = json.loads((tmp_path / "hg.csv.manifest.json").read_text())["params"]
        assert written["seed"] is None and written["trials"] is None

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2

    @pytest.mark.parametrize(
        "suite", ["pb-bound", "column-laws", "local-bounds", "chain", "hg", "union-bound"]
    )
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_nonpositive_trials_is_usage_error(self, suite, trials, tmp_path, capsys):
        csv_path = tmp_path / "v.csv"
        code, out, err = run(
            capsys, "verify", suite, "--trials", trials, "--csv", str(csv_path)
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "trials" in err
        assert not csv_path.exists()


class TestBounds:
    def test_ledger_csv_shape(self, tmp_path, capsys):
        csv_path = tmp_path / "b.csv"
        code, _, _ = run(
            capsys, "bounds", "--mode", "grid", "--n", "15", "--m", "13",
            "--s", "2", "--trials", "20", "--seed", "1",
            "--csv", str(csv_path),
        )
        assert code == 0
        rows = list(csv.DictReader(csv_path.open()))
        kinds = {r["kind"] for r in rows}
        assert kinds == {"column", "chained", "closed-form", "pinsker", "hypothesis"}
        columns = [r for r in rows if r["kind"] == "column"]
        assert len(columns) == 13
        for r in columns:
            assert float(r["exact"]) <= float(r["bound"]) + 1e-9


class TestExperiment:
    def test_oracle_line_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "e.csv"
        code, _, _ = run(
            capsys, "experiment", "oracle-line", "--trials", "6", "--seed", "42",
            "--csv", str(csv_path),
        )
        assert code == 0
        rows = list(csv.reader(csv_path.open()))
        assert rows[0] == ["trial", "jaccard", "runtime_s"]
        assert rows[-2][0] == "mean" and rows[-1][0] == "ci95_halfwidth"
        assert len(rows) == 1 + 6 + 2

    def test_threads_do_not_change_results(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(
            capsys, "experiment", "oracle-line", "--trials", "6", "--seed", "9",
            "--threads", "1", "--csv", str(a),
        )
        run(
            capsys, "experiment", "oracle-line", "--trials", "6", "--seed", "9",
            "--threads", "2", "--csv", str(b),
        )
        ja = [r[1] for r in csv.reader(a.open())][1:]
        jb = [r[1] for r in csv.reader(b.open())][1:]
        assert ja == jb

    def test_unknown_tag(self, capsys):
        code, _, err = run(capsys, "experiment", "bogus")
        assert code == 2

    @pytest.mark.parametrize(
        "flags", [["--trials", "0"], ["--trials", "-3"], ["--threads", "0"], ["--threads", "-1"]]
    )
    def test_nonpositive_counts_are_usage_errors(self, flags, tmp_path, capsys):
        csv_path = tmp_path / "e.csv"
        code, out, err = run(
            capsys, "experiment", "coupled-lower", "--trials", "2", *flags,
            "--csv", str(csv_path),
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and flags[0][2:] in err
        assert not csv_path.exists()

    def test_empty_size_window(self, capsys):
        code, _, err = run(
            capsys, "experiment", "oracle-line", "--n", "5", "--m", "11", "--k", "2",
            "--trials", "1",
        )
        assert code == 2 and "window" in err


def assert_usage_error(code, err, word):
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and word in err


class TestBadInput:
    """Input the program cannot use exits 2 with one error line."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["verify", "hg", "--seed", "7", "--n", "3"], "verify hg does not read --seed, --n"),
            (["verify", "chain", "--trials", "5"], "verify chain does not read --trials"),
            (["verify", "column-laws", "--m", "4"], "verify column-laws does not read --m"),
            (["verify", "local-bounds", "--s", "3"], "verify local-bounds does not read --s"),
            (
                ["experiment", "coupled-lower", "--trials", "2", "--s", "5",
                 "--adversary", "extra_cliques:9"],
                "experiment coupled-lower does not read --s, --adversary",
            ),
            (
                ["experiment", "recovery-upper", "--trials", "2", "--m", "4", "--k", "9"],
                "experiment recovery-upper does not read --m, --k",
            ),
            (
                ["experiment", "coupled-lower", "--trials", "2", "--adversary", "empty"],
                "experiment coupled-lower does not read --adversary",
            ),
            (
                ["gen", "--model", "classical", "--n", "10", "--s", "3", "--m", "7", "--k", "4",
                 "--adversary", "random:0.5"],
                "gen classical does not read --m, --k, --adversary",
            ),
            (
                ["gen", "--model", "null-grid", "--n", "10", "--m", "5", "--s", "3"],
                "gen null-grid does not read --s",
            ),
            (
                ["bounds", "--mode", "grid", "--k", "5", "--trials", "2"],
                "bounds grid does not read --k",
            ),
        ],
        ids=[
            "verify-hg", "verify-chain", "verify-column-laws", "verify-local-bounds",
            "experiment-coupled-lower", "experiment-recovery-upper",
            "experiment-coupled-lower-adversary-empty", "gen-classical", "gen-null-grid",
            "bounds-grid",
        ],
    )
    def test_flags_the_variant_never_reads(self, argv, named, tmp_path, capsys):
        """A flag that the chosen model, suite, mode or tag does not read is
        refused before anything runs, so a run never records a value it did
        not use."""
        out = tmp_path / "out"
        flag = "--out" if argv[0] == "gen" else "--csv"
        code, text, err = run(capsys, *argv, flag, str(out))
        assert_usage_error(code, err, named)
        assert text == "" and list(tmp_path.iterdir()) == []

    def test_missing_manifest(self, tmp_path, capsys):
        code, _, err = run(capsys, "bounds", "--manifest", str(tmp_path / "none.json"))
        assert_usage_error(code, err, "manifest")

    def test_manifest_not_an_object(self, tmp_path, capsys):
        manifest = tmp_path / "list.json"
        manifest.write_text("[1, 2]")
        code, _, err = run(capsys, "bounds", "--manifest", str(manifest))
        assert_usage_error(code, err, "JSON object")

    def test_manifest_param_of_wrong_type(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"subcommand": "bounds", "params": {"n": [1]}}))
        code, _, err = run(capsys, "bounds", "--manifest", str(manifest))
        assert_usage_error(code, err, "'n'")

    def test_out_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "absent" / "inst.json"
        code, _, err = run(
            capsys, "gen", "--model", "classical", "--n", "10", "--s", "3", "--out", str(out)
        )
        assert_usage_error(code, err, "absent")
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "--model", "classical", "--n", "10", "--s", "3", "--out", str(inst))
        code, text, err = run(capsys, "recover", "--in", str(inst), "--out", str(out))
        assert_usage_error(code, err, "absent")
        assert text == ""

    def test_csv_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "absent" / "ledger.csv"
        code, _, err = run(capsys, "verify", "hg", "--csv", str(out))
        assert_usage_error(code, err, "absent")

    @pytest.mark.parametrize(
        "key, value", [("n", 12.9), ("s", True), ("n", "12"), ("seed", 1.0), ("model", 3)]
    )
    def test_manifest_param_of_wrong_kind(self, key, value, tmp_path, capsys):
        params = {"model": "classical", "n": 12, "s": 4, key: value}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"subcommand": "gen", "params": params}))
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "gen", "--manifest", str(manifest), "--out", str(out))
        assert_usage_error(code, err, repr(key))
        assert not out.exists()

    def test_env_seed_not_an_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PCSEMI_SEED", "7.5")
        code, _, err = run(
            capsys, "gen", "--model", "classical", "--n", "10", "--s", "3",
            "--out", str(tmp_path / "x.json"),
        )
        assert_usage_error(code, err, "PCSEMI_SEED")

    def test_explicit_zero_is_not_replaced_by_suite_default(self, capsys):
        code, _, err = run(capsys, "verify", "union-bound", "--s", "0")
        assert_usage_error(code, err, "s=0")

    @pytest.mark.parametrize("n", ["-5", "0"])
    def test_union_bound_nonpositive_n(self, n, capsys):
        code, _, err = run(capsys, "verify", "union-bound", "--n", n)
        assert_usage_error(code, err, f"need 1 <= --s <= --n, got --s=60, --n={n}")

    @pytest.mark.parametrize("s", ["0", "-3"])
    def test_recover_clique_size_below_one(self, s, tmp_path, capsys):
        inst = tmp_path / "i.json"
        run(capsys, "gen", "--model", "classical", "--n", "12", "--s", "4", "--out", str(inst))
        code, text, err = run(capsys, "recover", "--in", str(inst), "--s", s)
        assert_usage_error(code, err, f"s >= 1, got s={s}")
        assert text == ""

    @pytest.mark.parametrize("n", ["9", "-3"])
    def test_chain_graph_table_cap(self, n, capsys):
        code, out, err = run(capsys, "verify", "chain", "--n", n)
        assert_usage_error(code, err, f"need 0 <= n <= 7, got n={n}")
        assert out == ""

    def test_bounds_line_mode_composite_m(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--mode", "lines", "--m", "34", "--k", "3",
            "--n", "40", "--s", "1", "--trials", "2",
        )
        assert_usage_error(code, err, "prime m, got 34")
        assert out == ""

    def test_bounds_prefix_longer_than_the_grid(self, capsys):
        # 100 trials x 10^15 columns of floats would exceed any address
        # space, so the size is refused before the ledger is allocated
        code, out, err = run(capsys, "bounds", "--n", str(10**15))
        assert_usage_error(code, err, "m^2 - m")
        assert out == ""

    def test_adversary_with_trailing_argument(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys, "gen", "--model", "semirandom", "--n", "20", "--s", "5",
            "--adversary", "empty:junk", "--out", str(out),
        )
        assert_usage_error(code, err, "empty:junk")
        assert not out.exists()

    def test_unknown_model_flag(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--model", "bogus", "--out", str(tmp_path / "x"))
        assert_usage_error(code, err, "'model'")


CLASSICAL_10 = ("--model", "classical", "--n", "10", "--s", "3")


def edited_instance(tmp_path, capsys, edit, gen=CLASSICAL_10):
    """Write a small instance (classical unless ``gen`` names other ``gen``
    flags), apply ``edit`` to its record, and run ``recover`` on the result."""
    path = tmp_path / "inst.json"
    run(capsys, "gen", *gen, "--out", str(path))
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))
    return run(capsys, "recover", "--in", str(path))


class TestBadInstanceFile:
    def test_grid_record_with_empty_line_rate_domain(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(
            capsys, "gen", "--model", "coupled", "--n", "20", "--m", "11", "--k", "3",
            "--out", str(path),
        )
        record = json.loads(path.read_text())
        record["grid"].update(m=1, k=2)
        path.write_text(json.dumps(record))
        code, _, err = run(capsys, "recover", "--in", str(path))
        assert_usage_error(code, err, "q > 0")

    def test_non_finite_n(self, tmp_path, capsys):
        # written as Infinity, which loads as the same float as 1e400
        code, _, err = edited_instance(tmp_path, capsys, lambda r: r.update(n=1e400))
        assert_usage_error(code, err, "n is inf")

    def test_fractional_n(self, tmp_path, capsys):
        code, _, err = edited_instance(tmp_path, capsys, lambda r: r.update(n=10.5))
        assert_usage_error(code, err, "n is 10.5")

    def test_graph_too_large_to_allocate(self, tmp_path, capsys):
        # a 10^9 x 10^9 adjacency is 10^18 bytes, beyond any address space
        code, out, err = edited_instance(
            tmp_path, capsys, lambda r: r.update(n=10**9, edges=[])
        )
        assert_usage_error(code, err, "allocate")
        assert out == ""

    def test_clique_vertex_outside_graph(self, tmp_path, capsys):
        code, _, err = edited_instance(tmp_path, capsys, lambda r: r.update(clique=[0, 17]))
        assert_usage_error(code, err, "[17]")

    def test_coupled_record_with_composite_m(self, tmp_path, capsys):
        code, _, err = edited_instance(
            tmp_path, capsys, lambda r: r["grid"].update(m=12),
            gen=("--model", "coupled", "--n", "20", "--m", "11", "--k", "3"),
        )
        assert_usage_error(code, err, "prime m, got 12")

    def test_revealed_vertex_outside_clique(self, tmp_path, capsys):
        def edit(record):
            record["v"] = min(set(range(10)) - set(record["clique"]))

        code, _, err = edited_instance(tmp_path, capsys, edit)
        assert_usage_error(code, err, "is not in the clique")

    def test_clique_missing_an_edge(self, tmp_path, capsys):
        def edit(record):
            a, b = record["clique"][:2]
            record["edges"].remove([a, b])

        code, _, err = edited_instance(tmp_path, capsys, edit)
        assert_usage_error(code, err, "not fully connected")

    def test_one_grid_point_for_ten_vertices(self, tmp_path, capsys):
        code, _, err = edited_instance(
            tmp_path, capsys, lambda r: r["grid"].update(points=r["grid"]["points"][:1]),
            gen=("--model", "null-grid", "--n", "10", "--m", "5"),
        )
        assert_usage_error(code, err, "got 1 for n=10")

    def test_grid_point_outside_the_grid(self, tmp_path, capsys):
        def edit(record):
            record["grid"]["points"][0] = [99, -4]

        code, _, err = edited_instance(
            tmp_path, capsys, edit, gen=("--model", "null-grid", "--n", "10", "--m", "5")
        )
        assert_usage_error(code, err, "grid point [99, -4] outside [0, 5)^2")

    def test_planted_line_outside_its_range(self, tmp_path, capsys):
        code, _, err = edited_instance(
            tmp_path, capsys, lambda r: r["grid"].update(r_star=9, h_star=-2),
            gen=("--model", "coupled", "--n", "20", "--m", "11", "--k", "3"),
        )
        assert_usage_error(code, err, "planted line [9, -2] outside [0, 3) x [0, 11)")

    @pytest.mark.parametrize(
        "gen", [CLASSICAL_10, ("--model", "null-grid", "--n", "10", "--m", "5")]
    )
    def test_size_field_not_the_clique_size(self, gen, tmp_path, capsys):
        code, _, err = edited_instance(tmp_path, capsys, lambda r: r.update(s=7), gen=gen)
        assert_usage_error(code, err, "s is 7")


PARENT_OPTIONS = {
    "gen": {"--model", "--n", "--s", "--m", "--k", "--adversary", "--seed", "--out",
            "--manifest"},
    "recover": {"--in", "--v", "--s", "--budget", "--out", "--manifest"},
    "verify": {"suite", "--trials", "--seed", "--n", "--s", "--m", "--l0", "--csv",
               "--manifest"},
    "bounds": {"--mode", "--n", "--m", "--k", "--s", "--trials", "--seed", "--csv",
               "--manifest"},
    "experiment": {"tag", "--n", "--s", "--m", "--k", "--adversary", "--trials", "--seed",
                   "--threads", "--csv", "--manifest"},
}


def test_each_subcommand_accepts_exactly_its_options():
    (subparsers,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(subparsers.choices) == set(PARENT_OPTIONS)
    for command, parser in subparsers.choices.items():
        names = set()
        for action in parser._actions:
            names.update(action.option_strings or [action.dest])
        assert names - {"-h", "--help"} == PARENT_OPTIONS[command], command


def run_quiet(argv):
    """main() with its output captured; a traceback fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 2)
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error:"), err


# Integers stay small (|value| <= 64) so no example allocates a large n x n
# array; the other values are the wrong kinds a hand-edited file may hold.
SMALL_INT = st.integers(-64, 64)
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3), st.lists(SMALL_INT, max_size=2)
)
FIELD = st.one_of(
    st.integers(-2, 24),
    st.lists(st.integers(-2, 24), max_size=3),
    st.lists(st.lists(st.integers(-2, 24), max_size=3), max_size=3),
    JUNK,
)

GEN_PARAMS = st.fixed_dictionaries(
    {
        "model": st.sampled_from(["classical", "semirandom", "null-grid", "null-lines",
                                  "coupled"]),
        "n": st.integers(-2, 64),
        "s": st.integers(-2, 64),
        "m": st.sampled_from([-1, 0, 2, 3, 4, 5, 7, 11, 13]),
        "k": st.integers(-1, 7),
        "adversary": st.sampled_from(["empty", "random:0.3", "random:2", "random:x",
                                      "extra_cliques:1", "extra_cliques:-1", "nonsense"]),
        "seed": st.integers(0, 64),
    }
)


def instance_records():
    return [
        instance_to_json(gen_classical(10, 3, 0)),
        instance_to_json(gen_coupled(20, 11, 3, 0)),
        instance_to_json(gen_null_grid(12, 5, 0)),
    ]


@st.composite
def spoiled(draw, valid):
    """A valid dict with one to three of its fields (or of its grid record's
    fields) replaced, deleted or, for a list, extended by an arbitrary value."""
    record = copy.deepcopy(draw(valid))
    for _ in range(draw(st.integers(1, 3))):
        target = record
        if isinstance(record.get("grid"), dict) and draw(st.booleans()):
            target = record["grid"]
        if not target:
            break
        key = draw(st.sampled_from(sorted(target)))
        action = draw(st.sampled_from(["replace", "delete", "append"]))
        if action == "delete":
            del target[key]
        elif action == "append" and isinstance(target[key], list):
            target[key].append(draw(FIELD))
        else:
            target[key] = draw(FIELD)
    return record


class TestFuzz:
    """Any manifest or instance file exits 0 or 2, never with a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(params=st.one_of(GEN_PARAMS, spoiled(GEN_PARAMS)))
    def test_gen_manifest_params(self, tmp_path_factory, params):
        folder = tmp_path_factory.mktemp("gen")
        manifest = folder / "m.json"
        manifest.write_text(json.dumps({"subcommand": "gen", "params": params}))
        argv = ["gen", "--manifest", str(manifest), "--out", str(folder / "x.json")]
        assert_clean_exit(*run_quiet(argv))

    @settings(max_examples=150, deadline=None)
    @given(record=spoiled(st.sampled_from(instance_records())))
    def test_recover_records(self, tmp_path_factory, record):
        path = tmp_path_factory.mktemp("rec") / "inst.json"
        path.write_text(json.dumps(record))
        assert_clean_exit(*run_quiet(["recover", "--in", str(path)]))


class TestFloatFormatting:
    def test_seventeen_digit_round_trip(self, tmp_path, capsys):
        csv_path = tmp_path / "b.csv"
        run(
            capsys, "bounds", "--mode", "grid", "--n", "12", "--m", "13",
            "--s", "2", "--trials", "10", "--seed", "0",
            "--csv", str(csv_path),
        )
        from pcsemi.analysis import chained_kl_bound

        ledger = chained_kl_bound(12, 13, 2, 2, 10, 0, mode="grid")
        rows = list(csv.DictReader(csv_path.open()))
        mean_row = next(r for r in rows if r["kind"] == "chained" and r["name"] == "mean")
        assert float(mean_row["exact"]) == ledger.chained_exact
        assert float(mean_row["bound"]) == ledger.chained_bound
