"""Tests of the benchmark itself: a tiny-size run of every workload, and one
deliberately wrong output per check, which the check must reject.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from checks import CheckFailed  # noqa: E402
from pcsemi import analysis, graph_model, perturbed_bernoulli, recovery  # noqa: E402

TINY = {
    "coupled-lower": lambda: workloads.CoupledLower(n=20, m=7, k=2),
    "recovery-n200": lambda: workloads.RecoveryN200(n=60, s=15),
    "ledger-lines": lambda: workloads.LedgerLines(n=12, m=29, k=2, s=3),
    "pb-divergence": lambda: workloads.PbDivergence(rounds=(4, 7, 9)),
}


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_measures_checks_and_traces(name):
    wl = TINY[name]()
    wl.warm_up()
    stick = yardstick.Yardstick()
    rescaler = yardstick.Rescaler(stick)
    inputs, outputs, wall, scaled, failed = worker.measure(wl, 3, 0.0, 2 * len(wl.rounds), rescaler)
    assert failed == 0 and len(wall) == len(scaled) == 2 * len(wl.rounds)
    assert all(t > 0 for t in scaled) and len(rescaler.factors) == len(wall)
    failures, tally = worker.run_checks(wl, inputs, outputs)
    assert failures == [] and tally["checked"] >= 1

    tracer, traced_wall, traced, mismatched = worker.traced_pass(wl, inputs, outputs, yardstick.Rescaler(stick))
    assert mismatched == 0
    per_layer = tracer.per_layer(len(traced))
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - {"trace.op_s", "trace.overhead_s"} == set(per_layer)
    # self times of all spans add up to the traced operation time
    total_self = sum(v for k, v in per_layer.items() if k.endswith("self_s"))
    assert total_self == pytest.approx(sum(traced_wall) / len(traced_wall), rel=0.05)


def test_inputs_follow_the_seed():
    wl = workloads.PbDivergence(rounds=(5,))
    assert wl.make_input(4, 2) == wl.make_input(4, 2)
    assert wl.make_input(4, 2) != wl.make_input(5, 2)


def test_tracer_restores_the_program():
    original = analysis.kl_exact
    tracer = spans.Tracer()
    tracer.install()
    assert analysis.kl_exact is not original
    assert perturbed_bernoulli.kl_exact is analysis.kl_exact
    tracer.uninstall()
    assert analysis.kl_exact is original and perturbed_bernoulli.kl_exact is original


def test_run_without_sources_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupled-lower", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# coupled-lower checks
# ---------------------------------------------------------------------------


def coupled_instance():
    wl = workloads.CoupledLower(n=20, m=7, k=2)
    return wl.accepted_instance(workloads.op_seed(wl.name, 1, 0))


def test_coupled_instance_passes_as_generated():
    inst = coupled_instance()
    assert checks.check_coupled_instance(inst.graph.adj, inst.clique, inst.grid.points, 20, 7, 2) == 0


def flipped(adj, i, j):
    out = np.array(adj)
    out[i, j] = out[j, i] = not out[i, j]
    return out


def aligned_pairs(inst, m, k, with_clique):
    pts = inst.grid.points
    outside = [i for i in range(inst.graph.n) if i not in inst.clique]
    firsts = sorted(inst.clique) if with_clique else outside
    return [(i, j) for i in firsts for j in outside if i != j and checks.aligned(pts[i], pts[j], m, k)]


def test_coupled_check_rejects_missing_aligned_outside_edge():
    inst = coupled_instance()
    i, j = aligned_pairs(inst, 7, 2, with_clique=False)[0]
    with pytest.raises(CheckFailed, match="non-clique pair"):
        checks.check_coupled_instance(flipped(inst.graph.adj, i, j), inst.clique, inst.grid.points, 20, 7, 2)


def test_coupled_check_rejects_missing_aligned_cross_edge():
    inst = coupled_instance()
    c, i = aligned_pairs(inst, 7, 2, with_clique=True)[-1]
    with pytest.raises(CheckFailed, match="clique/non-clique pair"):
        checks.check_coupled_instance(flipped(inst.graph.adj, c, i), inst.clique, inst.grid.points, 20, 7, 2)


def test_coupled_check_rejects_clique_off_its_line():
    inst = coupled_instance()
    pts = list(inst.grid.points)
    v = min(inst.clique)
    others = [pts[u] for u in inst.clique if u != v]
    used = set(pts)
    pts[v] = next(
        p for p in ((a, b) for a in range(7) for b in range(7))
        if p not in used and checks.line_through(others + [p], 7, 2) is None
    )
    with pytest.raises(CheckFailed, match="one line"):
        checks.check_coupled_instance(inst.graph.adj, inst.clique, pts, 20, 7, 2)


def test_coupled_check_rejects_size_outside_window():
    inst = coupled_instance()
    with pytest.raises(CheckFailed, match="clique size"):
        checks.check_coupled_instance(inst.graph.adj, inst.clique, inst.grid.points, 200, 7, 2)


def test_recovered_set_must_match_the_rule_and_its_score():
    inst = coupled_instance()
    s = len(inst.clique)
    rule = checks.unique_good_clique(checks.networkx_cliques(inst.graph.adj, s), inst.revealed, s, 20)
    score = checks.own_jaccard(rule, inst.clique)
    checks.check_recovered(rule, rule, score, inst.clique)
    with pytest.raises(CheckFailed, match="rule gives"):
        checks.check_recovered(rule | {999}, rule, score, inst.clique)
    with pytest.raises(CheckFailed, match="Jaccard"):
        checks.check_recovered(rule, rule, score + 0.125, inst.clique)


def test_rule_drops_overlapping_pairs():
    a, b = frozenset(range(20)), frozenset(range(1, 21))  # overlap 19 > floor(3 log2 64) = 18
    c = frozenset(range(30, 50))
    assert checks.unique_good_clique({a, b, c}, 0, 20, 64) == frozenset()
    assert checks.unique_good_clique({a, c}, 0, 20, 64) == a
    assert checks.overlap_threshold(64) == 18 and checks.overlap_threshold(50) == 16


# ---------------------------------------------------------------------------
# recovery-n200 checks
# ---------------------------------------------------------------------------


def planted():
    inst = graph_model.gen_semirandom(60, 15, graph_model.AdversarySpec.extra_cliques(2), 5)
    return inst, recovery.recover(inst.graph, inst.revealed, 15)


def test_planted_recovery_passes_and_rejects_wrong_sets():
    inst, res = planted()
    adj, clique, v = inst.graph.adj, inst.clique, inst.revealed
    checks.check_planted_recovery(adj, clique, v, res.vertices, res.truncated)
    smaller = res.vertices - {max(res.vertices - {v})}
    with pytest.raises(CheckFailed, match="not maximal"):
        checks.check_planted_recovery(adj, clique, v, smaller, False)
    with pytest.raises(CheckFailed, match="revealed vertex"):
        checks.check_planted_recovery(adj, clique, v, res.vertices - {v}, False)
    outsider = next(u for u in range(60) if u not in clique and not adj[u, sorted(clique)].all())
    with pytest.raises(CheckFailed, match="not a clique"):
        checks.check_planted_recovery(adj, clique, v, res.vertices | {outsider}, False)
    with pytest.raises(CheckFailed, match="budget"):
        checks.check_planted_recovery(adj, clique, v, res.vertices, True)


def test_clique_lists_must_agree_with_networkx():
    inst, _ = planted()
    listed = recovery.maximal_cliques(inst.graph, min_size=8).cliques
    reference = checks.networkx_cliques(inst.graph.adj, 8)
    checks.check_same_cliques(listed, reference)
    with pytest.raises(CheckFailed, match="missing"):
        checks.check_same_cliques(listed[1:], reference)


# ---------------------------------------------------------------------------
# ledger-lines checks
# ---------------------------------------------------------------------------


def ledger():
    return analysis.chained_kl_bound(12, 29, 2, 3, trials=2, seed=4, mode="lines")


def test_ledger_passes_as_computed():
    checks.check_ledger(ledger(), 12, 29, 2, 3)


def test_ledger_check_rejects_exact_above_bound():
    led = ledger()
    exact = list(led.per_column_exact)
    exact[3] = led.per_column_bound[3] * 2
    with pytest.raises(CheckFailed, match="column"):
        checks.check_ledger(dataclasses.replace(led, per_column_exact=tuple(exact)), 12, 29, 2, 3)


def test_ledger_check_rejects_chained_exact_above_bound():
    led = ledger()
    with pytest.raises(CheckFailed, match="chained"):
        checks.check_ledger(dataclasses.replace(led, chained_exact=led.chained_bound * 2), 12, 29, 2, 3)


def test_ledger_check_rejects_failed_hypothesis_and_wrong_terms():
    led = ledger()
    hyp = dict(led.hypotheses, hg_tail=False)
    with pytest.raises(CheckFailed, match="hypotheses"):
        checks.check_ledger(dataclasses.replace(led, hypotheses=hyp), 12, 29, 2, 3)
    terms = dict(led.closed_form_terms, design_tail=led.closed_form_terms["design_tail"] * (1 + 1e-9))
    with pytest.raises(CheckFailed, match="design_tail"):
        checks.check_ledger(dataclasses.replace(led, closed_form_terms=terms), 12, 29, 2, 3)
    with pytest.raises(CheckFailed, match="Pinsker"):
        checks.check_ledger(dataclasses.replace(led, tv_pinsker=led.tv_pinsker * 1.001), 12, 29, 2, 3)


def test_singleton_rates_are_exact_and_wrong_counts_fail():
    wl = workloads.LedgerLines()
    state, cpts, prior = wl.prefix_state(np.random.default_rng(2))
    law = analysis.column_law_lines(state)
    assert prior
    checks.check_singleton_rates(law, cpts, prior, 29, 2)
    counts = dict(law.sigma_counts)
    one = next(mask for mask in counts if mask)
    zero = 0 if 0 in counts else next(mask for mask in counts if mask != one)
    counts[one] -= 1
    counts[zero] += 1
    with pytest.raises(CheckFailed, match="singleton rate"):
        checks.check_singleton_rates(dataclasses.replace(law, sigma_counts=counts), cpts, prior, 29, 2)
    with pytest.raises(CheckFailed, match="denominator"):
        checks.check_singleton_rates(law, cpts, prior[:-1], 29, 2)


# ---------------------------------------------------------------------------
# pb-divergence checks
# ---------------------------------------------------------------------------


def divergence_case(s=9):
    a, b = workloads.PbDivergence(rounds=(s,)).make_input(6, 0)
    return a, b, workloads.PbDivergence().op((a, b))


def test_divergences_pass_as_computed():
    a, b, (kl, chi2, bound) = divergence_case()
    checks.check_divergences(a.q, a.sigma, b.sigma, a.s, kl, chi2, bound)


def test_direct_pmf_matches_the_definition_at_small_s():
    a, _, _ = divergence_case(3)
    pmf = checks.direct_pmf(a.q, a.sigma, 3)
    for x in range(8):
        bits = [(x >> j) & 1 for j in range(3)]
        assert pmf[x] == pytest.approx(perturbed_bernoulli.pb_pmf(a, bits), abs=1e-15)


@pytest.mark.parametrize("which", ["KL", "chi2"])
def test_divergence_check_rejects_a_small_error(which):
    a, b, (kl, chi2, bound) = divergence_case()
    if which == "KL":
        kl *= 1 + 1e-6
    else:
        chi2 *= 1 + 1e-6
    with pytest.raises(CheckFailed, match=which):
        checks.check_divergences(a.q, a.sigma, b.sigma, a.s, kl, chi2, bound)


def test_divergence_check_rejects_bound_below_kl():
    a, b, (kl, chi2, _) = divergence_case()
    with pytest.raises(CheckFailed, match="bound"):
        checks.check_divergences(a.q, a.sigma, b.sigma, a.s, kl, chi2, kl * 0.5)
