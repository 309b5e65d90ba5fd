"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; Monte Carlo
criteria run under the fixed seed 42 and their trial counts are part of the
protocol.
"""

import math
import sys
import time
from fractions import Fraction

import numpy as np

from pcsemi.analysis import (
    column_law,
    exact_chain_rhs,
    exact_joint_kl,
    hg_bound,
    hg_expectation,
    jaccard_experiment,
    kl_local_bound_grid,
    kl_local_bound_lines,
    random_prefix_state,
    reference_law,
)
from pcsemi.graph_model import bowtie, gen_null_lines, line_rate, stream
from pcsemi.perturbed_bernoulli import (
    bernoulli_lift,
    chi2_exact,
    kl_bound,
    kl_exact,
    pb_pmf,
    pb_pmf_fourier,
    pmf_fourier_vector,
    pmf_vector,
    random_spec,
)
from pcsemi.recovery import union_bound_probability

SEED = 42
TOL_EQ = 1e-12
TOL_INEQ = 1e-9


def report(name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_c01_divergence_bound_sweep():
    """500 random same-rate pairs per dimension 2..8: exact KL below both
    the chi-squared divergence and the closed-form bound, slack 1e-9."""
    start = time.perf_counter()
    rng = stream(SEED, "c1")
    violations = 0
    for s in range(2, 9):
        for _ in range(500):
            q = float(rng.uniform(0.1, 0.9))
            a = random_spec(rng, s, q)
            if rng.random() < 0.5:
                b = random_spec(rng, s, q, include_empty=True)
            else:
                b = bernoulli_lift(q, float(rng.uniform(q, 0.95)), s)
            kl = kl_exact(a, b)
            if kl > chi2_exact(a, b) + TOL_INEQ or kl > kl_bound(a, b) + TOL_INEQ:
                violations += 1
    elapsed = time.perf_counter() - start
    report(
        "C1 divergence-bound sweep",
        violations == 0 and elapsed < 30,
        f"3500 pairs, {violations} violations, {elapsed:.1f}s",
    )


def test_c02_pmf_form_consistency():
    """Direct and signed-product pmf forms agree pointwise (1e-12) and
    normalize to one, 200 random laws with dimension up to 10."""
    start = time.perf_counter()
    rng = stream(SEED, "c2")
    worst_gap = worst_norm = 0.0
    for _ in range(200):
        s = int(rng.integers(1, 11))
        q = float(rng.uniform(0.05, 1.0))
        spec = random_spec(rng, s, q)
        direct = pmf_vector(spec)
        signed = pmf_fourier_vector(spec)
        worst_gap = max(worst_gap, float(np.abs(direct - signed).max()))
        worst_norm = max(worst_norm, abs(float(direct.sum()) - 1.0))
        for _ in range(5):
            mask = int(rng.integers(1 << s))
            x = [(mask >> j) & 1 for j in range(s)]
            worst_gap = max(
                worst_gap,
                abs(pb_pmf(spec, x) - direct[mask]),
                abs(pb_pmf_fourier(spec, x) - signed[mask]),
            )
    elapsed = time.perf_counter() - start
    report(
        "C2 pmf form consistency",
        worst_gap <= TOL_EQ and worst_norm <= TOL_EQ and elapsed < 10,
        f"max gap {worst_gap:.2e}, max norm dev {worst_norm:.2e}, {elapsed:.1f}s",
    )


GRID_SWEEP = [(m, 2, s) for m in (7, 11, 13) for s in (2, 3, 4)]
LINE_SWEEP = [(m, k, s) for m in (7, 11, 13) for k in (2, 3) for s in (2, 3, 4)]


def test_c03_column_law_identities():
    """Grid and line column laws match their occupancy formulas as exact
    rationals: 50 random prefixes per configuration, zero mismatches."""
    start = time.perf_counter()
    rng = stream(SEED, "c3")
    mismatches = 0
    for m, k, s in GRID_SWEEP:
        for _ in range(50):
            d = int(rng.integers(0, 2 * m + 1))
            state = random_prefix_state(rng, "grid", m, k, s, d)
            law = column_law(state)
            observed = {}
            for a, b in np.stack(np.divmod(np.flatnonzero(state.free), m), axis=1).tolist():
                mask = sum(
                    1 << j
                    for j, (ca, cb) in enumerate(state.clique_points)
                    if a == ca or b == cb
                )
                observed[mask] = observed.get(mask, 0) + 1
            occupancy = [0] * m
            for _, b in state.prior_points:
                occupancy[b] += 1
            full_total = sum(
                Fraction(m - 1 - c, m * m - m - d) for c in occupancy
            )
            if observed != law.sigma_counts or full_total != 1:
                mismatches += 1
    for m, k, s in LINE_SWEEP:
        for _ in range(50):
            d = int(rng.integers(0, 2 * m + 1))
            state = random_prefix_state(rng, "lines", m, k, s, d)
            law = column_law(state)
            for j, cpt in enumerate(state.clique_points):
                hits = sum(1 for p in state.prior_points if bowtie(p, cpt, m, k))
                enumerated = Fraction(
                    sum(c for mask, c in law.sigma_counts.items() if mask >> j & 1),
                    law.denominator,
                )
                if enumerated != Fraction((k - 1) * (m - 1) - hits, m * m - m - d):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "C3 column-law identities",
        mismatches == 0 and elapsed < 60,
        f"{(len(GRID_SWEEP) + len(LINE_SWEEP)) * 50} prefixes, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


LINE_BOUND_SWEEP = [(29, 2, 2), (29, 2, 3), (37, 3, 2)]


def test_c04_local_kl_bounds():
    """Exact column KL never exceeds its closed-form bound on any sampled
    prefix: grid configurations with s <= m-6 from the sweep, plus the
    line-mode configurations satisfying k <= m/4 and s <= m/(2k)-4.

    The line half of the stated sweep (m <= 13) satisfies those hypotheses
    nowhere, so hypothesis-valid prime sizes are added to keep the check
    non-vacuous.
    """
    start = time.perf_counter()
    rng = stream(SEED, "c4")
    violations = cases = 0
    for m, k, s in GRID_SWEEP:
        if s > m - 6:
            continue
        for _ in range(50):
            d = int(rng.integers(0, 2 * m + 1))
            state = random_prefix_state(rng, "grid", m, k, s, d)
            law = column_law(state)
            exact = kl_exact(law.spec, reference_law(state.q, s))
            cases += 1
            if exact > kl_local_bound_grid(law, m) + TOL_INEQ:
                violations += 1
    line_configs = [
        (m, k, s)
        for m, k, s in LINE_SWEEP
        if 4 * k <= m and 2 * k * (s + 4) <= m
    ] + LINE_BOUND_SWEEP
    for m, k, s in line_configs:
        n = m * (m - 1) // 2
        for _ in range(50):
            d = int(rng.integers(0, 2 * m + 1))
            state = random_prefix_state(rng, "lines", m, k, s, d)
            law = column_law(state)
            exact = kl_exact(law.spec, reference_law(state.q, s))
            cases += 1
            if exact > kl_local_bound_lines(law, n, m, k) + TOL_INEQ:
                violations += 1
    elapsed = time.perf_counter() - start
    report(
        "C4 local KL bounds",
        violations == 0 and cases > 0 and elapsed < 120,
        f"{cases} prefixes, {violations} violations, {elapsed:.1f}s",
    )


def test_c05_chain_rule_at_tiny_scale():
    """Exact joint KL between the enumerated null and coupled laws stays
    below the exhaustively enumerated chained bound at n=5, m=3."""
    start = time.perf_counter()
    lhs = exact_joint_kl(5, 3, "grid")
    rhs = exact_chain_rhs(5, 3, "grid")
    elapsed = time.perf_counter() - start
    ok = (
        math.isfinite(lhs)
        and math.isfinite(rhs)
        and lhs <= rhs + TOL_INEQ
        and elapsed < 300
    )
    report(
        "C5 chain rule at tiny scale",
        ok,
        f"joint {lhs:.8f} <= chained {rhs:.8f}, slack {rhs - lhs:.8f}, {elapsed:.1f}s",
    )


def test_c06_hypergeometric_tail():
    """E[2^I - I - 1] under HG(k-1, s, m) stays below 4 k^2 s^2 / m^2 on the
    full admissible grid, with one exact pinned value."""
    start = time.perf_counter()
    violations = cases = 0
    for k in range(1, 7):
        for s in range(1, 13):
            for m in range(1, 65):
                if s > m or k - 1 > m or 2 * (k - 1) * s > m:
                    continue
                cases += 1
                if hg_expectation(k - 1, s, m) > hg_bound(k, s, m) + TOL_EQ:
                    violations += 1
    exact_ok = hg_expectation(2, 3, 10) == 1 / 15
    elapsed = time.perf_counter() - start
    report(
        "C6 hypergeometric tail",
        violations == 0 and exact_ok and elapsed < 5,
        f"{cases} grid points, {violations} violations, "
        f"HG(2,3,10) exact: {exact_ok}, {elapsed:.1f}s",
    )


def test_c07_union_bound_tail():
    """Exact log-space tail at (n=1000, s=60, l0=30) stays below 2s/n^2."""
    start = time.perf_counter()
    value = union_bound_probability(1000, 60, 30)
    cap = 2 * 60 / 1000**2
    elapsed = time.perf_counter() - start
    report(
        "C7 union-bound tail",
        value <= cap and elapsed < 1,
        f"value {value:.3e} <= {cap:.3e}, {elapsed:.2f}s",
    )


def test_c08_recovery_upper_bound():
    """Semi-random instances with two extra planted cliques (n=60, s=15):
    the recovery rule returns exactly the planted set in >= 98 of 100
    seeded trials."""
    start = time.perf_counter()
    res = jaccard_experiment(
        "semirandom", "recover", 100, SEED, n=60, s=15, adversary="extra_cliques:2"
    )
    exact = sum(v == 1.0 for v in res.values)
    elapsed = time.perf_counter() - start
    report(
        "C8 recovery upper bound",
        exact >= 98 and elapsed < 120,
        f"{exact}/100 exact recoveries, {elapsed:.1f}s",
    )


def test_c09_lower_bound_mechanism():
    """Coupled instances (n=50, m=11, k=3), 200 seeded trials: the revealed
    vertex lies in multiple good cliques so recovery returns the empty set
    in >= 95% of trials, and uniformly picking one of its k latent line
    cliques scores mean Jaccard within 0.1 of 1/3."""
    start = time.perf_counter()
    rec = jaccard_experiment("coupled", "recover", 200, SEED, n=50, m=11, k=3)
    empty = sum(v == 0.0 for v in rec.values)
    oracle = jaccard_experiment("coupled", "oracle-line", 200, SEED, n=50, m=11, k=3)
    gap = abs(oracle.mean - 1 / 3)
    elapsed = time.perf_counter() - start
    report(
        "C9 lower-bound mechanism",
        empty >= 190 and gap <= 0.1 and elapsed < 300,
        f"empty {empty}/200, oracle mean {oracle.mean:.4f} "
        f"(|gap| {gap:.4f} <= 0.1), {elapsed:.1f}s",
    )


def test_c10_line_generator_calibration():
    """Null line instances (n=40, m=11, k=3) over 1e4 seeds: off-design
    edge rate equals q within 3 sigma, and on every instance each vertex
    lies in exactly k line cliques whose pairwise overlaps are that vertex
    alone."""
    start = time.perf_counter()
    n, m, k = 40, 11, 3
    q = line_rate(m, k)
    hits = total = 0
    structure_ok = True
    iu = np.triu_indices(n, 1)
    for seed in range(10_000):
        inst = gen_null_lines(n, m, k, seed)
        g, cfg = inst.graph, inst.grid
        a = np.array([p[0] for p in cfg.points])
        b = np.array([p[1] for p in cfg.points])
        labels = np.stack(
            [(a - r * b) % m for r in range(k)], axis=1
        )  # line id per slope
        shared = (labels[:, None, :] == labels[None, :, :]).sum(axis=2)
        np.fill_diagonal(shared, 0)
        if shared.max() > 1:  # two distinct lines can only meet once
            structure_ok = False
        design = shared > 0
        if not g.adj[design].all():  # design edges must be present
            structure_ok = False
        free = ~design[iu]
        hits += int(g.adj[iu][free].sum())
        total += int(free.sum())
    rate = hits / total
    sigma = math.sqrt(q * (1 - q) / total)
    elapsed = time.perf_counter() - start
    report(
        "C10 line generator calibration",
        abs(rate - q) <= 3 * sigma and structure_ok and elapsed < 60,
        f"off-design rate {rate:.6f} vs q {q:.6f} "
        f"(3 sigma {3 * sigma:.6f}), structure ok: {structure_ok}, {elapsed:.1f}s",
    )
