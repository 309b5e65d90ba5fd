"""Tests for column laws, local and chained KL bounds, exact joint laws,
hypergeometric expectations, and the Jaccard experiments."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from pcsemi.analysis import (
    ColumnLaw,
    chained_kl_bound,
    closed_form_chain_terms,
    column_law,
    column_law_lines,
    column_score_rows,
    exact_chain_rhs,
    exact_coupled_law,
    exact_joint_kl,
    exact_null_law,
    hg_bound,
    hg_expectation,
    jaccard_experiment,
    kl_local_bound_grid,
    kl_local_bound_lines,
    oracle_line_pick,
    pair_tail_mass,
    random_prefix_state,
    reference_law,
    tv_from_kl,
)
from pcsemi.analysis import (
    _conditioned_coupled,
    _expected_column_kl,
    _kl_rows,
    _law_rows,
    _law_tables,
)
from pcsemi.graph_model import (
    AssignmentState,
    bowtie,
    gen_coupled,
    grid_rate,
    line_rate,
    related,
    stream_seed,
    structure_points,
    _coupled_size,
    _weight_rows,
)
from pcsemi.perturbed_bernoulli import PBSpec, _or_coins, _popcounts, kl_exact, superset_sum


class TestColumnLawGrid:
    def test_fresh_rates_are_uniform(self):
        rng = np.random.default_rng(0)
        state = random_prefix_state(rng, "grid", 13, 2, 4, 0)
        law = column_law(state)
        assert law.pi == tuple([pytest.approx(1 / 13)] * 4)
        assert law.denominator == 13 * 13 - 13
        assert sum(law.sigma_counts.values()) == law.denominator

    def test_one_prior_draw_shifts_one_rate(self):
        rng = np.random.default_rng(0)
        state = random_prefix_state(rng, "grid", 13, 2, 4, 0)
        state = state.with_point((5, state.clique_points[0][1]))
        law = column_law(state)
        assert Fraction(law.sigma_counts[1], law.denominator) == Fraction(11, 155)
        assert Fraction(law.sigma_counts[2], law.denominator) == Fraction(12, 155)
        # one prior point shares column 0: pi_j = (m - 1 - hits_j) / denominator
        assert law.pi == (11 / 155, 12 / 155, 12 / 155, 12 / 155)

    def test_full_rate_vector_sums_to_one(self):
        """The m occupancy classes exhaust the off-row points, so the full
        per-column rates sum to exactly 1."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(0, 30))
            state = random_prefix_state(rng, "grid", 11, 2, 3, d)
            law = column_law(state)
            occupancy = [0] * 11
            for _, b in state.prior_points:
                occupancy[b] += 1
            total = sum(Fraction(11 - 1 - c, law.denominator) for c in occupancy)
            assert total == 1

    def test_matches_direct_candidate_enumeration(self):
        """Every field of the law equals a brute-force tally over the grid
        with the scalar grid relation (same row or same column), keys in
        first-occurrence order."""
        rng = np.random.default_rng(8)
        for _ in range(25):
            m = int(rng.choice([7, 11, 13]))
            s = int(rng.integers(2, 5))
            d = int(rng.integers(0, 2 * m))
            state = random_prefix_state(rng, "grid", m, 2, s, d)
            used = set(state.prior_points)
            tally = {}
            for a in range(1, m):  # the planted row is row 0
                for b in range(m):
                    if (a, b) in used:
                        continue
                    mask = sum(
                        1 << j
                        for j, (ca, cb) in enumerate(state.clique_points)
                        if a == ca or b == cb
                    )
                    tally[mask] = tally.get(mask, 0) + 1
            law = column_law(state)
            assert law.denominator == m * m - m - d
            assert list(law.sigma_counts.items()) == list(tally.items())
            for j, (_, cb) in enumerate(state.clique_points):
                hits = sum(1 for _, b in state.prior_points if b == cb)
                assert law.pi[j] == (m - 1 - hits) / law.denominator

    def test_exhausted_universe_rejected(self):
        state = random_prefix_state(np.random.default_rng(0), "grid", 3, 2, 2, 6)
        with pytest.raises(ValueError):
            column_law(state)

    @pytest.mark.parametrize(
        "mode,m,k,dmax", [("grid", 3, 2, 5), ("grid", 4, 2, 11), ("lines", 5, 2, 3),
                          ("lines", 5, 3, 3)],
    )
    def test_expected_kl_closed_form_matches_enumeration(self, mode, m, k, dmax):
        """The hypergeometric sum over forced-mask classes behind the exact
        chain bound equals the mean column KL of the enumerated law over
        every prefix of d <= dmax off-structure points, for every
        clique-point subset of the planted line (slope k - 1 in line mode)."""

        def with_subsets(state, points, depth):
            yield state
            if depth:
                for i, p in enumerate(points):
                    yield from with_subsets(state.with_point(p), points[i + 1:], depth - 1)

        q = grid_rate(m) if mode == "grid" else line_rate(m, k)
        planted = (0, 0) if mode == "grid" else (k - 1, 0)
        for s in range(1, m + 1):
            ref = reference_law(q, s)
            memo = {}
            for clique in itertools.combinations(structure_points(planted, m), s):
                base = AssignmentState(mode, m, k, q, planted, clique)
                off = [divmod(int(i), m) for i in np.flatnonzero(base.free)]
                kls = [[] for _ in range(min(dmax, len(off) - 1) + 1)]  # by d
                for state in with_subsets(base, off, len(kls) - 1):
                    d = len(state.prior_points)
                    law = column_law(state)
                    key = (d, tuple(sorted(law.sigma_counts.items())))
                    if key not in memo:
                        memo[key] = kl_exact(law.spec, ref)
                    kls[d].append(memo[key])
                for d, values in enumerate(kls):
                    want = math.fsum(values) / len(values)
                    got = _expected_column_kl(column_law(base).sigma_counts, d, _law_tables(ref))
                    assert abs(got - want) <= 1e-12 * abs(want), (clique, d)


class TestColumnLawLines:
    def test_line_name_is_the_one_law(self):
        assert column_law_lines is column_law

    def test_fresh_singleton_rate(self):
        rng = np.random.default_rng(1)
        for m, k in [(7, 2), (11, 3), (13, 2)]:
            state = random_prefix_state(rng, "lines", m, k, 1, 0)
            law = column_law(state)
            assert Fraction(
                sum(c for mask, c in law.sigma_counts.items() if mask & 1),
                law.denominator,
            ) == Fraction((k - 1) * (m - 1), m * m - m)

    def test_matches_bowtie_enumeration(self):
        """Every field of the law equals a brute-force tally over the grid
        with the scalar ``bowtie`` relation, keys in first-occurrence
        order, on random prefixes including the empty one."""
        rng = np.random.default_rng(21)
        for m, k in [(7, 2), (7, 3), (11, 2), (11, 3), (13, 3)]:
            for d in (0, 1, int(rng.integers(2, m * m - m))):
                s = int(rng.integers(1, 5))
                state = random_prefix_state(rng, "lines", m, k, s, d)
                r, h = state.planted
                used = set(state.prior_points)
                tally = {}
                for a in range(m):
                    for b in range(m):
                        if (a - r * b) % m == h % m or (a, b) in used:
                            continue
                        mask = sum(
                            1 << j
                            for j, c in enumerate(state.clique_points)
                            if bowtie((a, b), c, m, k)
                        )
                        tally[mask] = tally.get(mask, 0) + 1
                law = column_law(state)
                denom = sum(tally.values())
                assert law.denominator == denom == m * m - m - d
                assert list(law.sigma_counts.items()) == list(tally.items())
                for j, c in enumerate(state.clique_points):
                    forcing = sum(n for mask, n in tally.items() if mask >> j & 1)
                    assert law.pi[j] == forcing / denom
                    hits = sum(1 for p in state.prior_points if bowtie(p, c, m, k))
                    assert law.pi[j] == ((k - 1) * (m - 1) - hits) / denom

    @pytest.mark.parametrize(
        "mode,m,k,s",
        [("grid", 31, 2, 20), ("grid", 23, 2, 14), ("lines", 23, 2, 20), ("lines", 29, 5, 20),
         ("lines", 41, 3, 8)],
    )
    def test_top_of_domain_matches_unique_oracle(self, mode, m, k, s):
        """Up to s = MAX_DIM = 20 the law equals, under ``==``, the one the
        sorted distinct masks give, its keys in the order of a Python tally
        of the free points, and one law holds far less than a 2^s table of
        floats (8 MB at s = 20).  A ``with_point`` child shares the
        forced-mask index by identity."""
        rng = np.random.default_rng(s * m + k)
        for d in (0, 1, int(rng.integers(2, m * m - m))):
            state = random_prefix_state(rng, mode, m, k, s, d)
            law = column_law(state)  # warm: the first call may build caches
            tracemalloc.start()
            try:
                law = column_law(state)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, peak
            masks = state.masks[state.free]
            denom = len(masks)
            keys, first, tally = np.unique(masks, return_index=True, return_counts=True)
            order = np.argsort(first)
            counts = dict(zip(keys[order].tolist(), tally[order].tolist()))
            hits = tally @ ((keys[:, None] >> np.arange(s)) & 1)
            want = ColumnLaw(
                spec=PBSpec(s=s, q=state.q, sigma={f: c / denom for f, c in counts.items()}),
                pi=tuple(c / denom for c in hits.tolist()),
                denominator=denom,
                sigma_counts=counts,
            )
            assert law == want
            python_tally = {}
            for i in np.flatnonzero(state.free).tolist():
                f = int(state.masks[i])
                python_tally[f] = python_tally.get(f, 0) + 1
            assert list(law.sigma_counts.items()) == list(python_tally.items())
            assert list(law.spec.sigma) == list(python_tally)
            child = state.with_point(divmod(int(np.flatnonzero(state.free)[0]), m))
            for name in ("masks", "keys", "key_rows", "key_bits"):
                assert getattr(child, name) is getattr(state, name)

    def test_composite_m_rejected(self):
        """The line design needs m prime: at m = 34 the enumerated singleton
        rate is 65/1122, not the theorem's 66/1122."""
        with pytest.raises(ValueError, match="prime m, got 34"):
            random_prefix_state(np.random.default_rng(0), "lines", 34, 3, 1, 0)

    def test_exhausted_prefix_rejected(self):
        m = 7
        state = random_prefix_state(np.random.default_rng(4), "lines", m, 2, 3, m * m - m)
        assert not state.free.any()
        with pytest.raises(ValueError, match="no unused"):
            column_law(state)

    def test_singleton_rates_match_occupancy_formula(self):
        """Enumerated S({j}) equals ((k-1)(m-1) - N(j)) / (m^2 - m - d) as
        exact rationals, for random prefixes."""
        rng = np.random.default_rng(2)
        for m, k in [(7, 2), (11, 2), (11, 3), (13, 3)]:
            for _ in range(10):
                s = int(rng.integers(2, 5))
                d = int(rng.integers(0, 2 * m))
                state = random_prefix_state(rng, "lines", m, k, s, d)
                law = column_law(state)
                for j, cpt in enumerate(state.clique_points):
                    hits = sum(
                        1 for p in state.prior_points if bowtie(p, cpt, m, k)
                    )
                    assert law.pi[j] == ((k - 1) * (m - 1) - hits) / law.denominator
                    enumerated = Fraction(
                        sum(
                            c
                            for mask, c in law.sigma_counts.items()
                            if mask >> j & 1
                        ),
                        law.denominator,
                    )
                    assert enumerated == Fraction(
                        (k - 1) * (m - 1) - hits, m * m - m - d
                    )

    def test_pair_statistics_capped_by_design(self):
        """S(J) <= 2 k^2 / m^2 for |J| >= 2 whenever n <= m(m-1)/2."""
        rng = np.random.default_rng(3)
        for m, k in [(11, 2), (11, 3), (13, 2), (13, 3)]:
            cap = 2 * k * k / (m * m)
            for _ in range(10):
                s = int(rng.integers(2, 5))
                d = int(rng.integers(0, m))
                state = random_prefix_state(rng, "lines", m, k, s, d)
                law = column_law(state)
                stats = superset_sum(law.spec)
                for mask in range(1 << s):
                    if mask.bit_count() >= 2:
                        assert stats[mask] <= cap + 1e-12

    def test_tail_identity(self):
        """sum_{|J|>=2} S(J) equals sum_J (2^|J| - |J| - 1) sigma(J)."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.choice([7, 11]))
            k = int(rng.integers(2, 4))
            s = int(rng.integers(2, 5))
            state = random_prefix_state(rng, "lines", m, k, s, int(rng.integers(0, m)))
            law = column_law(state)
            tail = pair_tail_mass(law)
            direct = sum(
                (2 ** mask.bit_count() - mask.bit_count() - 1) * c
                for mask, c in law.sigma_counts.items()
            ) / law.denominator
            assert tail == pytest.approx(direct, abs=1e-12)


class TestLocalBounds:
    def test_fresh_grid_bound_is_constant_term(self):
        state = random_prefix_state(np.random.default_rng(0), "grid", 13, 2, 4, 0)
        law = column_law(state)
        assert kl_local_bound_grid(law, 13) == pytest.approx(3 * 16 / 11**4)

    def test_grid_bound_hand_value(self):
        """One prior draw on the first clique column, m=13, s=4."""
        state = random_prefix_state(np.random.default_rng(0), "grid", 13, 2, 4, 0)
        state = state.with_point((7, state.clique_points[0][1]))
        law = column_law(state)
        hand = 3 * 16 / 11**4 + 3 * (
            (11 / 155 - 1 / 13) ** 2 + 3 * (12 / 155 - 1 / 13) ** 2
        )
        assert kl_local_bound_grid(law, 13) == pytest.approx(hand, rel=1e-12)
        ref = reference_law(law.spec.q, 4)
        assert kl_exact(law.spec, ref) <= kl_local_bound_grid(law, 13)

    def test_grid_hypothesis_enforced(self):
        state = random_prefix_state(np.random.default_rng(0), "grid", 7, 2, 2, 0)
        with pytest.raises(ValueError):
            kl_local_bound_grid(column_law(state), 7)

    def test_lines_hypotheses_enforced(self):
        rng = np.random.default_rng(0)
        state = random_prefix_state(rng, "lines", 11, 3, 2, 0)
        law = column_law(state)
        with pytest.raises(ValueError):
            kl_local_bound_lines(law, 20, 11, 3)  # k > m/4
        state = random_prefix_state(rng, "lines", 29, 2, 4, 0)
        with pytest.raises(ValueError):
            kl_local_bound_lines(column_law(state), 20, 29, 2)  # s too big

    def test_bounds_dominate_exact_kl(self):
        rng = np.random.default_rng(6)
        for mode, m, k, s in [
            ("grid", 11, 2, 2),
            ("grid", 13, 2, 4),
            ("lines", 29, 2, 2),
            ("lines", 29, 2, 3),
            ("lines", 37, 3, 2),
        ]:
            n = m * (m - 1) // 2
            for _ in range(10):
                d = int(rng.integers(0, 2 * m))
                state = random_prefix_state(rng, mode, m, k, s, d)
                law = column_law(state)
                if mode == "grid":
                    bound = kl_local_bound_grid(law, m)
                else:
                    bound = kl_local_bound_lines(law, n, m, k)
                exact = kl_exact(law.spec, reference_law(state.q, s))
                assert exact <= bound + 1e-9
                assert bound >= 0.0

    def test_lines_expression_holds_on_small_primes(self):
        """The bound expression keeps dominating the exact KL on the small
        sweep even where its sufficient hypotheses fail (documented as an
        observation, not a guarantee)."""
        rng = np.random.default_rng(7)
        for m, k, s in [(11, 2, 2), (11, 3, 3), (13, 2, 4), (13, 3, 2)]:
            target = (k - 1) / m
            for _ in range(10):
                state = random_prefix_state(rng, "lines", m, k, s, int(rng.integers(0, m)))
                law = column_law(state)
                expr = (
                    3 * sum((p - target) ** 2 for p in law.pi)
                    + 12 * k**4 * s * s / m**4
                    + 12 * k**2 / m**2 * pair_tail_mass(law)
                )
                exact = kl_exact(law.spec, reference_law(state.q, s))
                assert exact <= expr + 1e-9


def scalar_column_scores(law, mode, n, m, k):
    """The one-law scorer before the stacked kernel: ``kl_exact`` against
    the reference law, and the bound's sums in Python over ``law.pi`` and
    over ``superset_sum``."""
    s = len(law.pi)
    if mode == "grid":
        drift = sum((p - 1.0 / m) ** 2 for p in law.pi)
        bound = 3.0 * s * s / (m - 2) ** 4 + 3.0 * drift
    else:
        drift = sum((p - (k - 1) / m) ** 2 for p in law.pi)
        tail = float(superset_sum(law.spec)[_popcounts(s) >= 2].sum())
        bound = 3.0 * drift + 12.0 * k**4 * s * s / m**4 + 12.0 * k**2 / m**2 * tail
    return kl_exact(law.spec, reference_law(law.spec.q, s)), bound


def scalar_expected_column_kl(counts, d, ref):
    """``_expected_column_kl`` before the stacked kernel: one ``kl_exact``
    per removal vector, added as the recursion reaches it."""
    counts = dict(counts)
    masks = sorted(f for f in counts if f) + [0]
    sizes = [counts.get(f, 0) for f in masks]
    room = [sum(sizes[j + 1:]) for j in range(len(sizes))]
    denom = sum(sizes) - d
    total_ways = comb(denom + d, d)
    out = 0.0

    def rec(j, left, ways, taken):
        nonlocal out
        if j == len(sizes):
            sigma = {f: (c - x) / denom for f, c, x in zip(masks, sizes, taken) if c > x}
            out += ways / total_ways * kl_exact(PBSpec(ref.s, ref.q, sigma), ref)
            return
        for x in range(max(0, left - room[j]), min(sizes[j], left) + 1):
            rec(j + 1, left - x, ways * comb(sizes[j], x), taken + [x])

    rec(0, d, 1, [])
    return out


def synthetic_law(rng, s, q, masks, empty):
    """A column law with integer counts on random masks, built as
    ``column_law`` builds one; ``empty`` says whether mask 0 has mass."""
    chosen = rng.choice(np.arange(1, 1 << s), size=min(masks, (1 << s) - 1), replace=False)
    counts = {int(f): int(c) for f, c in zip(chosen, rng.integers(1, 40, len(chosen)))}
    if empty:
        counts[0] = int(rng.integers(1, 200))
    denom = sum(counts.values())
    hits = [sum(c for f, c in counts.items() if f >> j & 1) for j in range(s)]
    spec = PBSpec(s=s, q=q, sigma={f: c / denom for f, c in counts.items()})
    return ColumnLaw(spec=spec, pi=tuple(h / denom for h in hits), denominator=denom, sigma_counts=counts)


def hexes(values):
    return [float(v).hex() for v in values]


class TestStackedScores:
    """The stacked kernel gives every law the one-law scores to the last bit."""

    # (mode, n, m, k), inside each local bound's hypotheses for s <= 12
    CONFIGS = [("grid", 100, 19, 2), ("lines", 100, 67, 2)]

    @pytest.mark.parametrize("mode,n,m,k", CONFIGS)
    def test_matches_one_law_scores(self, mode, n, m, k):
        """s = 1..12 (the transforms change walk at 12): sampled prefixes of
        the design, and synthetic laws with and without mass on mask 0."""
        rng = np.random.default_rng(23)
        q = grid_rate(m) if mode == "grid" else line_rate(m, k)
        for s in range(1, 13):
            laws = [column_law(random_prefix_state(rng, mode, m, k, s, d)) for d in (0, 5, 40)]
            laws += [synthetic_law(rng, s, q, int(rng.integers(1, 30)), empty) for empty in (True, False, False)]
            exact, bound = column_score_rows(*_law_rows(laws), q, mode, n, m, k)
            want = [scalar_column_scores(law, mode, n, m, k) for law in laws]
            assert hexes(exact) == hexes(e for e, _ in want), s
            assert hexes(bound) == hexes(b for _, b in want), s

    def test_row_outside_reference_support_is_infinite(self):
        """Against a law whose every state has coordinate 1 set, a row with
        mass on mask 0 escapes its support; the others keep their KL."""
        s, q = 4, 0.3
        ref = PBSpec(s, q, {1: 0.5, 7: 0.5})
        rows = [{0: 0.25, 1: 0.75}, {1: 0.5, 3: 0.5}, {5: 1.0}]
        sigma = np.zeros((len(rows), 1 << s))
        for row, masses in zip(sigma, rows):
            row[list(masses)] = list(masses.values())
        got = _kl_rows(sigma, _law_tables(ref))
        assert got[0] == math.inf
        assert hexes(got[1:]) == hexes(kl_exact(PBSpec(s, q, r), ref) for r in rows[1:])

    @pytest.mark.parametrize("mode,m,k,s,d", [
        ("grid", 7, 2, 3, 4), ("grid", 9, 2, 5, 8), ("lines", 7, 3, 3, 6), ("lines", 11, 2, 2, 9),
    ])
    def test_chain_sum_matches_one_law_sum(self, monkeypatch, mode, m, k, s, d):
        """The chain's expected column KL equals, to the last bit, the sum
        that scored one law per removal vector; with blocks of 64 floats the
        removal vectors span many stacks."""
        q = grid_rate(m) if mode == "grid" else line_rate(m, k)
        planted = (0, 0) if mode == "grid" else (k - 1, 0)
        counts = column_law(AssignmentState(mode, m, k, q, planted, structure_points(planted, m)[:s])).sigma_counts
        ref = reference_law(q, s)
        want = [scalar_expected_column_kl(counts, x, ref) for x in range(d)]
        tables = _law_tables(ref)
        assert [_expected_column_kl(counts, x, tables) for x in range(d)] == want
        monkeypatch.setattr("pcsemi.analysis._WEIGHT_BLOCK", 64)
        assert [_expected_column_kl(counts, x, tables) for x in range(d)] == want


def oracle_chained_grid_s2(n, m):
    """Independent oracle for the fixed-size chained exact KL at s=2:
    bivariate hypergeometric enumeration over prior occupancy counts and
    direct four-state KL sums."""
    q = grid_rate(m)
    off = m * m - m
    total = 0.0
    for d in range(n - 2):
        denom = off - d
        level = 0.0
        for x1 in range(min(m - 1, d) + 1):
            for x2 in range(min(m - 1, d - x1) + 1):
                ways = (
                    comb(m - 1, x1)
                    * comb(m - 1, x2)
                    * comb(off - 2 * (m - 1), d - x1 - x2)
                )
                if ways == 0:
                    continue
                prob = ways / comb(off, d)
                p1 = (m - 1 - x1) / denom
                p2 = (m - 1 - x2) / denom
                p0 = 1.0 - p1 - p2
                kl = 0.0
                for b1 in (0, 1):
                    for b2 in (0, 1):
                        coin = (q if b1 else 1 - q) * (q if b2 else 1 - q)
                        mass = p0 * coin
                        if b1:
                            mass += p1 * (q if b2 else 1 - q)
                        if b2:
                            mass += p2 * (q if b1 else 1 - q)
                        kl += mass * math.log(mass / 0.25)
                level += prob * kl
        total += level
    return total


class TestChainedBound:
    def test_exact_below_bound_per_column(self):
        for seed in (0, 1):
            led = chained_kl_bound(20, 13, 2, 2, 40, seed, mode="grid")
            for ex, bd in zip(led.per_column_exact, led.per_column_bound):
                assert ex <= bd + 1e-9
            assert led.chained_exact <= led.chained_bound + 1e-9

    def test_monte_carlo_matches_exhaustive_oracle(self):
        led = chained_kl_bound(20, 13, 2, 2, 300, 5, mode="grid")
        oracle = oracle_chained_grid_s2(20, 13)
        assert abs(led.chained_exact - oracle) <= 3 * led.chained_exact_stderr

    def test_bound_estimate_matches_exhaustive_expectation(self):
        """The chained bound estimate agrees within 3 sigma with its exact
        prefix expectation: sum_d 3 s^2/(m-2)^4 + 3 s Var[pi] with the
        occupancy variance in closed hypergeometric form."""
        n, m, s = 20, 13, 2
        led = chained_kl_bound(n, m, 2, s, 300, 5, mode="grid")
        off = m * m - m
        expected = 0.0
        for d in range(n - s):
            frac = (m - 1) / off
            var_occupancy = d * frac * (1 - frac) * (off - d) / (off - 1)
            expected += 3 * s * s / (m - 2) ** 4 + 3 * s * var_occupancy / (
                off - d
            ) ** 2
        assert abs(led.chained_bound - expected) <= 3 * led.chained_bound_stderr

    def test_closed_form_decreases_in_m(self):
        t1, _ = closed_form_chain_terms("grid", 20, 13, 2, 2)
        t2, _ = closed_form_chain_terms("grid", 20, 26, 2, 2)
        assert sum(t2.values()) < sum(t1.values())
        l1, _ = closed_form_chain_terms("lines", 50, 29, 2, 2)
        l2, _ = closed_form_chain_terms("lines", 50, 58, 2, 2)
        assert sum(l2.values()) < sum(l1.values())

    def test_grid_mode_runs_with_two_families(self):
        """Grid mode has two line families, so any k gives the k = 2 ledger."""
        assert chained_kl_bound(15, 13, 5, 2, 4, 3, mode="grid") == chained_kl_bound(
            15, 13, 2, 2, 4, 3, mode="grid"
        )

    def test_shared_configuration_fields_are_read_only(self):
        """The closed-form terms and hypotheses that ledgers of one
        configuration share refuse a write, so no ledger reaches another;
        ``dataclasses.replace`` still takes plain dicts for them."""
        a = chained_kl_bound(20, 13, 2, 2, 2, seed=1, mode="grid")
        with pytest.raises(TypeError):
            a.closed_form_terms["column_tail"] = 99.0
        with pytest.raises(TypeError):
            a.hypotheses["m2_ge_7n"] = False
        b = chained_kl_bound(20, 13, 2, 2, 2, seed=2, mode="grid")
        terms, hyp = closed_form_chain_terms("grid", 20, 13, 2, 2)
        assert dict(b.closed_form_terms) == terms and dict(b.hypotheses) == hyp
        assert b.closed_form_total == sum(terms.values())
        assert a == chained_kl_bound(20, 13, 2, 2, 2, seed=1, mode="grid")
        edited = dataclasses.replace(a, closed_form_terms=dict(a.closed_form_terms, column_tail=99.0))
        assert edited.closed_form_terms["column_tail"] == 99.0
        assert b.closed_form_terms["column_tail"] == terms["column_tail"]

    def test_lines_mode_runs(self):
        led = chained_kl_bound(30, 29, 2, 3, 20, 0, mode="lines")
        assert led.chained_exact <= led.chained_bound + 1e-9
        assert led.closed_form_total > 0
        assert 0 <= led.tv_pinsker <= 1

    def test_occupancy_negative_correlation(self):
        """Empirical variance of the occupancy count stays below the
        independent-draw sum of variances (sampling without replacement)."""
        rng = np.random.default_rng(9)
        m, d = 11, 20
        counts = []
        for _ in range(2000):
            state = random_prefix_state(rng, "grid", m, 2, 2, d)
            b0 = state.clique_points[0][1]
            counts.append(sum(1 for _, b in state.prior_points if b == b0))
        independent = d * (1 / m) * (1 - 1 / m)
        assert np.var(counts) <= independent * 1.05

    def test_lines_occupancy_variance_cap(self):
        """Var[N(j)] <= n k^3 / m, checked empirically."""
        rng = np.random.default_rng(10)
        n, m, k, s, d = 50, 11, 3, 3, 30
        counts = []
        for _ in range(1500):
            state = random_prefix_state(rng, "lines", m, k, s, d)
            cpt = state.clique_points[0]
            counts.append(
                sum(1 for p in state.prior_points if bowtie(p, cpt, m, k))
            )
        assert np.var(counts) <= n * k**3 / m


class TestExactJointLaws:
    def test_null_law_normalizes(self):
        vec = exact_null_law(4, 3, "grid")
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coupled_law_normalizes(self):
        vec = exact_coupled_law(4, 3, "grid")
        assert vec.sum() == pytest.approx(1.0, abs=1e-9)

    def test_null_against_itself_is_zero(self):
        vec = exact_null_law(4, 3, "grid")
        live = vec > 0
        assert float(np.sum(vec[live] * np.log(vec[live] / vec[live]))) == 0.0

    def test_two_vertices_finite_nonnegative(self):
        kl = exact_joint_kl(2, 3, "grid")
        assert 0.0 <= kl < math.inf

    def test_small_joint_below_chain(self):
        for n in (2, 3, 4):
            kl = exact_joint_kl(n, 3, "grid")
            rhs = exact_chain_rhs(n, 3, "grid")
            assert 0.0 <= kl <= rhs + 1e-9

    def test_lines_mode_small(self):
        for n in (3, 4):
            kl = exact_joint_kl(n, 5, "lines", k=2)
            rhs = exact_chain_rhs(n, 5, "lines", k=2)
            assert 0.0 <= kl <= rhs + 1e-9, n

    @pytest.mark.parametrize("n,m,want", [
        (2, 3, 0.0), (3, 3, 0.01215231752245689), (4, 3, 0.056383928802941324),
        (5, 3, 0.16381905260284185), (6, 3, 0.38329849822904005),
        (7, 3, 0.7872901788280416), (5, 4, 0.016048119086451058),
        (7, 4, 0.06378888999349988), (9, 5, 0.03149048743154808),
        (12, 7, 0.008517615012832077),
    ])
    def test_grid_chain_rhs_pinned(self, n, m, want):
        """Grid values of the multivariate-hypergeometric occupancy sum over
        the s clique columns, pinned to the last bit."""
        assert repr(exact_chain_rhs(n, m, "grid")) == repr(want)

    @pytest.mark.parametrize("n,m,k,want", [
        (3, 5, 2, 0.0003130220034574609), (4, 5, 2, 0.001285752462622873),
        (5, 5, 2, 0.0033046561675518994), (4, 5, 3, 0.006631610354417748),
        (5, 5, 3, 0.017276731072607413), (6, 5, 2, 0.006804142525285468),
    ])
    def test_lines_chain_rhs_pinned(self, n, m, k, want):
        """Line values of the mean column KL over every slope, clique-point
        subset and prior-point subset, each law enumerated: the sum over
        forced-mask classes reorders the same terms."""
        assert exact_chain_rhs(n, m, "lines", k) == pytest.approx(want, rel=1e-12, abs=0)

    def test_lines_chain_rhs_reaches_seven_points(self):
        """(7, 7, lines, 3): 299 column laws, where a sum over every prior
        point subset would visit billions of prefixes."""
        start = time.perf_counter()
        rhs = exact_chain_rhs(7, 7, "lines", k=3)
        assert 0.0 < rhs < math.inf
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n,m,mode,k,what", [
        (30, 7, "grid", 2, "1258043 column laws"),
        (10, 40, "grid", 2, "clique-point subsets"),
        (7, 31, "lines", 3, "clique-point subsets"),
    ])
    def test_chain_rhs_work_guard(self, monkeypatch, n, m, mode, k, what):
        """Refused from the counted work, before any column law is scored."""

        def no_law(*args):
            raise AssertionError("a column law was scored")

        monkeypatch.setattr("pcsemi.analysis._kl_rows", no_law)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"state space too large: .*{what}"):
            exact_chain_rhs(n, m, mode, k)
        assert time.perf_counter() - start < 1.0

    def test_state_space_guard(self):
        with pytest.raises(ValueError):
            exact_null_law(6, 5, "grid")

    @pytest.mark.parametrize("n,m,mode,k", [(5, 3, "grid", 2), (3, 5, "lines", 2)])
    def test_null_law_matches_full_permutation_count(self, n, m, mode, k):
        """The law tallied from the assignments that start at point 0 equals,
        bit for bit, the one tallied from every ordered assignment."""
        q = grid_rate(m) if mode == "grid" else line_rate(m, k)
        pts = [(a, b) for a in range(m) for b in range(m)]
        rel = related(pts, pts, mode, m, k).tolist()
        pairs = list(itertools.combinations(range(n), 2))
        tally = Counter()
        for assign in itertools.permutations(range(m * m), n):
            f = 0
            for bit, (i, j) in enumerate(pairs):
                if rel[assign[i]][assign[j]]:
                    f |= 1 << bit
            tally[f] += 1
        want = np.zeros(1 << len(pairs))
        want[list(tally)] = list(tally.values())
        want /= sum(tally.values())
        assert np.array_equal(exact_null_law(n, m, mode, k), _or_coins(want, q))

    def test_coupled_work_guard(self):
        """(7, 4) would add a 2^21-cell table on each of 4 million point
        tuples; refused before any enumeration starts."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match="state space too large"):
            exact_coupled_law(7, 4, "grid")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("law", [exact_null_law, exact_coupled_law, exact_joint_kl])
    def test_graph_table_cap(self, law):
        """n = 9 would ask for 2^36 graph states; refused before any table
        is built or any assignment enumerated."""
        with pytest.raises(ValueError, match="need 0 <= n <= 7, got n=9"):
            law(9, 3, "grid")

    @pytest.mark.parametrize(
        "n,m,mode,k", [(3, 3, "grid", 2), (4, 3, "grid", 2), (3, 5, "lines", 2)]
    )
    def test_coupled_law_matches_rational_oracle(self, n, m, mode, k):
        want = oracle_coupled_law(n, m, mode, k)
        assert sum(want.values()) == 1
        got = exact_coupled_law(n, m, mode, k)
        exact = np.zeros(len(got))
        exact[list(want)] = [float(w) for w in want.values()]
        assert np.max(np.abs(got - exact)) <= 1e-13

    def test_generator_frequencies_match_enumerated_law(self):
        """The coupled generator's empirical graph distribution agrees with
        the enumerated law conditioned on a nonzero clique size (the
        generator's only conditioning), cell by cell within 4 sigma."""
        n, m, k = 3, 5, 2
        law = exact_coupled_law(n, m, "lines", k, size_range=(1, n))
        law = law / law.sum()
        trials = 4000
        counts = np.zeros(8)
        for seed in range(trials):
            inst = gen_coupled(n, m, k, seed)
            idx = (
                int(inst.graph.edge(0, 1))
                | int(inst.graph.edge(0, 2)) << 1
                | int(inst.graph.edge(1, 2)) << 2
            )
            counts[idx] += 1
        for cell in range(8):
            se = math.sqrt(max(law[cell] * (1 - law[cell]), 1e-12) / trials)
            assert abs(counts[cell] / trials - law[cell]) < 4 * se + 1e-9


def oracle_coupled_law(n: int, m: int, mode: str, k: int) -> dict[int, Fraction]:
    """The coupled graph law in exact rationals, by direct enumeration of the
    generative process with a scalar design relation of its own.

    A slope (grid mode: row 0 only; translations carry any offset to 0),
    a clique size s ~ HG(n, m, m^2), a clique vertex set S, and an ordered
    tuple of clique points on the planted line; then, for each outside
    vertex in index order, a fair column and an unused off-line point drawn
    with probability proportional to its column likelihood (uniform when
    every likelihood is 0); outside pairs are forced when their points are
    related and Ber(q) otherwise.  Keys are graph indices, bit p the p-th
    pair (i, j), i < j, in lexicographic order."""
    if mode == "grid":
        q = Fraction(1, 2) - Fraction(1, 2 * m - 2)
        slopes = [0]

        def rel(u, w):
            return u[0] == w[0] or u[1] == w[1]
    else:
        q = Fraction(1, 2) - Fraction(k - 1, 2 * (m - k + 1))
        slopes = list(range(k))

        def rel(u, w):
            return any((u[0] - t * u[1] - w[0] + t * w[1]) % m == 0 for t in range(k))

    bit = {p: b for b, p in enumerate(itertools.combinations(range(n), 2))}
    law: Counter = Counter()

    def finish(points, edges, weight, outside):
        free = []
        for i, j in itertools.combinations(outside, 2):
            if rel(points[i], points[j]):
                edges |= 1 << bit[(i, j)]
            else:
                free.append(bit[(i, j)])
        for coins in itertools.product((0, 1), repeat=len(free)):
            w = weight
            g = edges
            for b, c in zip(free, coins):
                w *= q if c else 1 - q
                g |= c << b
            law[g] += w

    def place(level, S, cpts, off, points, edges, weight, outside):
        if level == len(outside):
            finish(points, edges, weight, outside)
            return
        v = outside[level]
        cands = [p for p in off if p not in points.values()]
        for col in itertools.product((0, 1), repeat=len(S)):
            like = []
            for p in cands:
                w = Fraction(1)
                for c, cp in zip(col, cpts):
                    if rel(p, cp):
                        w *= c
                    else:
                        w *= q if c else 1 - q
                like.append(w)
            total = sum(like)
            if total == 0:
                like, total = [Fraction(1)] * len(cands), len(cands)
            g = edges
            for c, u in zip(col, S):
                g |= c << bit[(min(u, v), max(u, v))]
            for p, w in zip(cands, like):
                if w:
                    step = weight * Fraction(1, 2 ** len(S)) * w / total
                    place(level + 1, S, cpts, off, {**points, v: p}, g, step, outside)

    for rstar in slopes:
        line = [((rstar * b) % m, b) for b in range(m)]
        off = [(a, b) for a in range(m) for b in range(m) if (a, b) not in line]
        for s in range(min(n, m) + 1):
            ps = Fraction(comb(m, s) * comb(m * m - m, n - s), comb(m * m, n))
            for S in itertools.combinations(range(n), s):
                outside = [v for v in range(n) if v not in S]
                clique = sum(1 << bit[p] for p in itertools.combinations(S, 2))
                for cpts in itertools.permutations(line, s):
                    weight = ps / len(slopes) / comb(n, s) / math.perm(m, s)
                    points = dict(zip(S, cpts))
                    place(0, S, cpts, off, points, clique, weight, outside)
    return law


def coin_table(forced: int, bits: int, q: float) -> np.ndarray:
    """Direct-sum law of Ber(q)^bits OR a fixed forced mask: each superset
    x of the mask gets q^|x - mask| (1-q)^(bits - |x|), every other x zero."""
    x = np.arange(1 << bits, dtype=np.int64)
    pop = np.array([v.bit_count() for v in range(1 << bits)])
    ones = pop - forced.bit_count()
    return np.where((x & forced) == forced, q**ones * (1.0 - q) ** (bits - pop), 0.0)


def assert_close(got, want, rel):
    assert np.array_equal(got == 0.0, want == 0.0)
    live = want != 0.0
    assert np.all(np.abs(got[live] - want[live]) <= rel * want[live])


class TestForcedCoinKernel:
    """The exact laws built through ``_or_coins`` against the direct sum
    over forced masks, each term a closed-form power product."""

    @pytest.mark.parametrize(
        "n,m,mode,k",
        [(4, 3, "grid", 2), (5, 3, "grid", 2), (3, 5, "lines", 2), (4, 5, "lines", 2),
         (3, 7, "lines", 3)],
    )
    def test_null_law_matches_direct_sum(self, n, m, mode, k):
        q = grid_rate(m) if mode == "grid" else line_rate(m, k)
        pts = [(a, b) for a in range(m) for b in range(m)]
        rel = related(pts, pts, mode, m, k)
        pairs = list(itertools.combinations(range(n), 2))
        tally = Counter(
            sum(1 << b for b, (i, j) in enumerate(pairs) if rel[assign[i], assign[j]])
            for assign in itertools.permutations(range(m * m), n)
        )
        total = sum(tally.values())
        want = sum(c / total * coin_table(f, len(pairs), q) for f, c in tally.items())
        assert_close(exact_null_law(n, m, mode, k), want, 1e-14)

    @pytest.mark.parametrize(
        "mode,m,k,s", [("grid", 5, 2, 3), ("lines", 7, 2, 3), ("lines", 11, 3, 4)]
    )
    def test_column_likelihoods_match_direct_sum(self, mode, m, k, s):
        """``_weight_rows`` over all 2^s columns gives each free candidate
        the coin table of the clique coordinates it forces."""
        q = grid_rate(m) if mode == "grid" else line_rate(m, k)
        planted = (0, 0) if mode == "grid" else (1, 0)
        clique = tuple(structure_points(planted, m)[:s])
        state = AssignmentState(mode, m, k, q, planted, clique)
        columns = ((np.arange(1 << s)[:, None] >> np.arange(s)) & 1).astype(bool)
        tables = _weight_rows(state, columns)[:, state.free].T
        off = np.flatnonzero(state.free)
        assert len(tables) == len(off) == m * m - m
        for row, i in zip(tables, off.tolist()):
            hits = related([divmod(i, m)], clique, mode, m, k)[0]
            jmask = sum(1 << j for j in range(s) if hits[j])
            assert_close(row, coin_table(jmask, s, q), 1e-14)


class TestHypergeometricExpectation:
    def test_single_draw_is_zero(self):
        assert hg_expectation(1, 5, 12) == 0.0

    def test_exact_fifteenth(self):
        assert hg_expectation(2, 3, 10) == 1 / 15

    def test_small_case_below_bound(self):
        assert hg_expectation(2, 3, 20) <= hg_bound(3, 3, 20) == pytest.approx(0.81)

    def test_domination_sample(self):
        for k, s, m in [(2, 4, 16), (3, 5, 25), (4, 3, 40), (6, 6, 64)]:
            if 2 * (k - 1) * s <= m:
                assert hg_expectation(k - 1, s, m) <= hg_bound(k, s, m) + 1e-12

    def test_bound_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            hg_bound(6, 12, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            hg_expectation(5, 3, 2)


class TestPinsker:
    def test_values(self):
        assert tv_from_kl(0.0) == 0.0
        assert tv_from_kl(2.0) == 1.0
        assert tv_from_kl(0.02) == pytest.approx(0.1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tv_from_kl(-1e-9)


class TestJaccardExperiments:
    def test_named_pairs_only_and_ci95(self):
        """Only the semirandom and coupled models and the recover and
        oracle-line estimators run; the half-width is 1.96 sd / sqrt(t), and
        infinite at one trial."""
        with pytest.raises(ValueError, match="model"):
            jaccard_experiment("classical", "recover", 1, 0, n=20, s=5)
        for estimator in ("refine-oracle", "empty"):
            with pytest.raises(ValueError, match="estimator"):
                jaccard_experiment("semirandom", estimator, 1, 0, n=20, s=5)
        assert jaccard_experiment("semirandom", "recover", 1, 0, n=20, s=5).ci95 == math.inf
        res = jaccard_experiment("semirandom", "recover", 8, 3, n=60, s=10, adversary="random:0.6")
        assert 0.0 < res.mean < 1.0
        sd = float(np.std(res.values, ddof=1))
        assert res.ci95 == pytest.approx(1.96 * sd / math.sqrt(8))

    def test_coupled_trials_respect_size_window(self):
        from pcsemi.analysis import _conditioned_coupled

        for t in range(30):
            inst, _ = _conditioned_coupled(7, t, 50, 11, 3)
            assert 50 / 22 <= len(inst.clique) <= 100 / 11

    def test_empty_size_window_raises(self):
        """[5/22, 10/11] holds no clique size >= 1; rejection never ends."""
        for _ in range(2):  # the window is cached; a refusal must repeat
            with pytest.raises(ValueError, match="window"):
                jaccard_experiment("coupled", "oracle-line", 1, 0, n=5, m=11, k=2)

    def test_oracle_line_pick_contains_v(self):
        inst = gen_coupled(40, 11, 3, 2)
        from pcsemi.graph_model import stream

        for trial in range(10):
            picked = oracle_line_pick(inst, stream(trial, "o"))
            assert inst.revealed in picked

    def test_thread_determinism(self):
        serial = jaccard_experiment("coupled", "oracle-line", 8, 1, n=30, m=11, k=2)
        parallel = jaccard_experiment(
            "coupled", "oracle-line", 8, 1, n=30, m=11, k=2, threads=2
        )
        assert serial.values == parallel.values

    def test_chunked_threads_match_one_thread(self):
        """The pool sends trials in chunks; each trial keeps its own
        substream, so two workers give one worker's values in order."""
        serial = jaccard_experiment("coupled", "recover", 40, 5, n=50, m=11, k=3)
        parallel = jaccard_experiment("coupled", "recover", 40, 5, n=50, m=11, k=3, threads=2)
        assert serial.values == parallel.values

    @pytest.mark.parametrize(
        "threads, trials, workers",
        [(5000, 2, 2), (5000, 40, 8), (3, 40, 3), (5000, 1, None), (1, 40, None)],
    )
    def test_workers_capped_by_trials_and_cpus(self, threads, trials, workers, monkeypatch):
        """The pool starts every worker it is given, so it gets at most one
        per trial and per CPU; one worker runs in process.  A recording
        executor stands in for the pool, so no process starts."""
        import concurrent.futures

        seen, chunks = [], []

        class InProcessPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                chunks.append(chunksize)
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        result = jaccard_experiment(
            "coupled", "oracle-line", trials, 1, n=30, m=11, k=2, threads=threads
        )
        if workers is None:
            assert seen == chunks == []
        else:
            # about four chunks per worker
            assert seen == [workers] and chunks == [-(-trials // (4 * workers))]
        serial = jaccard_experiment("coupled", "oracle-line", trials, 1, n=30, m=11, k=2)
        assert result.values == serial.values

    def test_import_loads_no_process_pool(self):
        """Only ``threads > 1`` needs multiprocessing, so importing the
        package does not pay for it."""
        code = "import sys, pcsemi; print('multiprocessing' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


def build_then_check_coupled(seed, t, n, m, k):
    """Reference for ``_conditioned_coupled``: every attempt builds its whole
    instance and the first whose clique size lies in [n/2m, 2n/m] is kept.
    Also returns the number of rejected attempts."""
    lo, hi = n / (2.0 * m), 2.0 * n / m
    attempt = 0
    while True:
        tseed = stream_seed(seed, "trial", t, attempt)
        inst = gen_coupled(n, m, k, tseed)
        if lo <= len(inst.clique) <= hi:
            return inst, tseed, attempt
        attempt += 1


class TestConditionedCoupled:
    # the last window, [1, 4], has sizes on both of its ends
    @pytest.mark.parametrize("n, m, k", [(50, 11, 3), (30, 11, 2), (55, 11, 5), (22, 11, 2)])
    def test_matches_build_then_check(self, n, m, k):
        """Deciding from the size draw alone keeps the instance and the seed
        the build-then-check loop keeps, byte for byte; rejected attempts
        are seen on every configuration."""
        rejected = 0
        for seed in range(200):
            inst, tseed = _conditioned_coupled(seed, 3, n, m, k)
            ref, ref_tseed, attempts = build_then_check_coupled(seed, 3, n, m, k)
            rejected += attempts
            assert tseed == ref_tseed
            assert inst.graph.rows.tobytes() == ref.graph.rows.tobytes()
            assert inst.clique == ref.clique and inst.revealed == ref.revealed
            assert inst.grid == ref.grid
        assert rejected > 0

    def test_bad_parameters_raise_before_any_draw(self, monkeypatch):
        """The generator's parameter checks run before the rejection loop:
        a bad m, k or n raises on the first call without drawing a size, so
        an attempt rejected on size alone cannot hide it."""
        n, m = 30, 11

        def no_draw(*args):
            raise AssertionError("a clique size was drawn before the parameter checks")

        monkeypatch.setattr("pcsemi.analysis._coupled_size", no_draw)
        for (nn, mm, kk), match in [
            ((n, 12, 2), "prime"),
            ((n, m, 6), "2k <= m"),
            ((n, m, 1), "2 <= k"),
            ((56, m, 2), "m\\(m-1\\)/2"),
            ((0, m, 2), "n >= 1"),
        ]:
            with pytest.raises(ValueError, match=match):
                _conditioned_coupled(0, 0, nn, mm, kk)
