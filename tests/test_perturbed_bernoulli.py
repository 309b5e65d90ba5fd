"""Tests for the perturbed Bernoulli core: pmf forms, transforms,
divergences, and the closed-form KL bound.

Expected values are frozen from independent brute-force oracles written
here (plain loops over coin/perturbation outcomes, double-loop superset
sums), never from the code under test.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsemi.perturbed_bernoulli import (
    MAX_DIM,
    PBSpec,
    bernoulli_lift,
    chi2_exact,
    compare,
    kl_bound,
    kl_exact,
    mobius_invert,
    pb_pmf,
    pb_pmf_fourier,
    pmf_fourier_vector,
    pmf_vector,
    random_spec,
    superset_sum,
)
from pcsemi import perturbed_bernoulli
from pcsemi.perturbed_bernoulli import (
    _TRANSPOSED_FROM,
    _halves,
    _lattice_transform,
    _or_coins,
    _popcounts,
    support_vector,
)


def brute_pmf(spec: PBSpec, x) -> float:
    """Direct sum over perturbation subsets, written independently."""
    total = 0.0
    for jmask, mass in spec.sigma.items():
        if any(x[j] == 0 for j in range(spec.s) if jmask >> j & 1):
            continue
        p = mass
        for j in range(spec.s):
            if not jmask >> j & 1:
                p *= spec.q if x[j] else 1.0 - spec.q
        total += p
    return total


def brute_superset(spec: PBSpec, jmask: int) -> float:
    return sum(m for other, m in spec.sigma.items() if other & jmask == jmask)


def all_states(s):
    return itertools.product([0, 1], repeat=s)


class TestPmf:
    def test_plain_bernoulli(self):
        spec = PBSpec(s=1, q=0.5, sigma={0: 1.0})
        assert pb_pmf(spec, [1]) == 0.5

    def test_forced_perturbation_no_coins(self):
        spec = PBSpec(s=2, q=0.0, sigma={0b01: 1.0})
        assert pb_pmf(spec, [1, 0]) == 1.0
        assert pb_pmf(spec, [1, 1]) == 0.0

    def test_mixed_mass(self):
        """0.5 * q^2 + 0.5 * q at q = 1/4, from enumerating coin and
        perturbation outcomes."""
        spec = PBSpec(s=2, q=0.25, sigma={0: 0.5, 0b01: 0.5})
        assert pb_pmf(spec, [1, 1]) == pytest.approx(0.15625, abs=1e-15)
        assert brute_pmf(spec, [1, 1]) == pytest.approx(0.15625, abs=1e-15)

    def test_dimension_mismatch(self):
        spec = PBSpec(s=2, q=0.5, sigma={0: 1.0})
        with pytest.raises(ValueError):
            pb_pmf(spec, [1])

    def test_normalization_exhaustive(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            s = int(rng.integers(1, 9))
            spec = random_spec(rng, s, float(rng.uniform(0.0, 1.0)))
            total = sum(pb_pmf(spec, x) for x in all_states(s))
            assert total == pytest.approx(1.0, abs=1e-12)
        for _ in range(5):
            spec = random_spec(rng, 12, float(rng.uniform(0.0, 1.0)))
            assert abs(pmf_vector(spec).sum() - 1.0) < 1e-12

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s = int(rng.integers(1, 9))
            spec = random_spec(rng, s, float(rng.uniform(0.0, 1.0)))
            vec = pmf_vector(spec)
            for mask in range(1 << s):
                x = [(mask >> j) & 1 for j in range(s)]
                assert vec[mask] == pytest.approx(brute_pmf(spec, x), abs=1e-12)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            PBSpec(s=1, q=0.5, sigma={0: 0.5})  # masses sum to 0.5
        with pytest.raises(ValueError):
            PBSpec(s=1, q=0.5, sigma={2: 1.0})  # mask outside subsets of {1}
        with pytest.raises(ValueError):
            PBSpec(s=1, q=1.5, sigma={0: 1.0})
        with pytest.raises(ValueError):
            PBSpec(s=1, q=0.5, sigma={0: 1.5, 1: -0.5})
        with pytest.raises(ValueError):
            PBSpec(s=1, q=0.5, sigma={0: 1.0, 1: math.nan})
        with pytest.raises(ValueError):
            PBSpec(s=2, q=0.5, sigma={0: 1.0, 1: math.inf, 2: -math.inf})


def fraction_pmf(spec: PBSpec, mask: int) -> Fraction:
    """Exact rational pmf of one state by direct sum over the forced subsets
    it contains; the float q and masses are taken as exact rationals."""
    q = Fraction(spec.q)
    total = Fraction(0)
    for jmask, mass in spec.sigma.items():
        if mask & jmask == jmask:
            ones = (mask & ~jmask).bit_count()
            total += Fraction(mass) * q**ones * (1 - q) ** (spec.s - mask.bit_count())
    return total


class TestPositiveTermPmf:
    """``pmf_vector`` adds only nonnegative terms, so it holds every state,
    however rare, to rounding relative to its own size."""

    @pytest.mark.parametrize("q", [0.01, 0.1, 0.5, 0.9])
    def test_every_state_matches_exact_rationals(self, q):
        rng = np.random.default_rng(int(q * 100))
        for s in range(1, 9):
            for _ in range(3):
                spec = random_spec(rng, s, q)
                vec = pmf_vector(spec)
                for mask in range(1 << s):
                    exact = fraction_pmf(spec, mask)
                    if exact == 0:
                        assert vec[mask] == 0.0
                    else:
                        assert abs(Fraction(float(vec[mask])) - exact) <= 1e-13 * exact

    def test_disjoint_point_masses_at_max_dim(self):
        """All ones forced against no force: every state but the last has
        probability zero under a, so KL = -ln P_b(all ones) = 20 ln 5 and
        chi2 = (1 - q^20) / q^20."""
        q = 0.2
        a = PBSpec(s=MAX_DIM, q=q, sigma={(1 << MAX_DIM) - 1: 1.0})
        b = PBSpec(s=MAX_DIM, q=q, sigma={0: 1.0})
        assert kl_exact(a, b) == pytest.approx(MAX_DIM * math.log(5.0), rel=1e-12)
        assert chi2_exact(a, b) == pytest.approx((1 - q**MAX_DIM) / q**MAX_DIM, rel=1e-12)

    @pytest.mark.parametrize("s,q", [(16, 0.1), (20, 0.1), (20, 0.2)])
    def test_rarest_state_of_plain_coins(self, s, q):
        vec = pmf_vector(PBSpec(s=s, q=q, sigma={0: 1.0}))
        assert vec.min() >= 0.0
        assert vec.min() == pytest.approx(q**s, rel=1e-12)

    def test_never_negative_up_to_max_dim(self):
        rng = np.random.default_rng(20)
        for s in range(1, MAX_DIM + 1):
            spec = random_spec(rng, s, float(rng.uniform(0.01, 0.2)))
            assert pmf_vector(spec).min() >= 0.0


class TestFourierForm:
    def test_collapses_to_bernoulli(self):
        spec = PBSpec(s=1, q=0.5, sigma={0: 1.0})
        assert pb_pmf_fourier(spec, [0]) == pytest.approx(0.5, abs=1e-15)

    def test_matches_direct_form(self):
        spec = PBSpec(s=2, q=0.25, sigma={0: 0.5, 0b01: 0.5})
        assert pb_pmf_fourier(spec, [1, 1]) == pytest.approx(0.15625, abs=1e-14)

    def test_requires_positive_rate(self):
        spec = PBSpec(s=1, q=0.0, sigma={0: 1.0})
        with pytest.raises(ValueError):
            pb_pmf_fourier(spec, [0])

    def test_pointwise_equality_and_normalization(self):
        rng = np.random.default_rng(7)
        for _ in range(80):
            s = int(rng.integers(1, 11))
            spec = random_spec(rng, s, float(rng.uniform(0.05, 1.0)))
            direct = pmf_vector(spec)
            signed = pmf_fourier_vector(spec)
            np.testing.assert_allclose(signed, direct, atol=1e-12)
            assert abs(signed.sum() - 1.0) < 1e-12


class TestSupersetTransform:
    def test_point_mass_at_empty(self):
        spec = PBSpec(s=3, q=0.5, sigma={0: 1.0})
        stats = superset_sum(spec)
        assert stats[0] == 1.0
        assert all(stats[m] == 0.0 for m in range(1, 8))

    def test_hand_sums(self):
        spec = PBSpec(s=2, q=0.5, sigma={0: 0.5, 0b01: 0.3, 0b11: 0.2})
        stats = superset_sum(spec)
        assert stats[0b01] == pytest.approx(0.5)
        assert stats[0b10] == pytest.approx(0.2)
        assert stats[0b11] == pytest.approx(0.2)

    def test_monotone_under_superset(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            s = int(rng.integers(1, 9))
            stats = superset_sum(random_spec(rng, s, 0.4))
            for mask in range(1 << s):
                for j in range(s):
                    if not mask >> j & 1:
                        assert stats[mask] >= stats[mask | (1 << j)] - 1e-15

    def test_roundtrip_against_double_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            s = int(rng.integers(1, 11))
            spec = random_spec(rng, s, 0.5)
            stats = superset_sum(spec)
            for mask in range(1 << s):
                assert stats[mask] == pytest.approx(
                    brute_superset(spec, mask), abs=1e-12
                )
            back = mobius_invert(stats)
            for mask in range(1 << s):
                assert back.get(mask, 0.0) == pytest.approx(
                    spec.mass(mask), abs=1e-12
                )

    def test_table_is_a_read_only_array(self):
        stats = superset_sum(PBSpec(s=2, q=0.5, sigma={0b11: 1.0}))
        assert isinstance(stats, np.ndarray) and stats.shape == (4,)
        assert not stats.flags.writeable
        assert mobius_invert(stats) == {0b11: 1.0}

    def test_full_singleton_table(self):
        stats = np.array([1.0, 1.0])
        assert mobius_invert(stats) == {1: 1.0}

    def test_invalid_table_rejected(self):
        stats = np.array([1.0, 1.5])
        with pytest.raises(ValueError):
            mobius_invert(stats)

    @given(
        s=st.integers(1, 7),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, s, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, s, float(rng.uniform(0, 1)), max_support=1 << s)
        back = mobius_invert(superset_sum(spec))
        for mask in range(1 << s):
            assert back.get(mask, 0.0) == pytest.approx(spec.mass(mask), abs=1e-12)


def brute_lattice(values, superset, mobius):
    """Double loop over each state's subsets (or supersets), with the
    inclusion-exclusion sign for the Moebius direction."""
    n = len(values)
    out = []
    for x in range(n):
        total = 0.0
        for y in range(n):
            inside = (y & x == x) if superset else (y & x == y)
            if inside:
                sign = (-1) ** (x ^ y).bit_count() if mobius else 1
                total += sign * values[y]
        out.append(total)
    return np.array(out)


class TestLatticeTransform:
    @pytest.mark.parametrize("superset", [False, True])
    @pytest.mark.parametrize("mobius", [False, True])
    def test_matches_brute_force(self, superset, mobius):
        rng = np.random.default_rng(5)
        op = np.subtract if mobius else np.add
        for s in range(1, 7):
            values = rng.integers(-9, 10, size=1 << s).astype(float)
            got = _lattice_transform(values.copy(), op, superset=superset)
            assert np.array_equal(got, brute_lattice(values, superset, mobius))

    def test_works_in_place(self):
        values = np.arange(8, dtype=float)
        assert _lattice_transform(values, np.add) is values
        assert values[7] == sum(range(8))

    @pytest.mark.parametrize("superset", [False, True])
    def test_roundtrip_at_max_dim(self, superset):
        values = np.random.default_rng(MAX_DIM).integers(0, 10, size=1 << MAX_DIM).astype(float)
        work = _lattice_transform(values.copy(), np.add, superset=superset)
        assert not np.array_equal(work, values)
        _lattice_transform(work, np.subtract, superset=superset)
        assert np.array_equal(work, values)


def plain_halves(out):
    """Every bit of the last axis in place on ``out``, one strided pass each:
    the layout the transposed low-bit walk of ``_halves`` must reproduce."""
    for b in range(out.shape[-1].bit_length() - 1):
        v = out.reshape(-1, 2, 1 << b)
        yield v[:, 0, :], v[:, 1, :]


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestHalvesLayout:
    """Every caller of ``_halves`` gives the same bytes as with a plain
    per-bit loop, below and above the dimension where the low bits move to
    a transposed copy, on single tables and on stacks."""

    @staticmethod
    def both(monkeypatch, run):
        """``run()`` through ``_halves``, then through ``plain_halves``."""
        got = run()
        with monkeypatch.context() as m:
            m.setattr(perturbed_bernoulli, "_halves", plain_halves)
            want = run()
        return got, want

    @staticmethod
    def tables(s):
        rng = np.random.default_rng(s)
        yield rng.random(1 << s) - 0.5
        if s >= _TRANSPOSED_FROM:
            yield rng.random((3, 1 << s)) - 0.5

    @pytest.mark.parametrize("s", range(1, MAX_DIM + 1))
    def test_or_coins_and_lattice_transforms(self, monkeypatch, s):
        q = float(np.random.default_rng(s).uniform(0.05, 0.95))
        calls = [lambda t: _or_coins(t, q)] + [
            lambda t, op=op, sup=sup: _lattice_transform(t, op, superset=sup)
            for op in (np.add, np.subtract)
            for sup in (False, True)
        ]
        for table in self.tables(s):
            for fn in calls:
                assert same_bytes(*self.both(monkeypatch, lambda: fn(table.copy())))

    @pytest.mark.parametrize("s", range(1, MAX_DIM + 1))
    def test_fourier_contraction(self, monkeypatch, s):
        rng = np.random.default_rng(100 + s)
        spec = random_spec(rng, s, float(rng.uniform(0.05, 0.95)), max_support=64)
        assert same_bytes(*self.both(monkeypatch, lambda: pmf_fourier_vector(spec)))

    @pytest.mark.parametrize("s", [_TRANSPOSED_FROM, MAX_DIM])
    def test_low_bits_walk_a_copy(self, s):
        """Above the threshold the first passes really run off ``out``, and
        the whole walk still ends in it."""
        out = np.zeros(1 << s)
        walk = _halves(out)
        lo, hi = next(walk)
        assert not np.shares_memory(lo, out)
        hi += 1.0
        for _ in walk:
            pass
        assert np.array_equal(out, np.arange(1 << s) & 1)


def old_support(spec):
    """The float form ``support_vector`` had before it moved to booleans."""
    s, q = spec.s, spec.q
    carriers = np.zeros(1 << s)
    for mask, mass in spec.sigma.items():
        if mass > 0.0:
            carriers[mask] = 1.0
    if q == 0.0:
        return carriers > 0.0
    if q == 1.0:
        out = np.zeros(1 << s, dtype=bool)
        out[(1 << s) - 1] = carriers.sum() > 0.0
        return out
    return _lattice_transform(carriers, np.add) > 0.0


def zero_mass_spec(rng, s, q):
    """A random law plus one listed mask of mass exactly zero, which must not
    count as support."""
    spec = random_spec(rng, s, q, max_support=min(1 << s, 2 * s + 2))
    sigma = dict(spec.sigma)
    free = next((m for m in range(1 << s) if m not in sigma), None)
    if free is not None:
        sigma[free] = 0.0
    return PBSpec(s=s, q=q, sigma=sigma)


class TestSupportVector:
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 1.0])
    def test_matches_enumerated_up_closure(self, q):
        rng = np.random.default_rng(int(q * 10))
        for s in range(1, 9):
            for _ in range(5):
                spec = zero_mass_spec(rng, s, q)
                carriers = [m for m, mass in spec.sigma.items() if mass > 0.0]
                full = (1 << s) - 1
                want = []
                for x in range(1 << s):
                    if q == 0.0:
                        want.append(x in carriers)
                    elif q == 1.0:
                        want.append(x == full)
                    else:
                        want.append(any(j & x == j for j in carriers))
                got = support_vector(spec)
                assert got.dtype == bool
                assert got.tolist() == want

    @pytest.mark.parametrize("s", [12, 18, 20])
    @pytest.mark.parametrize("q", [0.0, 0.4, 1.0])
    def test_matches_float_form(self, s, q):
        rng = np.random.default_rng(s)
        for _ in range(3):
            spec = zero_mass_spec(rng, s, q)
            assert same_bytes(support_vector(spec), old_support(spec))


class TestPowerLookup:
    """``kl_bound`` looks the per-state powers base^k up in a table of the
    s + 1 distinct exponents instead of raising the base to a 2^s-entry
    exponent array; the two must agree bit for bit."""

    @pytest.mark.parametrize("s", [2, 8, 14, 16, 18, 20])
    def test_table_equals_elementwise_power(self, s):
        rng = np.random.default_rng(s)
        pop = _popcounts(s)
        exps = np.arange(s + 1)
        for q in rng.uniform(0.0, 1.0, size=64):
            assert np.array_equal(((1.0 - q) ** (s - exps))[pop], (1.0 - q) ** (s - pop))
        for ratio in rng.uniform(0.0, 9.0, size=64):
            base = ratio * max(1.0, ratio)
            assert np.array_equal((base**exps)[pop], base**pop)

    def test_functions_match_elementwise_power(self):
        rng = np.random.default_rng(41)
        for s in (2, 8, 14):
            pop = _popcounts(s)
            for _ in range(8):
                q = float(rng.uniform(0.05, 0.95))
                a = random_spec(rng, s, q)
                b = random_spec(rng, s, q, include_empty=True)
                ratio = (1.0 - q) / q
                diff = superset_sum(a) - superset_sum(b)
                expected = float(np.dot((ratio * max(1.0, ratio)) ** pop, diff**2) / b.mass(0))
                assert kl_bound(a, b) == expected


class TestBernoulliLift:
    def test_no_lift_is_point_mass(self):
        spec = bernoulli_lift(0.3, 0.3, 4)
        assert spec.sigma == {0: pytest.approx(1.0)}

    def test_quarter_to_half(self):
        spec = bernoulli_lift(0.25, 0.5, 1)
        assert spec.mass(0b1) == pytest.approx(1 / 3, abs=1e-15)
        assert spec.mass(0) == pytest.approx(2 / 3, abs=1e-15)
        assert pb_pmf(spec, [1]) == pytest.approx(0.5, abs=1e-15)

    def test_pmf_is_product_law(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            s = int(rng.integers(1, 9))
            q = float(rng.uniform(0.0, 0.9))
            qp = float(rng.uniform(q, 1.0))
            spec = bernoulli_lift(q, qp, s)
            vec = pmf_vector(spec)
            for mask in range(1 << s):
                ones = mask.bit_count()
                assert vec[mask] == pytest.approx(
                    qp**ones * (1 - qp) ** (s - ones), abs=1e-12
                )

    def test_lift_to_fair_coins_at_large_dimension(self):
        """The 2^s rounded masses pass the mass-sum check: summed naively
        they missed 1 by more than 1e-12 at these (s, q)."""
        for s, q in ((17, 0.15), (17, 0.4), (18, 0.2), (18, 0.35)):
            spec = bernoulli_lift(q, 0.5, s)
            assert len(spec.sigma) == 1 << s

    def test_rejects_unit_base(self):
        with pytest.raises(ValueError):
            bernoulli_lift(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            bernoulli_lift(0.6, 0.5, 2)


class TestExactDivergences:
    def test_identical_laws(self):
        spec = PBSpec(s=3, q=0.4, sigma={0: 0.7, 0b101: 0.3})
        assert kl_exact(spec, spec) == 0.0
        assert chi2_exact(spec, spec) == 0.0

    def test_two_state_kl(self):
        a = PBSpec(s=1, q=0.5, sigma={0: 1.0})
        b = PBSpec(s=1, q=0.5, sigma={0: 0.75, 0b1: 0.25})
        expected = 0.5 * math.log(0.5 / 0.625) + 0.5 * math.log(0.5 / 0.375)
        assert kl_exact(a, b) == pytest.approx(expected, abs=1e-14)

    def test_two_state_chi2(self):
        a = PBSpec(s=1, q=0.5, sigma={0: 1.0})
        b = PBSpec(s=1, q=0.5, sigma={0: 0.75, 0b1: 0.25})
        expected = 0.125**2 / 0.625 + 0.125**2 / 0.375
        assert chi2_exact(a, b) == pytest.approx(expected, abs=1e-14)

    def test_full_support_stays_finite(self):
        a = PBSpec(s=1, q=0.5, sigma={0b1: 1.0})
        b = PBSpec(s=1, q=0.5, sigma={0: 1.0})
        assert math.isfinite(kl_exact(a, b))

    def test_support_escape_is_infinite(self):
        a = PBSpec(s=1, q=0.0, sigma={0b1: 1.0})
        b = PBSpec(s=1, q=0.0, sigma={0: 1.0})
        assert kl_exact(a, b) == math.inf
        assert chi2_exact(a, b) == math.inf

    def test_dimension_mismatch(self):
        a = PBSpec(s=1, q=0.5, sigma={0: 1.0})
        b = PBSpec(s=2, q=0.5, sigma={0: 1.0})
        with pytest.raises(ValueError):
            kl_exact(a, b)

    def test_kl_dominated_by_chi2(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            s = int(rng.integers(1, 9))
            q = float(rng.uniform(0.05, 0.95))
            a = random_spec(rng, s, q)
            b = random_spec(rng, s, q, include_empty=True)
            assert kl_exact(a, b) <= chi2_exact(a, b) + 1e-9


class TestKLBound:
    def test_identical_laws_give_zero(self):
        spec = PBSpec(s=2, q=0.4, sigma={0: 0.6, 0b01: 0.4})
        assert kl_bound(spec, spec) == pytest.approx(0.0, abs=1e-15)

    def test_single_coordinate_squared_mass(self):
        """At q = 1/2 against pure coins the bound is exactly p^2."""
        for p in (0.1, 0.3, 0.7):
            a = PBSpec(s=1, q=0.5, sigma={0: 1 - p, 0b1: p})
            b = PBSpec(s=1, q=0.5, sigma={0: 1.0})
            assert kl_bound(a, b) == pytest.approx(p * p, abs=1e-14)
            assert kl_exact(a, b) <= p * p + 1e-9

    def test_requires_shared_rate(self):
        a = PBSpec(s=1, q=0.4, sigma={0: 1.0})
        b = PBSpec(s=1, q=0.5, sigma={0: 1.0})
        with pytest.raises(ValueError):
            kl_bound(a, b)

    def test_requires_empty_set_mass(self):
        a = PBSpec(s=1, q=0.5, sigma={0: 1.0})
        b = PBSpec(s=1, q=0.5, sigma={0b1: 1.0})
        with pytest.raises(ValueError):
            kl_bound(a, b)

    def test_overflowing_weights(self):
        """At q = 1e-100, c(q)^|J| overflows from |J| = 2.  An infinite
        weight on a nonzero difference gives +inf, never NaN; on zero
        differences it drops out, leaving the finite terms.  No warning."""
        b = PBSpec(s=4, q=1e-100, sigma={0: 0.5, 0b01: 0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = PBSpec(s=4, q=1e-100, sigma={0b11: 0.5, 0b01: 0.5})
            assert kl_exact(far, b) == pytest.approx(115.13, abs=0.01)
            assert kl_bound(far, b) == math.inf
            near = PBSpec(s=4, q=1e-100, sigma={0b10: 0.5, 0b01: 0.5})
            c = (1 - 1e-100) / 1e-100 * ((1 - 1e-100) / 1e-100)
            # only S({2}) - T({2}) = 1/2 is nonzero, at weight c
            assert kl_bound(near, b) == pytest.approx(c * 0.25 / 0.5, rel=1e-12)
            assert kl_exact(near, b) <= kl_bound(near, b)

    def test_dominates_exact_kl(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            s = int(rng.integers(2, 9))
            q = float(rng.uniform(0.1, 0.9))
            a = random_spec(rng, s, q)
            if rng.random() < 0.5:
                b = random_spec(rng, s, q, include_empty=True)
            else:
                b = bernoulli_lift(q, float(rng.uniform(q, 0.95)), s)
            report = compare(a, b)
            assert report.kl_exact <= report.bound + 1e-9
            assert report.slack == pytest.approx(report.bound - report.kl_exact)
