"""Perturbed Bernoulli distributions.

A perturbed Bernoulli law ``PB(q, sigma)`` over binary vectors in {0,1}^s is
sampled by drawing s independent Ber(q) coordinates, drawing a subset J of
{1..s} with probability sigma(J), and forcing the coordinates in J to one.
Subsets are encoded as bit masks, the one encoding used throughout: bit
``j`` set means coordinate ``j+1`` belongs to the subset, so mask 0 is the
empty set.

Provided here: the exact pmf in two algebraically distinct forms (the direct
sum over perturbations and a signed product form driven by superset
statistics), exact KL and chi-squared divergences by full state
enumeration (s <= 20), and a closed-form KL upper bound expressed through the
superset statistics ``S(J) = sum_{J' >= J} sigma(J')``, which
``superset_sum`` returns as a read-only 2^s array indexed by mask and
``mobius_invert`` turns back into masses.  Every 2^s-state
table is built one coordinate at a time over ``_halves``: subset sums by
``_lattice_transform``, and every "Ber(q) coins OR a forced subset" law
by ``_or_coins``.  From s = 12 ``_halves`` walks the six lowest
coordinates on one transposed copy of the table, so that no pass runs
short inner loops; the bytes are those of the plain walk.  The support is
an up-closure of booleans by the same transform with ``np.logical_or``.

A law's own tables (pmf, superset sums, support) start from its sparse
masses (``_sparse_table``).  The coordinates below a split bit t only mix
entries inside a row-block, the 2^t entries that share the bits >= t, so
they run on a stack of the H row-blocks that hold a mass; the stack is
then scattered into the zero table and coordinates t..s-1 run on all of
it.  Each other entry is +0.0 (or False) before and after those first
passes, so the bytes are those of the full walk.  t is the largest with
H * 2^t <= 2^s / 8; a law with more than 2^s / 8 masses has none and
takes the full walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

MAX_DIM = 20
IDENTITY_TOL = 1e-12
INEQUALITY_TOL = 1e-9


def _validate_dim(s: int) -> None:
    if not 1 <= s <= MAX_DIM:
        raise ValueError(f"dimension s={s} outside [1, {MAX_DIM}]")


@dataclass(frozen=True)
class PBSpec:
    """A perturbed Bernoulli distribution: base rate plus sparse subset masses.

    ``sigma`` maps subset bit masks to probability masses; absent masks carry
    mass exactly zero.  Masses must be finite, nonnegative and sum to one
    within 1e-12; the sum is exactly rounded (``math.fsum``), so the check
    holds at every dimension up to ``MAX_DIM``.
    """

    s: int
    q: float
    sigma: Mapping[int, float]

    def __post_init__(self):
        _validate_dim(self.s)
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"base rate q={self.q} outside [0, 1]")
        clean = {}
        for mask, mass in self.sigma.items():
            mask = int(mask)
            if not 0 <= mask < (1 << self.s):
                raise ValueError(f"mask {mask} is not a subset of 1..{self.s}")
            if not math.isfinite(mass) or mass < 0.0:
                raise ValueError(f"mass {mass} at mask {mask} is not finite and nonnegative")
            clean[mask] = float(mass)
        total = math.fsum(clean.values())
        if abs(total - 1.0) > IDENTITY_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1")
        object.__setattr__(self, "sigma", clean)

    def mass(self, mask: int) -> float:
        return self.sigma.get(mask, 0.0)


@dataclass(frozen=True)
class DivergenceReport:
    """Exact divergences next to the closed-form bound and its slack."""

    kl_exact: float
    chi2_exact: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.kl_exact


@lru_cache(maxsize=None)
def _popcounts(s: int) -> np.ndarray:
    return np.array([m.bit_count() for m in range(1 << s)], dtype=np.int64)


# ``_halves`` walks the low 6 bits of tables with s >= 12 on a transposed
# copy; 5 to 8 low bits timed alike at s = 14-18.  Smaller tables, like the
# coupling's likelihood rows (s <= 10), keep the plain walk.
_LOW_BITS = 6
_TRANSPOSED_FROM = 12


def _halves(out: np.ndarray, first: int = 0):
    """Per bit b >= ``first`` of the last axis, in order, the (bit b clear,
    bit b set) halves of every block as views that the caller updates in
    place.  ``out`` must be C-contiguous, so each reshape is a view and not
    a copy; a stack of tables is walked as one.

    A pass over bit b of ``out`` itself runs 2^(s-b-1) inner loops of 2^b
    elements, so from s = ``_TRANSPOSED_FROM`` the low ``_LOW_BITS`` bits are
    walked on one contiguous copy with the index transposed to (low bits,
    high bits), where each of those loops holds at least 2^(s - _LOW_BITS)
    elements.  Every entry still sees the same operations in the same bit
    order, so the result is the same to the last bit.  The copy is written
    back into ``out`` only when the loop asks for the first high bit: the
    caller must run the loop to its end, as ``_lattice_transform``,
    ``_or_coins`` and ``pmf_fourier_vector`` do.  A walk that starts at
    ``first`` >= ``_LOW_BITS`` makes no copy; ``_sparse_table`` starts the
    walk of its full table at its split bit.
    """
    s = out.shape[-1].bit_length() - 1
    low = _LOW_BITS if s >= _TRANSPOSED_FROM else 0
    if first < low:
        rows = out.reshape(-1, 1 << (s - low), 1 << low)
        work = rows.transpose(0, 2, 1).copy()  # bit b of out is bit b + s - low here
        for b in range(s - low + first, s):
            v = work.reshape(-1, 2, 1 << b)
            yield v[:, 0, :], v[:, 1, :]
        rows[...] = work.transpose(0, 2, 1)
    for b in range(max(first, low), s):
        v = out.reshape(-1, 2, 1 << b)
        yield v[:, 0, :], v[:, 1, :]


def _lattice_transform(
    out: np.ndarray, op, superset: bool = False, first: int = 0
) -> np.ndarray:
    """Yates' fast zeta transform over the subset lattice, in place on ``out``.

    With ``op=np.add`` each entry x becomes the sum of the input over the
    subsets of x (over its supersets when ``superset`` is set); with
    ``np.subtract`` it is the inverse, the Moebius transform.  Each pass folds
    one half of ``_halves`` into the other with one contiguous ufunc call;
    the passes start at coordinate ``first``.
    """
    for lo, hi in _halves(out, first):
        if superset:
            op(lo, hi, out=lo)
        else:
            op(hi, lo, out=hi)
    return out


def _or_coins(table: np.ndarray, q: float, first: int = 0) -> np.ndarray:
    """OR Ber(q) coins into forced-subset masses, in place over the last axis:
    entry x becomes sum over J subset x of table[J] q^|x - J| (1-q)^(N - |x|).
    One pass ``hi += q lo; lo *= 1 - q`` per coordinate, from coordinate
    ``first``, adds only nonnegative terms, so no entry can cancel."""
    for lo, hi in _halves(table, first):
        hi += q * lo
        lo *= 1.0 - q
    return table


# The stack of mass-holding row-blocks may hold at most 2^s / 2^_SPLIT_SHARE
# entries; 2 and 3 timed alike on pb-divergence laws at s = 14-18, 1, 4 and
# 5 slower.
_SPLIT_SHARE = 3


def _split_bit(s: int, masks: np.ndarray) -> int:
    """The largest t >= 1 whose mass-holding row-blocks (the blocks of 2^t
    entries that share the bits >= t) hold at most 2^(s - _SPLIT_SHARE)
    entries in all, or 0 when no t does.  Every block holds at most 2^t
    masks, so more than 2^(s - _SPLIT_SHARE) masks rule out every t, and a
    dense law is refused by its length alone."""
    cap = s - _SPLIT_SHARE
    if cap < 1 or len(masks) > 1 << cap:
        return 0
    order = sorted(masks.tolist())
    # two masks adjacent in order lie in different row-blocks of 2^t exactly
    # when the highest bit at which they differ is >= t
    tops = sorted(((a ^ b).bit_length() for a, b in zip(order, order[1:])), reverse=True)
    apart = 0
    for t in range(cap, 0, -1):
        while apart < len(tops) and tops[apart] > t:
            apart += 1
        if (apart + 1) << t <= 1 << cap:
            return t
    return 0


def _sparse_table(s: int, masks: np.ndarray, values, walk) -> np.ndarray:
    """The 2^s table that holds ``values`` at ``masks`` and zero elsewhere,
    through ``walk(table, first)``, a subset walk in place over coordinates
    ``first`` onwards of a 1-D table.

    With a split bit t (``_split_bit``), coordinates 0..t-1 run first on a
    stack of the H row-blocks that hold a mask, then coordinates t..s-1 on
    the whole table once the stack is scattered into it.  The stack is one
    table of 2^(t + r) entries, r = ceil(log2 H): its low r bits number the
    row-block and its bits r.. are coordinates 0..t-1, so its walk from bit
    r has inner loops of at least 2^r entries where a stack of rows would
    have loops of one.  The walk must leave a zero row-block zero
    (0 * q, 0 + 0 and 0 | 0 do), so every entry ends as in the walk of the
    whole table from coordinate 0."""
    dtype = np.result_type(values)
    table = np.zeros(1 << s, dtype)
    t = _split_bit(s, masks)
    if not t:
        table[masks] = values
        return walk(table, 0)
    highs = (masks >> t).tolist()
    rows = {high: row for row, high in enumerate(dict.fromkeys(highs))}
    r = (len(rows) - 1).bit_length()
    stack = np.zeros(1 << (t + r), dtype)
    stack[((masks & ((1 << t) - 1)) << r) | [rows[high] for high in highs]] = values
    walk(stack, r)
    table.reshape(-1, 1 << t)[list(rows)] = stack.reshape(1 << t, 1 << r)[:, :len(rows)].T
    return walk(table, t)


def _masses(spec: PBSpec) -> tuple[np.ndarray, np.ndarray]:
    """The listed masks of ``spec`` and their masses, as two arrays."""
    n = len(spec.sigma)
    return np.fromiter(spec.sigma, np.int64, n), np.fromiter(spec.sigma.values(), float, n)


def _superset_table(spec: PBSpec) -> np.ndarray:
    """The superset statistics S(J) of ``spec`` as a writable 2^s table."""
    return _sparse_table(
        spec.s, *_masses(spec),
        lambda table, first: _lattice_transform(table, np.add, superset=True, first=first),
    )


def _as_mask(s: int, x: Sequence[int]) -> int:
    """Bit mask of the 0/1 vector x of length s; any other entry is refused."""
    xs = x.tolist() if isinstance(x, np.ndarray) else list(x)
    if len(xs) != s:
        raise ValueError(f"vector length {len(xs)} != dimension {s}")
    mask = 0
    for j, bit in enumerate(xs):
        if bit not in (0, 1):
            raise ValueError(f"coordinate {j + 1} is {bit!r}, not 0/1")
        mask |= int(bit) << j
    return mask


def pb_pmf(spec: PBSpec, x: Sequence[int]) -> float:
    """Exact pmf: sum over subsets J of sigma(J) * 1[x_J = 1] * prod of
    Bernoulli(q) factors on the coordinates outside J."""
    mask = _as_mask(spec.s, x)
    q, s = spec.q, spec.s
    total = 0.0
    for jmask, mass in spec.sigma.items():
        if mask & jmask != jmask:
            continue
        free = mask & ~jmask
        ones = free.bit_count()
        zeros = s - jmask.bit_count() - ones
        total += mass * q**ones * (1.0 - q) ** zeros
    return total


def pmf_vector(spec: PBSpec) -> np.ndarray:
    """Exact pmf over all 2^s states in O(s 2^s): the law is the Ber(q)
    vector OR the random subset, so it is the dense sigma table through
    ``_or_coins``.  Each entry is a sum of nonnegative terms, accurate to a
    few ulps relative even for the rarest states, which a difference form
    (zeta, product, Moebius) cancels to negative or zero values."""
    q = spec.q
    return _sparse_table(spec.s, *_masses(spec), lambda table, first: _or_coins(table, q, first))


def pb_pmf_fourier(spec: PBSpec, x: Sequence[int]) -> float:
    """Signed product form of the pmf, valid for q > 0:

    prod_j q^{x_j} (1-q)^{1-x_j} * sum_J S(J) prod_{j in J} (x_j/q - 1).
    """
    if spec.q <= 0.0:
        raise ValueError("q must be positive for the signed product form")
    mask = _as_mask(spec.s, x)
    return float(pmf_fourier_vector(spec)[mask])


def pmf_fourier_vector(spec: PBSpec) -> np.ndarray:
    """Vectorized signed product form over all states (q > 0).

    Contracts sum_J S(J) prod_{j in J} (x_j/q - 1) one coordinate at a time:
    each pass converts bit j of the array index from "j in J" to "value of
    x_j", so the whole table costs O(s 2^s).
    """
    s, q = spec.s, spec.q
    if q <= 0.0:
        raise ValueError("q must be positive for the signed product form")
    acc = _superset_table(spec)
    factor_one = -1.0 + 1.0 / q  # coordinate in J, x_j = 1
    for absent, present in _halves(acc):
        contracted = absent - present
        present *= factor_one
        present += absent
        absent[...] = contracted
    a = np.arange(s + 1)
    return (q**a * (1.0 - q) ** (s - a))[_popcounts(s)] * acc


def superset_sum(spec: PBSpec) -> np.ndarray:
    """All superset statistics S(J) via the superset zeta transform, as a
    read-only table of 2^s floats indexed by the bit mask of J."""
    values = _superset_table(spec)
    values.flags.writeable = False
    return values


def mobius_invert(values: np.ndarray) -> dict[int, float]:
    """Invert a ``superset_sum`` table back to a mass map keyed by bit mask.

    Raises if the inversion produces a mass below -1e-9, which marks the
    input as not arising from a valid mass function; tiny negative dust from
    rounding (>= -1e-12 scale) is passed through untouched.
    """
    masses = _lattice_transform(np.array(values, dtype=float), np.subtract, superset=True)
    low = masses.min()
    if low < -INEQUALITY_TOL:
        raise ValueError(f"inversion produced mass {low}, not a superset-sum table")
    return {m: float(v) for m, v in enumerate(masses) if v != 0.0}


def bernoulli_lift(q: float, q_prime: float, s: int) -> PBSpec:
    """Represent s independent Ber(q') coordinates as PB(q, sigma).

    Each coordinate is forced independently with probability
    (q'-q)/(1-q), giving sigma(J) = ((q'-q)/(1-q))^|J| ((1-q')/(1-q))^(s-|J|).
    """
    _validate_dim(s)
    if q >= 1.0:
        raise ValueError("q must be < 1 to lift")
    if not 0.0 <= q <= q_prime <= 1.0:
        raise ValueError(f"need 0 <= q <= q' <= 1, got q={q}, q'={q_prime}")
    p_force = (q_prime - q) / (1.0 - q)
    p_skip = (1.0 - q_prime) / (1.0 - q)
    sigma = {}
    for mask in range(1 << s):
        c = mask.bit_count()
        mass = p_force**c * p_skip ** (s - c)
        if mass != 0.0:
            sigma[mask] = mass
    return PBSpec(s=s, q=q, sigma=sigma)


def support_vector(spec: PBSpec) -> np.ndarray:
    """Exact support indicator over all 2^s states (no floating point): the
    masks carrying mass, closed upwards by the coin flips when 0 < q < 1."""
    s, q = spec.s, spec.q
    masks, masses = _masses(spec)
    carriers = masks[masses > 0.0]
    if 0.0 < q < 1.0:
        return _sparse_table(
            s, carriers, True,
            lambda table, first: _lattice_transform(table, np.logical_or, first=first),
        )
    out = np.zeros(1 << s, dtype=bool)
    if q == 0.0:
        out[carriers] = True
    else:
        out[(1 << s) - 1] = len(carriers) > 0
    return out


def _check_pair(a: PBSpec, b: PBSpec) -> None:
    if a.s != b.s:
        raise ValueError(f"dimension mismatch: {a.s} vs {b.s}")


def _pmf_pair(a: PBSpec, b: PBSpec):
    """Prologue shared by the exact divergences: (pa, pb, b's support), each
    pmf over all states and zero off its support, or None when a escapes b's
    support.  Support is decided combinatorially, not from rounded pmf
    values, so the +inf sentinel the callers return for None is exact."""
    _check_pair(a, b)
    sup_a = support_vector(a)
    sup_b = support_vector(b)
    if np.any(sup_a & ~sup_b):
        return None
    pa = np.where(sup_a, pmf_vector(a), 0.0)
    pb = np.where(sup_b, np.maximum(pmf_vector(b), 1e-300), 0.0)
    return pa, pb, sup_b


def _kl_sum(pair) -> float:
    if pair is None:
        return math.inf
    pa, pb, _ = pair
    live = pa > 0.0
    return float(np.sum(pa[live] * np.log(pa[live] / pb[live])))


def _chi2_sum(pair) -> float:
    if pair is None:
        return math.inf
    pa, pb, sup_b = pair
    return float(np.sum((pa[sup_b] - pb[sup_b]) ** 2 / pb[sup_b]))


def kl_exact(a: PBSpec, b: PBSpec) -> float:
    """Exact KL divergence by enumeration; +inf when a escapes b's support.

    Uses the convention 0 * ln 0 = 0.
    """
    return _kl_sum(_pmf_pair(a, b))


def chi2_exact(a: PBSpec, b: PBSpec) -> float:
    """Exact chi-squared divergence sum_x (P_a - P_b)^2 / P_b, +inf sentinel
    on support escape.  Dominates kl_exact whenever both are finite."""
    return _chi2_sum(_pmf_pair(a, b))


def kl_bound(a: PBSpec, b: PBSpec) -> float:
    """Closed-form upper bound on KL(a || b) for laws sharing a base rate:

    (1 / tau(empty)) * sum_J c(q)^|J| (S(J) - T(J))^2,
    c(q) = ((1-q)/q) * max(1, (1-q)/q)

    where S, T are the superset statistics of a and b.  For q <= 1/2 the
    coordinate factor is ((1-q)/q)^2, the classical even-power form; above
    1/2 that form is no longer an upper bound (each squared signed factor
    has second moment (1-q)/q under Ber(q), which exceeds its square), so
    the exact moment is used instead.  Requires identical q in (0, 1) and
    positive empty-set mass in b.

    For q near 0, c(q)^|J| can overflow.  A term whose weight is infinite
    makes the bound +inf where S(J) != T(J), and is left out where they are
    equal, its true value being zero.

    The terms are summed by a numpy reduction, whose order is fixed, and
    not by ``np.dot``: BLAS splits a long dot product across its threads,
    so its last bits depend on the thread count.
    """
    _check_pair(a, b)
    if a.q != b.q:
        raise ValueError(f"base rates differ: {a.q} vs {b.q}")
    q = a.q
    if not 0.0 < q < 1.0:
        raise ValueError(f"bound needs q in (0, 1), got {q}")
    tau0 = b.mass(0)
    if tau0 <= 0.0:
        raise ValueError("bound needs positive empty-set mass in the second law")
    s_stats = superset_sum(a)
    t_stats = superset_sum(b)
    ratio = (1.0 - q) / q
    with np.errstate(over="ignore"):
        per_size = (ratio * max(1.0, ratio)) ** np.arange(a.s + 1)
    weights = per_size[_popcounts(a.s)]
    if np.isinf(per_size).any():
        finite = np.isfinite(weights)
        if np.any(~finite & (s_stats != t_stats)):
            return math.inf
        return float(np.sum(weights[finite] * (s_stats - t_stats)[finite] ** 2) / tau0)
    return float(np.sum(weights * (s_stats - t_stats) ** 2) / tau0)


def compare(a: PBSpec, b: PBSpec) -> DivergenceReport:
    """Exact divergences, from one shared prologue, alongside the
    closed-form bound."""
    pair = _pmf_pair(a, b)
    return DivergenceReport(
        kl_exact=_kl_sum(pair), chi2_exact=_chi2_sum(pair), bound=kl_bound(a, b)
    )


def random_spec(
    rng: np.random.Generator,
    s: int,
    q: float,
    max_support: int | None = None,
    include_empty: bool = False,
) -> PBSpec:
    """Random sparse PB law for property sweeps (support size <= s+1 by
    default, Dirichlet masses)."""
    _validate_dim(s)
    cap = min(max_support or (s + 1), 1 << s)
    size = int(rng.integers(1, cap + 1))
    masks = list(rng.choice(1 << s, size=size, replace=False))
    if include_empty and 0 not in masks:
        masks[0] = 0
        masks = list(dict.fromkeys(masks))
    weights = rng.dirichlet(np.ones(len(masks)))
    return PBSpec(s=s, q=q, sigma={int(m): float(w) for m, w in zip(masks, weights)})
