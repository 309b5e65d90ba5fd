"""Certification of the divergence bounds behind the coupled construction.

Everything here either computes an exact quantity by enumeration (conditional
column laws, one candidate enumeration over the assignment state in both
design modes; joint graph laws at tiny scale; the exhaustive chained bound,
one hypergeometric sum over forced-mask classes in both modes; hypergeometric
expectations; union-bound tails) or evaluates a closed-form bound and pairs
it with the exact value so the inequality can be checked instance by instance.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from types import MappingProxyType

import numpy as np

from .graph_model import (
    AdversarySpec,
    AssignmentState,
    PlantedInstance,
    design_labels,
    gen_coupled,
    gen_semirandom,
    mode_rate,
    related,
    stream,
    stream_seed,
    structure_points,
    _WEIGHT_BLOCK,
    _check_coupled_params,
    _coupled_size,
    _weight_rows,
)
from .perturbed_bernoulli import (
    PBSpec,
    bernoulli_lift,
    kl_exact,  # noqa: F401  unused here; perfbench's tracer test reads analysis.kl_exact
    pmf_vector,
    support_vector,
    _lattice_transform,
    _or_coins,
    _popcounts,
)
from .recovery import jaccard, recover


# ---------------------------------------------------------------------------
# Conditional column laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnLaw:
    """Exact law of the clique column for the next vertex, with the integer
    ingredients needed for rational identity checks.

    ``pi`` holds the per-coordinate singleton superset rates;
    ``sigma_counts`` the exact integer numerators of the subset masses over
    ``denominator``.
    """

    spec: PBSpec
    pi: tuple[float, ...]
    denominator: int
    sigma_counts: dict[int, int]


def column_law(state: AssignmentState) -> ColumnLaw:
    """Column law by full enumeration of the unused off-structure points, in
    either design mode: sigma(J) is the fraction of candidates that force
    exactly the clique coordinates J.  In grid mode J holds at most the one
    coordinate whose column the point lands in.

    The candidates are tallied over the state's forced-mask index, K
    distinct masks per lineage, without sorting them and with no table of
    2^s: ``sigma_counts`` keys the present masks in order of their first
    candidate, and ``pi`` reads the tally times the keys' bits."""
    rows = state.key_rows[state.free]
    denom = len(rows)
    if not denom:
        raise ValueError("no unused off-structure points remain")
    tally = np.bincount(rows, minlength=len(state.keys))
    # the largest of denom - i over the candidates i of each key marks its
    # first candidate
    first = np.zeros(len(tally), dtype=np.intp)
    np.maximum.at(first, rows, np.arange(denom, 0, -1))
    present = tally.nonzero()[0]
    order = present[(-first[present]).argsort()]
    sigma_counts = dict(zip(state.keys[order].tolist(), tally[order].tolist()))
    hits = tally @ state.key_bits  # candidates forcing j
    spec = PBSpec(
        s=len(state.clique_points), q=state.q,
        sigma={mask: c / denom for mask, c in sigma_counts.items()},
    )
    return ColumnLaw(
        spec=spec,
        pi=tuple(c / denom for c in hits.tolist()),
        denominator=denom,
        sigma_counts=sigma_counts,
    )


# the line-mode name, kept for callers written against it
column_law_lines = column_law


def random_prefix_state(
    rng: np.random.Generator, mode: str, m: int, k: int, s: int, d: int
) -> AssignmentState:
    """Random planted structure plus d uniformly drawn prior points, i.e. a
    null-law prefix of length d."""
    q = mode_rate(mode, m, k)
    if mode == "grid":
        planted = (0, 0)
        k = 2
    else:
        rstar = int(rng.integers(k))
        hstar = int(rng.integers(m))
        planted = (rstar, hstar)
    line = structure_points(planted, m)
    cpts = tuple(line[b] for b in rng.permutation(m)[:s].tolist())
    state = AssignmentState(
        mode=mode, m=m, k=k, q=q, planted=planted, clique_points=cpts
    )
    free = np.flatnonzero(state.free)
    if d > len(free):
        raise ValueError(f"prefix length {d} exceeds {len(free)} candidates")
    for idx in free[rng.permutation(len(free))[:d]].tolist():
        state = state.with_point(divmod(idx, m))
    return state


# ---------------------------------------------------------------------------
# Local bounds
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def reference_law(q: float, s: int) -> PBSpec:
    """Fair-coin column law materialized at base rate q, so the closed-form
    bound's shared-rate precondition holds."""
    return bernoulli_lift(q, 0.5, s)


def _law_rows(laws) -> tuple[np.ndarray, np.ndarray]:
    """Dense sigma rows (L, 2^s) and pi rows (L, s) of column laws sharing s."""
    s = laws[0].spec.s
    sigma = np.zeros((len(laws), 1 << s))
    # one scatter for the stack: no law repeats a mask, so no cell is
    # written twice
    counts = [len(law.spec.sigma) for law in laws]
    masks = [mask for law in laws for mask in law.spec.sigma]
    sigma[np.repeat(np.arange(len(laws)), counts), masks] = [
        mass for law in laws for mass in law.spec.sigma.values()
    ]
    return sigma, np.array([law.pi for law in laws])


def _law_tables(ref: PBSpec) -> tuple[float, np.ndarray, np.ndarray]:
    """What ``_kl_rows`` reads of the law it measures against: its base rate,
    its support and its pmf floored at 1e-300 on that support, as
    ``kl_exact`` builds them for its second law; the tables are read-only."""
    support = support_vector(ref)
    pmf = np.where(support, np.maximum(pmf_vector(ref), 1e-300), 0.0)
    support.flags.writeable = False
    pmf.flags.writeable = False
    return ref.q, support, pmf


@lru_cache(maxsize=4)
def _reference_tables(q: float, s: int) -> tuple[float, np.ndarray, np.ndarray]:
    """``_law_tables`` of ``reference_law(q, s)``, built once per (q, s) for
    every column KL taken against it."""
    return _law_tables(reference_law(q, s))


def _kl_rows(sigma: np.ndarray, ref: tuple[float, np.ndarray, np.ndarray]) -> np.ndarray:
    """Exact KL of PB(q, row) against the law whose ``_law_tables`` are
    ``ref`` = (q, support, floored pmf), for each dense sigma row of a
    C-contiguous stack (L, 2^s), 0 < q < 1: one up-closure of the carrying
    masks and one ``_or_coins`` pass.

    Each entry is ``kl_exact`` of its row's law to the last bit: the terms
    are the same elementwise values, a row whose pmf is positive everywhere
    is summed along its contiguous row, as ``np.sum`` sums it, any other row
    over its live entries alone, and a row that escapes the support of
    ``ref`` is +inf."""
    q, ref_support, pb = ref
    if not 0.0 < q < 1.0:
        raise ValueError(f"row KL needs q in (0, 1), got {q}")
    support = _lattice_transform(sigma > 0.0, np.logical_or)
    pa = np.where(support, _or_coins(sigma.copy(), q), 0.0)
    live = pa > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = pa * np.log(pa / pb)
    out = terms.sum(axis=1)
    for i in np.flatnonzero(~live.all(axis=1)).tolist():
        out[i] = np.sum(terms[i][live[i]])
    out[(support & ~ref_support).any(axis=1)] = math.inf
    return out


def _drift_rows(pi: np.ndarray, target: float) -> np.ndarray:
    """sum_j (pi_j - target)^2 per row, summed in Python as the scalar bound
    always was: Python's ``** 2`` is libm ``pow``, which can differ from
    ``x * x`` in the last bit."""
    return np.array([sum((p - target) ** 2 for p in row) for row in pi.tolist()])


def _pair_tail_rows(sigma: np.ndarray) -> np.ndarray:
    """sum over |J| >= 2 of S(J) per row, from one superset transform of the
    stack.  The selected columns are copied to contiguous rows so that each
    row sums as ``np.sum`` sums it alone."""
    s = sigma.shape[1].bit_length() - 1
    stats = _lattice_transform(sigma.copy(), np.add, superset=True)
    return np.ascontiguousarray(stats[:, _popcounts(s) >= 2]).sum(axis=1)


def _grid_bound_rows(pi: np.ndarray, m: int) -> np.ndarray:
    s = pi.shape[1]
    if s > m - 6:
        raise ValueError(f"grid bound needs s <= m - 6, got s={s}, m={m}")
    return 3.0 * s * s / (m - 2) ** 4 + 3.0 * _drift_rows(pi, 1.0 / m)


def _line_bound_rows(pi: np.ndarray, sigma: np.ndarray, n: int, m: int, k: int) -> np.ndarray:
    s = pi.shape[1]
    if 4 * k > m:
        raise ValueError(f"line bound needs k <= m/4, got k={k}, m={m}")
    if 2 * k * (s + 4) > m:
        raise ValueError(f"line bound needs s <= m/(2k) - 4, got s={s}, m={m}, k={k}")
    if 2 * n > m * (m - 1):
        raise ValueError(f"line bound needs n <= m(m-1)/2, got n={n}, m={m}")
    return (
        3.0 * _drift_rows(pi, (k - 1) / m)
        + 12.0 * k**4 * s * s / m**4
        + 12.0 * k**2 / m**2 * _pair_tail_rows(sigma)
    )


def _stacks(items, s: int):
    """``items`` in consecutive lists, each of at most ``_WEIGHT_BLOCK``
    floats (16 MB) when every item becomes a row of 2^s."""
    items = iter(items)
    while block := list(itertools.islice(items, max(1, _WEIGHT_BLOCK >> s))):
        yield block


def column_score_rows(
    sigma: np.ndarray, pi: np.ndarray, q: float, mode: str, n: int, m: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(exact, bound) per row of a stack of column laws sharing (s, q), given
    as dense sigma rows (L, 2^s) and pi rows (L, s): each law's exact KL
    against ``reference_law(q, s)`` and the local bound of ``mode`` on it,
    grid or lines.  Every entry equals the one-law scores to the last bit."""
    if mode == "grid":
        bound = _grid_bound_rows(pi, m)
    else:
        bound = _line_bound_rows(pi, sigma, n, m, k)
    return _kl_rows(sigma, _reference_tables(q, pi.shape[1])), bound


def kl_local_bound_grid(law: ColumnLaw, m: int) -> float:
    """Grid-mode bound on the column KL against fair coins:
    3 s^2 / (m-2)^4 + 3 sum_j (pi_j - 1/m)^2, valid for s <= m - 6."""
    return float(_grid_bound_rows(np.array([law.pi]), m)[0])


def kl_local_bound_lines(law: ColumnLaw, n: int, m: int, k: int) -> float:
    """Line-mode bound on the column KL against fair coins:

    3 sum_j (S({j}) - (k-1)/m)^2 + 12 k^4 s^2 / m^4
        + (12 k^2 / m^2) * sum_{|J| >= 2} S(J)

    valid for k <= m/4, s <= m/(2k) - 4, n <= m(m-1)/2.
    """
    sigma, pi = _law_rows([law])
    return float(_line_bound_rows(pi, sigma, n, m, k)[0])


def pair_tail_mass(law: ColumnLaw) -> float:
    """sum over |J| >= 2 of S(J); equals sum_J (2^|J| - |J| - 1) sigma(J)."""
    return float(_pair_tail_rows(_law_rows([law])[0])[0])


def column_scores(law: ColumnLaw, mode: str, n: int, m: int, k: int) -> tuple[float, float]:
    """(exact, bound): the column's exact KL against fair coins at its base
    rate, and the local bound of ``mode`` on it, grid or lines."""
    exact, bound = column_score_rows(*_law_rows([law]), law.spec.q, mode, n, m, k)
    return float(exact[0]), float(bound[0])


# ---------------------------------------------------------------------------
# Chained bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundLedger:
    """Per-column and aggregate comparison of exact KL against its bound.

    The fields fixed by the configuration (``column_index``, the closed-form
    terms and total, the hypotheses and the Pinsker cap) are built once per
    configuration and shared by its ledgers, so a caller that keeps many
    ledgers holds about 5 KB for each instead of 6 KB (n = 60).  The two
    mappings are read-only views of the shared dicts."""

    mode: str
    n: int
    m: int
    k: int
    s: int
    trials: int
    seed: int
    column_index: tuple[int, ...]
    per_column_exact: tuple[float, ...]
    per_column_bound: tuple[float, ...]
    chained_exact: float
    chained_exact_stderr: float
    chained_bound: float
    chained_bound_stderr: float
    closed_form_terms: Mapping[str, float]
    closed_form_total: float
    hypotheses: Mapping[str, bool]
    tv_pinsker: float


def closed_form_chain_terms(
    mode: str, n: int, m: int, k: int, s: int
) -> tuple[dict[str, float], dict[str, bool]]:
    """Explicit constituent sums of the chained closed-form bound, plus the
    hypotheses under which each aggregation step is justified."""
    if mode == "grid":
        terms = {
            "column_tail": 3.0 * s * s * n / (m - 2) ** 4,
            "occupancy_variance": 6.0 * s * n * n / m**5,
        }
        hyp = {"s_le_m_minus_6": s <= m - 6, "m2_ge_7n": m * m >= 7 * n}
    elif mode == "lines":
        terms = {
            "reference_tail": 12.0 * k**4 * s * s * n / m**4,
            "design_tail": 48.0 * k**4 * s * s * n / m**4,
            "occupancy_variance": 12.0 * k**3 * s * n * n / m**5,
        }
        hyp = {
            "k_le_m_over_4": 4 * k <= m,
            "s_le_m_over_2k_minus_4": 2 * k * (s + 4) <= m,
            "n_plus_m_le_m2_over_2": 2 * (n + m) <= m * m,
            "hg_tail": 2 * (k - 1) * s <= m,
        }
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return terms, hyp


def chained_kl_bound(
    n: int,
    m: int,
    k: int,
    s: int,
    trials: int,
    seed: int,
    mode: str = "grid",
) -> BoundLedger:
    """Monte Carlo estimate, over null-law assignment prefixes, of the summed
    per-column exact KL and of the summed per-column bound, next to the
    closed-form aggregate.

    Exact and bound are evaluated on the same sampled prefixes, so the
    entrywise inequality is inherited by the estimates.  Grid mode has two
    line families, so it runs with k = 2 whatever ``k`` is.
    """
    k = 2 if mode == "grid" else k
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if not 1 <= s < n:
        raise ValueError(f"need 1 <= s < n, got s={s}, n={n}")
    if s > m:
        raise ValueError(f"need s <= m, got s={s}, m={m}")
    cols = n - s
    # a fresh state leaves exactly m^2 - m off-structure points for the prefix
    if cols - 1 > m * m - m:
        raise ValueError(f"need n - s - 1 <= m^2 - m, got n={n}, s={s}, m={m}")
    per_exact = np.zeros((trials, cols))
    per_bound = np.zeros((trials, cols))

    def laws():
        for t in range(trials):
            rng = stream(seed, "chain", t)
            state = random_prefix_state(rng, mode, m, k, s, 0)
            cands = np.flatnonzero(state.free).tolist()
            for idx in range(cols):
                yield column_law(state)
                if idx < cols - 1:
                    pick = cands.pop(int(rng.integers(len(cands))))
                    state = state.with_point(divmod(pick, m))

    done = 0
    for block in _stacks(laws(), s):
        exact, bound = column_score_rows(*_law_rows(block), block[0].spec.q, mode, n, m, k)
        per_exact.flat[done:done + len(block)] = exact
        per_bound.flat[done:done + len(block)] = bound
        done += len(block)
    totals_exact = per_exact.sum(axis=1)
    totals_bound = per_bound.sum(axis=1)
    return BoundLedger(
        mode=mode,
        n=n,
        m=m,
        k=k,
        s=s,
        trials=trials,
        seed=seed,
        per_column_exact=tuple(per_exact.mean(axis=0)),
        per_column_bound=tuple(per_bound.mean(axis=0)),
        chained_exact=float(totals_exact.mean()),
        chained_exact_stderr=float(totals_exact.std(ddof=1) / math.sqrt(trials)),
        chained_bound=float(totals_bound.mean()),
        chained_bound_stderr=float(totals_bound.std(ddof=1) / math.sqrt(trials)),
        **_configuration_fields(mode, n, m, k, s),
    )


@lru_cache(maxsize=16)
def _configuration_fields(mode: str, n: int, m: int, k: int, s: int) -> dict:
    """The ``BoundLedger`` fields that the configuration alone fixes."""
    terms, hyp = closed_form_chain_terms(mode, n, m, k, s)
    total = sum(terms.values())
    # read-only views: the cached dicts are shared by every ledger of the
    # configuration, so a write to one must not reach the others
    return dict(
        column_index=tuple(range(s + 1, n + 1)),
        closed_form_terms=MappingProxyType(terms),
        closed_form_total=total,
        hypotheses=MappingProxyType(hyp),
        tv_pinsker=tv_from_kl(total),
    )


# ---------------------------------------------------------------------------
# Exact joint laws at tiny scale
# ---------------------------------------------------------------------------


_MAX_ASSIGNMENTS = 4_000_000
# table cells the exact coupled law adds up, about a minute of numpy work
_MAX_TABLE_CELLS = 1 << 34
# column laws (or clique-point subsets) exact_chain_rhs may take on.  Stacked,
# a law scores in about 9 us (the 286,628 laws of (22, 7, grid) took 2.5 s on
# a 2-core Xeon), and a line-mode subset builds its state and column_law in
# 52-67 us on the same machine (m = 7, 11 and 13, up to 4 clique points)
_MAX_CHAIN_LAWS = 300_000
_MAX_GRAPH_N = 7  # a graph law is a table of 2^C(n,2) floats, 2^21 at n = 7


def _falling(total: int, take: int) -> int:
    out = 1
    for t in range(take):
        out *= total - t
    return out


def hg_pmf(count: int, draws: int, marked: int, total: int) -> float:
    """P[HG(draws, marked, total) = count], exact rational then rounded."""
    if count < 0 or count > draws:
        return 0.0
    num = comb(marked, count) * comb(total - marked, draws - count)
    if num == 0:
        return 0.0
    return float(Fraction(num, comb(total, draws)))


def _pairs(n: int) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    if not 0 <= n <= _MAX_GRAPH_N:
        raise ValueError(
            f"an exact graph law has 2^C(n,2) states: need 0 <= n <= {_MAX_GRAPH_N}, got n={n}"
        )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return pairs, {p: r for r, p in enumerate(pairs)}


def exact_null_law(n: int, m: int, mode: str = "grid", k: int = 2) -> np.ndarray:
    """Exact null graph law over all 2^C(n,2) graphs, by summing over every
    ordered distinct point assignment.  Translations of Z_m^2 preserve every
    design family, so only those starting at grid index 0 are enumerated,
    each counted m^2 times."""
    pairs, _ = _pairs(n)
    q = mode_rate(mode, m, k)
    if n > m * m:
        raise ValueError(f"need n <= m^2, got n={n}, m={m}")
    total = _falling(m * m, n)
    weight = m * m if n else 1
    if total // weight > _MAX_ASSIGNMENTS:
        raise ValueError(f"state space too large: {total // weight} assignments")
    pts = [(a, b) for a in range(m) for b in range(m)]
    rel = related(pts, pts, mode, m, k).tolist()  # assignments are distinct
    forced_tally: Counter[int] = Counter()
    for tail in itertools.permutations(range(1, m * m), max(n - 1, 0)):
        assign = (0,) + tail  # at n = 0 the one empty assignment, no pairs
        f = 0
        for bit, (i, j) in enumerate(pairs):
            if rel[assign[i]][assign[j]]:
                f |= 1 << bit
        forced_tally[f] += weight
    vec = np.zeros(1 << len(pairs))
    vec[list(forced_tally)] = list(forced_tally.values())
    vec /= total
    return _or_coins(vec, q)


def exact_coupled_law(
    n: int,
    m: int,
    mode: str = "grid",
    k: int = 2,
    size_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Exact coupled graph law: planted structure, hypergeometric clique
    size, fair-coin columns, and column-conditioned point assignments.

    Columns with no compatible candidate (null-probability events) fall back
    to a uniform point draw, keeping the law normalized.  ``size_range``
    restricts the clique-size branches; the returned vector then sums to the
    probability of that window (renormalize for the conditioned law).

    For each (slope, s) one joint table of the r = n - s outside vertices'
    columns and outside-pair edges is built, and every clique vertex set S
    of size s reads its graphs out of that same table.  This is exact: the
    enumeration behind the table never sees which vertex labels hold the
    clique, and S only decides which graph pair each table bit lands on,
    which ``_extraction_arrays`` places.
    """
    pairs, rank = _pairs(n)
    q = mode_rate(mode, m, k)
    if n > m * m:
        raise ValueError(f"need n <= m^2, got n={n}, m={m}")
    size_lo, size_hi = size_range if size_range is not None else (0, n)
    # translations take any planted offset to 0 while preserving the slope
    # relation, so only the slope of the planted line needs enumerating
    slopes = [0] if mode == "grid" else list(range(k))
    slope_weight = 1.0 / len(slopes)

    # the work, counted before any of it starts: per (slope, s), every
    # ordered clique point tuple and ordered tuple of the r = n - s outside
    # vertices' candidates is one leaf, and each leaf adds a
    # 2^(r s) x 2^C(r,2) table
    off = m * m - m
    sizes = [s for s in range(max(size_lo, 0), min(n, m, size_hi) + 1) if n - s <= off]
    leaves = [len(slopes) * _falling(m, s) * _falling(off, n - s) for s in sizes]
    cells = sum(t << ((n - s) * s + comb(n - s, 2)) for s, t in zip(sizes, leaves))
    if sum(leaves) > _MAX_ASSIGNMENTS or cells > _MAX_TABLE_CELLS:
        raise ValueError(
            f"state space too large: {sum(leaves)} point tuples adding {cells} table cells"
        )
    npairs = len(pairs)
    graphs = np.arange(1 << npairs, dtype=np.int64)
    vec = np.zeros(1 << npairs)

    for rstar in slopes:
        line_pts = structure_points((rstar, 0), m)
        free = AssignmentState(mode, m, k, q, (rstar, 0), ()).free
        off_pts = np.stack(np.divmod(np.flatnonzero(free), m), axis=1)
        rel = related(off_pts, off_pts, mode, m, k).tolist()
        for s in sizes:
            ps = hg_pmf(s, n, m, m * m)
            r = n - s
            nn_pairs = list(itertools.combinations(range(r), 2))
            base = slope_weight * ps / comb(n, s) / _falling(m, s) * 0.5 ** (r * s)
            joint = np.zeros((1 << (r * s), 1 << len(nn_pairs)))
            columns = ((np.arange(1 << s)[:, None] >> np.arange(s)) & 1).astype(bool)
            for spts in itertools.permutations(line_pts, s):
                state = AssignmentState(mode, m, k, q, (rstar, 0), spts)
                tables = _weight_rows(state, columns)[:, state.free].T
                _accumulate_tuples(joint, tables, rel, r, nn_pairs, q, base)
            for S in itertools.combinations(range(n), s):
                c_idx, nn_idx, ss_ok = _extraction_arrays(graphs, n, S, rank)
                vec += np.where(ss_ok, joint[c_idx, nn_idx], 0.0)
    return vec


def _extraction_arrays(graphs, n, S, rank):
    """For clique vertex set S, each graph's joint-table cell: the column
    index ``c_idx`` (bit l * s + j: outside vertex l against clique vertex
    j), the outside-pair index ``nn_idx``, and ``ss_ok``, whether the graph
    holds every clique edge."""
    Ss = sorted(S)
    inS = set(S)
    nonS = [u for u in range(n) if u not in inS]
    s = len(Ss)
    c_idx = np.zeros(graphs.size, dtype=np.int64)
    for l, i in enumerate(nonS):
        for j, u in enumerate(Ss):
            p = rank[(min(i, u), max(i, u))]
            c_idx += ((graphs >> p) & 1) << (l * s + j)
    nn_idx = np.zeros(graphs.size, dtype=np.int64)
    for bit, (i, j) in enumerate(itertools.combinations(nonS, 2)):
        nn_idx += ((graphs >> rank[(i, j)]) & 1) << bit
    ss_ok = np.ones(graphs.size, dtype=bool)
    for p in itertools.combinations(Ss, 2):
        ss_ok &= ((graphs >> rank[p]) & 1) == 1
    return c_idx, nn_idx, ss_ok


def _accumulate_tuples(joint, tables, rel, r, nn_pairs, q, base):
    """DFS over ordered tuples of r distinct candidate indices; adds each
    tuple's joint (columns, outside-completion) weight into ``joint``.

    ``tables`` holds in row i candidate i's likelihood of every clique
    column, indexed by bit mask (``_weight_rows``), ``rel[i][j]`` whether
    candidates i and j are related, so that their vertices' edge is forced,
    ``nn_pairs`` the outside-vertex pairs in completion-bit order, ``q`` the
    coin rate of an unforced pair, and ``base`` the weight every tuple
    shares."""
    ncand, csize = tables.shape
    coins: dict[int, np.ndarray] = {}  # completion law per forced mask, built once

    def dfs(used: list, acc: np.ndarray):
        level = len(used)
        if level == r:
            f = 0
            for bit, (l1, l2) in enumerate(nn_pairs):
                if rel[used[l1]][used[l2]]:
                    f |= 1 << bit
            if f not in coins:
                g = np.zeros(1 << len(nn_pairs))
                g[f] = 1.0
                coins[f] = _or_coins(g, q)
            joint[:, :] += (base * acc)[:, None] * coins[f][None, :]
            return
        cands = [i for i in range(ncand) if i not in used]
        norm = np.zeros(csize)
        for i in cands:
            norm += tables[i]
        fallback = 1.0 / len(cands)
        safe = np.where(norm > 0.0, norm, 1.0)
        for i in cands:
            cond = np.where(norm > 0.0, tables[i] / safe, fallback)
            grown = (cond[:, None] * acc[None, :]).ravel() if level else cond
            dfs(used + [i], grown)

    dfs([], np.ones(1))


def exact_joint_kl(n: int, m: int, mode: str = "grid", k: int = 2) -> float:
    """KL between the exact null and coupled graph laws, both enumerated."""
    p0 = exact_null_law(n, m, mode, k)
    p1 = exact_coupled_law(n, m, mode, k)
    for name, vec in (("null", p0), ("coupled", p1)):
        mass = vec.sum()
        if abs(mass - 1.0) > 1e-9:
            raise AssertionError(f"{name} law sums to {mass!r}")
    live = p0 > 0.0
    if np.any(live & (p1 <= 0.0)):
        return math.inf
    return float(np.sum(p0[live] * np.log(p0[live] / p1[live])))


def exact_chain_rhs(n: int, m: int, mode: str = "grid", k: int = 2) -> float:
    """Exhaustive chained bound E_s sum_d E_prefix[column KL], exactly.

    A uniform d-point prefix takes x_f of the N_f free candidates of each
    forced mask f with probability prod_f C(N_f, x_f) / C(N, d), leaving
    sigma(f) = (N_f - x_f) / (N - d); the N_f come from ``column_law`` for
    each slope and clique-point subset of the planted line (offset 0, which
    translations reach from any other), and subsets with the same counts
    share one sum.  Grid mode has one set of counts per size, read from one
    subset and given share exactly 1.0, so its value is the occupancy sum
    over the s clique columns term for term.
    Refused before any law is built above ``_MAX_CHAIN_LAWS`` subsets or
    laws."""
    q = mode_rate(mode, m, k)
    slopes = [0] if mode == "grid" else list(range(k))
    sizes = [s for s in range(1, min(n, m) + 1) if hg_pmf(s, n, m, m * m) > 0.0]
    subsets = len(slopes) * sum(comb(m, s) for s in sizes)
    if subsets > _MAX_CHAIN_LAWS:
        raise ValueError(f"state space too large: {subsets} clique-point subsets")
    def class_counts(r, pts):
        return frozenset(column_law(AssignmentState(mode, m, k, q, (r, 0), pts)).sigma_counts.items())

    # per size: how many (slope, subset) pairs give each set of class counts;
    # in grid mode every s-subset of row 0 gives {1 << j: m - 1, 0: rest}
    if mode == "grid":
        tallies = [Counter({class_counts(0, structure_points((0, 0), m)[:s]): comb(m, s)})
                   for s in sizes]
    else:
        tallies = [Counter(
            class_counts(r, pts)
            for r in slopes for pts in itertools.combinations(structure_points((r, 0), m), s)
        ) for s in sizes]
    laws = sum(sum(_removal_counts([c for _, c in counts], n - s))
               for s, tally in zip(sizes, tallies) for counts in tally)
    if laws > _MAX_CHAIN_LAWS:
        raise ValueError(f"state space too large: {laws} column laws")
    total = 0.0
    for s, tally in zip(sizes, tallies):
        ref = _reference_tables(q, s)
        level = sum(
            share / (len(slopes) * comb(m, s))
            * sum(_expected_column_kl(counts, d, ref) for d in range(n - s))
            for counts, share in tally.items()
        )
        total += hg_pmf(s, n, m, m * m) * level
    return total


def _removal_counts(sizes: list[int], lengths: int) -> list[int]:
    """Coefficients of t^d, d < ``lengths``, in prod_f (1 + t + ... + t^N_f):
    the removal vectors, one column law each, per prefix length d."""
    poly = [int(d == 0) for d in range(lengths)]
    for size in sizes:
        poly = [sum(poly[max(0, d - size):d + 1]) for d in range(lengths)]
    return poly


def _expected_column_kl(counts, d, ref) -> float:
    """E over a uniform d-point prefix of the column KL against the law
    whose ``_law_tables`` are ``ref``, for the (forced mask f, free
    candidates N_f) pairs ``counts``.  The removal vectors run in
    lexicographic order over the nonzero masks ascending and then mask 0,
    which takes whatever the others leave of the prefix."""
    counts = dict(counts)
    masks = sorted(f for f in counts if f) + [0]
    sizes = [counts.get(f, 0) for f in masks]
    room = [sum(sizes[j + 1:]) for j in range(len(sizes))]
    denom = sum(sizes) - d
    total_ways = comb(denom + d, d)

    def rec(j, left, ways, taken):
        if j == len(sizes):  # the last class took all that was left
            yield ways, taken
            return
        for x in range(max(0, left - room[j]), min(sizes[j], left) + 1):
            yield from rec(j + 1, left - x, ways * comb(sizes[j], x), taken + [x])

    # the weighted KLs are added one by one in the order of the removal vectors
    out = 0.0
    s = len(ref[1]).bit_length() - 1  # the support table has 2^s entries
    for block in _stacks(rec(0, d, 1, []), s):
        ways, taken = zip(*block)
        sigma = np.zeros((len(block), 1 << s))
        sigma[:, masks] = (np.array(sizes) - np.array(taken)) / denom
        for w, kl in zip(ways, _kl_rows(sigma, ref).tolist()):
            out += w / total_ways * kl
    return out


# ---------------------------------------------------------------------------
# Hypergeometric expectations and Pinsker
# ---------------------------------------------------------------------------


def hg_expectation(draws: int, marked: int, total: int) -> float:
    """Exact E[2^I - I - 1] for I ~ HG(draws, marked, total), by rational
    summation of the pmf."""
    if not 0 <= draws <= total:
        raise ValueError(f"need 0 <= draws <= total, got draws={draws}, total={total}")
    if not 0 <= marked <= total:
        raise ValueError(f"need 0 <= marked <= total, got marked={marked}, total={total}")
    denom = comb(total, draws)
    acc = Fraction(0)
    for i in range(max(0, draws + marked - total), min(draws, marked) + 1):
        ways = comb(marked, i) * comb(total - marked, draws - i)
        acc += Fraction(ways, denom) * ((1 << i) - i - 1)
    return float(acc)


def hg_bound(k: int, s: int, m: int) -> float:
    """Closed-form cap 4 k^2 s^2 / m^2 on E[2^I - I - 1] for
    I ~ HG(k-1, s, m); requires 2(k-1)s <= m."""
    if 2 * (k - 1) * s > m:
        raise ValueError(f"bound needs 2(k-1)s <= m, got k={k}, s={s}, m={m}")
    return 4.0 * k * k * s * s / (m * m)


def tv_from_kl(kl: float) -> float:
    """Total-variation cap from a KL budget: min(1, sqrt(kl/2))."""
    if kl < 0.0:
        raise ValueError(f"KL must be nonnegative, got {kl}")
    return min(1.0, math.sqrt(kl / 2.0))


# ---------------------------------------------------------------------------
# Jaccard experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    values: tuple[float, ...]
    runtimes: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def ci95(self) -> float:
        trials = len(self.values)
        if trials < 2:
            return math.inf
        return 1.96 * float(np.std(self.values, ddof=1)) / math.sqrt(trials)


def oracle_line_pick(instance: PlantedInstance, rng: np.random.Generator) -> frozenset[int]:
    """Pick one of the revealed vertex's latent line cliques uniformly."""
    cfg = instance.grid
    if cfg is None or cfg.planted_line is None:
        raise ValueError("instance carries no planted grid structure")
    labels = design_labels(cfg.points, cfg.mode, cfg.m, cfg.k)
    r = int(rng.integers(cfg.k))
    return frozenset(np.flatnonzero(labels[:, r] == labels[instance.revealed, r]).tolist())


@lru_cache(maxsize=64)
def _size_window(n: int, m: int) -> tuple[float, float]:
    """The clique size window [n/2m, 2n/m] of the coupled experiment,
    decided once per (n, m); raises when no clique size the generator can
    draw lies in it, where rejection would never stop."""
    lo, hi = n / (2.0 * m), 2.0 * n / m
    if not any(
        lo <= s <= hi and hg_pmf(s, n, m, m * m) > 0.0 for s in range(1, min(n, m) + 1)
    ):
        raise ValueError(
            f"no drawable clique size lies in the window [{lo:g}, {hi:g}] for n={n}, m={m}"
        )
    return lo, hi


def _conditioned_coupled(seed: int, t: int, n: int, m: int, k: int):
    """Coupled instance conditioned on the clique size window
    [n/2m, 2n/m]; out-of-window draws are rejected and redrawn from the
    next attempt substream.  Each attempt decides from the size alone,
    ``_coupled_size`` on its seed, and only an accepted attempt builds its
    instance with ``gen_coupled``, which plants that same size.  Raises, by
    ``_size_window``, when no clique size the generator can draw lies in the
    window."""
    _check_coupled_params(n, m, k)
    lo, hi = _size_window(n, m)
    attempt = 0
    while True:
        tseed = stream_seed(seed, "trial", t, attempt)
        if lo <= _coupled_size(n, m, tseed) <= hi:
            return gen_coupled(n, m, k, tseed), tseed
        attempt += 1


def _experiment_trial(args) -> tuple[float, float]:
    (model, estimator, seed, t, n, s, m, k, adversary) = args
    start = time.perf_counter()
    if model == "semirandom":
        tseed = stream_seed(seed, "trial", t)
        inst = gen_semirandom(n, s, AdversarySpec.parse(adversary), tseed)
    elif model == "coupled":
        inst, tseed = _conditioned_coupled(seed, t, n, m, k)
    else:
        raise ValueError(f"unknown model {model!r}")
    if estimator == "recover":
        guess = recover(inst.graph, inst.revealed, len(inst.clique)).vertices
    elif estimator == "oracle-line":
        guess = oracle_line_pick(inst, stream(tseed, "oracle"))
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return jaccard(guess, inst.clique), time.perf_counter() - start


def jaccard_experiment(
    model: str,
    estimator: str,
    trials: int,
    seed: int,
    *,
    n: int,
    s: int | None = None,
    m: int | None = None,
    k: int | None = None,
    adversary: str = "empty",
    threads: int = 1,
) -> ExperimentResult:
    """Seeded trials of (generate instance, estimate clique, score Jaccard).

    ``model`` is ``semirandom`` (reads n, s and the adversary) or
    ``coupled`` (reads n, m and k, conditioned on the clique size window);
    ``estimator`` is ``recover`` (the recovery rule at the revealed vertex)
    or ``oracle-line`` (one of the revealed vertex's latent line cliques,
    coupled instances only).  Trials derive independent substreams from
    (seed, trial index), so the result is identical for any thread count;
    outputs are ordered by trial index.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got trials={trials}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got threads={threads}")
    args = [(model, estimator, seed, t, n, s, m, k, adversary) for t in range(trials)]
    # the pool starts every worker at its first task, so never more than
    # there are trials or CPUs
    workers = min(threads, trials, os.cpu_count() or 1) if threads > 1 else 1
    if workers > 1:
        # imported here: multiprocessing costs every ``import pcsemi`` about
        # 1 MB of resident memory, and single-threaded runs never use it
        from concurrent.futures import ProcessPoolExecutor

        # about four chunks per worker: one trial per task spends more on
        # the round trip than on the trial
        chunk = -(-trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_experiment_trial, args, chunksize=chunk))
    else:
        rows = [_experiment_trial(a) for a in args]
    values, runtimes = zip(*rows)
    return ExperimentResult(values, runtimes)
