"""Output checks for the benchmark workloads.

Every check recomputes what it needs with its own arithmetic (modular line
algebra, exact rationals, direct-sum pmfs, networkx clique enumeration) or
tests a property the method must have.  None of them calls the code path
whose output it judges.  A check raises ``CheckFailed`` with a one-line
reason; it returns nothing when the output is right.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Line algebra over Z_m and the clique rule
# ---------------------------------------------------------------------------


def aligned(p: Sequence[int], r: Sequence[int], m: int, k: int) -> bool:
    """Some slope t < k puts both grid points on one line a = h + t*b (mod m)."""
    da, db = p[0] - r[0], p[1] - r[1]
    return any((da - t * db) % m == 0 for t in range(k))


def line_through(points: Iterable[Sequence[int]], m: int, k: int) -> tuple[int, int] | None:
    """(slope, offset) of a line of slope < k holding every point, if any."""
    pts = list(points)
    for t in range(k):
        offsets = {(a - t * b) % m for a, b in pts}
        if len(offsets) == 1:
            return t, offsets.pop()
    return None


def overlap_threshold(n: int) -> int:
    """floor(3 log2 n), exactly: the bit length of n^3 less one."""
    return (n**3).bit_length() - 1


def own_jaccard(a: Iterable[int], b: Iterable[int]) -> float:
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def networkx_cliques(adj: np.ndarray, min_size: int) -> set[frozenset[int]]:
    """Maximal cliques of size >= min_size, enumerated by networkx."""
    import networkx as nx

    graph = nx.from_numpy_array(np.asarray(adj, dtype=np.uint8))
    return {frozenset(int(u) for u in c) for c in nx.find_cliques(graph) if len(c) >= min_size}


def unique_good_clique(cliques: set[frozenset[int]], v: int, s: int, n: int) -> frozenset[int]:
    """The recovery rule, restated: among maximal cliques of size >= s, drop
    every pair overlapping in more than floor(3 log2 n) vertices, and return
    the single survivor holding v, or the empty set."""
    thr = overlap_threshold(n)
    big = sorted((c for c in cliques if len(c) >= s), key=sorted)
    bad = set()
    for i, c in enumerate(big):
        for d in big[i + 1 :]:
            if len(c & d) > thr:
                bad.update((c, d))
    holding = [c for c in big if c not in bad and v in c]
    return holding[0] if len(holding) == 1 else frozenset()


# ---------------------------------------------------------------------------
# coupled-lower
# ---------------------------------------------------------------------------


def check_coupled_instance(
    adj: np.ndarray,
    clique: frozenset[int],
    points: Sequence[Sequence[int]],
    n: int,
    m: int,
    k: int,
) -> int:
    """Structure of a window-conditioned coupled instance.

    Checks the clique-size window [n/2m, 2n/m]; that the clique points lie on
    one line of slope < k; that every aligned non-clique pair is an edge; and
    that every aligned clique/non-clique pair is an edge.  The last holds
    whenever some unused off-line point was compatible with the vertex's
    clique column, which the check re-derives by replaying the assignment
    order; steps with no compatible point are the generator's uniform
    fallback and are returned as a count instead.
    """
    adj = np.asarray(adj, dtype=bool)
    members = sorted(clique)
    s = len(members)
    require(2 * m * s >= n and m * s <= 2 * n, f"clique size {s} outside [n/2m, 2n/m] for n={n}, m={m}")
    require(len(points) == n, f"{len(points)} points for {n} vertices")
    pts = [(int(a), int(b)) for a, b in points]
    require(all(0 <= a < m and 0 <= b < m for a, b in pts), "a point lies outside the m x m grid")
    require(len(set(pts)) == n, "two vertices share a grid point")
    line = line_through((pts[v] for v in members), m, k)
    require(line is not None, "clique points do not lie on one line of slope < k")
    t, h = line

    outside = [i for i in range(n) if i not in clique]
    for x, i in enumerate(outside):
        for j in outside[x + 1 :]:
            if aligned(pts[i], pts[j], m, k):
                require(bool(adj[i, j]), f"aligned non-clique pair ({i}, {j}) is not an edge")

    grid = [(a, b) for a in range(m) for b in range(m)]
    index = {p: x for x, p in enumerate(grid)}
    rel = np.array([[aligned(p, pts[c], m, k) for c in members] for p in grid], dtype=bool)
    available = np.array([(a - t * b) % m != h for a, b in grid], dtype=bool)
    fallbacks = 0
    for i in outside:
        require(bool(available[index[pts[i]]]), f"vertex {i} sits on the clique line or a used point")
        column = adj[members, i]
        compatible = available & ~(rel & ~column).any(axis=1)
        if compatible.any():
            for j, c in enumerate(members):
                if rel[index[pts[i]], j]:
                    require(bool(adj[c, i]), f"aligned clique/non-clique pair ({c}, {i}) is not an edge")
        else:
            fallbacks += 1
        available[index[pts[i]]] = False
    return fallbacks


def check_recovered(
    recovered: frozenset[int],
    rule: frozenset[int],
    value: float,
    clique: frozenset[int],
) -> None:
    """The recovered set is the re-derived rule's set, and the reported
    Jaccard score is that set's score against the planted clique."""
    require(recovered == rule, f"recovered {sorted(recovered)} but the rule gives {sorted(rule)}")
    want = own_jaccard(rule, clique)
    require(value == want, f"Jaccard {value!r} but the rule's set scores {want!r}")


# ---------------------------------------------------------------------------
# recovery-n200
# ---------------------------------------------------------------------------


def check_planted_recovery(
    adj: np.ndarray, clique: frozenset[int], v: int, recovered: frozenset[int], truncated: bool
) -> None:
    """The recovered set is a maximal clique holding v and equals the plant."""
    adj = np.asarray(adj, dtype=bool)
    members = sorted(recovered)
    require(not truncated, "enumeration hit its node budget")
    require(v in recovered, f"revealed vertex {v} is not in the recovered set")
    sub = adj[np.ix_(members, members)] | np.eye(len(members), dtype=bool)
    require(bool(sub.all()), "recovered set is not a clique")
    rest = [u for u in range(len(adj)) if u not in recovered]
    extendable = [u for u in rest if adj[u, members].all()]
    require(not extendable, f"recovered clique is not maximal: vertex {extendable[:1]} extends it")
    require(recovered == clique, f"recovered {len(recovered)} vertices, not the planted {len(clique)}")


def check_same_cliques(listed: Iterable[frozenset[int]], reference: set[frozenset[int]]) -> None:
    got = set(listed)
    require(got == reference, f"{len(got - reference)} extra and {len(reference - got)} missing cliques")


# ---------------------------------------------------------------------------
# ledger-lines
# ---------------------------------------------------------------------------


def line_chain_terms(n: int, m: int, k: int, s: int) -> dict[str, Fraction]:
    """The line-mode closed-form chain terms, as exact rationals."""
    return {
        "reference_tail": Fraction(12 * k**4 * s * s * n, m**4),
        "design_tail": Fraction(48 * k**4 * s * s * n, m**4),
        "occupancy_variance": Fraction(12 * k**3 * s * n * n, m**5),
    }


def close(x: float, want: float, rel: float = 1e-12) -> bool:
    return abs(x - want) <= rel * max(1.0, abs(want))


def check_ledger(ledger, n: int, m: int, k: int, s: int, tol: float = 1e-12) -> None:
    """Entrywise exact <= bound, chained exact <= chained bound, every
    hypothesis true, and the closed form equal to its formulas."""
    exact, bound = ledger.per_column_exact, ledger.per_column_bound
    require(len(exact) == n - s and len(bound) == n - s, f"ledger has {len(exact)} columns, not {n - s}")
    for idx, (e, b) in enumerate(zip(exact, bound)):
        require(-tol <= e <= b + tol, f"column {idx + s + 1}: exact {e!r} not in [0, bound {b!r}]")
    require(
        ledger.chained_exact <= ledger.chained_bound + tol,
        f"chained exact {ledger.chained_exact!r} above chained bound {ledger.chained_bound!r}",
    )
    require(close(ledger.chained_exact, math.fsum(exact), 1e-9), "chained exact is not the column sum")
    require(close(ledger.chained_bound, math.fsum(bound), 1e-9), "chained bound is not the column sum")
    failed = [name for name, ok in ledger.hypotheses.items() if not ok]
    require(not failed and ledger.hypotheses, f"hypotheses fail: {failed}")
    want = line_chain_terms(n, m, k, s)
    require(set(ledger.closed_form_terms) == set(want), f"closed-form terms {sorted(ledger.closed_form_terms)}")
    for name, value in want.items():
        got = ledger.closed_form_terms[name]
        require(close(got, float(value)), f"term {name} is {got!r}, formula gives {float(value)!r}")
    total = sum(want.values())
    require(close(ledger.closed_form_total, float(total)), "closed-form total is not the sum of its terms")
    tv = min(1.0, math.sqrt(float(total) / 2.0))
    require(close(ledger.tv_pinsker, tv), f"Pinsker TV {ledger.tv_pinsker!r}, formula gives {tv!r}")


def check_singleton_rates(
    law, clique_points: Sequence[Sequence[int]], prior: Sequence[Sequence[int]], m: int, k: int
) -> None:
    """S({j}) = ((k-1)(m-1) - hits_j) / (m^2 - m - d) in exact rationals.

    The k slope lines through clique point j meet the planted line only
    there, so k - 1 of them carry m - 1 off-line candidates each; hits_j of
    those are already taken by the d prior points.
    """
    d = len(prior)
    denom = m * m - m - d
    require(law.denominator == denom, f"denominator {law.denominator}, expected {denom}")
    require(sum(law.sigma_counts.values()) == denom, "subset counts do not add up to the candidates")
    for j, cp in enumerate(clique_points):
        hits = sum(1 for p in prior if aligned(p, cp, m, k))
        want = Fraction((k - 1) * (m - 1) - hits, denom)
        single = sum(c for mask, c in law.sigma_counts.items() if mask >> j & 1)
        got = Fraction(single, law.denominator)
        require(got == want, f"coordinate {j + 1}: singleton rate {got}, expected {want}")
        require(law.pi[j] == float(want), f"coordinate {j + 1}: pi {law.pi[j]!r} is not {float(want)!r}")


# ---------------------------------------------------------------------------
# pb-divergence
# ---------------------------------------------------------------------------


def popcounts(s: int) -> np.ndarray:
    idx = np.arange(1 << s, dtype=np.int64)
    out = np.zeros(1 << s, dtype=np.int64)
    for b in range(s):
        out += (idx >> b) & 1
    return out


def direct_pmf(q: float, sigma: Mapping[int, float], s: int, pop: np.ndarray | None = None) -> np.ndarray:
    """P(x) = sum_J sigma(J) 1[J <= x] q^(|x|-|J|) (1-q)^(s-|x|), term by term."""
    if pop is None:
        pop = popcounts(s)
    idx = np.arange(1 << s, dtype=np.int64)
    qpow = q ** np.arange(s + 1)
    rpow = (1.0 - q) ** np.arange(s + 1)
    zeros = rpow[s - pop]
    out = np.zeros(1 << s)
    for mask, mass in sigma.items():
        holds = (idx & mask) == mask
        out[holds] += mass * qpow[pop[holds] - int(mask).bit_count()] * zeros[holds]
    return out


def transform_error(q: float, s: int, pop: np.ndarray) -> np.ndarray:
    """First-order bound on the rounding error of each pmf entry computed by
    s-pass subset zeta/Moebius transforms: s * eps times the transform of
    the absolute values, sum over y <= x of (1-q)^(s-|y|), which is
    (1-q)^(s-|x|) (2-q)^|x|.  Summed over the 2^s states it is
    s * eps * (3 - 2q)^s, so the tolerance grows with 2^s."""
    return s * np.finfo(float).eps * (1.0 - q) ** (s - pop) * (2.0 - q) ** pop


def check_divergences(
    q: float,
    sigma_a: Mapping[int, float],
    sigma_b: Mapping[int, float],
    s: int,
    kl: float,
    chi2: float,
    bound: float,
) -> None:
    """KL and chi-squared against a direct-sum pmf over all 2^s states, plus
    kl <= chi2 and kl <= bound (the second law has positive empty-set mass).

    The allowed gap propagates the per-entry transform error through each
    divergence: r = P_a/P_b weighs an error in P_b, |log r| + 1 (KL) or 2r
    (chi-squared) one in P_a, and r^2 one in P_b for chi-squared.
    """
    require(sigma_b.get(0, 0.0) > 0.0, "second law has no empty-set mass")
    pop = popcounts(s)
    pa = direct_pmf(q, sigma_a, s, pop)
    pb = direct_pmf(q, sigma_b, s, pop)
    eps_sum = (1 << s) * 4 * np.finfo(float).eps
    require(abs(math.fsum(pa) - 1.0) <= eps_sum, "first pmf does not sum to 1")
    require(abs(math.fsum(pb) - 1.0) <= eps_sum, "second pmf does not sum to 1")
    err = transform_error(q, s, pop)
    ratio = pa / pb
    live = pa > 0.0
    log_ratio = np.log(ratio[live])
    kl_ref = math.fsum(pa[live] * log_ratio)
    chi2_ref = math.fsum((pa - pb) ** 2 / pb)
    kl_tol = math.fsum((np.abs(log_ratio) + 1.0) * err[live]) + math.fsum(ratio * err)
    chi2_tol = math.fsum((2.0 * ratio + ratio * ratio) * err)
    require(abs(kl - kl_ref) <= kl_tol, f"KL {kl!r}, direct sum gives {kl_ref!r}")
    require(abs(chi2 - chi2_ref) <= chi2_tol, f"chi2 {chi2!r}, direct sum gives {chi2_ref!r}")
    require(kl <= chi2 + kl_tol + chi2_tol, f"KL {kl!r} above chi2 {chi2!r}")
    require(kl <= bound + kl_tol, f"KL {kl!r} above the closed-form bound {bound!r}")
