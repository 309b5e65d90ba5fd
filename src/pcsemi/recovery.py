"""Clique recovery: maximal-clique enumeration, the good-clique rule,
Jaccard scoring, and the exact tail sum behind the disjointness guarantee.

A clique of size >= s is *good* when no other listed clique of size >= s
meets it in more than thr = floor(3 log2 n) vertices; recovery outputs the
unique good clique holding the revealed vertex, or the empty set.  The rule
is written once: ``_unspoiled`` drops the candidates that another listed set
meets in more than thr vertices, and ``unique_holding`` picks the one
survivor through v.  ``good_cliques`` (on the whole-graph listing, the
reference that also counts every good clique) and ``recover`` both use them.

``recover`` avoids listing every clique of size >= s: only a clique above
thr vertices can spoil, so one search lists the maximal cliques of size >=
max(s, thr + 1), and a second, rooted at v, lists the candidates through v
and stops once a second unspoiled candidate decides that the answer is
empty.  Both searches, and the whole-graph listing, are one lazy branch and
bound (``_CliqueSearch``) that yields each maximal clique as it finds it.
Each call builds the searches' bit context once (``_bitsets``: neighbour
masks, complement masks and single bits) and ``recover`` shares it between
its two searches.  The node budget, not the graph size, bounds the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .graph_model import Graph

DEFAULT_BUDGET = 5_000_000

# a search's bit context (``_bitsets``): per vertex, the neighbour mask, the
# complement mask and the single bit
_Bits = tuple[list[int], list[int], list[int]]


@dataclass(frozen=True)
class CliqueSet:
    """Enumerated cliques plus how much enumeration effort they cost."""

    cliques: tuple[frozenset[int], ...]
    budget_used: int
    truncated: bool


@dataclass(frozen=True)
class RecoveryResult:
    """The recovered set and the enumeration effort: ``budget_used`` search
    nodes up to the point where the answer was decided, ``truncated`` when
    the budget ran out before that."""

    vertices: frozenset[int]
    budget_used: int
    truncated: bool


def maximal_cliques(
    graph: Graph, min_size: int = 1, budget: int = DEFAULT_BUDGET, containing: int | None = None
) -> CliqueSet:
    """All maximal cliques of size >= min_size by pivoting branch and bound;
    with ``containing`` = v, only those that hold v.

    The search for v starts at members = [v], cand = N(v), done = {}: a
    clique holding v lies in N[v], and it is maximal in G exactly when no
    vertex of N(v) extends it, so this root lists the maximal cliques of G
    through v (the single-vertex subproblem of Eppstein-Loffler-Strash).

    ``budget`` caps the number of search nodes (see ``_CliqueSearch``);
    exhausting it sets the truncated flag on the (partial) result instead of
    discarding it.  Every listed clique is maximal and of size >= min_size
    either way.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if containing is not None and not 0 <= containing < graph.n:
        raise ValueError(f"vertex {containing} outside [0, {graph.n})")
    bits = _bitsets(graph)
    search = _CliqueSearch(bits, min_size, budget)
    if containing is None:
        found = list(search.cliques([], (1 << graph.n) - 1))
    else:
        found = list(search.cliques([containing], bits[0][containing]))
    ordered = tuple(sorted(found, key=lambda c: tuple(sorted(c))))
    return CliqueSet(cliques=ordered, budget_used=search.nodes, truncated=search.truncated)


def _bitsets(graph: Graph) -> _Bits:
    """The bit context of one call's searches, indexed by vertex u: the
    neighbour mask N(u), the complement mask of every vertex that is neither
    in N(u) nor u itself, and the single bit 1 << u."""
    nbr = graph.neighbor_masks()
    bit = [1 << u for u in range(graph.n)]
    full = (1 << graph.n) - 1
    return nbr, [full ^ (m | b) for m, b in zip(nbr, bit)], bit


class _CliqueSearch:
    """The one clique search: a lazy pivoting branch and bound that yields
    each maximal clique of size >= min_size as it reaches it, so a caller
    may stop once it has what it needs.  ``nodes`` counts the search nodes
    entered so far; past ``budget`` the search stops and is ``truncated``.

    Each search node extends ``members`` by candidates ``cand``, with
    ``done`` the vertices already branched on.  Let need = min_size -
    |members| - 1, so a clique of size >= min_size that extends ``members``
    takes at least need + 1 vertices of ``cand``.  Three rules prune it:

    - Before it branches, a node peels ``cand`` to a fixpoint: a candidate
      with fewer than ``need`` neighbours in ``cand`` lies in no such
      clique, so it is dropped, and the node is cut once |cand| <= need.
    - When need >= 2, a greedy colouring of the peeled ``cand``
      (``_colourable``) cuts the node if it uses at most ``need`` colours:
      a clique takes at most one vertex per colour class (the bound of
      Tomita-Seki's MCQ).  At need == 1 the pass is skipped because it
      cannot cut: after the peel every candidate has a neighbour in
      ``cand``, so one colour never suffices.
    - The pivot is the vertex of cand | done with the most neighbours in
      ``cand`` (Tomita-Tanaka-Takahashi); the same scoring pass drops every
      ``done`` vertex with at most ``need`` neighbours in ``cand``, which is
      adjacent to all of no such clique.

    The nodes counted are those of the peeled, colour-cut tree.  The node
    code reads every mask from the call's bit context (``_bitsets``), built
    once per ``maximal_cliques`` or ``recover`` call and shared by its
    searches: a colouring step is one AND with a complement mask, and no
    loop shifts a bit into place.
    """

    def __init__(self, bits: _Bits, min_size: int, budget: int):
        self.nbr, self.non, self.bit = bits
        self.min_size = max(min_size, 1)
        self.budget = budget
        self.nodes = 0

    @property
    def truncated(self) -> bool:
        return self.nodes > self.budget

    def cliques(self, members: list[int], cand: int, done: int = 0) -> Iterator[frozenset[int]]:
        """The maximal cliques that extend ``members`` by vertices of
        ``cand`` and by no vertex of ``done``, in search order."""
        self.nodes += 1
        if self.nodes > self.budget:
            return
        min_size = self.min_size
        if not cand:
            if not done and len(members) >= min_size:
                yield frozenset(members)
            return
        nbr, bit = self.nbr, self.bit
        need = min_size - len(members) - 1
        if need > 0:
            cand = _peel(cand, need, nbr, bit)
            if not cand:
                return
            if need >= 2 and _colourable(cand, need, self.non, bit):
                return
        pivot, best = -1, -1
        pool = cand | done
        while pool:
            u = pool.bit_length() - 1
            pool ^= bit[u]
            score = (cand & nbr[u]).bit_count()
            if score > best:
                best, pivot = score, u
            if score <= need:
                done &= ~bit[u]
        ext = cand & ~nbr[pivot]
        while ext:
            v = ext.bit_length() - 1
            b = bit[v]
            ext ^= b
            yield from self.cliques(members + [v], cand & nbr[v], done & nbr[v])
            if self.nodes > self.budget:
                return
            cand ^= b
            done |= b


def _peel(cand: int, need: int, nbr: list[int], bit: list[int]) -> int:
    """``cand`` without its vertices of fewer than ``need`` neighbours in
    it, repeated to a fixpoint; 0 once at most ``need`` vertices remain.
    The first round tests each vertex as it takes the vertex's bit."""
    size = cand.bit_count()
    keep = []
    rest = cand
    while rest:
        u = rest.bit_length() - 1
        rest ^= bit[u]
        if (cand & nbr[u]).bit_count() >= need:
            keep.append(u)
    while len(keep) > need:
        if len(keep) == size:
            return cand
        size = len(keep)
        cand = 0
        for u in keep:
            cand |= bit[u]
        keep = [u for u in keep if (cand & nbr[u]).bit_count() >= need]
    return 0


def _colourable(cand: int, colours: int, non: list[int], bit: list[int]) -> bool:
    """Whether greedy colouring colours ``cand`` with at most ``colours``
    classes.  Each class takes the top vertex left and keeps, of the class,
    only ``non``[top], the vertices that are neither top nor its neighbours,
    so it is an independent set, and a clique in ``cand`` has at most as
    many vertices as there are classes."""
    rest = cand
    for _ in range(colours):
        cls = rest
        while cls:
            top = cls.bit_length() - 1
            rest ^= bit[top]
            cls &= non[top]
        if not rest:
            return True
    return False


def intersection_threshold(n: int) -> int:
    """Largest allowed overlap between good cliques: floor(3 log2 n), the
    largest t with 2^t <= n^3, in exact integer arithmetic."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n**3).bit_length() - 1


def _unspoiled(
    candidates: Iterable[frozenset[int]], spoilers: Iterable[frozenset[int]], thr: int
) -> list[frozenset[int]]:
    """The candidates, in order, that no other spoiler meets in more than
    ``thr`` vertices; such an overlap needs both sets above ``thr``."""
    over = [d for d in spoilers if len(d) > thr]
    return [
        c for c in candidates
        if len(c) <= thr or not any(d != c and len(c & d) > thr for d in over)
    ]


def unique_holding(sets: Iterable[frozenset[int]], v: int) -> frozenset[int]:
    """The one set that holds v, else the empty set."""
    holding = [c for c in sets if v in c]
    return holding[0] if len(holding) == 1 else frozenset()


def check_query(n: int, v: int, s: int) -> None:
    """Refuse a revealed vertex outside the graph or a clique size below 1."""
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} outside [0, {n})")
    if s < 1:
        raise ValueError(f"need clique size s >= 1, got s={s}")


def good_cliques(cliques: CliqueSet, s: int, n: int) -> CliqueSet:
    """The size->=s cliques that no other of them meets in more than the
    threshold; both members of an offending pair are dropped."""
    big = [c for c in cliques.cliques if len(c) >= s]
    return CliqueSet(
        cliques=tuple(_unspoiled(big, big, intersection_threshold(n))),
        budget_used=cliques.budget_used,
        truncated=cliques.truncated,
    )


def recover(graph: Graph, v: int, s: int, budget: int = DEFAULT_BUDGET) -> RecoveryResult:
    """Output the unique good clique containing v, else the empty set.

    Two searches answer this exactly: the spoilers are ``big``, the maximal
    cliques of size >= max(s, thr + 1), and the candidates are the maximal
    cliques of size >= s through v, from a search rooted at v.  When s > thr
    every candidate is in ``big`` already and the second search does not run.
    Both searches read the one bit context (``_bitsets``) built for the call.

    The rooted search stops once the answer is decided: every candidate
    holds v, so a second candidate that no spoiler rules out makes the
    answer empty, and the cliques left unlisted cannot change it.

    One ``budget`` covers both searches, and ``budget_used`` counts the
    nodes of both, the rooted one's up to the decision; ``truncated`` says
    the budget ran out before it.  If the first search leaves no node for
    the second, the call is truncated with ``budget_used`` = budget + 1, as
    a truncated ``maximal_cliques`` reports.
    """
    check_query(graph.n, v, s)
    thr = intersection_threshold(graph.n)
    bits = _bitsets(graph)
    first = _CliqueSearch(bits, max(s, thr + 1), budget)
    big = list(first.cliques([], (1 << graph.n) - 1))
    if s > thr:
        near = [c for c in big if v in c]
        vertices = unique_holding(_unspoiled(near, big, thr), v)
        return RecoveryResult(vertices, first.nodes, first.truncated)
    if first.nodes >= budget:
        return RecoveryResult(frozenset(), budget + 1, True)
    search = _CliqueSearch(bits, s, budget - first.nodes)
    listed = search.cliques([v], bits[0][v])
    survivors = list(islice((c for c in listed if _unspoiled([c], big, thr)), 2))
    return RecoveryResult(
        vertices=unique_holding(survivors, v),
        budget_used=first.nodes + search.nodes,
        truncated=search.truncated,
    )


def jaccard(a: Iterable[int], b: Iterable[int]) -> float:
    """|a & b| / |a | b|, with 1.0 when both sets are empty."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def union_bound_probability(n: int, s: int, l0: int) -> float:
    """Exact tail sum_{l0 <= l < s} C(s,l) C(n-s,s-l) 2^{-l(s-l)} in log space.

    Bounds the chance that some other size-s clique overlaps the planted one
    in at least l0 vertices.  Empty ranges give 0.
    """
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    if l0 < 1:
        raise ValueError(f"need l0 >= 1, got l0={l0}")
    logs = []
    for l in range(l0, s):
        if s - l > n - s:
            continue
        logs.append(
            _log_comb(s, l) + _log_comb(n - s, s - l) - l * (s - l) * math.log(2.0)
        )
    if not logs:
        return 0.0
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(x - top) for x in logs)
