"""Tests for clique enumeration, the good-clique rule, Jaccard scoring and
the union-bound tail."""

import hashlib
import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsemi.analysis import _conditioned_coupled
from pcsemi.graph_model import AdversarySpec, Graph, gen_coupled, gen_semirandom, is_clique
from pcsemi.recovery import (
    _bitsets,
    _colourable,
    _unspoiled,
    good_cliques,
    intersection_threshold,
    jaccard,
    maximal_cliques,
    recover,
    union_bound_probability,
)


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def two_cliques(sizes, n=None):
    edges = []
    start = 0
    groups = []
    for size in sizes:
        group = list(range(start, start + size))
        groups.append(group)
        edges += [(i, j) for x, i in enumerate(group) for j in group[x + 1 :]]
        start += size
    return Graph.from_edges(n or start, edges), groups


def brute_maximal_cliques(graph, min_size):
    """Independent oracle: scan all vertex subsets as bit masks (n <= 16)."""
    n = graph.n
    nbr = []
    for i in range(n):
        row = 0
        for j in np.flatnonzero(graph.adj[i]):
            row |= 1 << int(j)
        nbr.append(row)
    cliques = []
    for mask in range(1, 1 << n):
        mm, ok = mask, True
        while mm:
            bit = mm & -mm
            i = bit.bit_length() - 1
            mm ^= bit
            if mask & ~(nbr[i] | bit):
                ok = False
                break
        if ok:
            cliques.append(mask)
    out = []
    for mask in cliques:
        extendable = any(
            mask & ~nbr[v] == 0 for v in range(n) if not mask >> v & 1
        )
        if not extendable and mask.bit_count() >= min_size:
            out.append(frozenset(i for i in range(n) if mask >> i & 1))
    return sorted(out, key=lambda c: tuple(sorted(c)))


class TestMaximalCliques:
    def test_complete_graph(self):
        cs = maximal_cliques(complete_graph(6), min_size=6)
        assert [sorted(c) for c in cs.cliques] == [[0, 1, 2, 3, 4, 5]]

    def test_empty_graph(self):
        g = Graph(n=5, adj=np.zeros((5, 5), dtype=bool))
        assert maximal_cliques(g, min_size=2).cliques == ()

    def test_two_disjoint_cliques(self):
        g, groups = two_cliques([5, 5])
        cs = maximal_cliques(g, min_size=3)
        assert [sorted(c) for c in cs.cliques] == [groups[0], groups[1]]

    def test_min_size_filter(self):
        g, _ = two_cliques([5, 3])
        cs = maximal_cliques(g, min_size=4)
        assert [sorted(c) for c in cs.cliques] == [[0, 1, 2, 3, 4]]

    def test_budget_truncation(self):
        g = gen_semirandom(30, 5, AdversarySpec.random(0.5), 0).graph
        cs = maximal_cliques(g, min_size=2, budget=10)
        assert cs.truncated
        full = maximal_cliques(g, min_size=2)
        assert not full.truncated
        assert cs.budget_used <= 11 <= full.budget_used

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            n = int(rng.integers(4, 17))
            adj = np.zeros((n, n), dtype=bool)
            iu = np.triu_indices(n, 1)
            adj[iu] = rng.random(len(iu[0])) < 0.5
            g = Graph(n=n, adj=adj | adj.T)
            min_size = int(rng.integers(1, 4))
            got = list(maximal_cliques(g, min_size=min_size).cliques)
            assert got == brute_maximal_cliques(g, min_size)

    @staticmethod
    def networkx_cliques(graph, min_size):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(graph.n))
        nxg.add_edges_from(graph.edges())
        return {frozenset(c) for c in nx.find_cliques(nxg) if len(c) >= min_size}

    def assert_matches_networkx(self, graph, min_size):
        cs = maximal_cliques(graph, min_size=min_size)
        assert not cs.truncated
        assert len(set(cs.cliques)) == len(cs.cliques)
        assert set(cs.cliques) == self.networkx_cliques(graph, min_size)

    def test_matches_networkx_on_random_graphs(self):
        rng = np.random.default_rng(23)
        for n in (10, 25, 40, 60):
            adj = np.zeros((n, n), dtype=bool)
            iu = np.triu_indices(n, 1)
            adj[iu] = rng.random(len(iu[0])) < 0.5
            self.assert_matches_networkx(Graph(n=n, adj=adj | adj.T), 1)

    def test_matches_networkx_on_coupled_instance(self):
        self.assert_matches_networkx(gen_coupled(50, 11, 3, 0).graph, 1)

    def test_matches_networkx_with_min_size(self):
        g = gen_semirandom(60, 12, AdversarySpec.random(0.5), 7).graph
        self.assert_matches_networkx(g, 5)

    @pytest.mark.parametrize(
        "n, s, seed, min_sizes",
        [
            (60, 12, 0, range(1, 13)),
            (60, 12, 1, range(1, 13)),
            # small min_size lists ~24k cliques at n = 100; 1 stands for them
            (100, 20, 2, (1, *range(9, 21))),
            # min sizes 12..20 leave need >= 2 at the top levels of the
            # search, where the colouring cut fires
            (100, 20, 3, (1, *range(12, 21))),
        ],
    )
    def test_pruned_enumeration_matches_networkx(self, n, s, seed, min_sizes):
        g = gen_semirandom(n, s, AdversarySpec.extra_cliques(2), seed).graph
        reference = self.networkx_cliques(g, 1)
        for min_size in min_sizes:
            cs = maximal_cliques(g, min_size=min_size)
            assert not cs.truncated
            assert set(cs.cliques) == {c for c in reference if len(c) >= min_size}

    def test_matches_brute_force_up_to_min_size_six(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            n = int(rng.integers(4, 17))
            adj = np.zeros((n, n), dtype=bool)
            iu = np.triu_indices(n, 1)
            adj[iu] = rng.random(len(iu[0])) < 0.5
            g = Graph(n=n, adj=adj | adj.T)
            rng.integers(1, 4)  # keep the graphs of test_matches_brute_force
            every = brute_maximal_cliques(g, 1)
            for min_size in range(1, 7):
                got = list(maximal_cliques(g, min_size=min_size).cliques)
                assert got == [c for c in every if len(c) >= min_size]

    def test_truncated_run_lists_maximal_cliques_only(self):
        g = gen_semirandom(60, 12, AdversarySpec.extra_cliques(2), 3).graph
        for min_size in (1, 6, 10):
            full = maximal_cliques(g, min_size=min_size)
            for budget in (1, 7, 50, full.budget_used // 2):
                part = maximal_cliques(g, min_size=min_size, budget=budget)
                assert part.truncated
                assert part.budget_used == budget + 1
                assert set(part.cliques) <= set(full.cliques)
                assert all(len(c) >= min_size and is_clique(g, c) for c in part.cliques)

    def test_peeling_keeps_recovery_search_small(self):
        """A recovery-n200 benchmark instance (n = 200, s = 30, two decoy
        cliques, seed 1): 49,527 nodes without the degree peel, 2,688 with
        it, and 389 with the colouring cut after it."""
        g = gen_semirandom(200, 30, AdversarySpec.extra_cliques(2), 1).graph
        first = maximal_cliques(g, min_size=30)
        assert not first.truncated
        assert first.budget_used == 389
        assert maximal_cliques(g, min_size=30).budget_used == first.budget_used

    def test_colouring_bounds_the_clique_number(self):
        """Whenever greedy colouring of a vertex subset uses at most c
        colours, no clique inside the subset has more than c vertices
        (brute force over every subset of the subset)."""
        rng = np.random.default_rng(29)
        tight = 0
        for trial in range(60):
            n = int(rng.integers(3, 13))
            adj = np.zeros((n, n), dtype=bool)
            iu = np.triu_indices(n, 1)
            adj[iu] = rng.random(len(iu[0])) < rng.uniform(0.2, 0.9)
            nbr, non, bit = _bitsets(Graph(n=n, adj=adj | adj.T))
            cand = int(rng.integers(1, 1 << n))
            omega = max(
                sub.bit_count()
                for sub in range(1 << n)
                if sub & ~cand == 0
                and all(sub & ~(nbr[v] | 1 << v) == 0 for v in range(n) if sub >> v & 1)
            )
            assert _colourable(cand, cand.bit_count(), non, bit)
            for colours in range(1, cand.bit_count() + 1):
                if _colourable(cand, colours, non, bit):
                    assert omega <= colours
                    tight += omega == colours
        assert tight > 0

    def test_recovery_reports_search_nodes(self):
        """``budget_used`` counts both searches: the cliques above the
        overlap threshold (17 at n = 60) and the size-12 ones through v."""
        g = gen_semirandom(60, 12, AdversarySpec.extra_cliques(2), 3).graph
        res = recover(g, 0, 12)
        big = maximal_cliques(g, min_size=18)
        near = maximal_cliques(g, min_size=12, containing=0)
        assert res.budget_used == big.budget_used + near.budget_used
        assert not res.truncated

    def test_recovery_with_small_budgets_is_truncated(self):
        """Every budget short of the two searches' nodes truncates, the one
        that the first search uses up exactly included; the output is then
        empty or a clique of size >= s through v."""
        for n, s, seed, v in ((60, 12, 3, 0), (60, 20, 4, 5)):
            inst = gen_semirandom(n, s, AdversarySpec.extra_cliques(2), seed)
            g = inst.graph
            full = recover(g, v, s)
            assert not full.truncated
            first = maximal_cliques(g, min_size=max(s, intersection_threshold(n) + 1)).budget_used
            for budget in sorted({1, 2, 5, first - 1, first, first + 1, full.budget_used - 1}):
                if not 1 <= budget < full.budget_used:
                    continue
                res = recover(g, v, s, budget=budget)
                assert res.truncated
                assert res.budget_used == budget + 1
                if res.vertices:
                    assert v in res.vertices and len(res.vertices) >= s
                    assert is_clique(g, res.vertices)
            assert recover(g, v, s, budget=full.budget_used) == full

    def test_containing_matches_whole_graph_listing(self):
        """The search rooted at v lists exactly the maximal cliques through
        v, by our whole-graph listing and by networkx."""
        rng = np.random.default_rng(41)
        for trial in range(12):
            n = int(rng.integers(5, 36))
            adj = np.zeros((n, n), dtype=bool)
            iu = np.triu_indices(n, 1)
            adj[iu] = rng.random(len(iu[0])) < rng.uniform(0.2, 0.8)
            g = Graph(n=n, adj=adj | adj.T)
            reference = self.networkx_cliques(g, 1)
            for min_size in (1, 3, 5):
                every = maximal_cliques(g, min_size=min_size).cliques
                for v in range(n):
                    got = maximal_cliques(g, min_size=min_size, containing=v)
                    assert not got.truncated
                    assert got.cliques == tuple(c for c in every if v in c)
                    assert set(got.cliques) == {
                        c for c in reference if v in c and len(c) >= min_size
                    }

    @pytest.mark.parametrize("v", [-1, 6, 100])
    def test_containing_must_be_a_vertex(self, v):
        with pytest.raises(ValueError, match="outside"):
            maximal_cliques(complete_graph(6), containing=v)

    def test_no_listed_clique_contains_another(self):
        g = gen_semirandom(40, 6, AdversarySpec.random(0.5), 3).graph
        cs = maximal_cliques(g, min_size=3)
        cliques = list(cs.cliques)
        for i, c in enumerate(cliques):
            for d in cliques[i + 1 :]:
                assert not (c < d or d < c)


def _digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()


def _recovered(res):
    return (tuple(sorted(res.vertices)), res.budget_used, res.truncated)


def _listed(cs):
    return (tuple(tuple(sorted(c)) for c in cs.cliques), cs.budget_used, cs.truncated)


def _op_seed(name, seed, index):
    """The benchmark's operation seed (``perfbench.workloads.op_seed``)."""
    d = hashlib.blake2b(f"{name}/{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(d, "big") >> 2


_BUDGETS = (1, 5, 50, 200, 400)


class TestSearchTreePinned:
    """The search tree itself, pinned: every listed clique, ``budget_used``
    and truncation flag of ``maximal_cliques`` and every field of
    ``recover`` on a fixed corpus, full runs and truncating budgets, as a
    sha256 of the sorted tuples.  A change that only makes search nodes
    cheaper keeps these; one that visits other nodes moves them."""

    def test_recovery_n200_inputs(self):
        """The benchmark's first 30 recovery-n200 operations (run seed 1)."""
        results, listings = [], []
        for i in range(30):
            inst = gen_semirandom(200, 30, AdversarySpec.extra_cliques(2), _op_seed("recovery-n200", 1, i))
            results.append(_recovered(recover(inst.graph, inst.revealed, 30)))
            for budget in _BUDGETS:
                results.append(_recovered(recover(inst.graph, inst.revealed, 30, budget=budget)))
            listings.append(_listed(maximal_cliques(inst.graph, min_size=30)))
        assert sum(r[1] for r in results[:: len(_BUDGETS) + 1]) == 12_642
        assert _digest(results) == "ca389ad8392cb360dce3a4e47298e6421ca032f618c53b0fd065857553fd64fb"
        assert _digest(listings) == "fe299bbacfbad0d19354c3e1acf07c81e41e932bf2d4d9655940f6882b35123a"

    def test_conditioned_coupled_instances(self):
        """200 lower-bound experiment instances at (n, m, k) = (50, 11, 3)."""
        results = []
        for seed in range(200):
            inst, _ = _conditioned_coupled(seed, 0, 50, 11, 3)
            s = len(inst.clique)
            results.append(_recovered(recover(inst.graph, inst.revealed, s)))
            for budget in _BUDGETS[:3]:
                results.append(_recovered(recover(inst.graph, inst.revealed, s, budget=budget)))
        assert _digest(results) == "13753e005f552b1246a1817194e354d9a9d7e0a910a2d76c9fcb3f1445ed98ab"

    def test_semirandom_instances(self):
        """100 instances of gen_semirandom(60, 8, random:0.5)."""
        results = []
        for seed in range(100):
            inst = gen_semirandom(60, 8, AdversarySpec.random(0.5), seed)
            results.append(_recovered(recover(inst.graph, inst.revealed, 8)))
            for budget in _BUDGETS:
                results.append(_recovered(recover(inst.graph, inst.revealed, 8, budget=budget)))
        assert _digest(results) == "4ecb5ccbd5ff5d8b903de2b3386cc46bf620175960d3203c726ed98082e2a30a"

    def test_dense_random_graphs(self):
        """64 G(n, p) graphs with n = 8..39 and p in [0.3, 0.9]: whole-graph
        and rooted listings at min sizes 1, 3 and 5, and recovery."""
        rng = np.random.default_rng(71)
        results, listings = [], []
        for trial in range(64):
            n = 8 + trial % 32
            adj = np.triu(rng.random((n, n)) < rng.uniform(0.3, 0.9), 1)
            g = Graph(n=n, adj=adj | adj.T)
            v, s = int(rng.integers(n)), int(rng.integers(1, 8))
            for min_size in (1, 3, 5):
                listings.append(_listed(maximal_cliques(g, min_size=min_size)))
                listings.append(_listed(maximal_cliques(g, min_size=min_size, containing=v)))
                for budget in _BUDGETS[:3]:
                    listings.append(_listed(maximal_cliques(g, min_size=min_size, budget=budget)))
            results.append(_recovered(recover(g, v, s)))
            for budget in _BUDGETS:
                results.append(_recovered(recover(g, v, s, budget=budget)))
        assert _digest(results) == "b5cd8eb8a681c5960c042bd39c34618eee1beed535265f79ee7488f97cb1d19d"
        assert _digest(listings) == "1f53c233296d23e9b0ea319bc20469b9de60557a3bbeaa57b77d9b6c1c9af147"


class TestGoodCliques:
    def test_disjoint_cliques_are_good(self):
        g, groups = two_cliques([6, 6])
        cs = maximal_cliques(g, min_size=6)
        good = good_cliques(cs, 6, g.n)
        assert len(good.cliques) == 2

    def test_heavily_overlapping_pair_is_dropped(self):
        # two 14-cliques sharing 13 vertices in a 16-vertex graph:
        # threshold floor(3 log2 16) = 12 < 13, so neither is good
        shared = list(range(13))
        a = shared + [13]
        b = shared + [14]
        edges = [(i, j) for x, i in enumerate(a) for j in a[x + 1 :]]
        edges += [(i, j) for x, i in enumerate(b) for j in b[x + 1 :]]
        g = Graph.from_edges(16, edges)
        cs = maximal_cliques(g, min_size=14)
        assert len(cs.cliques) == 2
        good = good_cliques(cs, 14, 16)
        assert good.cliques == ()

    def test_single_clique_is_good(self):
        g, groups = two_cliques([6])
        good = good_cliques(maximal_cliques(g, min_size=6), 6, 6)
        assert [sorted(c) for c in good.cliques] == [groups[0]]

    def test_idempotent_and_order_free(self):
        g = gen_semirandom(30, 8, AdversarySpec.random(0.5), 1).graph
        cs = maximal_cliques(g, min_size=4)
        once = good_cliques(cs, 4, 30)
        twice = good_cliques(once, 4, 30)
        assert once.cliques == twice.cliques

    def test_threshold_values(self):
        assert intersection_threshold(1) == 0
        assert intersection_threshold(60) == 17
        assert intersection_threshold(1000) == 29

    def test_threshold_is_largest_power_within_n_cubed(self):
        """floor(3 log2 n) is the largest t with 2^t <= n^3, found here by
        an integer loop."""
        t = 0
        for n in range(1, 5001):
            while 2 ** (t + 1) <= n**3:
                t += 1
            assert intersection_threshold(n) == t

    def test_spoiler_filter_at_the_threshold(self):
        """An overlap of exactly thr vertices spoils nothing; thr + 1 spoils
        both sets.  A set of at most thr vertices is never spoiled, and a
        set does not spoil itself."""
        thr = 5
        a, b = frozenset(range(8)), frozenset(range(3, 11))  # share 5
        c, d = frozenset(range(20, 28)), frozenset(range(22, 30))  # share 6
        small = frozenset(range(thr))
        listed = [a, b, c, d, small]
        assert _unspoiled(listed, listed, thr) == [a, b, small]
        assert _unspoiled([d, c], [c], thr) == [c]
        assert _unspoiled([c], [c, d], thr - 1) == []
        assert _unspoiled([c], [c, d], thr + 1) == [c]


class TestRecover:
    def test_unique_good_clique_is_returned(self):
        g, groups = two_cliques([6, 6], n=14)
        res = recover(g, 0, 6)
        assert sorted(res.vertices) == groups[0]
        assert len(good_cliques(maximal_cliques(g, 6), 6, g.n).cliques) == 2
        assert not res.truncated

    @pytest.mark.parametrize("s", [0, -3])
    def test_clique_size_below_one_rejected(self, s):
        g, _ = two_cliques([6, 6], n=14)
        with pytest.raises(ValueError, match="s >= 1"):
            recover(g, 0, s)

    def test_unique_good_clique_survives_sparse_noise(self):
        rng = np.random.default_rng(13)
        g, groups = two_cliques([6, 6], n=16)
        adj = g.adj.copy()
        iu = np.triu_indices(16, 1)
        noise = rng.random(len(iu[0])) < 0.1
        adj[iu] |= noise
        adj |= adj.T
        noisy = Graph(n=16, adj=adj)
        res = recover(noisy, groups[0][0], 6)
        assert groups[0][0] in res.vertices
        assert set(groups[0]) <= set(res.vertices)

    def test_vertex_in_two_good_cliques_gives_empty(self):
        # two 5-cliques sharing exactly the revealed vertex
        shared = 0
        a = [0, 1, 2, 3, 4]
        b = [0, 5, 6, 7, 8]
        edges = [(i, j) for x, i in enumerate(a) for j in a[x + 1 :]]
        edges += [(i, j) for x, i in enumerate(b) for j in b[x + 1 :]]
        g = Graph.from_edges(9, edges)
        res = recover(g, shared, 5)
        assert res.vertices == frozenset()
        assert len(good_cliques(maximal_cliques(g, 5), 5, g.n).cliques) == 2

    def test_vertex_in_no_large_clique_gives_empty(self):
        g, groups = two_cliques([6, 6], n=14)
        res = recover(g, 13, 6)  # isolated vertex
        assert res.vertices == frozenset()

    def test_output_is_a_clique_containing_v(self):
        for seed in range(10):
            inst = gen_semirandom(40, 10, AdversarySpec.random(0.5), seed)
            res = recover(inst.graph, inst.revealed, 10)
            if res.vertices:
                assert inst.revealed in res.vertices
                assert len(res.vertices) >= 10
                assert is_clique(inst.graph, res.vertices)

    @staticmethod
    def reference_rule(graph, v, s):
        """The rule on the whole-graph listing of cliques of size >= s."""
        good = good_cliques(maximal_cliques(graph, min_size=s), s, graph.n)
        holding = [c for c in good.cliques if v in c]
        return holding[0] if len(holding) == 1 else frozenset()

    def test_matches_reference_rule_on_overlapping_cliques(self):
        """1-3 planted cliques of size thr - 3 .. thr + 7 that share up to
        all but one vertex, with or without v, so that a candidate through
        v is often spoiled by a clique above the threshold."""
        rng = np.random.default_rng(43)
        spoiled = 0
        for trial in range(40):
            n = int(rng.integers(40, 56))
            thr = intersection_threshold(n)
            size = int(rng.integers(thr - 3, thr + 8))
            order = rng.permutation(n)
            first = order[:size]
            groups = [first]
            for _ in range(int(rng.integers(0, 3))):
                keep = int(rng.integers(size // 2, size))
                # the shared part holds v = first[0] or leaves it out
                shared = first[:keep] if rng.random() < 0.5 else first[size - keep :]
                groups.append(np.concatenate([shared, order[size : 2 * size - keep]]))
            adj = np.triu(rng.random((n, n)) < 0.5, 1)
            for group in groups:
                adj[np.ix_(group, group)] = True
            adj = np.triu(adj, 1)
            g = Graph(n=n, adj=adj | adj.T)
            v = int(first[0])
            s = int(rng.integers(size - 3, size + 1))
            res = recover(g, v, s)
            assert not res.truncated
            assert res.vertices == self.reference_rule(g, v, s)
            near = maximal_cliques(g, min_size=s, containing=v).cliques
            big = maximal_cliques(g, min_size=max(s, thr + 1)).cliques
            spoiled += any(d != c and len(c & d) > thr for c in near for d in big)
        assert spoiled > 0

    def test_decided_stop_matches_reference_rule(self):
        """The rooted search stops at the second unspoiled candidate through
        v; the answer stays the whole-graph rule's on the lower-bound
        experiment's coupled instances (n = 50, m = 11, k = 3) and on dense
        G(n, p) graphs, and the stop is seen to cut the search."""
        cases = []
        for seed in range(200):
            inst, _ = _conditioned_coupled(seed, 0, 50, 11, 3)
            cases.append((inst.graph, inst.revealed, len(inst.clique)))
        rng = np.random.default_rng(67)
        for trial in range(100):
            n = int(rng.integers(6, 40))
            adj = np.triu(rng.random((n, n)) < rng.uniform(0.3, 0.9), 1)
            cases.append((Graph(n=n, adj=adj | adj.T), int(rng.integers(n)), int(rng.integers(1, 8))))
        stopped = 0
        for g, v, s in cases:
            res = recover(g, v, s)
            assert not res.truncated
            assert res.vertices == self.reference_rule(g, v, s)
            big = maximal_cliques(g, min_size=max(s, intersection_threshold(g.n) + 1))
            near = maximal_cliques(g, min_size=s, containing=v)
            stopped += res.budget_used < big.budget_used + near.budget_used
        assert stopped > 100

    def test_decided_stop_needs_no_full_listing(self):
        """v = 0 lies in 20 maximal triangles {0, 2i + 1, 2i + 2} and in no
        larger clique; the first two decide that the answer is empty, so a
        budget too small for the rooted listing still decides it."""
        pairs = 20
        edges = [(0, u) for u in range(1, 2 * pairs + 1)]
        edges += [(2 * i + 1, 2 * i + 2) for i in range(pairs)]
        g = Graph.from_edges(2 * pairs + 1, edges)
        budget = 12
        assert maximal_cliques(g, min_size=3, containing=0, budget=budget).truncated
        assert len(maximal_cliques(g, min_size=3, containing=0).cliques) == pairs
        res = recover(g, 0, 3, budget=budget)
        assert res.vertices == frozenset()
        assert not res.truncated
        assert res.budget_used <= budget

    def test_good_clique_count_bound(self):
        """When s >= 3 sqrt(n log2 n), fewer than 2n/s good cliques."""
        n = 100
        s = 80
        assert s >= 3 * math.sqrt(n * math.log2(n))
        for seed in range(10):
            inst = gen_semirandom(n, s, AdversarySpec.random(0.5), seed)
            cs = maximal_cliques(inst.graph, min_size=s)
            good = good_cliques(cs, s, n)
            assert len(good.cliques) < 2 * n / s

    def test_planted_clique_is_good_with_high_probability(self):
        """s above the overlap threshold: the planted set stays good in all
        but a ~2s/n^2 fraction of trials (plus Monte Carlo slack)."""
        n, s = 60, 20
        bad = 0
        for seed in range(100):
            inst = gen_semirandom(n, s, AdversarySpec.extra_cliques(1), seed)
            cs = maximal_cliques(inst.graph, min_size=s)
            good = good_cliques(cs, s, n)
            holds = any(inst.clique <= c for c in good.cliques)
            bad += not holds
        assert bad <= 2


class TestJaccard:
    def test_identity(self):
        assert jaccard({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint(self):
        assert jaccard({1, 2}, {3}) == 0.0

    def test_single_overlap_formula(self):
        s = 7
        a = set(range(s))
        b = {0} | set(range(100, 100 + s - 1))
        assert jaccard(a, b) == pytest.approx(1 / (2 * s - 1))

    def test_empty_conventions(self):
        assert jaccard(set(), set()) == 1.0
        assert jaccard(set(), {1}) == 0.0
        assert jaccard({1}, set()) == 0.0

    @given(
        a=st.frozensets(st.integers(0, 30), max_size=12),
        b=st.frozensets(st.integers(0, 30), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_bounded_and_definite(self, a, b):
        j = jaccard(a, b)
        assert j == jaccard(b, a)
        assert 0.0 <= j <= 1.0
        if a or b:
            assert (j == 1.0) == (a == b)


class TestUnionBound:
    def test_single_term(self):
        n, s = 40, 9
        expected = s * (n - s) / 2 ** (s - 1)
        assert union_bound_probability(n, s, s - 1) == pytest.approx(
            expected, rel=1e-12
        )

    def test_empty_range(self):
        assert union_bound_probability(100, 10, 10) == 0.0
        assert union_bound_probability(100, 10, 15) == 0.0

    def test_matches_exact_rational_oracle(self):
        for n, s, l0 in [(30, 8, 3), (50, 12, 5), (100, 20, 10)]:
            exact = Fraction(0)
            for l in range(l0, s):
                exact += Fraction(
                    math.comb(s, l) * math.comb(n - s, s - l), 2 ** (l * (s - l))
                )
            got = union_bound_probability(n, s, l0)
            assert got == pytest.approx(float(exact), rel=1e-10)

    def test_headline_configuration(self):
        value = union_bound_probability(1000, 60, 30)
        assert value <= 2 * 60 / 1000**2

    def test_validation(self):
        with pytest.raises(ValueError):
            union_bound_probability(10, 12, 3)
        with pytest.raises(ValueError):
            union_bound_probability(10, 5, 0)
