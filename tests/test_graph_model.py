"""Tests for the graph generators, the coupled construction, and the
instance file format."""

import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from pcsemi.graph_model import (
    AdversarySpec,
    AssignmentState,
    Graph,
    bowtie,
    column_weights,
    conditional_assignment,
    design_labels,
    dump_instance,
    gen_classical,
    gen_coupled,
    gen_null_grid,
    gen_null_lines,
    gen_semirandom,
    grid_rate,
    related,
    hypergeometric_sample,
    instance_from_json,
    instance_to_json,
    line_rate,
    mode_rate,
    stream,
    structure_points,
    _coupled_size,
    _part_keys,
    _path_digest,
    _rekey,
    _set_key,
    _share_label,
    _sym_coin,
    _weight_rows,
)


def free_points(state):
    """The state's unused off-structure points, in (a, b) order."""
    return [divmod(int(i), state.m) for i in np.flatnonzero(state.free)]


def outside_pairs(n, clique):
    out = sorted(set(range(n)) - set(clique))
    return [(i, j) for a, i in enumerate(out) for j in out[a + 1 :]]


class TestGraphType:
    def test_symmetry_enforced(self):
        bad = np.zeros((3, 3), dtype=bool)
        bad[0, 1] = True
        with pytest.raises(ValueError):
            Graph(n=3, adj=bad)

    def test_zero_diagonal_enforced(self):
        bad = np.eye(3, dtype=bool)
        with pytest.raises(ValueError):
            Graph(n=3, adj=bad)

    def test_edges_roundtrip(self):
        g = Graph.from_edges(4, [(0, 2), (1, 3)])
        assert g.edges() == [(0, 2), (1, 3)]

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="shape"):
            Graph(n=3, adj=np.zeros((3, 4), dtype=bool))
        with pytest.raises(ValueError, match="shape"):
            Graph(n=4, adj=np.zeros((3, 3), dtype=bool))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 200])
    def test_packed_adjacency_roundtrip(self, n):
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        adj = upper | upper.T
        g = Graph(n=n, adj=adj)
        assert g.rows.shape == (n, (n + 7) // 8)
        got = g.adj
        assert got.dtype == bool and got.shape == (n, n)
        assert np.array_equal(got, adj)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = True
        masks = g.neighbor_masks()
        assert len(masks) == n
        for i in range(n):
            assert [masks[i] >> j & 1 for j in range(n)] == adj[i].tolist()
            assert masks[i] >> n == 0
        assert all(g.edge(i, j) == adj[i, j] for i in range(min(n, 9)) for j in range(n))

    def test_edge_indices_must_be_vertices(self):
        for bad in [(-1, 2), (0, 4), (4, 5)]:
            with pytest.raises(ValueError, match="outside vertices"):
                Graph.from_edges(4, [(0, 1), bad])


class TestStream:
    @pytest.mark.parametrize(
        "seed, path",
        [(0, ()), (1, ("trial", 0, 3)), (7101, ("coupled", "vertex", 49)), (2**40, ("swap",))],
    )
    def test_same_draws_as_keyed_philox(self, seed, path):
        """``stream`` skips the entropy draw of ``Philox(key=...)`` but
        gives the generator that keyed construction gives."""
        text = "/".join([str(seed), *map(str, path)])
        key = np.frombuffer(hashlib.blake2b(text.encode(), digest_size=16).digest(), dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        got = stream(seed, *path)
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert np.array_equal(got.random(7), want.random(7))
        assert np.array_equal(got.integers(0, 1000, 9), want.integers(0, 1000, 9))
        assert np.array_equal(got.permutation(20), want.permutation(20))
        assert got.bit_generator.state["state"]["counter"].tolist() == (
            want.bit_generator.state["state"]["counter"].tolist()
        )

    def test_draws_leave_later_streams_fresh(self):
        a = stream(3, "x")
        first = a.random(5)
        a.random(100)
        assert np.array_equal(stream(3, "x").random(5), first)

    @pytest.mark.parametrize(
        "use, half_saved",
        [
            (lambda g: g.random(3), 0),
            (lambda g: g.integers(0, 2**40, 5), 0),
            # one 32-bit draw keeps the other half of its 64-bit word
            (lambda g: g.random(1, dtype=np.float32), 1),
        ],
        ids=["random", "integers", "uint32-half"],
    )
    def test_rekey_gives_a_fresh_stream(self, use, half_saved):
        """A used generator, re-keyed, draws exactly what a new ``stream``
        of the same (seed, path) draws."""
        gen = stream(5, "used")
        use(gen)
        assert gen.bit_generator.state["has_uint32"] == half_saved
        assert repr(gen.bit_generator.state) != repr(stream(5, "used").bit_generator.state)
        for path in [(8, "point", 3), (0,), (2**40, "column", 49)]:
            got, want = _rekey(gen, *path), stream(*path)
            assert got is gen
            assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
            assert np.array_equal(got.random(7), want.random(7))
            assert np.array_equal(got.integers(0, 1000, 9), want.integers(0, 1000, 9))
            assert np.array_equal(got.random(3, dtype=np.float32), want.random(3, dtype=np.float32))

    @pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
    def test_part_keys_match_path_digest(self, seed):
        """The keys hashed from one "seed/part/" prefix are the digests of
        the whole paths, up to the largest ``stream_seed`` value, and key
        the streams ``stream`` builds."""
        indices = [0, 1, 9, 10, 99, 100, 12345]
        gen = stream(0, "used")
        for part in ("column", "point"):
            keys = _part_keys(seed, part, indices)
            assert keys == [struct.unpack("=2Q", _path_digest(seed, (part, i), 16)) for i in indices]
            for i, key in zip(indices, keys):
                assert np.array_equal(_set_key(gen, key).random(5), stream(seed, part, i).random(5))

    def test_import_leaves_numpy_random_unloaded(self):
        """The keyless seed is built on first use, so importing the package
        does not load ``numpy.random`` (workloads that never draw would pay
        its import time and memory)."""
        code = "import sys, pcsemi; print('numpy.random' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestDesignRelation:
    def test_lines_match_scalar_reference(self):
        m, k = 7, 3
        pts = [(a, b) for a in range(m) for b in range(m)]
        rel = related(pts, pts, "lines", m, k)
        for i, p in enumerate(pts):
            for j, r in enumerate(pts):
                assert rel[i, j] == bowtie(p, r, m, k)

    def test_grid_shares_row_or_column(self):
        m = 5
        pts = [(a, b) for a in range(m) for b in range(m)]
        rel = related(pts, pts, "grid", m, 2)
        for i, p in enumerate(pts):
            for j, r in enumerate(pts):
                assert rel[i, j] == (p[0] == r[0] or p[1] == r[1])

    @pytest.mark.parametrize(
        "mode, k", [("grid", 2), ("lines", 1), ("lines", 2), ("lines", 3), ("lines", 4), ("lines", 5)]
    )
    def test_matches_label_cube_and_scalar_oracle(self, mode, k):
        """The per-family OR equals the (left, right, families) cube reduced
        by ``any`` and the scalar relation (``bowtie`` in line mode, a shared
        row or column in grid mode), on empty sides too."""
        m = 11
        rng = np.random.default_rng(k)
        grid = [(a, b) for a in range(m) for b in range(m)]
        for nl, nr in [(0, 7), (9, 0), (0, 0), (1, 1), (13, 20), (len(grid), len(grid))]:
            left = grid if nl == len(grid) else [tuple(p) for p in rng.integers(m, size=(nl, 2)).tolist()]
            right = grid if nr == len(grid) else [tuple(p) for p in rng.integers(m, size=(nr, 2)).tolist()]
            lab_l, lab_r = design_labels(left, mode, m, k), design_labels(right, mode, m, k)
            cube = (lab_l[:, None, :] == lab_r[None, :, :]).any(axis=2)
            rel = related(left, right, mode, m, k)
            assert rel.dtype == bool and rel.shape == (nl, nr)
            assert np.array_equal(rel, cube)
            assert np.array_equal(_share_label(lab_l, lab_r), cube)
            for i, p in enumerate(left):
                for j, r in enumerate(right):
                    if mode == "lines":
                        assert rel[i, j] == bowtie(p, r, m, k)
                    else:
                        assert rel[i, j] == (p[0] == r[0] or p[1] == r[1])


class TestClassical:
    def test_complete_when_all_planted(self):
        inst = gen_classical(12, 12, 0)
        assert inst.graph.adj.sum() == 12 * 11

    def test_k30_edge_count(self):
        inst = gen_classical(30, 30, 3)
        assert len(inst.graph.edges()) == 435

    def test_single_edge_rate(self):
        """n=2, s=1: the only edge is a fair coin, 1e4 seeds, 3 sigma."""
        hits = sum(gen_classical(2, 1, seed).graph.edge(0, 1) for seed in range(10_000))
        se = math.sqrt(0.25 / 10_000)
        assert abs(hits / 10_000 - 0.5) < 3 * se

    def test_deterministic(self):
        a, b = gen_classical(15, 5, 77), gen_classical(15, 5, 77)
        assert np.array_equal(a.graph.adj, b.graph.adj)
        assert a.clique == b.clique and a.revealed == b.revealed

    def test_size_validation(self):
        with pytest.raises(ValueError):
            gen_classical(3, 4, 0)


class TestSymCoin:
    @pytest.mark.parametrize("n", [1, 2, 50, 200, 512])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_mirrors_the_upper_triangle_of_one_draw(self, n, p):
        """The coins are the upper triangle of one (n, n) uniform draw taken
        row by row, mirrored, with an empty diagonal."""
        for seed in range(5):
            u = np.random.default_rng(seed).random((n, n))
            want = np.zeros((n, n), dtype=bool)
            iu = np.triu_indices(n, 1)
            want[iu] = u[iu] < p
            want |= want.T
            assert np.array_equal(_sym_coin(n, p, np.random.default_rng(seed)), want)


class TestSemirandom:
    def test_empty_adversary_leaves_no_outside_edges(self):
        inst = gen_semirandom(10, 4, AdversarySpec.empty(), 3)
        assert all(not inst.graph.edge(i, j) for i, j in outside_pairs(10, inst.clique))

    def test_extra_cliques_are_disjoint(self):
        inst = gen_semirandom(60, 15, AdversarySpec.extra_cliques(2), 42)
        # three pairwise disjoint 15-cliques must exist: planted + 2 extra
        from pcsemi.recovery import maximal_cliques

        cs = maximal_cliques(inst.graph, min_size=15)
        big = [c for c in cs.cliques if len(c) >= 15]
        assert any(inst.clique <= c for c in big)
        disjoint: list = []
        for c in big:
            if all(not (c & d) for d in disjoint):
                disjoint.append(c)
        assert len(disjoint) >= 3

    def test_extra_cliques_capacity_check(self):
        with pytest.raises(ValueError):
            gen_semirandom(20, 8, AdversarySpec.extra_cliques(2), 0)

    def test_cross_edge_rate(self):
        """Clique-to-outside edges are fair coins: 1e4 seeds, 3 sigma."""
        hits = total = 0
        for seed in range(10_000):
            inst = gen_semirandom(6, 2, AdversarySpec.empty(), seed)
            out = sorted(set(range(6)) - inst.clique)
            for i in inst.clique:
                for j in out:
                    hits += inst.graph.edge(i, j)
                    total += 1
        se = math.sqrt(0.25 / total)
        assert abs(hits / total - 0.5) < 3 * se

    def test_custom_rule_applies_only_outside(self):
        inst = gen_semirandom(10, 4, AdversarySpec.custom(lambda i, j: True), 5)
        for i, j in outside_pairs(10, inst.clique):
            assert inst.graph.edge(i, j)

    def test_custom_rule_digest(self):
        """The custom rule's instance, byte for byte."""
        inst = gen_semirandom(30, 6, AdversarySpec.custom(lambda i, j: (i * j) % 3 == 1), 7)
        assert hashlib.sha256(dump_instance(instance_to_json(inst)).encode()).hexdigest() == (
            "08b06bf0aebee25f42c7aa7207fafa29d21884e15e926f2c094f8e7644d44847"
        )

    def test_adversary_parse(self):
        assert AdversarySpec.parse("empty").kind == "empty"
        assert AdversarySpec.parse("random:0.3").p == 0.3
        assert AdversarySpec.parse("extra_cliques:2").t == 2
        with pytest.raises(ValueError):
            AdversarySpec.parse("weird:1")


class TestNullGrid:
    def test_rate_formula(self):
        cfg = gen_null_grid(6, 3, 0).grid
        assert mode_rate(cfg.mode, cfg.m, cfg.k) == pytest.approx(0.25)
        assert grid_rate(11) == pytest.approx(0.5 - 1 / 20)
        with pytest.raises(ValueError):
            gen_null_grid(4, 2, 0)

    def test_capacity(self):
        with pytest.raises(ValueError):
            gen_null_grid(7, 3, 0)  # m^2 - m = 6

    def test_row_column_structure(self):
        cfg = gen_null_grid(50, 11, 5).grid
        assert len(set(cfg.points)) == 50
        classes = {}
        for i, (a, b) in enumerate(cfg.points):
            classes.setdefault(("row", a), set()).add(i)
            classes.setdefault(("col", b), set()).add(i)
        members = list(classes.values())
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                assert len(members[x] & members[y]) <= 1
        for i in range(50):
            assert sum(i in c for c in members) == 2

    def test_forced_edges_present(self):
        inst = gen_null_grid(30, 7, 2)
        g, cfg = inst.graph, inst.grid
        for i in range(30):
            for j in range(i + 1, 30):
                if cfg.points[i][0] == cfg.points[j][0] or cfg.points[i][1] == cfg.points[j][1]:
                    assert g.edge(i, j)

    def test_off_design_rate(self):
        """Non-design pairs are Ber(q): aggregated over 1e4 seeds at
        (n=50, m=11), 3 sigma."""
        q = grid_rate(11)
        hits = total = 0
        iu = np.triu_indices(50, 1)
        for seed in range(10_000):
            inst = gen_null_grid(50, 11, seed)
            g, cfg = inst.graph, inst.grid
            a = np.array([p[0] for p in cfg.points])
            b = np.array([p[1] for p in cfg.points])
            design = (a[:, None] == a[None, :]) | (b[:, None] == b[None, :])
            free = ~design[iu]
            hits += int(g.adj[iu][free].sum())
            total += int(free.sum())
        se = math.sqrt(q * (1 - q) / total)
        assert abs(hits / total - q) < 3 * se


class TestNullLines:
    def test_rate_formula(self):
        cfg = gen_null_lines(20, 11, 2, 0).grid
        assert mode_rate(cfg.mode, cfg.m, cfg.k) == pytest.approx(0.45)
        assert line_rate(11, 3) == pytest.approx(0.5 - 2 / 18)
        assert line_rate(5, 3) > 0 and line_rate(5, 1) == 0.5

    @pytest.mark.parametrize("m, k", [(1, 2), (5, 0), (5, 4), (4, 3)])
    def test_rate_domain(self, m, k):
        """q > 0 needs 1 <= k and k - 1 < m - k + 1."""
        with pytest.raises(ValueError, match="q > 0"):
            line_rate(m, k)

    def test_prime_required(self):
        with pytest.raises(ValueError):
            gen_null_lines(10, 12, 2, 0)

    def test_k_range(self):
        with pytest.raises(ValueError):
            gen_null_lines(10, 11, 1, 0)
        with pytest.raises(ValueError):
            gen_null_lines(10, 11, 6, 0)

    def test_capacity(self):
        with pytest.raises(ValueError):
            gen_null_lines(56, 11, 2, 0)  # m(m-1)/2 = 55

    def test_same_column_not_related(self):
        assert not bowtie((1, 4), (5, 4), 11, 3)
        assert bowtie((1, 4), (1, 7), 11, 3)  # slope 0
        assert bowtie((3, 1), (5, 2), 11, 3)  # slope 2: 3-5 = -2 = 2*(1-2)

    def test_line_cliques_meet_only_at_the_vertex(self):
        """Each vertex's k line cliques pairwise intersect in that vertex."""
        cfg = gen_null_lines(50, 11, 3, 9).grid
        m, k = cfg.m, cfg.k
        pts = cfg.points
        for v in range(50):
            av, bv = pts[v]
            cliques = []
            for r in range(k):
                members = {
                    u
                    for u, (a, b) in enumerate(pts)
                    if (a - av - r * (b - bv)) % m == 0
                }
                assert v in members
                cliques.append(members)
            assert len(cliques) == k
            for x in range(k):
                for y in range(x + 1, k):
                    assert cliques[x] & cliques[y] == {v}

    def test_forced_edges_match_relation(self):
        inst = gen_null_lines(40, 11, 3, 4)
        g, cfg = inst.graph, inst.grid
        for i in range(40):
            for j in range(i + 1, 40):
                if bowtie(cfg.points[i], cfg.points[j], 11, 3):
                    assert g.edge(i, j)


class TestCrossRateCalibration:
    def test_structure_cross_edge_rate_is_exactly_half(self):
        """q + (1-q) (k-1)/m = 1/2 as exact rationals; this is the degree
        calibration against the fair-coin cross edges."""
        for m in (5, 7, 11, 13):
            q = Fraction(1, 2) - Fraction(1, 2 * m - 2)
            assert q + (1 - q) * Fraction(1, m) == Fraction(1, 2)
            for k in range(2, m // 2 + 1):
                q = Fraction(1, 2) - Fraction(k - 1, 2 * (m - k + 1))
                assert q + (1 - q) * Fraction(k - 1, m) == Fraction(1, 2)


def oracle_gen_coupled(n, m, k, seed):
    """Per-vertex reference for ``gen_coupled``: a fresh ``stream`` for each
    vertex's column and point draws, weights from ``oracle_column_weights``.
    Returns the adjacency, clique, revealed vertex, points and planted
    line."""
    q = line_rate(m, k)
    line_rng = stream(seed, "line")
    planted = (int(line_rng.integers(k)), int(line_rng.integers(m)))
    size_rng = stream(seed, "size")
    s = 0
    while s == 0:
        s = hypergeometric_sample(n, m, m * m, size_rng)
    members = np.sort(stream(seed, "clique").choice(n, size=s, replace=False))
    line = structure_points(planted, m)
    cpts = tuple(line[b] for b in stream(seed, "spoints").permutation(m)[:s].tolist())
    state = AssignmentState("lines", m, k, q, planted, cpts)
    points = {int(v): cpts[j] for j, v in enumerate(members)}
    adj = np.zeros((n, n), dtype=bool)
    adj[np.ix_(members, members)] = True
    for i in range(n):
        if i in points:
            continue
        col = stream(seed, "column", i).random(s) < 0.5
        cands, weights = oracle_column_weights(state, col)
        rng, total = stream(seed, "point", i), weights.sum()
        if total <= 0.0:
            pick = int(rng.integers(len(cands)))
        else:
            u = rng.random() * total
            pick = min(int(np.searchsorted(np.cumsum(weights), u, side="right")), len(cands) - 1)
        points[i] = divmod(int(cands[pick]), m)
        state = state.with_point(points[i])
        adj[members, i] = adj[i, members] = col
    pts = tuple(points[i] for i in range(n))
    u = stream(seed, "noise").random((n, n))
    noise = np.zeros((n, n), dtype=bool)
    noise[np.triu_indices(n, 1)] = u[np.triu_indices(n, 1)] < q
    outside = np.ones(n, dtype=bool)
    outside[members] = False
    out_mask = outside[:, None] & outside[None, :]
    adj[out_mask] = (related(pts, pts, "lines", m, k) | noise | noise.T)[out_mask]
    np.fill_diagonal(adj, False)
    revealed = int(members[stream(seed, "reveal").integers(s)])
    return adj, frozenset(members.tolist()), revealed, pts, planted


class TestCoupled:
    def test_structure(self):
        inst = gen_coupled(50, 11, 3, 0)
        cfg = inst.grid
        r, h = cfg.planted_line
        members = sorted(inst.clique)
        sub = inst.graph.adj[np.ix_(members, members)]
        assert (sub | np.eye(len(members), dtype=bool)).all()
        for v in members:
            a, b = cfg.points[v]
            assert (a - r * b) % 11 == h % 11
        for v in set(range(50)) - inst.clique:
            a, b = cfg.points[v]
            assert (a - r * b) % 11 != h % 11
        assert inst.revealed in inst.clique

    def test_outside_forced_edges(self):
        inst = gen_coupled(40, 11, 2, 8)
        cfg = inst.grid
        out = sorted(set(range(40)) - inst.clique)
        for x, i in enumerate(out):
            for j in out[x + 1 :]:
                if bowtie(cfg.points[i], cfg.points[j], 11, 2):
                    assert inst.graph.edge(i, j)

    def test_clique_size_distribution(self):
        """Mean of |S| over seeds tracks the hypergeometric mean n/m."""
        sizes = [len(gen_coupled(20, 7, 2, seed).clique) for seed in range(400)]
        mean = np.mean(sizes)
        # HG(20, 7, 49) conditioned on s >= 1; the s=0 mass is ~0.03 so the
        # conditioned mean sits slightly above n/m.
        assert abs(mean - 20 / 7) < 0.25
        assert min(sizes) >= 1

    def test_cross_edge_rate(self):
        """Clique-to-outside edges are fair coins: 3 sigma over 1e4 seeds."""
        hits = total = 0
        for seed in range(10_000):
            inst = gen_coupled(10, 5, 2, seed)
            members = sorted(inst.clique)
            out = sorted(set(range(10)) - inst.clique)
            block = inst.graph.adj[np.ix_(members, out)]
            hits += int(block.sum())
            total += block.size
        se = math.sqrt(0.25 / total)
        assert abs(hits / total - 0.5) < 3 * se

    @pytest.mark.parametrize(
        "n, m, k",
        [(50, 11, 3), (30, 11, 2), (60, 13, 3), (20, 7, 2), (21, 7, 3), (100, 17, 4), (50, 11, 5), (7, 7, 2),
         # cliques of 7 to 16 points
         (250, 23, 3)],
    )
    def test_matches_per_vertex_oracle(self, n, m, k):
        """One re-keyed generator and the stacked column weights give the
        instance of the per-vertex loop with fresh streams, byte for byte."""
        for seed in (0, 1, 2, 97, 2**33 + 5):
            inst = gen_coupled(n, m, k, seed)
            adj, clique, revealed, points, line = oracle_gen_coupled(n, m, k, seed)
            assert inst.graph.adj.tobytes() == adj.tobytes()
            assert inst.clique == clique and inst.revealed == revealed
            assert inst.grid.points == points and inst.grid.planted_line == line

    @pytest.mark.parametrize(
        "n, m, k, seed", [(55, 11, 5, 3), (55, 11, 5, 6), (10, 5, 2, 86), (21, 7, 3, 228)]
    )
    def test_uniform_fallback_matches_oracle(self, n, m, k, seed, monkeypatch):
        """Instances where some column has no compatible point, so a vertex
        takes the uniform draw from its "point" stream instead: byte for
        byte the oracle's, which is seen to take that branch."""
        weigh, fallbacks = oracle_column_weights, []

        def recording(state, column):
            cands, weights = weigh(state, column)
            fallbacks.append(weights.sum() <= 0.0)
            return cands, weights

        monkeypatch.setitem(globals(), "oracle_column_weights", recording)
        adj, clique, revealed, points, line = oracle_gen_coupled(n, m, k, seed)
        assert any(fallbacks)
        inst = gen_coupled(n, m, k, seed)
        assert inst.graph.adj.tobytes() == adj.tobytes()
        assert inst.clique == clique and inst.revealed == revealed
        assert inst.grid.points == points and inst.grid.planted_line == line

    @pytest.mark.parametrize("n, m, k", [(50, 11, 3), (30, 11, 2), (55, 11, 5), (3, 11, 2)])
    def test_size_helper_is_the_planted_size(self, n, m, k):
        """``_coupled_size`` gives the size the instance plants, also on
        seeds whose first draw is zero and redrawn (most seeds at n = 3,
        where P(s = 0) = C(110, 3) / C(121, 3) = 0.75)."""
        redrawn = 0
        for seed in range(200):
            assert _coupled_size(n, m, seed) == len(gen_coupled(n, m, k, seed).clique)
            redrawn += hypergeometric_sample(n, m, m * m, stream(seed, "size")) == 0
        if n == 3:
            assert redrawn > 100

    def test_deterministic(self):
        a, b = gen_coupled(30, 11, 3, 123), gen_coupled(30, 11, 3, 123)
        assert np.array_equal(a.graph.adj, b.graph.adj)
        assert a.clique == b.clique and a.revealed == b.revealed
        assert a.grid == b.grid


def fresh_grid_state(m, s, rng=None):
    rng = rng or np.random.default_rng(0)
    bvals = rng.permutation(m)[:s]
    return AssignmentState(
        mode="grid",
        m=m,
        k=2,
        q=grid_rate(m),
        planted=(0, 0),
        clique_points=tuple((0, int(b)) for b in bvals),
    )


class TestConditionalAssignment:
    def test_zero_column_only_free_points(self):
        """With an all-zero column every point forcing an edge is
        incompatible; free points carry weight (1-q)^s."""
        state = fresh_grid_state(7, 3)
        cands, weights = column_weights(state, [0, 0, 0])
        q = state.q
        for i, w in zip(cands, weights):
            if state.masks[i]:
                assert w == 0.0
            else:
                assert w == pytest.approx((1 - q) ** 3)
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = conditional_assignment(state, [0, 0, 0], rng)
            assert state.masks[p[0] * 7 + p[1]] == 0

    def test_marginal_perturbation_rate_is_one_over_m(self):
        """Averaged over columns drawn from the null column law, the chance
        that the sampled point perturbs coordinate j is exactly 1/m.
        Enumerated over all candidate points and columns."""
        from pcsemi.analysis import column_law
        from pcsemi.perturbed_bernoulli import pmf_vector

        m, s = 9, 3
        state = fresh_grid_state(m, s)
        law = column_law(state)
        col_probs = pmf_vector(law.spec)
        for j in range(s):
            marginal = 0.0
            for cmask in range(1 << s):
                column = [(cmask >> jj) & 1 for jj in range(s)]
                cands, weights = column_weights(state, column)
                total = weights.sum()
                if total == 0.0:
                    continue
                perturbing = sum(
                    w for i, w in zip(cands, weights) if int(state.masks[i]) >> j & 1
                )
                marginal += col_probs[cmask] * perturbing / total
            assert marginal == pytest.approx(1.0 / m, abs=1e-12)

    def test_weights_positive_in_fuzzed_configs(self):
        """Desk-scale configurations always leave a compatible point."""
        rng = np.random.default_rng(99)
        for _ in range(20_000):
            m = int(rng.choice([5, 7, 11]))
            mode = "grid" if rng.random() < 0.5 else "lines"
            k = 2 if mode == "grid" else int(rng.integers(2, m // 2 + 1))
            s = int(rng.integers(1, min(m, 5)))
            d = int(rng.integers(0, m))
            from pcsemi.analysis import random_prefix_state

            state = random_prefix_state(rng, mode, m, k, s, d)
            column = (rng.random(s) < 0.5).astype(int)
            _, weights = column_weights(state, column)
            assert weights.sum() > 0.0

    def test_uniform_fallback_on_impossible_column(self):
        """If the planted set saturates every candidate's slope lines, a
        zero-probability column falls back to a uniform draw."""
        m = 3
        state = fresh_grid_state(m, 3)  # s = m: every off-row point shares a column
        cands, weights = column_weights(state, [0, 0, 0])
        assert weights.sum() == 0.0
        rng = np.random.default_rng(1)
        seen = {conditional_assignment(state, [0, 0, 0], rng) for _ in range(200)}
        assert seen <= {divmod(int(i), m) for i in cands} and len(seen) > 1

    def test_no_candidates_raises(self):
        state = fresh_grid_state(3, 2)
        for p in free_points(state):
            state = state.with_point(p)
        with pytest.raises(ValueError):
            conditional_assignment(state, [0, 0], np.random.default_rng(0))


def line_state(m, k, s, rng):
    """Fresh line-mode state with a random planted line and s clique points."""
    from pcsemi.analysis import random_prefix_state

    return random_prefix_state(rng, "lines", m, k, s, 0)


class TestAssignmentStateArrays:
    """The derived arrays a state carries along a ``with_point`` chain agree
    with those the constructor builds from the whole prefix."""

    def test_constructor_and_chain_agree(self):
        from pcsemi.analysis import column_law

        rng = np.random.default_rng(11)
        for m, k, s in [(7, 2, 2), (11, 3, 4), (13, 2, 3)]:
            base = line_state(m, k, s, rng)
            cands = free_points(base)
            prior = [cands[int(i)] for i in rng.permutation(len(cands))[: 2 * m]]
            chained = base
            for p in prior:
                chained = chained.with_point(p)
            built = dataclasses.replace(base, prior_points=tuple(prior))
            assert built == chained
            assert column_law(built) == column_law(chained)
            for _ in range(5):
                column = (rng.random(s) < 0.5).astype(int)
                cb, wb = column_weights(built, column)
                cc, wc = column_weights(chained, column)
                assert np.array_equal(cb, cc) and wb.tobytes() == wc.tobytes()
            for name in ("masks", "keys", "key_rows", "key_bits", "free"):
                assert np.array_equal(getattr(built, name), getattr(chained, name))

    def test_parent_unchanged_by_with_point(self):
        state = line_state(11, 2, 3, np.random.default_rng(5))
        free = state.free.copy()
        cands = free_points(state)
        child = state
        for p in cands[:40]:
            child = child.with_point(p)
        assert np.array_equal(state.free, free)
        assert state.prior_points == ()
        assert free_points(state) == cands
        assert child.free is not state.free
        for name in ("masks", "keys", "key_rows", "key_bits"):
            assert getattr(child, name) is getattr(state, name)
        assert len(free_points(child)) == len(cands) - 40

    def test_equality_and_hash_ignore_derived_arrays(self):
        state = line_state(13, 2, 3, np.random.default_rng(8))
        p, r = free_points(state)[:2]
        a = state.with_point(p).with_point(r)
        b = dataclasses.replace(state, prior_points=(p, r))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != state.with_point(r).with_point(p)
        for name in ("free", "masks", "keys", "key_rows", "key_bits"):
            assert name not in repr(a)

    def test_masks_match_bowtie(self):
        state = line_state(11, 3, 4, np.random.default_rng(2))
        for a in range(11):
            for b in range(11):
                expected = sum(
                    1 << j
                    for j, c in enumerate(state.clique_points)
                    if bowtie((a, b), c, 11, 3)
                )
                assert int(state.masks[a * 11 + b]) == expected


def refusal_state(**change):
    """Line state at m = 11, k = 3, planted line (1, 4), three points on it,
    with the given fields changed."""
    planted = (1, 4)
    fields = dict(
        mode="lines", m=11, k=3, q=line_rate(11, 3), planted=planted,
        clique_points=tuple(structure_points(planted, 11)[:3]),
    )
    return AssignmentState(**{**fields, **change})


class TestAssignmentStateRefusals:
    """A state no coupled process reaches is refused, by the constructor
    and by ``with_point``, instead of aliasing or miscounting a point."""

    def test_fresh_state_is_accepted(self):
        state = refusal_state()
        assert int(state.free.sum()) == 11 * 11 - 11

    @pytest.mark.parametrize(
        "point,message",
        [
            ((0, 11), r"grid point \[0, 11\] outside \[0, 11\)\^2"),
            ((11, 0), r"grid point \[11, 0\] outside"),
            ((-1, 0), r"grid point \[-1, 0\] outside"),
            ((0, -1), r"grid point \[0, -1\] outside"),
            ((9, 5), r"grid point \[9, 5\] is not free"),  # on the line a = 4 + b
        ],
    )
    def test_with_point_refuses_a_point_that_is_not_free(self, point, message):
        state = refusal_state()
        with pytest.raises(ValueError, match=message):
            state.with_point(point)
        assert state.prior_points == () and int(state.free.sum()) == 110

    def test_with_point_refuses_the_same_point_twice(self):
        state = refusal_state().with_point((0, 0))
        with pytest.raises(ValueError, match=r"grid point \[0, 0\] is not free"):
            state.with_point((0, 0))
        assert state.prior_points == ((0, 0),) and int(state.free.sum()) == 109

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"prior_points": ((0, 11),)}, r"prior point \[0, 11\] outside \[0, 11\)\^2"),
            ({"prior_points": ((-1, 3),)}, r"prior point \[-1, 3\] outside"),
            ({"prior_points": ((0, 0), (2, 3), (0, 0))}, "prior points must be distinct"),
            ({"prior_points": ((0, 0), (9, 5))}, r"prior point \[9, 5\] is on the planted line"),
            ({"clique_points": ((4, 0), (0, 1))}, r"clique point \[0, 1\] is off the planted line"),
            ({"clique_points": ((4, 11),)}, r"clique point \[4, 11\] outside"),
            ({"clique_points": ((4, 0), (5, 1), (4, 0))}, "clique points must be distinct"),
            ({"planted": (5, 4)}, r"planted line \[5, 4\] outside \[0, 3\) x \[0, 11\)"),
            ({"planted": (1, 11)}, r"planted line \[1, 11\] outside"),
            ({"planted": (-1, 4)}, r"planted line \[-1, 4\] outside"),
            (
                {"mode": "grid", "q": grid_rate(11), "planted": (1, 0), "clique_points": ()},
                r"planted line \[1, 0\] outside \[0, 1\) x \[0, 11\)",
            ),
        ],
    )
    def test_constructor_refuses_unreachable_states(self, change, message):
        with pytest.raises(ValueError, match=message):
            refusal_state(**change)


def oracle_column_weights(state, column):
    """Reference product for ``column_weights``: one coordinate at a time,
    in j order, a forced coordinate contributing 1[column_j = 1]."""
    cands = np.flatnonzero(state.free)
    q = state.q
    forced = (state.masks[cands, None] >> np.arange(len(column))) & 1
    weights = np.ones(len(cands))
    for j, c in enumerate(column):
        weights *= np.where(forced[:, j], 1.0, q) if c else np.where(forced[:, j], 0.0, 1.0 - q)
    return cands, weights


def all_columns(s):
    """Every clique column of length s as a boolean row, row c holding bit
    mask c."""
    return ((np.arange(1 << s)[:, None] >> np.arange(s)) & 1).astype(bool)


class TestLikelihoodTable:
    """``_weight_rows`` weighs a stack of columns for every grid point and
    gives the bytes of the reference product, at every clique size."""

    def test_matches_product_loop(self):
        from pcsemi.analysis import random_prefix_state

        rng = np.random.default_rng(16)
        zero_rows = 0
        for _ in range(300):
            m = int(rng.choice([3, 5, 7, 11, 13]))
            mode = "grid" if rng.random() < 0.5 or m == 3 else "lines"
            k = 2 if mode == "grid" else int(rng.integers(2, m // 2 + 1))
            s = int(rng.integers(1, min(m, 5) + 1))
            d = int(rng.integers(0, m * m - m))
            state = random_prefix_state(rng, mode, m, k, s, d)
            stacked = _weight_rows(state, all_columns(s))
            for cmask in range(1 << s):
                column = [(cmask >> j) & 1 for j in range(s)]
                cands, weights = column_weights(state, column)
                want_cands, want = oracle_column_weights(state, column)
                assert np.array_equal(cands, want_cands)
                assert weights.tobytes() == want.tobytes()
                assert stacked[cmask, cands].tobytes() == want.tobytes()
                zero_rows += weights.sum() == 0.0
        assert zero_rows  # some column had no compatible candidate

    def test_large_clique_weighs_one_column(self):
        """Cliques of 10 points and more take the same path: each row of a
        stack of random columns matches the product for that column."""
        from pcsemi.analysis import random_prefix_state

        rng = np.random.default_rng(61)
        for s in (10, 11, 19):
            state = random_prefix_state(rng, "lines", 23, 4, s, 40)
            columns = rng.random((20, s)) < 0.5
            stacked = _weight_rows(state, columns)
            for column, row in zip(columns.astype(int), stacked):
                cands, want = oracle_column_weights(state, column)
                assert column_weights(state, column)[1].tobytes() == want.tobytes()
                assert row[cands].tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", range(1, 11))
    def test_all_columns_match_or_coins_rows(self, s):
        """Over all 2^s columns, the weights of each grid point are the
        one-hot ``_or_coins`` row of its forced mask, byte for byte: the
        identity the exact coupled law relies on."""
        from pcsemi.analysis import random_prefix_state
        from pcsemi.perturbed_bernoulli import _or_coins

        state = random_prefix_state(np.random.default_rng(s), "lines", 23, 4, s, 30)
        onehot = np.zeros((len(state.masks), 1 << s))
        onehot[np.arange(len(state.masks)), state.masks] = 1.0
        want = _or_coins(onehot, state.q)
        assert _weight_rows(state, all_columns(s)).T.tobytes() == want.tobytes()

    def test_all_forced_zero_weights(self):
        state = fresh_grid_state(3, 3)  # every off-row point forces a coordinate
        for column in ([0, 0, 0], [1, 0, 1], [1, 1, 1]):
            cands, weights = column_weights(state, column)
            assert weights.tobytes() == oracle_column_weights(state, column)[1].tobytes()
        assert column_weights(state, [0, 0, 0])[1].sum() == 0.0

    @pytest.mark.parametrize("column", [[0, 2, 1], [0.5, 1, 0], [1, -1, 0], np.array([0, 1, 3])])
    def test_non_binary_column_refused(self, column):
        state = fresh_grid_state(7, 3)
        with pytest.raises(ValueError, match="not 0/1"):
            column_weights(state, column)
        with pytest.raises(ValueError, match="not 0/1"):
            conditional_assignment(state, column, np.random.default_rng(0))

    def test_column_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            column_weights(fresh_grid_state(7, 3), [0, 1])


class TestHypergeometricSample:
    def test_all_marked(self):
        rng = np.random.default_rng(0)
        assert hypergeometric_sample(4, 9, 9, rng) == 4

    def test_no_draws(self):
        rng = np.random.default_rng(0)
        assert hypergeometric_sample(0, 3, 9, rng) == 0

    def test_mean(self):
        rng = np.random.default_rng(42)
        n = 100_000
        total = sum(hypergeometric_sample(5, 3, 9, rng) for _ in range(n))
        mean = total / n
        var = 5 * (3 / 9) * (6 / 9) * (4 / 8)
        assert abs(mean - 5 * 3 / 9) < 3 * math.sqrt(var / n)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            hypergeometric_sample(10, 3, 9, rng)
        with pytest.raises(ValueError):
            hypergeometric_sample(3, 10, 9, rng)


ALL_MODELS = {
    "classical": lambda: gen_classical(20, 6, 3),
    "semirandom": lambda: gen_semirandom(20, 6, AdversarySpec.random(0.3), 11),
    "null-grid": lambda: gen_null_grid(20, 7, 2),
    "null-lines": lambda: gen_null_lines(20, 11, 2, 0),
    "coupled": lambda: gen_coupled(30, 11, 3, 5),
}


class TestInstanceFile:
    @pytest.mark.parametrize("model", sorted(ALL_MODELS))
    def test_roundtrip(self, model):
        """Generate, dump, load: every field comes back, the graph as the
        same packed rows."""
        inst = ALL_MODELS[model]()
        assert inst.model == model
        loaded = instance_from_json(json.loads(dump_instance(instance_to_json(inst))))
        assert loaded.graph.rows.tobytes() == inst.graph.rows.tobytes()
        for name in ("clique", "revealed", "model", "params", "seed", "grid"):
            assert getattr(loaded, name) == getattr(inst, name), name
        if model.startswith("null-"):
            assert loaded.clique == frozenset() and loaded.revealed is None
            assert loaded.grid.planted_line is None

    def test_dump_is_deterministic(self):
        inst = gen_coupled(25, 11, 2, 1)
        assert dump_instance(instance_to_json(inst)) == dump_instance(
            instance_to_json(gen_coupled(25, 11, 2, 1))
        )
