"""Graph generators: planted cliques, semi-random adversaries, and the
grid/line null constructions they are coupled to.

Vertices carry latent grid points (a, b) in [0, m) x [0, m).  The design
relation is label sharing: ``design_labels`` gives every point one integer
clique label per family, and two points are design-connected when they carry
the same label in some family.  Grid mode has two families, rows (label a)
and columns (label b); line mode has one family per slope r in {0..k-1},
labelling (a, b) with the offset (a - r b) mod m of its line, m prime.  All
remaining edges are independent coins whose rate q is calibrated so that
edges between a design clique and a fresh vertex look exactly like fair
coins.

Coupled generation and the column laws work on grid indices: ``_label_table``
caches, per (mode, m, k), the labels of the m^2 grid points in (a, b) order,
and an ``AssignmentState`` derives from it, once per lineage, the bit mask of
clique coordinates each grid point forces, the forced-mask index (the K
distinct masks, each grid point's row among them and each mask's bits), and
a mask of the free (off-structure, unassigned) points, which ``with_point``
updates in place of a rebuild.  The state refuses points and planted lines
that no coupled process reaches.

Every instance, generated or loaded, is one ``PlantedInstance``: the null
models carry an empty clique and no revealed vertex, and ``instance_to_json``
/ ``instance_from_json`` are the one file format.  Every generator assembles
its instance in ``_planted``: the clique block forced, the pairs with one end
in the clique from a cross array, every other pair from an outside array,
no loops.  The semi-random outside array is a custom rule or the one stock
fill, Ber(p) coins plus t disjoint planted s-cliques (``AdversarySpec``).

The likelihood of a clique column depends on a candidate point only through
its forced mask, so ``_weight_rows``, the one place a column likelihood is
computed, weighs each distinct mask of the state's index once and gathers
the weights to the grid points; ``gen_coupled``, ``column_weights`` and the
exact coupled law all read it.  ``analysis.column_law`` tallies the free
points over the same index.

Randomness: every generator derives named substreams from (seed, path) via a
counter-based Philox generator keyed by a blake2b hash, so identical seeds
give bit-identical instances and per-vertex streams are reproducible in any
order.  Because Philox is counter-based, ``_rekey`` turns any generator into
the one ``stream(seed, *path)`` would build (key set, counter and buffers
cleared), and ``gen_coupled`` re-keys one generator for each vertex's column
and point draws instead of building two per vertex, with the keys of one
part hashed from a shared "seed/part/" prefix (``_part_keys``).

``gen_coupled`` places the outside vertices in three passes: it draws every
column and point uniform, weighs every grid point for every column at once
(``_weight_rows``), and then picks the points in vertex order over one
in-place mask of free points, as a chain of ``conditional_assignment`` and
``with_point`` steps would.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .perturbed_bernoulli import _as_mask

Point = tuple[int, int]


def _path_digest(seed: int, path: tuple, size: int) -> bytes:
    """blake2b digest of the text path "seed/part/part/..."."""
    text = "/".join([str(int(seed)), *map(str, path)])
    return hashlib.blake2b(text.encode(), digest_size=size).digest()


def _part_keys(seed: int, part: str, indices: Iterable[int]) -> list[tuple[int, int]]:
    """The Philox keys of ``stream(seed, part, i)`` for each index i: the
    16-byte ``_path_digest`` of "seed/part/i", from one hash fed the common
    prefix "seed/part/" once and copied per index."""
    prefix = hashlib.blake2b(f"{int(seed)}/{part}/".encode(), digest_size=16)
    keys = []
    for i in indices:
        h = prefix.copy()
        h.update(str(i).encode())
        keys.append(struct.unpack("=2Q", h.digest()))
    return keys


@lru_cache(maxsize=1)
def _zero_seed():
    """A seed sequence of zeros, so that building a Philox draws no OS
    entropy; ``_rekey`` overwrites the state it seeds at once.  Built on
    first use: the base class lives in ``numpy.random``, which importing
    pcsemi does not load."""

    class ZeroSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return ZeroSeed()


def _rekey(gen: np.random.Generator, seed: int, *path) -> np.random.Generator:
    """Put the Philox generator ``gen`` in the keyed state of ``stream(seed,
    *path)``: counter 0, empty buffer, no saved 32-bit half.  Whatever it
    drew before, it then gives that stream's draws.  The key is the path
    digest read as two native-order 64-bit words, as ``np.frombuffer``
    reads it."""
    return _set_key(gen, struct.unpack("=2Q", _path_digest(seed, path, 16)))


def _set_key(gen: np.random.Generator, key: tuple[int, int]) -> np.random.Generator:
    """``gen`` reset to counter 0 of the Philox stream with this key; the
    state setter takes plain ints, which is cheaper than arrays."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def stream(seed: int, *path) -> np.random.Generator:
    """Independent, reproducible substream keyed by (seed, path).

    The same generator as ``Generator(Philox(key=key))``, keyed by
    ``_rekey``, because ``Philox(key=...)`` first draws OS entropy for a
    seed sequence it never uses.
    """
    return _rekey(np.random.Generator(np.random.Philox(_zero_seed())), seed, *path)


def stream_seed(seed: int, *path) -> int:
    """63-bit derived seed, for handing to generators that want an int."""
    return int.from_bytes(_path_digest(seed, path, 8), "big") >> 1


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def grid_rate(m: int) -> float:
    """Coin rate for the grid null model: 1/2 - 1/(2m-2)."""
    if m < 3:
        raise ValueError(f"grid mode needs m >= 3 (q > 0), got m={m}")
    return 0.5 - 1.0 / (2.0 * m - 2.0)


def line_rate(m: int, k: int) -> float:
    """Coin rate for the line null model: 1/2 - (k-1)/(2(m-k+1))."""
    if k < 1 or k - 1 >= m - k + 1:
        raise ValueError(
            f"line mode needs 1 <= k and k - 1 < m - k + 1 (q > 0), got m={m}, k={k}"
        )
    return 0.5 - (k - 1) / (2.0 * (m - k + 1))


def mode_rate(mode: str, m: int, k: int) -> float:
    """Coin rate q of a design: ``grid_rate(m)`` in grid mode, and
    ``line_rate(m, k)`` in line mode, whose design needs m prime."""
    if mode == "grid":
        return grid_rate(m)
    if mode == "lines":
        q = line_rate(m, k)
        if not is_prime(m):
            raise ValueError(f"line mode needs prime m, got {m}")
        return q
    raise ValueError(f"unknown mode {mode!r}")


def bowtie(p: Point, r: Point, m: int, k: int) -> bool:
    """Whether some slope in {0..k-1} aligns the two grid points (mod m).

    Scalar reference definition of the line-mode relation, kept as an
    independent oracle for ``related``.
    """
    da = p[0] - r[0]
    db = p[1] - r[1]
    return any((da - slope * db) % m == 0 for slope in range(k))


def design_labels(points, mode: str, m: int, k: int) -> np.ndarray:
    """Integer clique label of each point in every design family.

    Returns an (len(points), families) array: columns (a, b) in grid mode,
    and (a - r b) mod m for r = 0..k-1 in line mode.
    """
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    if mode == "grid":
        return pts
    if mode == "lines":
        return (pts[:, :1] - np.arange(k) * pts[:, 1:]) % m
    raise ValueError(f"unknown mode {mode!r}")


def _share_label(lab_l: np.ndarray, lab_r: np.ndarray) -> np.ndarray:
    # one 2-D comparison per family, ORed in place: no (left, right,
    # families) cube to build and reduce
    out = np.zeros((len(lab_l), len(lab_r)), dtype=bool)
    for f in range(lab_l.shape[1]):
        out |= lab_l[:, f, None] == lab_r[:, f]
    return out


def related(left, right, mode: str, m: int, k: int) -> np.ndarray:
    """Boolean (len(left), len(right)) matrix: the two points share a label
    in the same family.  A point is related to itself."""
    return _share_label(design_labels(left, mode, m, k), design_labels(right, mode, m, k))


@lru_cache(maxsize=16)
def _label_table(mode: str, m: int, k: int) -> np.ndarray:
    """The read-only ``design_labels`` of the m^2 grid points in (a, b)
    order, row a * m + b holding point (a, b)."""
    labels = design_labels(np.stack(np.divmod(np.arange(m * m), m), axis=1), mode, m, k)
    labels.flags.writeable = False
    return labels


def structure_points(planted: tuple[int, int], m: int) -> list[Point]:
    """Points of the planted clique (slope r, offset h), indexed by b: the
    line a = h + r b (mod m), which in grid mode (r = 0) is row h."""
    r, h = planted
    return [((h + r * b) % m, b) for b in range(m)]


@dataclass(frozen=True, init=False)
class Graph:
    """Symmetric boolean adjacency with a zero diagonal.

    The adjacency is stored once, packed: ``rows[i]`` holds row i as
    ceil(n/8) bytes, bit j of the row at bit j % 8 of byte j // 8
    (``np.packbits(adj, axis=1, bitorder="little")``), so a graph costs
    n * ceil(n/8) bytes.  ``adj`` unpacks it into a fresh read-only (n, n)
    boolean array on every access; ``neighbor_masks`` reads the rows as
    Python integers for bitset algorithms.
    """

    n: int
    rows: np.ndarray = field(repr=False)

    def __init__(self, n: int, adj: np.ndarray):
        a = np.asarray(adj, dtype=bool)
        if a.shape != (n, n):
            raise ValueError(f"adjacency shape {a.shape} != ({n}, {n})")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if a.diagonal().any():
            raise ValueError("diagonal must be zero")
        rows = np.packbits(a, axis=1, bitorder="little")
        rows.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @property
    def adj(self) -> np.ndarray:
        a = np.unpackbits(self.rows, axis=1, count=self.n, bitorder="little").view(bool)
        a.flags.writeable = False
        return a

    def neighbor_masks(self) -> list[int]:
        """Row i as an integer whose bit j is set when i and j are adjacent."""
        return [int.from_bytes(row.tobytes(), "little") for row in self.rows]

    def edge(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"vertex pair ({i}, {j}) outside 0..{self.n - 1}")
        return bool(self.rows[i, j >> 3] >> (j & 7) & 1)

    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.adj, 1))
        return sorted(zip(iu.tolist(), ju.tolist()))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        a = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            if i == j:
                raise ValueError(f"self loop at {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) outside vertices 0..{n - 1}")
            a[i, j] = a[j, i] = True
        return cls(n=n, adj=a)


def is_clique(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether every two of the given vertices are adjacent."""
    members = sorted(set(int(u) for u in vertices))
    sub = graph.adj[np.ix_(members, members)]
    return bool((sub | np.eye(len(members), dtype=bool)).all())


@dataclass(frozen=True)
class GridConfig:
    """Latent grid assignment behind a null or coupled instance: distinct
    points of [0, m)^2, a planted line (slope, offset) in [0, k) x [0, m) if
    any, and a design with a coin rate (``mode_rate``)."""

    mode: str  # "grid" | "lines"
    m: int
    k: int
    points: tuple[Point, ...]
    planted_line: tuple[int, int] | None

    def __post_init__(self):
        mode_rate(self.mode, self.m, self.k)
        m, k, line = self.m, self.k, self.planted_line
        outside = [list(p) for p in self.points if not (0 <= p[0] < m and 0 <= p[1] < m)]
        if outside:
            raise ValueError(f"grid point {outside[0]} outside [0, {m})^2")
        if len(set(self.points)) != len(self.points):
            raise ValueError("grid points must be distinct")
        if line is not None and not (0 <= line[0] < k and 0 <= line[1] < m):
            raise ValueError(f"planted line {list(line)} outside [0, {k}) x [0, {m})")


@dataclass(frozen=True)
class PlantedInstance:
    """A graph with its ground-truth clique and revealed vertex, generated
    or loaded; a null model has an empty clique and no revealed vertex."""

    graph: Graph
    clique: frozenset[int]
    revealed: int | None
    model: str
    params: dict
    seed: int
    grid: GridConfig | None = None

    def __post_init__(self):
        n = self.graph.n
        outside = sorted(v for v in self.clique if not 0 <= v < n)
        if outside:
            raise ValueError(f"clique vertices {outside} outside vertices 0..{n - 1}")
        if self.revealed is not None and self.revealed not in self.clique:
            raise ValueError(f"revealed vertex {self.revealed} is not in the clique")
        if not is_clique(self.graph, self.clique):
            raise ValueError("clique vertices are not fully connected")
        if self.grid is not None and len(self.grid.points) != n:
            raise ValueError(f"need one grid point per vertex, got {len(self.grid.points)} for n={n}")


@dataclass(frozen=True)
class AdversarySpec:
    """How the edges among non-clique vertices get filled in.

    Only pairs with both endpoints outside the planted set are touched, by
    the stock fill of ``gen_semirandom`` (rate ``p``, ``t`` cliques) or by
    ``custom``'s deterministic rule (i, j) -> bool, evaluated on those pairs
    alone, so it cannot reach clique-incident edges by construction.
    """

    kind: str
    p: float = 0.0
    t: int = 0
    rule: Callable[[int, int], bool] | None = None

    @classmethod
    def empty(cls) -> "AdversarySpec":
        return cls(kind="empty")

    @classmethod
    def random(cls, p: float) -> "AdversarySpec":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge rate {p} outside [0, 1]")
        return cls(kind="random", p=p)

    @classmethod
    def extra_cliques(cls, t: int) -> "AdversarySpec":
        if t < 0:
            raise ValueError("number of extra cliques must be >= 0")
        return cls(kind="extra_cliques", p=0.5, t=t)

    @classmethod
    def custom(cls, rule: Callable[[int, int], bool]) -> "AdversarySpec":
        return cls(kind="custom", rule=rule)

    @classmethod
    def parse(cls, text: str) -> "AdversarySpec":
        """Parse CLI syntax: empty | random:<p> | extra_cliques:<t>."""
        name, _, arg = text.partition(":")
        if text == "empty":
            return cls.empty()
        if name == "random":
            return cls.random(float(arg))
        if name == "extra_cliques":
            return cls.extra_cliques(int(arg))
        raise ValueError(f"unknown adversary {text!r}")

    def label(self) -> str:
        if self.kind == "random":
            return f"random:{self.p}"
        if self.kind == "extra_cliques":
            return f"extra_cliques:{self.t}"
        return self.kind


def _sym_coin(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric i.i.d. Ber(p) matrix with zero diagonal."""
    out = np.triu(rng.random((n, n)) < p, 1)
    return out | out.T


def _choose_clique(n: int, s: int, seed: int) -> np.ndarray:
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    return np.sort(stream(seed, "clique").choice(n, size=s, replace=False))


def _reveal(members: np.ndarray, seed: int) -> int:
    return int(members[stream(seed, "reveal").integers(len(members))])


def _planted(
    n: int, members: np.ndarray, cross: np.ndarray, rest: np.ndarray, seed: int,
    model: str, params: dict, grid: GridConfig | None = None,
) -> PlantedInstance:
    """The instance every generator ends in: a clique on ``members``, each
    pair with one end in it from ``cross`` and every other pair from
    ``rest`` (both symmetric (n, n) boolean arrays; ``rest`` is written
    over), no loops.  A non-empty clique gets a revealed vertex."""
    rest[members, :] = cross[members, :]
    rest[:, members] = cross[:, members]
    rest[np.ix_(members, members)] = True
    np.fill_diagonal(rest, False)
    return PlantedInstance(
        graph=Graph(n=n, adj=rest),
        clique=frozenset(members.tolist()),
        revealed=_reveal(members, seed) if len(members) else None,
        model=model,
        params=params,
        seed=seed,
        grid=grid,
    )


def gen_classical(n: int, s: int, seed: int) -> PlantedInstance:
    """Classical planted clique: fair coins everywhere, one forced clique."""
    members = _choose_clique(n, s, seed)
    coins = _sym_coin(n, 0.5, stream(seed, "edges"))
    return _planted(n, members, coins, coins, seed, "classical", {"n": n, "s": s})


def gen_semirandom(
    n: int, s: int, adversary: AdversarySpec, seed: int
) -> PlantedInstance:
    """Planted clique with fair-coin cross edges and adversarial outside edges.

    The outside pairs take the custom rule if the adversary has one, and
    otherwise the one stock fill: Ber(p) coins from the "adversary" stream,
    then t disjoint s-cliques on a permutation of the outside vertices drawn
    after the coins (``empty`` is p = 0, t = 0, ``random:p`` has t = 0 and
    ``extra_cliques:t`` has p = 1/2).
    """
    members = _choose_clique(n, s, seed)
    outside = np.delete(np.arange(n), members)
    cross = _sym_coin(n, 0.5, stream(seed, "cross"))
    if adversary.rule is not None:
        rest = np.zeros((n, n), dtype=bool)
        for i, j in combinations(outside.tolist(), 2):
            if adversary.rule(i, j):
                rest[i, j] = rest[j, i] = True
    else:
        t = adversary.t
        if t * s > len(outside):
            raise ValueError(
                f"extra_cliques({t}) needs {t * s} outside vertices, have {len(outside)}"
            )
        rng = stream(seed, "adversary")
        rest = _sym_coin(n, adversary.p, rng)
        order = rng.permutation(outside)
        for c in range(t):
            group = order[c * s : (c + 1) * s]
            rest[np.ix_(group, group)] = True
    params = {"n": n, "s": s, "adversary": adversary.label()}
    return _planted(n, members, cross, rest, seed, "semirandom", params)


def _sample_points(n: int, m: int, seed: int) -> np.ndarray:
    idx = stream(seed, "points").permutation(m * m)[:n]
    return np.stack(np.divmod(idx, m), axis=1)


def _gen_null(n: int, m: int, k: int, seed: int, mode: str, params: dict) -> PlantedInstance:
    """Body shared by the null models: n distinct grid points, their design
    relation forced, every other pair a Ber(q) coin; no clique is planted."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    pts = _sample_points(n, m, seed)
    coins = _sym_coin(n, mode_rate(mode, m, k), stream(seed, "edges"))
    adj = related(pts, pts, mode, m, k) | coins
    grid = GridConfig(mode, m, k, tuple(map(tuple, pts.tolist())), planted_line=None)
    return _planted(n, np.arange(0), adj, adj, seed, f"null-{mode}", params, grid)


def gen_null_grid(n: int, m: int, seed: int) -> PlantedInstance:
    """Null model where every vertex lies in one row clique and one column
    clique of an m x m grid; all other edges are Ber(q) coins."""
    grid_rate(m)  # names m < 3 before the capacity check does
    if n > m * m - m:
        raise ValueError(f"need n <= m^2 - m = {m * m - m}, got n={n}")
    return _gen_null(n, m, 2, seed, "grid", {"n": n, "m": m})


def _check_lines_params(n: int, m: int, k: int) -> None:
    if not is_prime(m):
        raise ValueError(f"m must be prime, got m={m}")
    if k < 2 or 2 * k > m:
        raise ValueError(f"need 2 <= k and 2k <= m, got k={k}, m={m}")
    if n > m * (m - 1) // 2:
        raise ValueError(f"need n <= m(m-1)/2 = {m * (m - 1) // 2}, got n={n}")


def gen_null_lines(n: int, m: int, k: int, seed: int) -> PlantedInstance:
    """Null model over the affine lines of slopes 0..k-1 in the prime grid:
    aligned vertices are connected, everything else is a Ber(q) coin."""
    _check_lines_params(n, m, k)
    return _gen_null(n, m, k, seed, "lines", {"n": n, "m": m, "k": k})


def _grid_index(points, m: int, what: str) -> list[int]:
    """Grid indices a * m + b of distinct points of [0, m)^2; a point
    outside the grid or given twice is refused."""
    idx = []
    for a, b in points:
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"{what} [{a}, {b}] outside [0, {m})^2")
        idx.append(a * m + b)
    if len(set(idx)) != len(idx):
        raise ValueError(f"{what}s must be distinct")
    return idx


@dataclass(frozen=True)
class AssignmentState:
    """Partially built latent assignment during coupled generation.

    Holds the planted structure, the clique's points, and the off-structure
    points assigned so far; the next column index is implied by the prefix
    length.  Only these seven fields take part in equality, hashing and
    ``repr``.  A state no coupled process reaches is refused: a planted line
    outside [0, k) x [0, m) (grid mode plants a row, slope 0), clique points
    off that line or repeated, and prior points off the grid, on the line or
    repeated.

    The constructor also derives, once per lineage, index-native views over
    the m^2 grid points in (a, b) order (row a * m + b of ``_label_table``):

    - ``masks``: int64 (m^2,), bit j set when grid point i shares a design
      label with clique point j, i.e. forces the edge to clique coordinate
      j: the subset J of a column law; exact for s < 63, and column laws
      stop at s = MAX_DIM = 20;
    - the forced-mask index: ``keys``, the K distinct masks ascending;
      ``key_rows``, intp (m^2,), each grid point's row in ``keys``; and
      ``key_bits``, int64 (K, s), bit j of each key;
    - ``free``: bool (m^2,), off the planted structure and not yet assigned.

    ``with_point`` hands ``masks`` and the index on by reference and copies
    only ``free``, so a chain of d steps builds them once.
    """

    mode: str
    m: int
    k: int
    q: float
    planted: tuple[int, int]  # (slope, offset); grid mode plants row `offset`
    clique_points: tuple[Point, ...]
    prior_points: tuple[Point, ...] = ()
    masks: np.ndarray = field(init=False, compare=False, repr=False)
    keys: np.ndarray = field(init=False, compare=False, repr=False)
    key_rows: np.ndarray = field(init=False, compare=False, repr=False)
    key_bits: np.ndarray = field(init=False, compare=False, repr=False)
    free: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = self.m
        labels = _label_table(self.mode, m, self.k)
        r, h = self.planted
        slopes = 1 if self.mode == "grid" else self.k
        if not (0 <= r < slopes and 0 <= h < m):
            raise ValueError(f"planted line [{r}, {h}] outside [0, {slopes}) x [0, {m})")
        free = labels[:, r] != h
        for (a, b), i in zip(self.clique_points, _grid_index(self.clique_points, m, "clique point")):
            if free[i]:
                raise ValueError(f"clique point [{a}, {b}] is off the planted line [{r}, {h}]")
        for (a, b), i in zip(self.prior_points, _grid_index(self.prior_points, m, "prior point")):
            if not free[i]:
                raise ValueError(f"prior point [{a}, {b}] is on the planted line [{r}, {h}]")
            free[i] = False
        forced = _share_label(labels, design_labels(self.clique_points, self.mode, m, self.k))
        s = forced.shape[1]
        masks = forced @ (1 << np.arange(s, dtype=np.int64))
        # np.unique(masks, return_inverse=True) from one sort: numpy 2's
        # np.unique costs 2-4x a sort here, and its hashing path adds about
        # 1.5 MB of resident memory on first use
        ordered = np.sort(masks)
        step = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
        keys = ordered[step]
        rows = keys.searchsorted(masks)
        bits = (keys[:, None] >> np.arange(s)) & 1
        for name, value in (("masks", masks), ("keys", keys), ("key_rows", rows), ("key_bits", bits)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "free", free)

    def with_point(self, p: Point) -> "AssignmentState":
        """The state with the free point p assigned next; a point off the
        grid, on the planted line or already assigned is refused."""
        m, (a, b) = self.m, p
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"grid point [{a}, {b}] outside [0, {m})^2")
        i = a * m + b
        if not self.free[i]:
            raise ValueError(f"grid point [{a}, {b}] is not free: on the planted line or already assigned")
        free = self.free.copy()
        free[i] = False
        # a shallow copy, without the constructor's rebuild of the masks
        child = object.__new__(AssignmentState)
        child.__dict__.update(self.__dict__, prior_points=self.prior_points + (p,), free=free)
        return child


def column_weights(state: AssignmentState, column: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Likelihood of an observed clique column for each unused candidate point.

    Returns the candidates' grid indices a * m + b, ascending, and their
    weights, read from ``_weight_rows``.
    """
    cands = np.flatnonzero(state.free)
    if not len(cands):
        raise ValueError("no unused off-structure points remain")
    s = len(state.clique_points)
    _as_mask(s, column)  # refuses a wrong length or an entry other than 0/1
    return cands, _weight_rows(state, np.asarray(column, dtype=bool).reshape(1, s))[0, cands]


def _weight_rows(state: AssignmentState, columns: np.ndarray) -> np.ndarray:
    """(len(columns), m^2) column weights: entry (x, a * m + b) is the weight
    of the clique column ``columns[x]`` (a boolean row of length s) for grid
    point (a, b) with forced set J,

        prod_{j in J} 1[column_j = 1] * prod_{j not in J} q^{column_j} (1-q)^{1-column_j},

    multiplied one coordinate at a time in j order, once per distinct forced
    mask, and gathered to the grid points: the bytes of the one-hot
    ``_or_coins`` row of the mask, which multiplies the same factors in the
    same order."""
    q = state.q
    forced = state.key_bits
    # a forced coordinate contributes 1[column_j = 1]
    weights = np.ones((len(columns), len(state.keys)))
    for j in range(forced.shape[1]):
        on, off = np.where(forced[:, j], 1.0, q), np.where(forced[:, j], 0.0, 1.0 - q)
        weights *= np.where(columns[:, j, None], on, off)
    return weights[:, state.key_rows]


def conditional_assignment(
    state: AssignmentState, column: Sequence[int], rng: np.random.Generator
) -> Point:
    """Draw the latent point for a fresh vertex given its clique column.

    Samples proportionally to the column likelihood over unused
    off-structure points.  If no point is compatible (possible only on
    events the null law never produces), falls back to a uniform draw so the
    coupled law stays a probability measure.
    """
    cands, weights = column_weights(state, column)
    total = weights.sum()
    if total <= 0.0:
        pick = int(rng.integers(len(cands)))
    else:
        u = rng.random() * total
        pick = min(int(np.searchsorted(np.cumsum(weights), u, side="right")), len(cands) - 1)
    return divmod(int(cands[pick]), state.m)


def hypergeometric_sample(
    draws: int, marked: int, total: int, rng: np.random.Generator
) -> int:
    """Count of marked items in a uniform without-replacement sample."""
    if not 0 <= draws <= total:
        raise ValueError(f"need 0 <= draws <= total, got draws={draws}, total={total}")
    if not 0 <= marked <= total:
        raise ValueError(f"need 0 <= marked <= total, got marked={marked}, total={total}")
    if draws == 0 or marked == 0:
        return 0
    return int(rng.hypergeometric(marked, total - marked, draws))


# the most weights ``gen_coupled`` holds at once (16 MiB of floats): it
# weighs the outside vertices in blocks of rows of m^2 weights, so that a
# large grid, such as n = 1000 at m = 1009, never needs an (n, m^2) array
_WEIGHT_BLOCK = 1 << 21


def _check_coupled_params(n: int, m: int, k: int) -> None:
    _check_lines_params(n, m, k)
    if n < 1:
        raise ValueError(f"need n >= 1 to expose a clique, got n={n}")


def _coupled_size(n: int, m: int, seed: int) -> int:
    """The clique size ``gen_coupled(n, m, k, seed)`` plants: a
    hypergeometric count of the m planted-line points among n of the m^2,
    from the "size" stream, redrawn while it is 0.  It reads no other
    stream, so a caller can decide on the size before building anything."""
    size_rng = stream(seed, "size")
    s = hypergeometric_sample(n, m, m * m, size_rng)
    while s == 0:
        s = hypergeometric_sample(n, m, m * m, size_rng)
    return s


def gen_coupled(n: int, m: int, k: int, seed: int) -> PlantedInstance:
    """Semi-random instance coupled to the line null model.

    A random line carries the planted clique; cross edges are fair coins;
    each remaining vertex receives a latent point drawn from the null
    conditional given its realized column; leftover edges follow the null
    rule (aligned -> edge, else Ber(q)).  The clique size is
    ``_coupled_size(n, m, seed)``, which redraws a size of zero so the
    instance always exposes a clique.

    The outside vertices, in index order, take the draws of
    ``conditional_assignment`` in three passes.  The first draws each
    vertex's column and its point uniform from its re-keyed "column" and
    "point" streams.  The second weighs every grid point for every column at
    once (``_weight_rows``).  The third walks the vertices in order over one
    in-place mask of free points: it gathers the free points' weights, and
    picks by cumulative sum, or, when they are all zero, by a uniform index
    from the vertex's re-keyed "point" stream.
    """
    _check_coupled_params(n, m, k)
    q = line_rate(m, k)
    line_rng = stream(seed, "line")
    rstar = int(line_rng.integers(k))
    hstar = int(line_rng.integers(m))
    s = _coupled_size(n, m, seed)

    members = _choose_clique(n, s, seed)
    line = structure_points((rstar, hstar), m)
    cpts = tuple(line[b] for b in stream(seed, "spoints").permutation(m)[:s].tolist())

    state = AssignmentState(
        mode="lines", m=m, k=k, q=q, planted=(rstar, hstar), clique_points=cpts
    )
    points: dict[int, Point] = {int(v): cpts[j] for j, v in enumerate(members)}
    outside = np.delete(np.arange(n), members).tolist()
    rng = np.random.Generator(np.random.Philox(_zero_seed()))  # re-keyed per draw
    columns = np.zeros((len(outside), s), dtype=bool)
    for x, key in enumerate(_part_keys(seed, "column", outside)):
        columns[x] = _set_key(rng, key).random(s) < 0.5
    point_keys = _part_keys(seed, "point", outside)
    uniforms = [_set_key(rng, key).random() for key in point_keys]

    free = state.free.copy()
    block = max(1, _WEIGHT_BLOCK // (m * m))
    for start in range(0, len(outside), block):
        weights = _weight_rows(state, columns[start : start + block])
        for x, row in enumerate(weights, start):
            cands = free.nonzero()[0]
            # summed over the gathered candidates alone: zeros interleaved
            # would change the pairwise sum's rounding
            w = row[cands]
            total = np.add.reduce(w)
            if total <= 0.0:
                pick = int(_set_key(rng, point_keys[x]).integers(len(cands)))
            else:
                u = uniforms[x] * total
                pick = min(int(w.cumsum().searchsorted(u, side="right")), len(cands) - 1)
            i = int(cands[pick])
            free[i] = False
            points[outside[x]] = divmod(i, m)
    cross = np.zeros((n, n), dtype=bool)
    cross[np.ix_(outside, members)] = columns

    pts = [points[i] for i in range(n)]
    rest = related(pts, pts, "lines", m, k) | _sym_coin(n, q, stream(seed, "noise"))
    grid = GridConfig("lines", m, k, tuple(pts), planted_line=(rstar, hstar))
    params = {"n": n, "m": m, "k": k}
    return _planted(n, members, cross | cross.T, rest, seed, "coupled", params, grid)


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


def instance_to_json(inst: PlantedInstance) -> dict:
    grid = inst.grid
    members = sorted(inst.clique)
    return {
        "n": inst.graph.n,
        "s": len(members),
        "model": inst.model,
        "params": inst.params,
        "seed": int(inst.seed),
        "v": None if inst.revealed is None else int(inst.revealed),
        "clique": members,
        "edges": [[i, j] for i, j in inst.graph.edges()],
        "grid": None
        if grid is None
        else {
            "m": grid.m,
            "k": grid.k,
            "r_star": None if grid.planted_line is None else grid.planted_line[0],
            "h_star": None if grid.planted_line is None else grid.planted_line[1],
            "points": [[a, b] for a, b in grid.points],
        },
    }


_GRID_MODE_BY_MODEL = {"null-grid": "grid", "null-lines": "lines", "coupled": "lines"}


def _integer(value, what: str) -> int:
    """One integer field of an instance file; a bool, float or string is
    refused instead of being truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} is {value!r}, not an integer")
    return int(value)


def instance_from_json(record: dict) -> PlantedInstance:
    """The instance an ``instance_to_json`` record describes; the checks of
    ``PlantedInstance`` and ``GridConfig``, and of ``s``, refuse a bad file."""
    n = _integer(record["n"], "n")
    graph = Graph.from_edges(
        n, [(_integer(i, "edge end"), _integer(j, "edge end")) for i, j in record["edges"]]
    )
    grid = None
    graw = record.get("grid")
    if graw is not None:
        m, k = _integer(graw["m"], "grid m"), _integer(graw["k"], "grid k")
        planted = None
        if graw.get("r_star") is not None:
            planted = (_integer(graw["r_star"], "r_star"), _integer(graw["h_star"], "h_star"))
        grid = GridConfig(
            mode=_GRID_MODE_BY_MODEL.get(record["model"], "lines"),
            m=m,
            k=k,
            points=tuple(
                (_integer(a, "grid point"), _integer(b, "grid point")) for a, b in graw["points"]
            ),
            planted_line=planted,
        )
    inst = PlantedInstance(
        graph=graph,
        clique=frozenset(_integer(v, "clique vertex") for v in record["clique"]),
        revealed=None if record.get("v") is None else _integer(record["v"], "v"),
        model=record["model"],
        params=record.get("params", {}),
        seed=_integer(record["seed"], "seed"),
        grid=grid,
    )
    if "s" in record and _integer(record["s"], "s") != len(inst.clique):
        raise ValueError(f"s is {record['s']}, but the clique has {len(inst.clique)} vertices")
    return inst


def dump_instance(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"
