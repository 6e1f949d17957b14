"""Dense bitset graphs, strong products/powers, and independence checking.

Adjacency is one Python int per vertex (bit j of ``adj[u]`` set iff u~j),
which gives the solver constant-time row intersection and keeps a
20,000-vertex graph around 50 MB. Bulk conversions between edge arrays and
rows go through numpy as packed little-endian uint8 rows (n x ceil(n/8)
bytes), unpacked to a byte per bit only a block of rows at a time; no dense
n x n array is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_CAP = 20_000
_BLOCK_BITS = 1 << 22  # unpacked bits per block of rows
# Bulk work on edges goes this many pairs (or, for text, bytes) at a time, so
# that one chunk's temporaries are all that exist beside a command's result,
# however large the graph is. io and constructions read it here.
_EDGE_CHUNK = 1 << 14


class CapExceeded(ValueError):
    """A requested product/power would materialize more vertices than allowed."""


class Graph:
    """Undirected simple graph on vertices 0..n-1 with bitset adjacency rows."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: list[int]):
        self.n = n
        self.adj = adj

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        """Yield edges (u, v) with u < v, ascending."""
        return map(tuple, self.edge_array().tolist())

    def edge_array(self) -> np.ndarray:
        """Edges (u, v) with u < v, ascending, as an (M, 2) int64 array."""
        parts = [np.empty((0, 2), np.int64)]
        for lo, hi in _row_blocks(self.n):
            bits = np.triu(_unpack_rows(self.adj[lo:hi], self.n), k=lo + 1)
            u, v = np.nonzero(bits)
            parts.append(np.stack((u + lo, v), axis=1))
        return np.concatenate(parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def complement_adjacency(self) -> list[int]:
        full = (1 << self.n) - 1
        return [(full ^ row) & ~(1 << v) for v, row in enumerate(self.adj)]

    def check_valid(self) -> None:
        """Assert irreflexivity and symmetry (exhaustive; sampled above 10^4 vertices)."""
        import random as _random

        if self.n <= 10_000:
            pairs = ((u, v) for u in range(self.n) for v in range(u, self.n))
        else:
            rng = _random.Random(0)
            pairs = ((rng.randrange(self.n), rng.randrange(self.n)) for _ in range(200_000))
        for u, v in pairs:
            if u == v:
                if self.adj[u] >> u & 1:
                    raise AssertionError(f"self-loop at {u}")
            elif (self.adj[u] >> v & 1) != (self.adj[v] >> u & 1):
                raise AssertionError(f"asymmetric pair ({u},{v})")


def _row_blocks(n: int, width: int | None = None, budget: int | None = None):
    """(lo, hi) bounds of consecutive blocks of rows, ``width`` bytes (default
    n) per row, each at most ``budget`` (default _BLOCK_BITS) bytes unless one
    row is wider."""
    step = max(1, (budget or _BLOCK_BITS) // max(width or n, 1))
    return ((lo, min(n, lo + step)) for lo in range(0, n, step))


def _unpack_rows(rows: list[int], width: int) -> np.ndarray:
    """The first ``width`` bits of each bitset row, as a (len(rows), width) uint8 0/1 array."""
    nbytes = (width + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    packed = np.frombuffer(buf, np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def _ints(packed: np.ndarray) -> list[int]:
    """Each row of a packed little-endian uint8 array as one bitset int."""
    buf, nbytes = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(buf[i : i + nbytes], "little") for i in range(0, len(buf), nbytes)]


def edge_pairs(edges) -> np.ndarray:
    """Endpoint pairs (an array or an iterable of pairs) as an (M, 2) int64 array."""
    arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if arr.size == 0:
        return np.empty((0, 2), np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "biu":
        raise ValueError("edges must be pairs of integers")
    return arr.astype(np.int64, copy=False)


def _chunks(pairs: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of ``pairs``, _EDGE_CHUNK rows each but the last."""
    return [pairs[lo : lo + _EDGE_CHUNK] for lo in range(0, len(pairs), _EDGE_CHUNK)]


def _set_pairs(packed: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Set bit v of packed row u, for each u, v in turn."""
    np.bitwise_or.at(packed, (u, v >> 3), np.left_shift(1, v & 7).astype(np.uint8))


def _add_edges(packed: np.ndarray, pairs: np.ndarray) -> None:
    """Set both bits of each in-range pair of ``pairs`` in packed rows."""
    _set_pairs(packed, pairs[:, 0], pairs[:, 1])
    _set_pairs(packed, pairs[:, 1], pairs[:, 0])


def bitset_rows(n: int, pairs: np.ndarray, complement: bool = False) -> list[int]:
    """Adjacency rows of the graph on n vertices with the edges ``pairs``, an
    (M, 2) array of in-range endpoints (duplicates collapse), set _EDGE_CHUNK
    pairs at a time; of its complement instead when ``complement`` is set."""
    packed = np.zeros((n, (n + 7) // 8), np.uint8)
    for chunk in _chunks(pairs):
        _add_edges(packed, chunk)
    if complement:
        _set_pairs(packed, np.arange(n), np.arange(n))  # kept clear in a complement
        np.invert(packed, out=packed)
        packed[:, -1] &= np.uint8((1 << (n % 8 or 8)) - 1)  # the bits of the last byte that are vertices
    return _ints(packed)


def make_graph(vertex_count: int, edges) -> Graph:
    """Build a graph from unordered endpoint pairs; duplicates collapse silently."""
    if vertex_count < 1:
        raise ValueError(f"vertex_count must be positive, got {vertex_count}")
    pairs = edge_pairs(edges)
    bad = (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= vertex_count)).any(axis=1)
    if bad.any():
        u, v = pairs[bad.argmax()].tolist()
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed")
        raise ValueError(f"edge ({u},{v}) out of range for n={vertex_count}")
    return Graph(vertex_count, bitset_rows(vertex_count, pairs))


def empty_graph(n: int) -> Graph:
    return make_graph(n, [])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("n must be positive")
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def strong_product(g: Graph, h: Graph, cap: int = DEFAULT_CAP) -> Graph:
    """Strong product: (a,b) ~ (a',b') iff distinct and adjacent-or-equal in
    both coordinates. Vertex (a,b) gets flat index a*|V(h)| + b."""
    n = g.n * h.n
    if n > cap:
        raise CapExceeded(f"product has {n} vertices, cap is {cap}")
    h_aoe = [row | (1 << b) for b, row in enumerate(h.adj)]  # adjacent-or-equal rows
    adj: list[int] = []
    for a, row_a in enumerate(g.adj):
        # spread has bit a' * |V(h)| per a' adjacent-or-equal to a: h_aoe[b] * spread
        # pastes the |V(h)|-bit row b once per block, with no overlap or carry
        spread = 1 << a * h.n
        while row_a:
            low = row_a & -row_a
            row_a ^= low
            spread |= 1 << (low.bit_length() - 1) * h.n
        adj.extend((hb * spread) ^ (1 << (a * h.n + b)) for b, hb in enumerate(h_aoe))
    return Graph(n, adj)


def strong_power(g: Graph, k: int, cap: int = DEFAULT_CAP) -> Graph:
    """k-fold strong product of g with itself; coordinate 0 is most significant
    in the flat index, matching tuple_to_index."""
    if k < 1:
        raise ValueError("exponent must be >= 1")
    if g.n**k > cap:
        raise CapExceeded(f"power has {g.n ** k} vertices, cap is {cap}")
    out = g
    for _ in range(k - 1):
        out = strong_product(out, g, cap=cap)
    return out


def tuple_to_index(coords, base_n: int) -> int:
    idx = 0
    for c in coords:
        idx = idx * base_n + c
    return idx


def index_to_tuple(idx: int, base_n: int, k: int) -> tuple[int, ...]:
    coords = [0] * k
    for i in range(k - 1, -1, -1):
        idx, coords[i] = divmod(idx, base_n)
    return tuple(coords)


@dataclass(frozen=True)
class PowerGraphView:
    """Implicit adjacency oracle for g^k; never materializes the power."""

    base: Graph
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("exponent must be >= 1")

    @property
    def n(self) -> int:
        return self.base.n**self.k

    def _check(self, t) -> None:
        if len(t) != self.k:
            raise ValueError(f"tuple {t} has length {len(t)}, expected {self.k}")
        for c in t:
            if not (0 <= c < self.base.n):
                raise ValueError(f"coordinate {c} out of range for base n={self.base.n}")

    def adjacent(self, u, v) -> bool:
        self._check(u)
        self._check(v)
        if u == v:
            return False
        adj = self.base.adj
        for a, b in zip(u, v):
            if a != b and not (adj[a] >> b & 1):
                return False
        return True


def power_view(g: Graph, k: int) -> PowerGraphView:
    return PowerGraphView(g, k)


def _is_independent_graph(g: Graph, members) -> bool:
    mask = 0
    for v in members:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    for v in members:
        if g.adj[v] & mask:
            return False
    return True


def _is_independent_view(view: PowerGraphView, members: list) -> bool:
    # Members i and j are adjacent-or-equal at coordinate c iff bit t_j[c] is
    # set in the base's adjacent-or-equal row of t_i[c]. For a block of
    # members j, gather those bits into packed rows per coordinate and AND
    # them over the coordinates: the set is independent iff each member then
    # keeps only its own bit. A block of B members holds V x B bits before
    # packing and M x B/8 bytes after, so B is sized by the larger of the two.
    base = view.base
    tuples = np.array(members, dtype=np.int64)
    values, where = np.unique(tuples, return_inverse=True)
    where = where.reshape(tuples.shape)
    nbytes = (base.n + 7) // 8
    buf = b"".join((base.adj[x] | 1 << x).to_bytes(nbytes, "little") for x in values.tolist())
    aoe = np.frombuffer(buf, np.uint8).reshape(len(values), nbytes)
    for lo, hi in _row_blocks(len(members), max(len(values), len(members) // 8)):
        acc = None
        for c in range(view.k):
            col = tuples[lo:hi, c]
            bits = np.take(aoe, col >> 3, axis=1)  # a new C-ordered array for packbits, shifted and masked in place
            bits >>= (col & 7).astype(np.uint8)
            bits &= 1
            rows = np.packbits(bits, axis=1, bitorder="little")[where[:, c]]
            del bits  # before the next coordinate's block is made
            acc = rows if acc is None else np.bitwise_and(acc, rows, out=acc)
        own = np.arange(hi - lo)
        acc[own + lo, own >> 3] &= ~np.left_shift(1, own & 7).astype(np.uint8)
        if acc.any():
            return False
    return True


def is_independent(g, members) -> bool:
    """True iff no two distinct members are adjacent. Accepts a Graph or a
    PowerGraphView; members are vertex ids or coordinate tuples respectively."""
    if isinstance(g, Graph):
        return _is_independent_graph(g, set(members))
    if isinstance(g, PowerGraphView):
        unique = list(dict.fromkeys(tuple(t) for t in members))
        for t in unique:
            g._check(t)
        return _is_independent_view(g, unique)
    raise TypeError(f"expected Graph or PowerGraphView, got {type(g).__name__}")
