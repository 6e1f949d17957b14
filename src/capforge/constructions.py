"""Random graph constructions whose strong-power independence series jumps.

All three constructions start from the complete graph on N = n*nu vertices
and delete a small, audited set of edges:

* canonical: partition the unordered vertex pairs into orbits of the shift
  (x, y) -> (x+n, y+n) mod N and delete one uniformly chosen edge per orbit.
  The tuples (x, x+n, ..., x+(nu-1)n) then form an independent set of size N
  in the nu-th strong power, while small powers keep tiny independence
  numbers with overwhelming probability.
* simple: arrange vertices in n rows of length nu and delete one edge per
  row pair, in a uniformly chosen column. Weaker (row set gives only n in
  the nu-th power) but easier to reason about.
* product: strong product of independently sampled canonical graphs with
  increasing jump indices, sized so each factor's jump survives in the
  product series.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import graphs
from .graphs import DEFAULT_CAP, Graph, _chunks, bitset_rows, edge_pairs, is_independent, power_view, strong_product


@dataclass(frozen=True)
class JumpParams:
    """Parameters of one jump construction: N = n * nu vertices, jump at nu."""

    nu: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.nu < 2:
            raise ValueError(f"nu must be >= 2, got {self.nu}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not (0 <= self.seed < 1 << 64):
            raise ValueError("seed must fit in 64 bits")
        if self.N >= 1 << 63:
            raise ValueError(f"n * nu must be below 2**63, got {self.N}")

    @property
    def N(self) -> int:
        return self.n * self.nu


@dataclass
class EdgeClass:
    """One orbit of the shift relation on unordered vertex pairs."""

    representative: tuple[int, int]
    members: list[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.members)


def _norm_pair(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x < y else (y, x)


def shift_orbit(x: int, y: int, nu: int, n: int) -> list[tuple[int, int]]:
    """Orbit of the pair (x, y) under simultaneous shift by n modulo N,
    as distinct unordered pairs in first-appearance order."""
    N = n * nu
    seen = []
    seen_set = set()
    for t in range(nu):
        p = _norm_pair((x + t * n) % N, (y + t * n) % N)
        if p not in seen_set:
            seen_set.add(p)
            seen.append(p)
    return seen


def _orbit_groups(nu: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The groups orbit_representatives lists its pairs in, in order: for each
    residue x and each q < nu, the pairs (x, y) with y running up from ystart
    below (q+1)*n. Returns x, ystart and the pair count of each group.

    The least member of an orbit starts at the smaller residue mod n, so
    q*n + x < y. When both ends share a residue, the pairs j and nu - j
    steps of n apart are one orbit, so (x, q*n + x) is kept only for
    0 < q <= nu/2.
    """
    x = np.repeat(np.arange(n, dtype=np.int64), nu)
    q = np.tile(np.arange(nu, dtype=np.int64), n)
    same = (q > 0) & (q <= nu // 2)
    return x, q * n + x + 1 - same, n - 1 - x + same


def _group_pairs(x: np.ndarray, ystart: np.ndarray, sizes: np.ndarray):
    """The pairs (x[g], y), y running up from ystart[g], sizes[g] of them for
    each group g in order, as (_EDGE_CHUNK, 2) int64 arrays (the last one
    shorter), so that nothing as long as all the pairs is built."""
    first = np.cumsum(sizes) - sizes  # each group's first row
    total = int(first[-1] + sizes[-1])
    for lo in range(0, total, graphs._EDGE_CHUNK):
        row = np.arange(lo, min(total, lo + graphs._EDGE_CHUNK))
        group = np.searchsorted(first, row, side="right") - 1  # of equal starts, the last is not empty
        yield np.stack((x[group], ystart[group] + row - first[group]), axis=1)


def _gathered(chunks, rows: int) -> np.ndarray:
    """The pairs of ``chunks``, in order, written into one (rows, 2) int64 array."""
    out = np.empty((rows, 2), np.int64)
    done = 0
    for chunk in chunks:
        out[done : done + len(chunk)] = chunk
        done += len(chunk)
    return out


def orbit_representatives(nu: int, n: int) -> np.ndarray:
    """Representatives (least members) of the shift orbits, in ascending
    order, as an (R, 2) int64 array."""
    groups = _orbit_groups(nu, n)
    return _gathered(_group_pairs(*groups), int(groups[2].sum()))


def _orbit_index(pairs: np.ndarray, nu: int, n: int) -> np.ndarray:
    """The position, in orbit_representatives(nu, n), of the orbit of each
    distinct-vertex pair of an (M, 2) array."""
    reps = _representatives_of(pairs, nu, n)
    x, ystart, sizes = _orbit_groups(nu, n)
    group = reps[:, 0] * nu + reps[:, 1] // n
    return (np.cumsum(sizes) - sizes - ystart)[group] + reps[:, 1]


def _representatives_of(pairs: np.ndarray, nu: int, n: int) -> np.ndarray:
    """Orbit representatives of an (M, 2) array of distinct-vertex pairs."""
    N = n * nu
    u, v = pairs[:, 0], pairs[:, 1]
    swap = u % n > v % n
    u, v = np.where(swap, v, u), np.where(swap, u, v)
    x = u % n
    y = (v - u + x) % N
    j = (y - x) // n
    y = np.where(y % n == x, x + np.minimum(j, nu - j) * n, y)
    return np.stack((x, y), axis=1)


def orbit_representative(u: int, v: int, nu: int, n: int) -> tuple[int, int]:
    """Representative of the shift orbit of the pair {u, v} (u != v)."""
    x, y = _representatives_of(np.array([[u, v]], dtype=np.int64), nu, n)[0].tolist()
    return x, y


def equivalence_classes(nu: int, n: int) -> list[EdgeClass]:
    """Partition all unordered pairs of distinct vertices into shift orbits,
    ordered by ascending representative (the lexicographically smallest member).

    Orbits have size nu, except that for even nu the pairs with
    y = x + nu*n/2 (mod N) close early and have size nu/2; there are exactly
    n such short orbits.
    """
    if nu < 2 or n < 2:
        raise ValueError(f"need nu >= 2 and n >= 2, got nu={nu}, n={n}")
    return [EdgeClass((x, y), shift_orbit(x, y, nu, n)) for x, y in orbit_representatives(nu, n).tolist()]


def expected_class_count(nu: int, n: int) -> int:
    """Closed-form orbit count: C(N,2)/nu, plus N/(2 nu) extra when nu is even
    (the N/2 early-closing pairs sit in n orbits of size nu/2). The terms can
    be half-integral individually, so evaluate the sum exactly."""
    N = n * nu
    pairs = N * (N - 1) // 2
    if nu % 2 == 1:
        assert pairs % nu == 0
        return pairs // nu
    assert (2 * pairs + N) % (2 * nu) == 0
    return (2 * pairs + N) // (2 * nu)


@dataclass
class MultiJumpSpec:
    """Product construction: factor i is a canonical jump graph at nus[i].

    Factor sizes follow N_i = round(N_{i-1} ** (alpha * nus[i] / nus[i-1])),
    rounded up to the next multiple of nus[i]; rounding up keeps every
    certificate a valid lower bound. N1 = n1 * nus[0] is given directly.
    """

    nus: tuple[int, ...]
    n1: int
    alpha: float
    seeds: tuple[int, ...]

    def __post_init__(self):
        self.nus = tuple(self.nus)
        self.seeds = tuple(self.seeds)
        if not self.nus:
            raise ValueError("nus must hold at least one jump index")
        if any(v < 2 for v in self.nus):
            raise ValueError(f"nus must all be >= 2, got {self.nus}")
        if any(a >= b for a, b in zip(self.nus, self.nus[1:])):
            raise ValueError(f"nus must be strictly increasing, got {self.nus}")
        if self.n1 < 2:
            raise ValueError(f"n1 must be >= 2, got {self.n1}")
        if not -math.inf < self.alpha < math.inf:  # math.isfinite overflows on a huge int
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if len(self.nus) > 1 and self.alpha <= 1:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if len(self.seeds) != len(self.nus):
            raise ValueError(f"seeds must hold one seed per jump index ({len(self.nus)}), got {len(self.seeds)}")
        self.factor_params()  # every factor must be a valid JumpParams

    @property
    def N1(self) -> int:
        return self.n1 * self.nus[0]

    def sizes(self) -> list[int]:
        out = [self.N1]
        try:
            for prev_nu, cur_nu in zip(self.nus, self.nus[1:]):
                raw = round(math.exp(self.alpha * cur_nu / prev_nu * math.log(out[-1])))
                out.append(-(-raw // cur_nu) * cur_nu)
        except OverflowError:  # beyond float range
            out.append(1 << 63)
        if max(out[1:], default=0) >= 1 << 63:
            raise ValueError(f"alpha={self.alpha} with n1={self.n1} makes a factor size of 2**63 or more")
        return out

    def factor_params(self) -> list[JumpParams]:
        # every size is a multiple of its jump index
        return [JumpParams(nu=nu, n=size // nu, seed=seed) for nu, size, seed in zip(self.nus, self.sizes(), self.seeds)]


@dataclass(eq=False)
class ConstructedGraph:
    """A sampled graph plus everything needed to audit and reproduce it."""

    graph: Graph
    kind: str  # canonical | simple | product
    params: JumpParams | MultiJumpSpec
    removed: np.ndarray  # (M, 2) int64 array of the deleted pairs; empty for a product
    factors: list["ConstructedGraph"] = field(default_factory=list)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConstructedGraph)
            and (self.graph, self.kind, self.params, self.factors) == (other.graph, other.kind, other.params, other.factors)
            and np.array_equal(self.removed, other.removed)
        )

    def parameters(self) -> dict:
        """What the construction is, without its removed edges: kind,
        sizes and seeds, and for a product each factor's parameters."""
        if self.kind == "product":
            spec = self.params
            return {
                "construction": "product",
                "nu_list": list(spec.nus),
                "n": spec.n1,
                "N": self.graph.n,
                "alpha": spec.alpha,
                "sizes": spec.sizes(),
                "seed": None,
                "seeds": list(spec.seeds),
                "factors": [f.parameters() for f in self.factors],
            }
        return {
            "construction": self.kind,
            "nu": self.params.nu,
            "n": self.params.n,
            "N": self.graph.n,
            "seed": self.params.seed,
        }

    def metadata(self) -> dict:
        """The sidecar: parameters() plus the removed edges, as the (M, 2)
        array itself (empty for a product, whose factors carry theirs)."""
        meta = {**self.parameters(), "removed_edges": self.removed}
        if self.kind == "product":
            meta["factors"] = [f.metadata() for f in self.factors]
        return meta


def complete_minus(N: int, removed) -> Graph:
    """The complete graph on N vertices minus the given vertex pairs."""
    if N < 1:
        raise ValueError("n must be positive")
    pairs = edge_pairs(removed)
    for chunk in _chunks(pairs):
        bad = ((chunk < 0) | (chunk >= N)).any(axis=1)
        if bad.any():
            raise ValueError(f"removed edge {tuple(chunk[bad.argmax()].tolist())} out of range for N={N}")
    return Graph(N, bitset_rows(N, pairs, complement=True))


# Generator words are drawn this many at a time, so one chunk's int, bytes and
# arrays are all the sampler holds beyond its output, however many draws it makes.
_WORD_CHUNK = 1 << 12


def _sampler(seed: int):
    """``draw(m)``: the draws ``[rng.randrange(x) for x in m]`` of one
    ``rng = random.Random(seed)``, for an int64 array m, going on from the
    last call; as an int64 array, from the generator's 32-bit words in bulk.

    randrange(m) takes words w until w >> (32 - k) < m, where k is
    m.bit_length(), and returns that value. Sizes that share the threshold
    m << (32 - k), as nu and nu/2 do, accept the same words, so the accepted
    words, in order, are the draws. getrandbits(32 * K) holds the next K
    words, the first in the lowest bits. Accepted words a call does not use
    are kept for the next.
    """
    rng = random.Random(seed)
    threshold = None
    spare = np.empty(0, np.uint32)  # accepted words not drawn on yet

    def draw(sizes: np.ndarray) -> np.ndarray:
        nonlocal threshold, spare
        if len(sizes) and sizes.max() >= 1 << 32:
            raise ValueError(f"nu must be below 2**32 to sample, got {int(sizes.max())}")
        shift = 32 - np.frexp(sizes)[1]  # 32 - m.bit_length()
        if threshold is None and len(sizes):
            threshold = int(sizes[0]) << int(shift[0])
        if (sizes << shift != threshold).any():
            raise ValueError("sizes must share one threshold m << (32 - m.bit_length())")
        out = np.empty(len(sizes), np.int64)
        done = 0
        while done < len(out):
            if not len(spare):
                count = min(_WORD_CHUNK, 2 * (len(out) - done) + 64)  # 2 words per draw at worst, on average
                words = np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")
                spare = words[words < threshold]
            kept, spare = spare[: len(out) - done], spare[len(out) - done :]
            out[done : done + len(kept)] = kept >> shift[done : done + len(kept)]
            done += len(kept)
        return out

    return draw


def _canonical_chunks(params: JumpParams):
    """The edges sample_jump_graph removes, _EDGE_CHUNK orbits at a time:
    each orbit's representative moved by its draw."""
    nu, n, N = params.nu, params.n, params.N
    draw = _sampler(params.seed)
    for chunk in _group_pairs(*_orbit_groups(nu, n)):
        # for even nu the pairs N/2 apart close after nu/2 shifts
        t = draw(np.where((nu % 2 == 0) & (2 * (chunk[:, 1] - chunk[:, 0]) == N), nu // 2, nu))
        chunk += (t * n)[:, None]
        chunk %= N
        chunk.sort(axis=1)
        yield chunk


def _canonical_removed(params: JumpParams) -> np.ndarray:
    """The edges sample_jump_graph removes, as an (M, 2) array."""
    return _gathered(_canonical_chunks(params), expected_class_count(params.nu, params.n))


def sample_jump_graph(params: JumpParams) -> ConstructedGraph:
    """Complete graph minus one uniformly chosen edge per shift orbit.

    Orbits are processed in ascending representative order and each consumes
    exactly one PRNG draw, which picks the orbit member t shifts of n from
    the representative, so the seed pins down the graph.
    """
    removed = _canonical_removed(params)
    return ConstructedGraph(graph=complete_minus(params.N, removed), kind="canonical", params=params, removed=removed)


def _block(params: JumpParams, kind: str) -> list[tuple[int, ...]]:
    """The block every certificate of a canonical or simple graph is a power
    of: a set independent in its nu-th strong power.

    Canonical: the N tuples (x, x+n, ..., x+(nu-1)n) mod N; between any two
    of them the coordinate pairs sweep a whole shift orbit, so the orbit's
    deleted edge shows up in some coordinate. Simple: the n row tuples
    (row*nu, ..., row*nu + nu - 1); each row pair is non-adjacent in its
    deleted column.
    """
    nu, n, N = params.nu, params.n, params.N
    if kind == "simple":
        return [tuple(range(i * nu, (i + 1) * nu)) for i in range(n)]
    return [tuple((x + t * n) % N for t in range(nu)) for x in range(N)]


def _block_power(params: JumpParams, kind: str, k: int) -> list[tuple[int, ...]]:
    """The floor(k/nu)-fold strong power of the block, each tuple padded with
    k mod nu zeros: independent in the k-th power, and the one all-zeros
    tuple below the jump (k < nu)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    copies, pad = divmod(k, params.nu)
    block = _block(params, kind)
    stack = [()]
    for _ in range(copies):
        stack = [acc + b for acc in stack for b in block]
    padding = (0,) * pad
    return [acc + padding for acc in stack]


def explicit_power_set(params: JumpParams, k: int) -> set[tuple[int, ...]]:
    """Certificate for the k-th strong power of the canonical jump graph of
    ``params``: certificate_for without the graph. Size N ** floor(k/nu);
    empty below the jump (k < nu)."""
    cert = set(_block_power(params, "canonical", k))
    return cert if len(cert) > 1 else set()


def _simple_chunks(params: JumpParams):
    """The edges sample_simple_jump_graph removes, _EDGE_CHUNK row pairs
    i < j at a time: each pair's vertices in the column it draws."""
    nu, n = params.nu, params.n
    rows = np.arange(n, dtype=np.int64)
    draw = _sampler(params.seed)
    for pairs in _group_pairs(rows, rows + 1, n - 1 - rows):
        yield pairs * nu + draw(np.full(len(pairs), nu))[:, None]


def _simple_removed(params: JumpParams) -> np.ndarray:
    """The edges sample_simple_jump_graph removes, as an (M, 2) array."""
    return _gathered(_simple_chunks(params), params.n * (params.n - 1) // 2)


def sample_simple_jump_graph(params: JumpParams) -> ConstructedGraph:
    """Row/column variant: vertices in n rows of length nu (vertex = row*nu +
    col); for each row pair delete the edge in one uniformly chosen column.
    Leaves C(N,2) - C(n,2) edges."""
    removed = _simple_removed(params)
    return ConstructedGraph(graph=complete_minus(params.N, removed), kind="simple", params=params, removed=removed)


def multi_jump_product(spec: MultiJumpSpec, cap: int = DEFAULT_CAP) -> ConstructedGraph:
    """Strong product of independently sampled canonical jump graphs."""
    total = math.prod(spec.sizes())
    if total > cap:
        raise ValueError(f"product would have {total} vertices, cap is {cap}")
    factors = [sample_jump_graph(p) for p in spec.factor_params()]
    g = factors[0].graph
    for f in factors[1:]:
        g = strong_product(g, f.graph, cap=cap)
    return ConstructedGraph(
        graph=g, kind="product", params=spec, removed=np.empty((0, 2), np.int64), factors=factors
    )


def certificate_for(cg: ConstructedGraph, k: int) -> set[tuple[int, ...]]:
    """Explicit certificate for cg's k-th power, empty below every jump: the
    power of each jump graph's block (a product's factors, else cg itself),
    combined into flat vertex indices. A factor below its jump gives the
    all-zeros tuple. A strong product of independent sets is independent
    (Shannon 1956), so check_certificate's blocks certify every k."""
    first, *rest = cg.factors or [cg]
    cert = _block_power(first.params, first.kind, k)
    for f in rest:
        size = f.params.N
        cert = [tuple(a * size + b for a, b in zip(t, u)) for t in cert for u in _block_power(f.params, f.kind, k)]
    return set(cert) if len(cert) > 1 else set()


def certificate_size_for(cg: ConstructedGraph, k: int) -> int:
    """Size certificate_for(cg, k) would have, without materializing it."""
    total = math.prod(len(_block(f.params, f.kind)) ** (k // f.params.nu) for f in cg.factors or [cg])
    return total if total > 1 else 0


def check_certificate(cg: ConstructedGraph) -> list[tuple[int, int, bool]]:
    """The one certificate check: (nu, size, independent) for the block
    certificate_for(f, nu) of each jump graph f of cg, checked through the
    power view. Every certificate_for(cg, k) is a power of these blocks (for
    a product, as its graph is the strong product of its factors), so
    checking each once certifies every k."""
    out = []
    for f in cg.factors or [cg]:
        block = certificate_for(f, f.params.nu)
        out.append((f.params.nu, len(block), is_independent(power_view(f.graph, f.params.nu), block)))
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The typed fields of a config file or a sidecar: each key's check and the
# name of the type it wants.
_FIELDS = {
    "construction": (lambda v: isinstance(v, str), "a string"),
    "alpha": (lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v), "a finite number"),
    **dict.fromkeys(("nu", "n", "seed", "n1", "N1"), (_is_int, "an integer")),
    **dict.fromkeys(("nus", "nu_list", "seeds"), (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers")),
}


def check_fields(fields: dict, where: str, keys=None) -> None:
    """Raise ValueError, prefixed with ``where``, for the first of ``keys``
    (default: every key of ``fields`` the table knows) whose value has the
    wrong type. A key of ``keys`` missing from ``fields`` raises KeyError."""
    for key in fields if keys is None else keys:
        if key in _FIELDS and not _FIELDS[key][0](fields[key]):
            raise ValueError(f"{where} {key!r} must be {_FIELDS[key][1]}, got {fields[key]!r}")


def _jump_fields(meta: dict) -> tuple[JumpParams, np.ndarray]:
    """Parameters and removed edges of a canonical or simple sidecar, type-checked."""
    check_fields(meta, "metadata", ("nu", "n", "seed"))
    removed = meta["removed_edges"]
    if not (isinstance(removed, np.ndarray) and removed.dtype == np.int64 and removed.shape[1:] == (2,)):
        raise ValueError("metadata 'removed_edges' must be an (M, 2) int64 array, as io.read_metadata returns it")
    return JumpParams(nu=meta["nu"], n=meta["n"], seed=meta["seed"]), removed


def _product_spec(meta: dict) -> MultiJumpSpec:
    """The spec of a product sidecar, type-checked; its factors must be one
    object per jump index."""
    check_fields(meta, "metadata", ("nu_list", "seeds", "n", "alpha"))
    spec = MultiJumpSpec(nus=tuple(meta["nu_list"]), n1=meta["n"], alpha=meta["alpha"], seeds=tuple(meta["seeds"]))
    factors = meta["factors"]
    if not (isinstance(factors, list) and len(factors) == len(spec.nus) and all(isinstance(f, dict) for f in factors)):
        raise ValueError(f"metadata 'factors' must be a list of {len(spec.nus)} objects, one per jump index")
    return spec


def from_metadata(graph: Graph, meta: dict) -> ConstructedGraph:
    """Rebuild a ConstructedGraph from a graph and its sidecar, as
    io.read_metadata or ConstructedGraph.metadata() returns it.
    Raises ValueError or KeyError on a sidecar that does not describe one,
    before building anything larger than the graph."""
    kind = meta.get("construction")
    if kind in ("canonical", "simple"):
        params, removed = _jump_fields(meta)
        if params.N != graph.n:
            raise ValueError(f"metadata n * nu = {params.N} is not the graph's {graph.n} vertices")
        return ConstructedGraph(graph=graph, kind=kind, params=params, removed=removed)
    if kind == "product":
        spec = _product_spec(meta)
        parsed = []
        for fmeta in meta["factors"]:
            if fmeta.get("construction") != "canonical":
                raise ValueError(f"factor construction {fmeta.get('construction')!r} is not 'canonical'")
            params, removed = _jump_fields(fmeta)
            if fmeta.get("N") != params.N:
                raise ValueError(f"factor N={fmeta.get('N')!r} is not n * nu = {params.N}")
            parsed.append((params, removed))
        total = math.prod(params.N for params, _ in parsed)
        if total != graph.n:
            raise ValueError(f"metadata factor sizes multiply to {total}, not the graph's {graph.n} vertices")
        factors = [ConstructedGraph(complete_minus(p.N, removed), "canonical", p, removed) for p, removed in parsed]
        return ConstructedGraph(
            graph=graph, kind="product", params=spec, removed=np.empty((0, 2), np.int64), factors=factors
        )
    raise ValueError(f"unknown construction kind {kind!r}")


def _tally(counts: np.ndarray, index: np.ndarray) -> None:
    """Add one hit at each of ``index`` to ``counts``, a uint8 count vector
    that saturates at 2, so that it tells none, one and more apart."""
    hit, times = np.unique(index, return_counts=True)
    counts[hit] = np.minimum(counts[hit] + np.minimum(times, 2), 2)


def _orbit_checks(chunks: list[np.ndarray], nu: int, n: int) -> list[tuple[str, bool, str]]:
    """verify_construction's checks of a canonical sidecar's removed pairs,
    given in chunks: the orbit count, each pair that is not a vertex pair
    (u < v), and one removed pair per orbit, tallied in one count per orbit.
    Orbits hit twice are listed, in order of first hit, by a second pass."""
    N = nu * n
    classes = int(_orbit_groups(nu, n)[2].sum())
    checks = [("class count matches closed form", classes == expected_class_count(nu, n), f"{classes} classes")]

    def valid(c: np.ndarray) -> np.ndarray:
        return (0 <= c[:, 0]) & (c[:, 0] < c[:, 1]) & (c[:, 1] < N)

    counts = np.zeros(classes, np.uint8)
    for c in chunks:
        ok = valid(c)
        checks += [("removed edges are valid pairs", False, f"{tuple(pair)} not a vertex pair") for pair in c[~ok].tolist()]
        _tally(counts, _orbit_index(c[ok], nu, n))
    twice = {}
    if (counts > 1).any():
        for c in chunks:
            pairs = c[valid(c)]
            hit = pairs[counts[_orbit_index(pairs, nu, n)] > 1]
            twice.update(dict.fromkeys(map(tuple, _representatives_of(hit, nu, n).tolist())))
    detail = f"classes hit twice: {list(twice)}; classes missed: {int((counts == 0).sum())}"
    return checks + [("one removed edge per class", bool((counts == 1).all()), detail)]


def _row_checks(chunks: list[np.ndarray], nu: int, n: int) -> list[tuple[str, bool, str]]:
    """verify_construction's checks of a simple sidecar's removed pairs,
    given in chunks. Row pairs a < b inside 0..n-1 are tallied in one count
    per pair, at their place in row-major order; the rest, which only a
    tampered sidecar holds, are kept to be compared whole."""
    count = sum(map(len, chunks))
    counts = np.zeros(n * (n - 1) // 2, np.uint8)
    columns, others = True, []
    for c in chunks:
        rows = c // nu
        columns &= bool(((c[:, 0] % nu == c[:, 1] % nu) & (rows[:, 0] != rows[:, 1])).all())
        rows.sort(axis=1)
        a, b = rows[:, 0], rows[:, 1]
        inside = (0 <= a) & (a < b) & (b < n)
        a, b = a[inside], b[inside]
        _tally(counts, a * (2 * n - a - 1) // 2 + b - a - 1)
        others += map(tuple, rows[~inside].tolist())
    return [
        ("one removed edge per row pair", count == len(counts), ""),
        ("removed edges join equal columns of distinct rows", columns, ""),
        ("row pairs all distinct", bool((counts < 2).all()) and len(set(others)) == len(others), ""),
    ]


def _same_pairs(removed: np.ndarray, chunks) -> bool:
    """Whether ``removed`` holds the pairs of ``chunks``, in order, and no more."""
    done = 0
    for chunk in chunks:
        if not np.array_equal(removed[done : done + len(chunk)], chunk):
            return False
        done += len(chunk)
    return done == len(removed)


def verify_construction(cg: ConstructedGraph, meta: dict) -> list[tuple[str, bool, str]]:
    """Re-check a construction that from_metadata rebuilt from a graph and
    its sidecar ``meta``: (name, ok, detail) per check, in a fixed order.
    Canonical and simple graphs share every check but their structural
    ones; products are checked factor by factor. Removed edges are checked
    and compared with the seed's a chunk at a time."""
    checks = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, bool(ok), detail))

    g = cg.graph
    check("N matches header", meta.get("N") == g.n, f"meta {meta.get('N')} vs file {g.n}")
    if cg.kind == "product":
        spec = cg.params
        sizes = spec.sizes()
        check("factor sizes match sizing rule", meta.get("sizes") == sizes, f"{meta.get('sizes')} vs {sizes}")
        prod = cg.factors[0].graph
        for f in cg.factors[1:]:
            prod = strong_product(prod, f.graph, cap=max(DEFAULT_CAP, g.n))
        check("graph equals product of factors", prod == g)
        for f, p in zip(cg.factors, spec.factor_params()):
            check(f"factor nu={p.nu} seed reproduces removed edges", f.params == p and _same_pairs(f.removed, _canonical_chunks(p)))
        # sound once the graph is the product of its factors, checked above
        for k, _, ok in check_certificate(cg):
            check(f"certificate at k={k} independent", ok, f"size {certificate_size_for(cg, k)}")
        return checks

    nu, n, N = cg.params.nu, cg.params.n, g.n
    removed = cg.removed
    chunks = _chunks(removed)
    ok_range = all(((c >= 0) & (c < N)).all() and (c[:, 0] != c[:, 1]).all() for c in chunks)
    check("removed edges in range", ok_range)
    if ok_range:
        check("graph = K_N minus removed edges", complete_minus(N, removed) == g)
    if cg.kind == "canonical":
        checks += _orbit_checks(chunks, nu, n)
        resample = _canonical_chunks
    else:
        checks += _row_checks(chunks, nu, n)
        resample = _simple_chunks
    check("seed reproduces removed edges", _same_pairs(removed, resample(cg.params)))
    ((k, size, ok),) = check_certificate(cg)
    check(
        "certificate independent in power view",
        ok and size == certificate_size_for(cg, k),
        f"size {size}",
    )
    return checks
