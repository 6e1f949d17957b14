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
from itertools import chain, repeat

import numpy as np

from .graphs import DEFAULT_CAP, Graph, bitset_rows, edge_pairs, is_independent, power_view, strong_product

CERT_VERIFY_LIMIT = 200_000  # max certificate members to re-verify inline


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


def orbit_representatives(nu: int, n: int) -> np.ndarray:
    """Representatives (least members) of the shift orbits, in ascending
    order, as an (R, 2) int64 array.

    The least member of an orbit starts at the smaller residue mod n: for each
    residue x and each q < nu, the pairs (x, y) with q*n + x < y < (q+1)*n.
    When both ends share a residue, the pairs j and nu - j steps of n apart
    are one orbit, so (x, q*n + x) is kept only for 0 < q <= nu/2.
    """
    x = np.repeat(np.arange(n, dtype=np.int64), nu)
    q = np.tile(np.arange(nu, dtype=np.int64), n)
    same = (q > 0) & (q <= nu // 2)
    sizes = n - 1 - x + same  # pairs per (x, q)
    reps = np.empty((sizes.sum(), 2), np.int64)
    reps[:, 0] = np.repeat(x, sizes)
    y = reps[:, 1]
    y[:] = np.arange(len(reps))
    y -= np.repeat(np.cumsum(sizes) - sizes, sizes)
    y += np.repeat(q * n + x + 1 - same, sizes)
    return reps


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
            raise ValueError("need at least one jump index")
        if any(v < 2 for v in self.nus):
            raise ValueError("every jump index must be >= 2")
        if any(a >= b for a, b in zip(self.nus, self.nus[1:])):
            raise ValueError(f"jump indices must be strictly increasing, got {self.nus}")
        if self.n1 < 2:
            raise ValueError("n1 must be >= 2")
        if len(self.nus) > 1 and self.alpha <= 1:
            raise ValueError("alpha must exceed 1")
        if len(self.seeds) != len(self.nus):
            raise ValueError(f"need {len(self.nus)} seeds, got {len(self.seeds)}")

    @property
    def N1(self) -> int:
        return self.n1 * self.nus[0]

    def sizes(self) -> list[int]:
        out = [self.N1]
        for prev_nu, cur_nu in zip(self.nus, self.nus[1:]):
            raw = round(math.exp(self.alpha * cur_nu / prev_nu * math.log(out[-1])))
            out.append(-(-raw // cur_nu) * cur_nu)
        return out

    def factor_params(self) -> list[JumpParams]:
        params = []
        for nu, size, seed in zip(self.nus, self.sizes(), self.seeds):
            if size % nu or size // nu < 2:
                raise ValueError(f"factor size {size} not realizable for nu={nu}")
            params.append(JumpParams(nu=nu, n=size // nu, seed=seed))
        return params


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

    @property
    def removed_edges(self) -> list[tuple[int, int]]:
        """The deleted pairs as a list of tuples, built on each access."""
        return list(zip(*self.removed.T.tolist()))

    def metadata(self) -> dict:
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
                "removed_edges": [],
                "factors": [f.metadata() for f in self.factors],
            }
        return {
            "construction": self.kind,
            "nu": self.params.nu,
            "n": self.params.n,
            "N": self.graph.n,
            "seed": self.params.seed,
            "removed_edges": self.removed.tolist(),
        }


def complete_minus(N: int, removed) -> Graph:
    """The complete graph on N vertices minus the given vertex pairs."""
    if N < 1:
        raise ValueError("n must be positive")
    pairs = edge_pairs(removed)
    bad = ((pairs < 0) | (pairs >= N)).any(axis=1)
    if bad.any():
        raise ValueError(f"removed edge {tuple(pairs[bad.argmax()].tolist())} out of range for N={N}")
    return Graph(N, bitset_rows(N, pairs, complement=True))


def _canonical_removed(params: JumpParams) -> np.ndarray:
    """The edges sample_jump_graph removes, as an (M, 2) array."""
    nu, n, N = params.nu, params.n, params.N
    pairs = orbit_representatives(nu, n)
    # for even nu the pairs N/2 apart close after nu/2 shifts
    sizes = np.where((nu % 2 == 0) & (2 * (pairs[:, 1] - pairs[:, 0]) == N), nu // 2, nu).tolist()
    t = np.fromiter(map(random.Random(params.seed).randrange, sizes), np.int64, len(sizes))
    del sizes
    pairs += (t * n)[:, None]
    pairs %= N
    pairs.sort(axis=1)
    return pairs


def sample_jump_graph(params: JumpParams) -> ConstructedGraph:
    """Complete graph minus one uniformly chosen edge per shift orbit.

    Orbits are processed in ascending representative order and each consumes
    exactly one PRNG draw, which picks the orbit member t shifts of n from
    the representative, so the seed pins down the graph.
    """
    removed = _canonical_removed(params)
    return ConstructedGraph(graph=complete_minus(params.N, removed), kind="canonical", params=params, removed=removed)


def explicit_power_set(params: JumpParams, k: int) -> set[tuple[int, ...]]:
    """Certificate for the k-th strong power of a canonical jump graph.

    For k = nu this is the N tuples (x, x+n, ..., x+(nu-1)n) mod N: between
    any two of them the coordinate pairs sweep a whole shift orbit, so the
    orbit's deleted edge shows up in some coordinate. For larger k, take
    floor(k/nu) independent blocks and pad the last k mod nu coordinates with
    vertex 0. Size N ** floor(k/nu); empty below the jump (k < nu).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nu, n, N = params.nu, params.n, params.N
    if k < nu:
        return set()
    blocks, pad = divmod(k, nu)
    base = [tuple((x + t * n) % N for t in range(nu)) for x in range(N)]
    stack = [()]
    for _ in range(blocks):
        stack = [acc + b for acc in stack for b in base]
    padding = (0,) * pad
    return {acc + padding for acc in stack}


def explicit_power_set_size(params: JumpParams, k: int) -> int:
    """Size the certificate would have, without materializing it."""
    if k < params.nu:
        return 0
    return params.N ** (k // params.nu)


def _simple_removed(params: JumpParams) -> np.ndarray:
    """The edges sample_simple_jump_graph removes, as an (M, 2) array."""
    nu, n = params.nu, params.n
    i, j = np.triu_indices(n, k=1)
    col = np.fromiter(map(random.Random(params.seed).randrange, repeat(nu, len(i))), np.int64, len(i))
    return np.stack((i * nu + col, j * nu + col), axis=1)


def sample_simple_jump_graph(params: JumpParams) -> ConstructedGraph:
    """Row/column variant: vertices in n rows of length nu (vertex = row*nu +
    col); for each row pair delete the edge in one uniformly chosen column.
    Leaves C(N,2) - C(n,2) edges."""
    removed = _simple_removed(params)
    return ConstructedGraph(graph=complete_minus(params.N, removed), kind="simple", params=params, removed=removed)


def simple_explicit_set(params: JumpParams, g: ConstructedGraph) -> set[tuple[int, ...]]:
    """The n row tuples (row*nu, ..., row*nu + nu - 1); each row pair is
    non-adjacent in its deleted column, so the set is independent in the
    nu-th power."""
    if g.kind != "simple":
        raise ValueError(f"expected a simple construction, got kind={g.kind!r}")
    if g.params != params:
        raise ValueError("params do not match the construction")
    nu = params.nu
    return {tuple(range(i * nu, (i + 1) * nu)) for i in range(params.n)}


def multi_jump_product(spec: MultiJumpSpec, cap: int = DEFAULT_CAP) -> ConstructedGraph:
    """Strong product of independently sampled canonical jump graphs."""
    factor_params = spec.factor_params()
    total = math.prod(p.N for p in factor_params)
    if total > cap:
        raise ValueError(f"product would have {total} vertices, cap is {cap}")
    factors = [sample_jump_graph(p) for p in factor_params]
    g = factors[0].graph
    for f in factors[1:]:
        g = strong_product(g, f.graph, cap=cap)
    return ConstructedGraph(
        graph=g, kind="product", params=spec, removed=np.empty((0, 2), np.int64), factors=factors
    )


def product_certificate(cg: ConstructedGraph, k: int) -> set[tuple[int, ...]]:
    """Combine factor certificates into one for the product's k-th power.

    Factors below their jump (k < nu_i) contribute the all-zeros tuple, so the
    combined size is the product of max(|certificate_i|, 1).
    """
    if cg.kind != "product":
        raise ValueError(f"expected a product construction, got kind={cg.kind!r}")
    factor_sizes = [f.graph.n for f in cg.factors]
    certs = []
    for f in cg.factors:
        c = explicit_power_set(f.params, k)
        certs.append(sorted(c) if c else [(0,) * k])
    combos = [()]
    for c in certs:
        combos = [acc + (t,) for acc in combos for t in c]
    out = set()
    for combo in combos:
        coords = []
        for j in range(k):
            flat = 0
            for i, size in enumerate(factor_sizes):
                flat = flat * size + combo[i][j]
            coords.append(flat)
        out.add(tuple(coords))
    return out


def certificate_for(cg: ConstructedGraph, k: int) -> set[tuple[int, ...]]:
    """Best explicit certificate available for cg's k-th power (may be empty)."""
    if cg.kind == "canonical":
        return explicit_power_set(cg.params, k)
    if cg.kind == "simple":
        if k == cg.params.nu:
            return simple_explicit_set(cg.params, cg)
        return set()
    if cg.kind == "product":
        cert = product_certificate(cg, k)
        return cert if len(cert) > 1 else set()
    raise ValueError(f"unknown construction kind {cg.kind!r}")


def certificate_size_for(cg: ConstructedGraph, k: int) -> int:
    """Size certificate_for(cg, k) would have, without materializing it."""
    if cg.kind == "canonical":
        return explicit_power_set_size(cg.params, k)
    if cg.kind == "simple":
        return cg.params.n if k == cg.params.nu else 0
    if cg.kind == "product":
        total = math.prod(max(explicit_power_set_size(f.params, k), 1) for f in cg.factors)
        return total if total > 1 else 0
    raise ValueError(f"unknown construction kind {cg.kind!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _pair_array(removed: list[list[int]]) -> np.ndarray:
    """A sidecar's integer pairs as an (M, 2) int64 array."""
    try:
        return np.fromiter(chain.from_iterable(removed), np.int64, 2 * len(removed)).reshape(-1, 2)
    except OverflowError:
        raise ValueError("metadata 'removed_edges' holds an integer beyond 64 bits") from None


def _jump_fields(meta: dict) -> tuple[JumpParams, np.ndarray]:
    """Parameters and removed edges of a canonical or simple sidecar, type-checked."""
    for key in ("nu", "n", "seed"):
        if not _is_int(meta[key]):
            raise ValueError(f"metadata {key!r} must be an integer, got {meta[key]!r}")
    removed = meta["removed_edges"]
    if not (
        isinstance(removed, list)
        and set(map(type, removed)) <= {list}
        and set(map(len, removed)) <= {2}
        and set(map(type, chain.from_iterable(removed))) <= {int}
    ):
        raise ValueError("metadata 'removed_edges' must be a list of integer pairs")
    params = JumpParams(nu=meta["nu"], n=meta["n"], seed=meta["seed"])
    return params, _pair_array(removed)


def _product_spec(meta: dict) -> MultiJumpSpec:
    """The spec of a product sidecar, type-checked; its factors must be one
    object per jump index."""
    for key in ("nu_list", "seeds"):
        if not (isinstance(meta[key], list) and all(map(_is_int, meta[key]))):
            raise ValueError(f"metadata {key!r} must be a list of integers, got {meta[key]!r}")
    if not _is_int(meta["n"]):
        raise ValueError(f"metadata 'n' must be an integer, got {meta['n']!r}")
    alpha = meta["alpha"]
    if not ((_is_int(alpha) or isinstance(alpha, float)) and math.isfinite(alpha)):
        raise ValueError(f"metadata 'alpha' must be a finite number, got {alpha!r}")
    spec = MultiJumpSpec(nus=tuple(meta["nu_list"]), n1=meta["n"], alpha=alpha, seeds=tuple(meta["seeds"]))
    factors = meta["factors"]
    if not (isinstance(factors, list) and len(factors) == len(spec.nus) and all(isinstance(f, dict) for f in factors)):
        raise ValueError(f"metadata 'factors' must be a list of {len(spec.nus)} objects, one per jump index")
    return spec


def from_metadata(graph: Graph, meta: dict) -> ConstructedGraph:
    """Rebuild a ConstructedGraph from a deserialized graph and its sidecar.
    Raises ValueError or KeyError on a sidecar that does not describe one."""
    kind = meta.get("construction")
    if kind in ("canonical", "simple"):
        params, removed = _jump_fields(meta)
        return ConstructedGraph(graph=graph, kind=kind, params=params, removed=removed)
    if kind == "product":
        spec = _product_spec(meta)
        factors = []
        for fmeta in meta["factors"]:
            params, removed = _jump_fields(fmeta)
            if fmeta.get("N") != params.N:
                raise ValueError(f"factor N={fmeta.get('N')!r} is not n * nu = {params.N}")
            factors.append(from_metadata(complete_minus(params.N, removed), fmeta))
        return ConstructedGraph(
            graph=graph, kind="product", params=spec, removed=np.empty((0, 2), np.int64), factors=factors
        )
    raise ValueError(f"unknown construction kind {kind!r}")


def verify_construction(g: Graph, meta: dict) -> list[tuple[str, bool, str]]:
    """Re-check a graph against its construction sidecar: (name, ok, detail)
    per check, in a fixed order. Canonical and simple graphs share every
    check but their structural ones; products are checked factor by factor."""
    checks = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, bool(ok), detail))

    try:
        cg = from_metadata(g, meta)
    except (ValueError, KeyError) as exc:
        check("metadata consistent", False, str(exc))
        return checks
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
            same = f.params == p and np.array_equal(_canonical_removed(p), f.removed)
            check(f"factor nu={p.nu} seed reproduces removed edges", same)
        for nu_i in spec.nus:
            name = f"certificate at k={nu_i} independent"
            if certificate_size_for(cg, nu_i) > CERT_VERIFY_LIMIT:
                check(name, True, "skipped (too large)")
                continue
            cert = certificate_for(cg, nu_i)
            check(name, is_independent(power_view(g, nu_i), cert), f"size {len(cert)}")
        return checks

    nu, n, N = cg.params.nu, cg.params.n, g.n
    removed = cg.removed
    u, v = removed[:, 0], removed[:, 1]
    ok_range = ((removed >= 0) & (removed < N)).all() and (u != v).all()
    check("removed edges in range", ok_range)
    if ok_range:
        check("graph = K_N minus removed edges", complete_minus(N, removed) == g)
    if cg.kind == "canonical":
        reps = orbit_representatives(nu, n)
        check("class count matches closed form", len(reps) == expected_class_count(nu, n), f"{len(reps)} classes")
        valid = (0 <= u) & (u < v) & (v < nu * n)
        for pair in removed[~valid].tolist():
            check("removed edges are valid pairs", False, f"{tuple(pair)} not a vertex pair")
        hits = _representatives_of(removed[valid], nu, n)
        codes = hits[:, 0] * (nu * n) + hits[:, 1]
        _, first, counts = np.unique(codes, return_index=True, return_counts=True)
        multi = [tuple(rep) for rep in hits[np.sort(first[counts > 1])].tolist()]
        check(
            "one removed edge per class",
            np.array_equal(np.sort(codes), reps[:, 0] * (nu * n) + reps[:, 1]),
            f"classes hit twice: {multi}; classes missed: {len(reps) - len(first)}",
        )
        resample = _canonical_removed(cg.params)
    else:
        check("one removed edge per row pair", len(removed) == n * (n - 1) // 2)
        rows = removed // nu
        check("removed edges join equal columns of distinct rows", ((u % nu == v % nu) & (rows[:, 0] != rows[:, 1])).all())
        row_pairs = np.unique(np.sort(rows, axis=1), axis=0)
        check("row pairs all distinct", len(row_pairs) == len(removed))
        resample = _simple_removed(cg.params)
    check("seed reproduces removed edges", np.array_equal(resample, removed))
    cert = certificate_for(cg, nu)
    check(
        "certificate independent in power view",
        len(cert) == certificate_size_for(cg, nu) and is_independent(power_view(g, nu), cert),
        f"size {len(cert)}",
    )
    return checks
