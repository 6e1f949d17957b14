"""Independence-series computation, tuple filtering diagnostics, and
closed-form probability/bound calculators (all bound evaluation in log space).
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .constructions import ConstructedGraph, JumpParams, MultiJumpSpec, certificate_size_for, check_certificate
from .graphs import DEFAULT_CAP, Graph, strong_power
from .solver import SolverBudget, alpha_bracket, local_search_lower_bound


@dataclass
class ClassProfile:
    """How the distinct coordinate pairs of a tuple pair distribute over edge
    classes: counts[class_id] = number of distinct pairs in that class."""

    counts: dict[int, int]

    @property
    def k_prime(self) -> int:
        return sum(self.counts.values())


def class_index(classes) -> dict[tuple[int, int], int]:
    """Map every unordered pair to the index of its edge class."""
    index = {}
    for i, cls in enumerate(classes):
        for pair in cls.members:
            index[pair] = i
    return index


def pair_profile(u, v, index: dict[tuple[int, int], int]) -> ClassProfile:
    """Profile of the distinct corresponding-coordinate pairs of two tuples."""
    pairs = set()
    for a, b in zip(u, v):
        if a != b:
            pairs.add((a, b) if a < b else (b, a))
    counts: dict[int, int] = {}
    for p in pairs:
        counts[index[p]] = counts.get(index[p], 0) + 1
    return ClassProfile(counts=counts)


def edge_probability(profile: ClassProfile, nu: int, purged: bool = False) -> float:
    """Probability that two such tuples end up adjacent in the sampled power:
    the product over touched classes of (nu - t)/nu. With ``purged`` every
    count must stay below nu (full classes were removed beforehand)."""
    limit = nu - 1 if purged else nu
    out = 1.0
    for t in profile.counts.values():
        if t < 1:
            raise ValueError(f"class counts must be >= 1, got {t}")
        if t > limit:
            raise ValueError(f"class count {t} exceeds limit {limit}")
        out *= (nu - t) / nu
    return out


def edge_probability_floor(k_prime: int, nu: int) -> float:
    """Lower bound on edge_probability when no count reaches nu: worst case
    packs counts to nu-1, giving (1/nu)^floor(k'/(nu-1)) * (nu - k' mod (nu-1))/nu."""
    if k_prime < 0:
        raise ValueError("k_prime must be >= 0")
    q, r = divmod(k_prime, nu - 1)
    return nu**-q * (nu - r) / nu


def _log_comb(n: float, k: float) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _log_comb_big(m: int, s: int) -> float:
    # m may be astronomically large (N^k); math.log handles big ints
    if s > 100_000:
        return s * math.log(m) - math.lgamma(s + 1)
    return sum(math.log(m - i) for i in range(s)) - math.lgamma(s + 1)


def first_moment_bound(nu: int, N: int, s: int, variant: str = "base", k: int | None = None) -> float:
    """Union bound on Pr[alpha >= s].

    base:    C(N, s) * nu^(-C(s,2)) * 2^(s/2) for the sampled base graph.
    power_k: C(N^k, s) * p^C(s,2) with p = exp(-nu^(-k/(nu-1))), the bound
             for filtered sets in the k-th power (k >= nu).
    Evaluated in log space; may exceed 1 (vacuous) for small s.
    """
    if nu < 2:
        raise ValueError("nu must be >= 2")
    if variant == "base":
        if not 2 <= s <= N:
            raise ValueError(f"need 2 <= s <= N, got s={s}, N={N}")
        log_bound = _log_comb(N, s) - math.comb(s, 2) * math.log(nu) + s / 2 * math.log(2)
    elif variant == "power_k":
        if k is None or k < 1:
            raise ValueError("power_k variant needs k >= 1")
        m = N**k
        if not 2 <= s <= m:
            raise ValueError(f"need 2 <= s <= N^k, got s={s}")
        ln_p = -(nu ** (-k / (nu - 1)))
        log_bound = _log_comb_big(m, s) + math.comb(s, 2) * ln_p
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if log_bound > 700:
        return math.inf
    return math.exp(log_bound)


def jump_target(N: int, nu: int) -> int:
    """The smallest s >= 1 with s**nu >= N. A certificate of size N in G^nu
    gives a_nu >= N^(1/nu), so refuting alpha(G) >= s shows alpha(G) < a_nu."""
    s = 1
    while s**nu < N:
        s += 1
    return s


def alpha_threshold(nu: int, N: int, p_budget: float, trials: int = 1) -> int:
    """Smallest s whose union bound, scaled by the trial count, drops below
    p_budget. The bound is eventually strictly decreasing, so the first hit
    is the threshold."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 < p_budget <= 1:
        raise ValueError("p_budget must be in (0, 1]")
    for s in range(2, N + 1):
        if first_moment_bound(nu, N, s) * trials < p_budget:
            return s
    raise ValueError(f"no s up to N={N} reaches p_budget={p_budget}")


@dataclass
class BoundsRecord:
    """Closed-form predictions for a_k of a single jump construction.

    prefix_bound caps a_k below the jump (k < nu). For k >= nu,
    sandwich_low is the certified floor N^(floor(k/nu)/k) and sandwich_high
    the multiplicative headroom sqrt(2) k^3 nu^((k-1)/(nu-1)) log2(N) of the
    matching upper bound; d_k is the recurrence constant behind it.
    """

    prefix_bound: float | None = None
    sandwich_low: float | None = None
    sandwich_high: float | None = None
    d_k: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _d_constant(nu: int, k: int) -> float:
    if k < nu:
        return 0.0
    d = 1.0
    try:
        for j in range(nu + 1, k + 1):
            d *= 4 * j**3 * nu ** (1 + j / (nu - 1))
    except OverflowError:
        return math.inf
    return d


def theoretical_bounds(params: JumpParams, k: int) -> BoundsRecord:
    if k < 1:
        raise ValueError("k must be >= 1")
    nu, N = params.nu, params.N
    log2_n = math.log2(N)
    if k < nu:
        return BoundsRecord(prefix_bound=0.5 * k**4 * nu * log2_n, d_k=0.0)
    try:
        high = math.sqrt(2) * k**3 * nu ** ((k - 1) / (nu - 1)) * log2_n
    except OverflowError:
        high = math.inf
    return BoundsRecord(
        sandwich_low=N ** (k // nu / k),
        sandwich_high=high,
        d_k=_d_constant(nu, k),
    )


def _product_theory(spec: MultiJumpSpec, k: int) -> BoundsRecord:
    # certified floor only; closed-form constants exist per factor, not for the product
    low = 1.0
    any_jump = False
    for nu, size in zip(spec.nus, spec.sizes()):
        if k >= nu:
            any_jump = True
            low *= size ** (k // nu / k)
    return BoundsRecord(sandwich_low=low if any_jump else None)


def purge_full_classes(s, params: JumpParams, k: int) -> list:
    """Drop tuples whose coordinate set contains a complete shift orbit
    {x, x+n, ..., x+(nu-1)n} mod N for some x. Interlaced patterns that mix
    two orbits without completing either survive on purpose."""
    if k < params.nu:
        raise ValueError(f"purge needs k >= nu, got k={k}, nu={params.nu}")
    nu, n, N = params.nu, params.n, params.N
    out = []
    for t in s:
        if len(t) != k:
            raise ValueError(f"tuple {t} has length {len(t)}, expected {k}")
        cs = set(t)
        if not any(all((x + j * n) % N in cs for j in range(1, nu)) for x in cs):
            out.append(t)
    return out


def filter_representatives(s, params: JumpParams, k: int, purge_first: bool = False) -> list:
    """Process tuples in the given order; keeping one blocks every residue
    (mod n) of its coordinates, and later tuples touching a blocked residue
    are dropped. With purge_first, full-orbit tuples are purged beforehand
    (the ordering used above the jump index)."""
    if purge_first:
        s = purge_full_classes(s, params, k)
    n = params.n
    N = params.N
    blocked: set[int] = set()
    out = []
    for t in s:
        if len(t) != k:
            raise ValueError(f"tuple {t} has length {len(t)}, expected {k}")
        if any(not 0 <= c < N for c in t):
            raise ValueError(f"tuple {t} has out-of-range coordinates")
        if any(c % n in blocked for c in t):
            continue
        out.append(t)
        blocked.update(c % n for c in t)
    return out


@dataclass
class SeriesEntry:
    k: int
    alpha_lower: int
    alpha_upper: int | None
    alpha_exact: int | None
    a_k_lower: float
    a_k_upper: float | None
    method: tuple[str, ...]
    theory: BoundsRecord | None

    def to_dict(self) -> dict:
        """The fields in declaration order; ``theory`` becomes a dict (or None)."""
        return {**asdict(self), "method": list(self.method)}


@dataclass
class SeriesReport:
    graph_meta: dict
    entries: list[SeriesEntry]
    monotone_violations: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "graph_meta": self.graph_meta,
            "entries": [e.to_dict() for e in self.entries],
            "monotone_violations": self.monotone_violations,
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def write_csv(self, path) -> None:
        """One row per entry: the entry's fields with ``method`` joined by
        ';' and ``theory`` flattened into its bounds."""
        rows = []
        for e in self.entries:
            row = e.to_dict()
            theory = row.pop("theory") or BoundsRecord().to_dict()
            rows.append({**row, "method": ";".join(row["method"]), **theory})
        with open(path, "w", newline="") as fh:
            if rows:
                w = csv.DictWriter(fh, fieldnames=list(rows[0]))
                w.writeheader()
                w.writerows(rows)


def _theory_for(cg: ConstructedGraph | None, k: int) -> BoundsRecord | None:
    """The closed forms of a canonical construction or a product of them;
    None for a simple one, whose alpha they do not bound."""
    if cg is None or cg.kind == "simple":
        return None
    if cg.kind == "product":
        return _product_theory(cg.params, k)
    return theoretical_bounds(cg.params, k)


def independence_series(
    g: ConstructedGraph | Graph,
    k_max: int,
    mode: str = "auto",
    budget: SolverBudget | None = None,
    cap: int = DEFAULT_CAP,
) -> SeriesReport:
    """Per-k alpha bounds for the strong powers of g, combining explicit
    certificates, super-multiplicative products of earlier entries and exact
    solves (when the power materializes under the cap). Degrades methods
    instead of failing.

    A construction's certificate blocks (``check_certificate``) are checked
    once, up front, and raise ValueError naming the kind and k if one is not
    independent; each entry then counts its certificate in closed form.

    Modes: ``exact`` solves every power that fits the cap; ``auto`` solves
    only cheap powers (<= 4096 vertices) and falls back to bounds;
    ``certificate_only`` never invokes a solver. Outside ``certificate_only``
    an unsolved k=1 entry also tries local search on the base graph. An
    entry that nothing lifts above one vertex has method ``single_vertex``.

    Python writes no int of over ``sys.get_int_max_str_digits()`` digits, so
    a series refuses one as ``alpha_lower``: up front if the certificate for
    ``k_max`` is one, else when it reaches one.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if mode not in ("exact", "auto", "certificate_only"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(g, ConstructedGraph):
        cg: ConstructedGraph | None = g
        base = g.graph
        graph_meta = g.parameters()
    else:
        cg = None
        base = g
        graph_meta = {"construction": None, "N": base.n, "edges": base.edge_count()}
    digits = sys.get_int_max_str_digits()  # 0: no limit
    too_long = 10**digits if digits else math.inf
    if cg is not None:
        if certificate_size_for(cg, k_max) >= too_long:
            raise ValueError(f"k_max {k_max} is too large: alpha(G^{k_max}) has over {digits} digits, more than Python writes")
        for k, _, ok in check_certificate(cg):
            if not ok:
                raise ValueError(f"{cg.kind} certificate block at k={k} is not independent")

    auto_limit = 4096
    entries: list[SeriesEntry] = []
    lower: dict[int, int] = {}
    exact: dict[int, int] = {}
    for k in range(1, k_max + 1):
        methods: set[str] = set()
        best_lb = 1  # any single vertex
        cert_size = certificate_size_for(cg, k) if cg is not None else 0
        if cert_size > best_lb:
            best_lb = cert_size
            methods = {"certificate"}
        for i in range(1, k // 2 + 1):
            prod = lower[i] * lower[k - i]
            if prod > best_lb:
                best_lb = prod
                methods = {"product_bound"}
            elif prod == best_lb:
                methods.add("product_bound")
        alpha_exact = None
        alpha_upper = None
        n_power = base.n**k
        solve_exact = (mode == "exact" and n_power <= cap) or (
            mode == "auto" and n_power <= min(cap, auto_limit)
        )
        if solve_exact:
            lo, alpha_upper, res = alpha_bracket(strong_power(base, k, cap=cap), budget)
            if res.status == "exact":
                alpha_exact = best_lb = lo
                methods = {"exact"}
            elif lo > best_lb:
                best_lb = lo
                methods = {"branch_and_bound"}
        elif mode != "certificate_only" and k == 1:
            steps = 2000 if budget is None or budget.max_nodes is None else min(budget.max_nodes, 2000)
            ls = local_search_lower_bound(base, SolverBudget(max_nodes=steps), seed=1)
            if ls.size > best_lb:
                best_lb = ls.size
                methods = {"local_search"}
        if best_lb >= too_long:
            raise ValueError(f"k_max {k_max} is too large: alpha(G^{k}) has over {digits} digits, more than Python writes")
        lower[k] = best_lb
        if alpha_exact is not None:
            exact[k] = alpha_exact
        entries.append(
            SeriesEntry(
                k=k,
                alpha_lower=best_lb,
                alpha_upper=alpha_upper,
                alpha_exact=alpha_exact,
                # in log space once the bound is beyond float range
                a_k_lower=best_lb ** (1 / k) if best_lb < 2**1023 else math.exp(math.log(best_lb) / k),
                a_k_upper=alpha_upper ** (1 / k) if alpha_upper is not None else None,
                method=tuple(sorted(methods)) or ("single_vertex",),
                theory=_theory_for(cg, k),
            )
        )
    violations = []
    for k, ak in exact.items():
        for mk, amk in exact.items():
            if mk > k and mk % k == 0 and amk < ak ** (mk // k):
                violations.append({"k": k, "mk": mk, "alpha_k": ak, "alpha_mk": amk})
    return SeriesReport(graph_meta=graph_meta, entries=entries, monotone_violations=violations)
