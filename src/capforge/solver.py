"""Maximum-independent-set computation: exhaustive oracles, an exact
branch-and-bound, a local-search heuristic, and a clique-cover upper bound.

The exact solver works on the complement (max clique): the constructions
here are dense, so complements are sparse and greedy-coloring bounds bite.
"""

from __future__ import annotations

import math
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _ints, _unpack_rows, is_independent

BRUTE_FORCE_LIMIT = 24
MITM_LIMIT = 40


@dataclass
class SolverBudget:
    """Limits for a single solve; exceeding one is a normal result, not an error.

    ``workers`` is the number of processes a targeted search may split its
    root over; the result does not depend on it. ``max_time`` is wall-clock
    time, shared by all of them.
    """

    max_nodes: int | None = None
    max_time: float | None = None
    target: int | None = None  # stop once a set of this size is found or refuted
    workers: int = 1

    def __post_init__(self):
        # Each message starts with the field's name, which the CLI swaps for its flag.
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError("max_nodes must be >= 0")
        if self.max_time is not None and not 0 <= self.max_time < math.inf:
            raise ValueError("max_time must be a finite number >= 0")
        if self.target is not None and self.target < 1:
            raise ValueError("target must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class MISResult:
    members: frozenset
    size: int
    status: str  # exact | lower_bound | upper_bound_certified
    certified_upper: int | None = None
    search_nodes: int = 0
    elapsed: float = 0.0
    setup_secs: float = 0.0  # of elapsed, the part before the first search node
    search_secs: float = 0.0  # and the rest
    # How a targeted bracket (analysis.alpha_bracket) was certified or
    # searched, "halves" or "direct", and each search it ran, in order: a
    # dict of the vertices first..last, target, nodes and status.
    method: str | None = None
    parts: tuple = ()


def brute_force_mis(g: Graph) -> MISResult:
    """Exhaustive sweep over all 2^n vertex subsets (vectorized); reports the
    lexicographically smallest maximum independent set."""
    t0 = time.perf_counter()
    n = g.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_LIMIT} vertices, got {n}")
    total = 1 << n
    indep = np.zeros(total, dtype=bool)
    indep[0] = True
    # indep[m] for lsb(m) = b depends on indep[m - 2^b], whose lsb is larger,
    # so fill descending by lowest set bit
    for b in range(n - 1, -1, -1):
        bit = 1 << b
        idx = np.arange(bit, total, bit << 1, dtype=np.uint32)
        nbr_free = (idx & np.uint32(g.adj[b])) == 0
        indep[idx] = indep[idx - bit] & nbr_free
    # sizes[m] = popcount(m): the masks in [2^b, 2^(b+1)) are those below 2^b plus bit b
    sizes = np.zeros(total, dtype=np.uint8)
    for b in range(n):
        sizes[1 << b : 2 << b] = sizes[: 1 << b] + 1
    masks = np.arange(total, dtype=np.uint32)
    best = int(sizes[indep].max())
    cand = masks[indep & (sizes == best)]
    # lexicographically smallest member list == largest bit-reversed mask
    rev = np.zeros(len(cand), dtype=np.uint32)
    for i in range(n):
        rev |= ((cand >> i) & 1) << (n - 1 - i)
    winner = int(cand[int(rev.argmax())])
    members = frozenset(v for v in range(n) if winner >> v & 1)
    return MISResult(
        members=members,
        size=best,
        status="exact",
        search_nodes=total,
        elapsed=time.perf_counter() - t0,
    )


def mitm_mis(g: Graph) -> MISResult:
    """Exhaustive meet-in-the-middle oracle: enumerate one half, table the
    other. Handles graphs the plain sweep cannot (up to 40 vertices)."""
    t0 = time.perf_counter()
    n = g.n
    if n > MITM_LIMIT:
        raise ValueError(f"meet-in-the-middle capped at {MITM_LIMIT} vertices, got {n}")
    nb = n // 2
    na = n - nb
    # A = vertices [0, na), B = vertices [na, n) reindexed to [0, nb)
    adj_a = [g.adj[v] & ((1 << na) - 1) for v in range(na)]
    adj_ab = [g.adj[v] >> na for v in range(na)]
    adj_b = [g.adj[na + v] >> na for v in range(nb)]

    dp = [0] * (1 << nb)
    for m in range(1, 1 << nb):
        low = m & -m
        v = low.bit_length() - 1
        skip = dp[m ^ low]
        take = 1 + dp[m & ~adj_b[v] & ~low]
        dp[m] = take if take > skip else skip

    full_b = (1 << nb) - 1
    best = -1
    best_a = 0
    best_b_mask = 0
    indep_a = bytearray(1 << na)
    indep_a[0] = 1
    nbr_b = [0] * (1 << na)
    size_a = [0] * (1 << na)
    for m in range(1, 1 << na):
        low = m & -m
        v = low.bit_length() - 1
        prev = m ^ low
        size_a[m] = size_a[prev] + 1
        nbr_b[m] = nbr_b[prev] | adj_ab[v]
        if not indep_a[prev] or (m & adj_a[v]):
            continue
        indep_a[m] = 1
        allowed = full_b & ~nbr_b[m]
        score = size_a[m] + dp[allowed]
        if score > best:
            best = score
            best_a = m
            best_b_mask = allowed
    if dp[full_b] > best:  # empty A side
        best = dp[full_b]
        best_a = 0
        best_b_mask = full_b
    members = {v for v in range(na) if best_a >> v & 1}
    m = best_b_mask
    while m and dp[m] > 0:
        low = m & -m
        v = low.bit_length() - 1
        if dp[m] == dp[m ^ low]:
            m ^= low
        else:
            members.add(na + v)
            m &= ~adj_b[v] & ~low
    assert is_independent(g, members) and len(members) == best
    return MISResult(
        members=frozenset(members),
        size=best,
        status="exact",
        search_nodes=(1 << na) + (1 << nb),
        elapsed=time.perf_counter() - t0,
    )


# Adjacency rows are permuted this many at a time, so the unpacked bit
# matrix stays at _RELABEL_BLOCK * n bytes however large the graph is.
_RELABEL_BLOCK = 64


def _relabel(rows: list[int], order: list[int]) -> list[int]:
    """Bitset ``rows`` renumbered so that vertex ``order[i]`` becomes ``i``:
    row i of the result is row ``order[i]`` with its bits moved the same way."""
    n = len(order)
    perm = np.array(order, dtype=np.intp)
    out: list[int] = []
    for start in range(0, n, _RELABEL_BLOCK):
        bits = _unpack_rows([rows[v] for v in order[start : start + _RELABEL_BLOCK]], n)
        out.extend(_ints(np.packbits(bits[:, perm], axis=1, bitorder="little")))
    return out


def _tables(g: Graph) -> tuple[list[int], list[int], list[int], list[int]]:
    """The exact search's numbering of ``g``'s vertices and its tables.

    ``root_order`` lists the vertices by descending complement degree (that
    is, ascending degree in ``g``), ties by ascending index. Root-order
    vertex ``i`` is bit ``n-1-i`` of every mask, so popping a mask's
    highest bit takes its first vertex in root order. The tables are
    indexed by a vertex's ``bit_length`` ``b``: ``bit[b]`` is its mask,
    ``1 << (b - 1)``; ``adj[b]`` its complement neighbours; ``nonadj[b]``
    the vertices it does not exclude from its colour class, its neighbours
    in ``g``. Entry 0 of each is unused.
    """
    n = g.n
    root_order = sorted(range(n), key=lambda v: (g.degree(v), v))
    nonadj = [0, *_relabel(g.adj, root_order[::-1])]
    bit = [0] + [1 << p for p in range(n)]
    full = (1 << n) - 1
    adj = [0] + [full ^ nonadj[b] ^ bit[b] for b in range(1, n + 1)]
    return root_order, adj, nonadj, bit


def _colour(cands: int, kmin: int, nonadj: list[int], bit: list[int]) -> tuple[list[int], list[int]] | None:
    """Greedy colouring of ``cands``, each class built from the highest
    candidate bit down: the ``bit_length`` of each vertex coloured above
    ``kmin``, in colour order, and their colours; None if there are none.

    A vertex coloured kmin or less is never branched on: the cutoff only
    rises while a frame is open, and colours rise along the order, so the
    pop loop stops before reaching it. Classes 1..kmin are therefore only
    stripped from the candidates, and stripping stops once no remaining
    vertex can get a colour above kmin.
    """
    color = 0
    rest = cands
    while color < kmin and color + rest.bit_count() > kmin:
        color += 1
        q = rest
        while q:
            b = q.bit_length()
            rest ^= bit[b]
            q &= nonadj[b]
    if color + rest.bit_count() <= kmin:
        return None
    order: list[int] = []
    colors: list[int] = []
    while rest:
        color += 1
        q = rest
        while q:
            b = q.bit_length()
            order.append(b)
            colors.append(color)
            rest ^= bit[b]
            q &= nonadj[b]
    return order, colors


def _search(adj, nonadj, bit, r_mask, size, cands, best, floor_prune, target, max_nodes, deadline, found, stop=None):
    """The branch and bound below the node ``(r_mask, size, cands)``, which it
    enters first: ``r_mask`` is the clique so far, of ``size`` vertices, and
    ``cands`` the vertices that extend it, all numbered as ``_tables``
    numbers them; ``adj``, ``nonadj`` and ``bit`` are its tables.

    Every incumbent improvement over ``best`` is appended to ``found`` as
    ``(nodes, size, mask)``, ``nodes`` being the nodes entered so far.
    Returns the nodes entered and how the search ended: ``"done"`` (searched
    to the end), ``"hit"`` (a clique of ``target`` vertices found) or
    ``"cut"`` (``max_nodes`` or the absolute ``deadline`` reached, or the
    ``stop`` event set; both are looked at on nodes 1, 65, 129 and so on,
    so no subtree is started once they are).

    The search keeps its own stack of nodes, so its depth is limited by the
    vertex count, not by the interpreter's recursion limit.
    """
    nodes = 0
    # One frame per open node: [r_mask, size, order, colors, cursor, local].
    # The node (r_mask, size, cands) is entered at the top of the loop.
    stack: list[list] = []
    descend = True
    while True:
        if descend:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                return nodes, "cut"
            if nodes & 63 == 1 and (
                (deadline is not None and time.perf_counter() > deadline) or (stop is not None and stop.is_set())
            ):
                return nodes, "cut"
            cutoff = best if best > floor_prune else floor_prune
            coloured = _colour(cands, cutoff - size, nonadj, bit)
            if coloured is not None:
                order, colors = coloured
                stack.append([r_mask, size, order, colors, len(order) - 1, cands])
        if not stack:
            return nodes, "done"
        frame = stack[-1]
        r_mask, size, order, colors, i, local = frame
        descend = False
        while i >= 0:
            cutoff = best if best > floor_prune else floor_prune
            if size + colors[i] <= cutoff:
                break
            b = order[i]
            low = bit[b]
            sub = local & adj[b]
            local ^= low
            i -= 1
            if sub:
                descend = True
                break
            if size + 1 > best:
                best = size + 1
                found.append((nodes, best, r_mask | low))
                if target is not None and best >= target:
                    return nodes, "hit"
        if descend:
            frame[4] = i
            frame[5] = local
            r_mask |= low
            size += 1
            cands = sub
        else:
            stack.pop()


# Items a pool worker takes per hand-off: a root subtree of the halves takes
# about 1.7 ms, not much more than handing it over costs.
_CHUNK = 4
_WORKER: tuple = ()  # worker_map's (fn, shared, stop), set once in each worker


def _init_worker(*args) -> None:
    global _WORKER
    _WORKER = args


def _call(item):
    fn, shared, stop = _WORKER
    return fn(item, *shared, stop)


@contextmanager
def worker_map(fn, items, workers, *shared):
    """Yields ``fn(item, *shared, stop)`` for each of ``items``, in order:
    lazily in this process, with ``stop`` None, for one worker or item; else
    from a pool of up to ``workers`` processes, _CHUNK items per hand-off,
    whose initializer gives each worker ``shared`` and the ``stop`` event.
    When the block ends, unstarted items are dropped and running ones see
    ``stop``; none is killed, which could leave the result queue locked."""
    workers = min(workers, len(items))
    if workers < 2:
        yield (fn(item, *shared, None) for item in items)
        return
    import multiprocessing  # here, so that a command that starts no pool does not load them
    from concurrent.futures import ProcessPoolExecutor

    stop = multiprocessing.Event()
    pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(fn, shared, stop))
    try:
        yield pool.map(_call, items, chunksize=_CHUNK)
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)


def _search_child(child: tuple[int, int], adj, nonadj, bit, best, floor_prune, target, max_nodes, deadline, stop) -> tuple[int, list, str]:
    r_mask, cands = child
    found: list = []
    nodes, state = _search(adj, nonadj, bit, r_mask, 1, cands, best, floor_prune, target, max_nodes, deadline, found, stop)
    return nodes, found, state


def _merge(results, best, max_nodes, found) -> tuple[int, str]:
    """Combine the root's subtree results ``(nodes, found, state)`` from
    ``_search_child``, taken in the sequential order, into what ``_search``
    from the root (node 1) returns, appending to ``found`` what it would.

    An improvement counts only if it beats the running best, so the set kept
    is the first one found at the largest size; nodes are summed; the merge
    stops at the first subtree that hit the target or was cut. A subtree
    that runs past ``max_nodes`` is cut at the node where the sequential
    search stops: on entering node ``max_nodes + 1``.
    """
    nodes = 1
    for child_nodes, child_found, state in results:
        if max_nodes is not None and nodes + child_nodes > max_nodes:
            child_found = [f for f in child_found if nodes + f[0] <= max_nodes]
            child_nodes, state = max_nodes + 1 - nodes, "cut"
        for k, size, mask in child_found:
            if size > best:
                best = size
                found.append((nodes + k, size, mask))
        nodes += child_nodes
        if state != "done":
            return nodes, state
    return nodes, "done"


def _split_search(adj, nonadj, bit, full, best, floor_prune, target, max_nodes, deadline, found, workers):
    """``_search`` from the root, with the root's subtrees run by ``workers``
    processes; returns and appends to ``found`` exactly what ``_search`` would.

    While the target is not hit, the incumbent stays below it, so the cutoff
    is ``floor_prune`` throughout and the subtrees do not depend on one
    another: each is searched from the greedy incumbent ``best``, with all
    of ``max_nodes`` but the root, and ``_merge`` puts the results together.
    ``deadline`` is a ``time.perf_counter`` reading, a system-wide clock, so
    every worker stops at the same instant.
    """
    nodes = 1  # the root
    if max_nodes is not None and nodes > max_nodes:
        return nodes, "cut"
    # With the cutoff fixed, the root's pop loop branches on every vertex the
    # colouring records. A pop with no candidates left is a set of one
    # vertex, never above the greedy incumbent, so only the children matter.
    order, _ = _colour(full, floor_prune, nonadj, bit) or ([], [])
    children = []
    local = full
    for b in reversed(order):
        low = bit[b]
        sub = local & adj[b]
        if sub:
            children.append((low, sub))
        local ^= low
    if not children:
        return nodes, "done"
    child_budget = None if max_nodes is None else max_nodes - nodes
    shared = (adj, nonadj, bit, best, floor_prune, target, child_budget, deadline)
    with worker_map(_search_child, children, workers, *shared) as results:
        return _merge(results, best, max_nodes, found)


def max_independent_set(g: Graph, budget: SolverBudget | None = None) -> MISResult:
    """Branch-and-bound maximum clique on the complement, greedy-coloring
    bound recomputed at every node, root order by descending complement
    degree (ties by ascending index).

    With ``budget.target`` set, the search additionally prunes below the
    target, so it terminates once a set of that size is found (status
    lower_bound) or refuted (certified_upper = target - 1). Exhausting
    max_nodes/max_time yields status lower_bound.

    A targeted search with ``budget.workers`` > 1 runs the root's subtrees in
    that many processes and returns the same set, status and node count.
    """
    t0 = time.perf_counter()
    budget = budget or SolverBudget()
    target = budget.target
    n = g.n
    root_order, adj, nonadj, bit = _tables(g)
    full = (1 << n) - 1

    # greedy clique in the complement as the incumbent
    p = full
    mask = 0
    while p:
        b = p.bit_length()
        mask |= bit[b]
        p &= adj[b]
    best = mask.bit_count()

    floor_prune = target - 1 if target is not None else 0
    deadline = t0 + budget.max_time if budget.max_time is not None else None
    found = [(0, best, mask)]
    t_search = time.perf_counter()
    if target is not None and best >= target:
        nodes, state = 0, "hit"
    elif target is not None and budget.workers > 1:
        nodes, state = _split_search(
            adj, nonadj, bit, full, best, floor_prune, target, budget.max_nodes, deadline, found, budget.workers
        )
    else:
        nodes, state = _search(adj, nonadj, bit, 0, 0, full, best, floor_prune, target, budget.max_nodes, deadline, found)
    _, best, best_mask = found[-1]

    members = frozenset(root_order[n - 1 - p] for p in range(n) if best_mask >> p & 1)
    certified_upper = None
    if state == "done":
        if target is None:
            status = "exact"
        else:
            certified_upper = target - 1
            status = "exact" if best == certified_upper else "upper_bound_certified"
    else:
        status = "lower_bound"
    t_end = time.perf_counter()
    return MISResult(
        members=members,
        size=best,
        status=status,
        certified_upper=certified_upper,
        search_nodes=nodes,
        elapsed=t_end - t0,
        setup_secs=t_search - t0,
        search_secs=t_end - t_search,
    )


def _refute_by_halves(g: Graph, budget: SolverBudget) -> MISResult:
    """A targeted solve of ``g`` that first tries to certify alpha(g) <= t-1,
    ``t = budget.target``, from the index halves A = 0..h-1 and B = h..n-1,
    ``h = n // 2``. Every independent set splits between them, so refuting
    ``tA = (t+1)//2`` in A and ``tB = t+1-tA`` in B certifies
    ``(tA-1) + (tB-1) = t-1``.

    The solve is a plan of alternatives, each a list of stages ``(first,
    target, rows)``, each a targeted search of the vertices from ``first``
    on, with adjacency ``rows``: the halves, if ``g``'s greedy set is below t
    and in each half the expected number of independent ``tX``-sets at its
    non-edge density q, ``C(h, tX) q^C(tX, 2)``, is below 1; then the direct
    search. Each stage gets what is left of one ``max_nodes`` and one
    deadline, looked at before every stage but the first. A stage that hits
    moves on to the next alternative, a cut ends the solve as
    ``lower_bound``, and an alternative whose stages all refute certifies.
    The set is the first of the largest among the greedy set and the
    stages' sets mapped back; ``search_nodes`` counts every stage.
    """
    t0 = time.perf_counter()
    t, n = budget.target, g.n
    h, ta = n // 2, (t + 1) // 2
    halves = [(0, ta, [row & ((1 << h) - 1) for row in g.adj[:h]]), (h, t + 1 - ta, [row >> h for row in g.adj[h:]])]

    def log_expected(target, rows):
        size = len(rows)
        if target > size:
            return -math.inf
        log_sets = math.lgamma(size + 1) - math.lgamma(target + 1) - math.lgamma(size - target + 1)
        if target == 1:  # every vertex is an independent 1-set
            return log_sets
        pairs = size * (size - 1) // 2
        q = 1 - sum(row.bit_count() for row in rows) / (2 * pairs)
        return log_sets + math.comb(target, 2) * math.log(q) if q > 0 else -math.inf

    greedy = _greedy_is(g)
    best = frozenset(v for v in range(n) if greedy >> v & 1)
    plan = [("direct", [(0, t, g.adj)])]
    if len(best) < t and all(log_expected(target, rows) < 0 for _, target, rows in halves):
        plan.insert(0, ("halves", halves))
    parts: list[dict] = []
    nodes, search_secs = 0, 0.0
    deadline = None if budget.max_time is None else t0 + budget.max_time
    for name, stages in plan:
        for first, target, rows in stages:
            now = time.perf_counter()
            if parts and deadline is not None and now >= deadline:
                state = "cut"
                break
            method = name  # of the last alternative that ran a stage
            max_nodes = None if budget.max_nodes is None else budget.max_nodes - nodes
            max_time = None if deadline is None else max(deadline - now, 0.0)
            res = max_independent_set(Graph(len(rows), rows), SolverBudget(max_nodes, max_time, target, budget.workers))
            parts.append({"first": first, "last": first + len(rows) - 1, "target": target, "nodes": res.search_nodes, "status": res.status})
            nodes += res.search_nodes
            search_secs += res.search_secs
            if res.size > len(best):
                best = frozenset(first + v for v in res.members)
            state = "done" if res.certified_upper is not None else "hit" if res.size >= target else "cut"
            if state != "done":
                break
        if state != "hit":
            break
    certified = state == "done"
    status = ("exact" if len(best) == t - 1 else "upper_bound_certified") if certified else "lower_bound"
    t_end = time.perf_counter()
    return MISResult(
        members=best,
        size=len(best),
        status=status,
        certified_upper=t - 1 if certified else None,
        search_nodes=nodes,
        elapsed=t_end - t0,
        setup_secs=t_end - t0 - search_secs,
        search_secs=search_secs,
        method=method,
        parts=tuple(parts),
    )


def clique_cover_upper_bound(g: Graph) -> int:
    """Greedy partition of the vertices into cliques; the part count bounds
    the independence number from above (an independent set meets each clique
    at most once). Each part takes the lowest uncovered vertex, then keeps
    only its neighbours."""
    parts = 0
    rest = (1 << g.n) - 1
    while rest:
        parts += 1
        q = rest
        while q:
            low = q & -q
            rest ^= low
            q &= g.adj[low.bit_length() - 1]
    return parts


def _greedy_is(g: Graph) -> int:
    """Bitmask of the set that takes vertices by ascending degree when free."""
    mask = 0
    for v in sorted(range(g.n), key=lambda v: (g.degree(v), v)):
        if not (g.adj[v] & mask):
            mask |= 1 << v
    return mask


def _neighbor_union(g: Graph, mask: int) -> int:
    acc = 0
    m = mask
    while m:
        low = m & -m
        m ^= low
        acc |= g.adj[low.bit_length() - 1]
    return acc


def _local_search_graph(g: Graph, steps: int, rng: random.Random, start_mask: int) -> int:
    full = (1 << g.n) - 1
    mask = start_mask
    budget = steps
    improved = True
    while improved and budget > 0:
        improved = False
        # free insertions
        free = full & ~mask & ~_neighbor_union(g, mask)
        while free:
            low = free & -free
            mask |= low
            free &= ~g.adj[low.bit_length() - 1] & ~low
            improved = True
        # remove one, insert two
        members = mask
        while members and budget > 0:
            low = members & -members
            members ^= low
            budget -= 1
            rest = mask ^ low
            cand = full & ~rest & ~_neighbor_union(g, rest) & ~low
            c1 = cand
            swapped = False
            while c1 and not swapped:
                u1 = c1 & -c1
                c1 ^= u1
                pair = cand & ~g.adj[u1.bit_length() - 1] & ~u1 & -(u1 << 1)
                if pair:
                    u2 = pair & -pair
                    mask = rest | u1 | u2
                    improved = True
                    swapped = True
            if swapped:
                break
        # remove two, insert three (sampled)
        if not improved and mask.bit_count() >= 2 and budget > 0:
            members = [v for v in range(g.n) if mask >> v & 1]
            for _ in range(min(budget, 4 * len(members))):
                budget -= 1
                v1, v2 = rng.sample(members, 2)
                rest = mask & ~(1 << v1) & ~(1 << v2)
                cand = full & ~rest & ~_neighbor_union(g, rest) & ~(1 << v1) & ~(1 << v2)
                u1m = cand & -cand
                if not u1m:
                    continue
                c2 = cand & ~g.adj[u1m.bit_length() - 1] & ~u1m
                u2m = c2 & -c2
                if not u2m:
                    continue
                c3 = c2 & ~g.adj[u2m.bit_length() - 1] & ~u2m
                u3m = c3 & -c3
                if not u3m:
                    continue
                mask = rest | u1m | u2m | u3m
                improved = True
                break
    return mask


def local_search_lower_bound(g: Graph, budget: SolverBudget | None = None, seed: int = 0) -> MISResult:
    """Greedy construction plus swap-based local search; a heuristic lower
    bound on alpha(g) for a materialized graph."""
    if not isinstance(g, Graph):
        raise TypeError(f"expected a Graph, got {type(g).__name__}")
    t0 = time.perf_counter()
    budget = budget or SolverBudget()
    steps = budget.max_nodes if budget.max_nodes is not None else 5000
    mask = _local_search_graph(g, steps, random.Random(seed), _greedy_is(g))
    members = frozenset(v for v in range(g.n) if mask >> v & 1)
    return MISResult(
        members=members,
        size=len(members),
        status="lower_bound",
        search_nodes=steps,
        elapsed=time.perf_counter() - t0,
    )
