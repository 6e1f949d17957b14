import hashlib
import itertools
import math
import multiprocessing
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capforge import (
    JumpParams,
    SolverBudget,
    brute_force_mis,
    clique_cover_upper_bound,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_independent,
    local_search_lower_bound,
    make_graph,
    max_independent_set,
    mitm_mis,
    power_view,
    sample_jump_graph,
    strong_product,
)
from capforge.solver import _merge, _relabel, _search, _tables, worker_map


def random_graph(n: int, density: float, seed: int):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return make_graph(n, edges)


def graphs_strategy(max_n=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([]))
        return make_graph(n, edges)

    return build()


def _full_colouring_mis(g, max_nodes=None, target=None):
    """Reference copy of the B&B that colours and records every candidate of
    every node (no deadline). Returns the fields the search determines:
    (members, size, status, certified_upper, search_nodes)."""
    n = g.n
    comp = g.complement_adjacency()
    root_order = sorted(range(n), key=lambda v: (-comp[v].bit_count(), v))
    pos = {v: i for i, v in enumerate(root_order)}
    adj = [sum(1 << pos[u] for u in range(n) if comp[v] >> u & 1) for v in root_order]
    notadj = [~a for a in adj]
    full = (1 << n) - 1

    p = full
    mask = 0
    while p:
        low = p & -p
        mask |= low
        p &= adj[low.bit_length() - 1]
    best_mask = mask
    best = mask.bit_count()

    floor_prune = target - 1 if target is not None else 0
    nodes = 0
    completed = False
    hit_target = target is not None and best >= target
    if not hit_target:
        stack = []
        r_mask, size, cands = 0, 0, full
        descend = True
        while True:
            if descend:
                nodes += 1
                if max_nodes is not None and nodes > max_nodes:
                    break
                cutoff = best if best > floor_prune else floor_prune
                if size + cands.bit_count() > cutoff:
                    order = []
                    colors = []
                    color = 0
                    rest = cands
                    while rest:
                        color += 1
                        q = rest
                        while q:
                            low = q & -q
                            v = low.bit_length() - 1
                            order.append(v)
                            colors.append(color)
                            rest ^= low
                            q ^= low
                            q &= notadj[v]
                    stack.append([r_mask, size, order, colors, len(order) - 1, cands])
            if not stack:
                completed = True
                break
            frame = stack[-1]
            r_mask, size, order, colors, i, local = frame
            descend = False
            while i >= 0:
                cutoff = best if best > floor_prune else floor_prune
                if size + colors[i] <= cutoff:
                    break
                v = order[i]
                low = 1 << v
                sub = local & adj[v]
                local ^= low
                i -= 1
                if sub:
                    descend = True
                    break
                if size + 1 > best:
                    best = size + 1
                    best_mask = r_mask | low
                    if target is not None and best >= target:
                        hit_target = True
                        break
            if hit_target:
                break
            if descend:
                frame[4] = i
                frame[5] = local
                r_mask |= low
                size += 1
                cands = sub
            else:
                stack.pop()

    members = frozenset(root_order[i] for i in range(n) if best_mask >> i & 1)
    certified_upper = None
    if completed:
        if target is None:
            status = "exact"
        else:
            certified_upper = target - 1
            status = "exact" if best == certified_upper else "upper_bound_certified"
    else:
        status = "lower_bound"
    return members, best, status, certified_upper, nodes


@st.composite
def dense_or_sparse_graphs(draw, max_n=30):
    n = draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.sampled_from((0.05, 0.2, 0.4, 0.6, 0.8, 0.95)))
    return random_graph(n, density, draw(st.integers(min_value=0, max_value=2**32)))


class TestBruteForce:
    def test_c5(self):
        res = brute_force_mis(cycle_graph(5))
        assert res.size == 2 and res.status == "exact"

    def test_empty(self):
        assert brute_force_mis(empty_graph(7)).size == 7

    def test_k6(self):
        assert brute_force_mis(complete_graph(6)).size == 1

    def test_lexicographically_smallest_set(self):
        # C5 maximum sets: {0,2},{0,3},{1,3},{1,4},{2,4}
        assert sorted(brute_force_mis(cycle_graph(5)).members) == [0, 2]
        # K6: all singletons are maximum, smallest is {0}
        assert sorted(brute_force_mis(complete_graph(6)).members) == [0]

    def test_members_independent(self):
        g = random_graph(14, 0.4, seed=3)
        res = brute_force_mis(g)
        assert is_independent(g, res.members)
        assert len(res.members) == res.size

    def test_size_cap(self):
        with pytest.raises(ValueError):
            brute_force_mis(empty_graph(25))


class TestMitm:
    @given(graphs_strategy(max_n=13))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        assert mitm_mis(g).size == brute_force_mis(g).size

    def test_c5_square(self):
        g = strong_product(cycle_graph(5), cycle_graph(5))
        res = mitm_mis(g)
        assert res.size == 5
        assert is_independent(g, res.members)

    def test_deterministic(self):
        g = random_graph(18, 0.5, seed=1)
        assert mitm_mis(g).members == mitm_mis(g).members

    def test_size_cap(self):
        with pytest.raises(ValueError):
            mitm_mis(empty_graph(41))


class TestBranchAndBound:
    @given(graphs_strategy(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, g):
        res = max_independent_set(g)
        assert res.status == "exact"
        assert res.size == brute_force_mis(g).size
        assert is_independent(g, res.members)

    def test_c5_square_exact_five(self):
        g = strong_product(cycle_graph(5), cycle_graph(5))
        res = max_independent_set(g)
        assert res.status == "exact" and res.size == 5

    def test_sampled_jump_graph_matches_oracle(self):
        cg = sample_jump_graph(JumpParams(nu=2, n=8, seed=13))  # N = 16
        assert max_independent_set(cg.graph).size == mitm_mis(cg.graph).size

    def test_determinism(self):
        g = random_graph(16, 0.5, seed=9)
        r1 = max_independent_set(g)
        r2 = max_independent_set(g)
        assert r1.size == r2.size and r1.members == r2.members

    def test_node_budget_degrades_to_lower_bound(self):
        g = random_graph(18, 0.3, seed=2)
        res = max_independent_set(g, SolverBudget(max_nodes=1))
        assert res.status == "lower_bound"
        assert is_independent(g, res.members)

    def test_budget_monotone(self):
        g = random_graph(18, 0.3, seed=7)
        sizes = [
            max_independent_set(g, SolverBudget(max_nodes=b)).size for b in (1, 10, 100, 10_000)
        ]
        assert sizes == sorted(sizes)
        assert sizes[-1] == mitm_mis(g).size

    def test_elapsed_is_setup_then_search(self):
        res = max_independent_set(_refute_256(0), SolverBudget(target=16))  # 3,393 nodes
        assert res.setup_secs > 0 and res.search_secs > 0
        assert res.setup_secs + res.search_secs == pytest.approx(res.elapsed)

    def test_target_refuted(self):
        res = max_independent_set(cycle_graph(5), SolverBudget(target=3))
        assert res.certified_upper == 2
        assert res.status == "exact"  # incumbent reached the certified ceiling

    def test_target_hit_early(self):
        res = max_independent_set(empty_graph(9), SolverBudget(target=4))
        assert res.status == "lower_bound"
        assert res.size >= 4

    def test_target_refuted_without_exactness(self):
        # alpha(K6) = 1 but a refutation at 4 only certifies alpha <= 3
        res = max_independent_set(complete_graph(6), SolverBudget(target=4))
        assert res.certified_upper == 3
        assert res.status in ("exact", "upper_bound_certified")
        assert res.size <= 3

    def test_deep_search_runs_out_of_budget_without_error(self):
        # 600 disjoint 5-cycles: alpha = 1200, so the search goes 1200 levels
        # deep, past the interpreter's default recursion limit
        edges = [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(600) for i in range(5)]
        g = make_graph(3000, edges)
        res = max_independent_set(g, SolverBudget(max_nodes=5000))
        assert res.status == "lower_bound"
        assert res.size == 1200
        assert is_independent(g, res.members)

    @given(graphs_strategy(max_n=11), st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_target_soundness(self, g, target):
        truth = brute_force_mis(g).size
        res = max_independent_set(g, SolverBudget(target=target))
        assert is_independent(g, res.members)
        assert res.size <= truth
        if res.certified_upper is not None:
            assert truth <= res.certified_upper
        if res.status == "exact":
            assert res.size == truth
        if res.status == "lower_bound":
            assert res.size >= target


    @given(
        dense_or_sparse_graphs(),
        st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_nodes_and_set_as_full_colouring(self, g, target, max_nodes):
        res = max_independent_set(g, SolverBudget(max_nodes=max_nodes, target=target))
        got = (res.members, res.size, res.status, res.certified_upper, res.search_nodes)
        assert got == _full_colouring_mis(g, max_nodes=max_nodes, target=target)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 200])
def test_relabel_is_the_bit_permutation_across_blocks_and_bytes(n):
    """Row i of _relabel(rows, order) is row order[i] with bit order[j] moved
    to bit j, on either side of the 64-row block and of a byte, for graph rows
    and for rows that are not symmetric."""
    rng = random.Random(n)
    for seed in range(3):
        order = rng.sample(range(n), n)
        for rows in (random_graph(n, rng.random(), seed).adj, [rng.getrandbits(n) for _ in range(n)]):
            want = [sum(1 << j for j, u in enumerate(order) if rows[v] >> u & 1) for v in order]
            assert _relabel(rows, order) == want


class TestSolverBudget:
    @pytest.mark.parametrize(
        "fields",
        [
            {"max_time": math.nan},
            {"max_time": math.inf},
            {"max_time": -math.inf},
            {"max_time": -0.5},
            {"max_nodes": -1},
            {"target": 0},
            {"target": -3},
            {"workers": 0},
            {"workers": -2},
        ],
        ids=repr,
    )
    def test_rejects_values_no_solve_can_use(self, fields):
        (name,) = fields
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SolverBudget(**fields)

    def test_accepts_the_edges_of_each_range(self):
        SolverBudget(max_nodes=0, max_time=0.0, target=1, workers=1)


def _split_fields(g, **budget):
    res = max_independent_set(g, SolverBudget(**budget))
    return res.members, res.size, res.status, res.certified_upper, res.search_nodes


def _refute_256(seed: int):
    return sample_jump_graph(JumpParams(nu=2, n=128, seed=seed)).graph


class TestRootSplit:
    """A targeted search split over worker processes returns what the
    sequential search returns, and leaves no worker behind."""

    @given(dense_or_sparse_graphs(max_n=60), st.integers(min_value=-3, max_value=2), st.sampled_from((2, 3)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_nodes_and_set_as_sequential(self, g, offset, workers, data):
        # Targets near alpha, where the root has subtrees to split, and node
        # budgets that can cut the search anywhere in them.
        target = max(1, max_independent_set(g).size + offset)
        nodes = max_independent_set(g, SolverBudget(target=target)).search_nodes
        max_nodes = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=nodes + 1)))
        split = _split_fields(g, max_nodes=max_nodes, target=target, workers=workers)
        assert split == _split_fields(g, max_nodes=max_nodes, target=target)

    # The targeted N=256 cases of test_solver_golden.py, with their expected
    # (sha256 of sorted members, size, status, certified_upper, search_nodes).
    @pytest.mark.parametrize(
        "seed,target,expected",
        [
            (0, 16, ("3fd1df87be3ccd10fe3ec29b47b469062425392b18072bf9327d05fbac2b7022", 7, "upper_bound_certified", 15, 3393)),
            (1, 16, ("1a6f37bede2e588ea33ad13bf8b9f9c4b57fcc820bc0484a9740fdb845505ccc", 8, "upper_bound_certified", 15, 3326)),
            (2, 16, ("57af31a42e83d4eba6b5a095460307be0d11fd3201ed6299058de58ab62f58bb", 8, "upper_bound_certified", 15, 3219)),
            (3, 16, ("c7f94dabbaa247804786974f545219ee4f55c1e1f51d242330110d49309cea54", 9, "upper_bound_certified", 15, 3216)),
            (4, 16, ("ff806cef4f8be79520de890949bc14ba10bfbdc8e819cdb8c7f325f5d46c58d4", 9, "upper_bound_certified", 15, 3334)),
            (0, 11, ("c4da546878077f49bed309a3fc4f09c92e4996a28f743dfb02c5e7617449a609", 11, "lower_bound", None, 1058)),
            (0, 7, ("3fd1df87be3ccd10fe3ec29b47b469062425392b18072bf9327d05fbac2b7022", 7, "lower_bound", None, 0)),
        ],
        ids=["refute-256-0", "refute-256-1", "refute-256-2", "refute-256-3", "refute-256-4", "refute-256-0-t11", "refute-256-0-t7"],
    )
    def test_golden_refutations(self, seed, target, expected):
        res = max_independent_set(_refute_256(seed), SolverBudget(target=target, workers=2))
        digest = hashlib.sha256(repr(sorted(res.members)).encode()).hexdigest()
        assert (digest, res.size, res.status, res.certified_upper, res.search_nodes) == expected

    # _merge on made-up subtree results (nodes, [(node, size, mask)], state),
    # with a greedy incumbent of size 2.
    def test_merge_keeps_the_first_set_at_the_best_size(self):
        found = []
        results = [(5, [(3, 3, 0b01)], "done"), (4, [(2, 3, 0b10)], "done")]
        assert _merge(results, 2, None, found) == (10, "done")
        assert found == [(4, 3, 0b01)]

    def test_merge_cuts_where_the_sequential_search_stops(self):
        found = []
        results = [(5, [(2, 3, 0b001)], "done"), (6, [(2, 4, 0b010), (3, 5, 0b100)], "cut")]
        # nodes 1-6 are the root and the first subtree; node 9 is not entered
        assert _merge(results, 2, 8, found) == (9, "cut")
        assert found == [(3, 3, 0b001), (8, 4, 0b010)]

    @pytest.mark.parametrize("state", ["hit", "cut"])
    def test_merge_stops_at_the_first_subtree_that_did_not_finish(self, state):
        def results():
            yield 2, [], "done"
            yield 70, [(64, 3, 0b01)], state
            raise AssertionError("merged past the subtree that stopped the search")

        found = []
        assert _merge(results(), 2, None, found) == (73, state)
        assert found == [(67, 3, 0b01)]

    _EARLY_STOPS = pytest.mark.parametrize(
        "budget",
        [
            SolverBudget(target=11, workers=2),  # target hit after 1,058 nodes
            SolverBudget(max_nodes=500, target=16, workers=2),
            SolverBudget(max_time=0.0, target=16, workers=2),
        ],
        ids=["target-hit", "node-budget", "deadline"],
    )

    @_EARLY_STOPS
    def test_no_worker_outlives_the_solve(self, budget):
        res = max_independent_set(_refute_256(0), budget)
        assert res.status == "lower_bound"
        assert multiprocessing.active_children() == []

    @_EARLY_STOPS
    def test_no_worker_is_killed(self, budget, monkeypatch):
        # A worker killed while it writes its result leaves the result queue
        # locked, and tearing the pool down then waits on that lock for ever.
        killed = []

        def recording(method):
            def call(process):
                killed.append(method.__name__)
                return method(process)

            return call

        base = multiprocessing.process.BaseProcess
        for method in (base.terminate, base.kill):
            monkeypatch.setattr(base, method.__name__, recording(method))
        assert max_independent_set(_refute_256(0), budget).status == "lower_bound"
        assert killed == []

    def test_search_stops_within_64_nodes_of_the_stop_event(self):
        # how the parent halts the subtrees still running once the merge is done
        g = _refute_256(0)  # refuting 16 takes 3,393 nodes
        _, adj, nonadj, bit = _tables(g)
        full = (1 << g.n) - 1
        stop = multiprocessing.Event()
        assert _search(adj, nonadj, bit, 0, 0, full, 1, 15, 16, None, None, [], stop)[1] == "done"
        stop.set()  # a subtree is not started once the stop is set
        assert _search(adj, nonadj, bit, 0, 0, full, 1, 15, 16, None, None, [], stop) == (1, "cut")

        class SetAfterEntry:
            calls = 0

            def is_set(self):
                self.calls += 1
                return self.calls > 1

        assert _search(adj, nonadj, bit, 0, 0, full, 1, 15, 16, None, None, [], SetAfterEntry()) == (65, "cut")

    def test_node_budget_cut_matches_sequential(self):
        g = _refute_256(0)
        for max_nodes in (0, 1, 2, 500, 3392, 3393):
            split = _split_fields(g, max_nodes=max_nodes, target=16, workers=2)
            assert split == _split_fields(g, max_nodes=max_nodes, target=16)

    def test_works_under_spawn(self):
        # workers get their state from the pool initializer, not from a fork
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            split = _split_fields(_refute_256(0), target=11, workers=2)
        finally:
            multiprocessing.set_start_method(previous, force=True)
        assert split == _split_fields(_refute_256(0), target=11)


def _scaled(item, scale, stop):
    return item * scale, stop is None


class TestWorkerMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_in_the_order_of_the_items(self, workers):
        # 10 items are 3 hand-offs to a pool; in this process stop is None
        with worker_map(_scaled, range(10), workers, 3) as results:
            assert list(results) == [(3 * i, workers == 1) for i in range(10)]
        assert multiprocessing.active_children() == []

    def test_one_item_or_none_starts_no_pool(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "concurrent.futures", None)  # importing it fails
        for items in ([], [5]):
            with worker_map(_scaled, items, 4, 2) as results:
                assert list(results) == [(2 * i, True) for i in items]


def _reference_clique_cover(g):
    """Part count of the greedy clique cover, with plain lists: each part takes
    the lowest uncovered vertex, then the lowest uncovered vertex adjacent to
    every vertex taken so far, until there is none."""
    uncovered = list(range(g.n))
    parts = 0
    while uncovered:
        parts += 1
        cands = uncovered
        while cands:
            v = cands[0]
            uncovered = [u for u in uncovered if u != v]
            cands = [u for u in cands[1:] if g.adjacent(v, u)]
    return parts


class TestCliqueCover:
    @given(dense_or_sparse_graphs())
    @settings(max_examples=200, deadline=None)
    def test_same_count_as_the_reference_cover(self, g):
        assert clique_cover_upper_bound(g) == _reference_clique_cover(g)

    def test_k6(self):
        assert clique_cover_upper_bound(complete_graph(6)) == 1

    def test_empty(self):
        assert clique_cover_upper_bound(empty_graph(7)) == 7

    def test_c5(self):
        assert clique_cover_upper_bound(cycle_graph(5)) == 3

    @given(graphs_strategy(max_n=12))
    @settings(max_examples=60, deadline=None)
    def test_upper_bounds_alpha(self, g):
        assert clique_cover_upper_bound(g) >= brute_force_mis(g).size

    @pytest.mark.parametrize("nu,n,count", [(2, 512, 130), (2, 384, 103), (3, 341, 85)])
    def test_seed_7_jump_graph_counts(self, nu, n, count):
        assert clique_cover_upper_bound(sample_jump_graph(JumpParams(nu=nu, n=n, seed=7)).graph) == count


class TestLocalSearch:
    def test_empty_graph_takes_everything(self):
        res = local_search_lower_bound(empty_graph(9))
        assert res.size == 9 and res.status == "lower_bound"

    def test_c5_reaches_optimum(self):
        assert local_search_lower_bound(cycle_graph(5)).size == 2

    @given(graphs_strategy(max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_members_independent(self, g):
        res = local_search_lower_bound(g, seed=5)
        assert is_independent(g, res.members)
        assert res.size <= brute_force_mis(g).size

    def test_power_view_refused(self):
        with pytest.raises(TypeError, match="expected a Graph, got PowerGraphView"):
            local_search_lower_bound(power_view(cycle_graph(5), 2))

    def test_deterministic_given_seed(self):
        g = random_graph(20, 0.4, seed=6)
        a = local_search_lower_bound(g, seed=11)
        b = local_search_lower_bound(g, seed=11)
        assert a.members == b.members
