import itertools
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capforge import (
    CapExceeded,
    complete_graph,
    cycle_graph,
    empty_graph,
    index_to_tuple,
    is_independent,
    make_graph,
    power_view,
    strong_power,
    strong_product,
    tuple_to_index,
)
from capforge import graphs
from capforge.solver import brute_force_mis, mitm_mis


def graphs_strategy(max_n=8):
    """Random small graphs as (n, edge set)."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([]))
        return make_graph(n, edges)

    return build()


class TestMakeGraph:
    def test_edgeless(self):
        g = make_graph(3, [])
        assert g.edge_count() == 0
        assert brute_force_mis(g).size == 3

    def test_triangle(self):
        g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert brute_force_mis(g).size == 1

    def test_c5_alpha_two(self):
        assert brute_force_mis(cycle_graph(5)).size == 2

    def test_duplicates_collapse(self):
        g = make_graph(4, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1)])

    @given(graphs_strategy())
    def test_symmetric_irreflexive(self, g):
        g.check_valid()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_rows_and_edges_match_bit_loop(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3 * len(pairs)) if pairs else st.just([]))
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        distinct = sorted({(min(e), max(e)) for e in edges})
        for block_bits in (8, 1 << 22):  # one row per block, and every row in one block
            with patch.object(graphs, "_BLOCK_BITS", block_bits):
                g = make_graph(n, [e[::-1] for e in edges])
                assert g.adj == adj
                assert list(g.edges()) == distinct
                full = (1 << n) - 1
                assert graphs.bitset_rows(n, graphs.edge_pairs(edges), complement=True) == [
                    full ^ row ^ (1 << v) for v, row in enumerate(adj)
                ]


class TestStrongProduct:
    def test_k1_is_identity(self):
        c5 = cycle_graph(5)
        assert strong_product(complete_graph(1), c5) == c5

    def test_complete_absorbing(self):
        k2 = complete_graph(2)
        assert strong_product(k2, k2) == complete_graph(4)

    def test_c5_squared_alpha_five(self):
        g = strong_product(cycle_graph(5), cycle_graph(5))
        assert g.n == 25
        assert mitm_mis(g).size == 5

    def test_vertex_count_product(self):
        g = strong_product(cycle_graph(3), empty_graph(4))
        assert g.n == 12

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            strong_product(empty_graph(100), empty_graph(300), cap=20_000)

    def test_flat_index_layout(self):
        # (a, b) -> a*|V(h)| + b
        g = cycle_graph(3)
        h = empty_graph(2)
        p = strong_product(g, h)
        for a1, b1 in itertools.product(range(3), range(2)):
            for a2, b2 in itertools.product(range(3), range(2)):
                if (a1, b1) == (a2, b2):
                    continue
                exp = (a1 == a2 or g.adjacent(a1, a2)) and (b1 == b2 or h.adjacent(b1, b2))
                assert p.adjacent(a1 * 2 + b1, a2 * 2 + b2) == exp

    @settings(max_examples=30, deadline=None)
    @given(graphs_strategy(max_n=4), graphs_strategy(max_n=4))
    def test_commutative_up_to_alpha(self, g, h):
        a = brute_force_mis(strong_product(g, h)).size
        b = brute_force_mis(strong_product(h, g)).size
        assert a == b

    def test_commutative_alpha_midsize(self):
        import random

        from capforge.solver import max_independent_set

        rng = random.Random(5)
        g = make_graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.4])
        h = make_graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.6])
        a = max_independent_set(strong_product(g, h))
        b = max_independent_set(strong_product(h, g))
        assert a.status == b.status == "exact" and a.size == b.size

    @settings(max_examples=30, deadline=None)
    @given(graphs_strategy(max_n=4), graphs_strategy(max_n=4))
    def test_super_multiplicative(self, g, h):
        ab = brute_force_mis(strong_product(g, h)).size
        assert ab >= brute_force_mis(g).size * brute_force_mis(h).size


class TestStrongPower:
    def test_power_one(self):
        c5 = cycle_graph(5)
        assert strong_power(c5, 1) == c5

    def test_square_matches_product(self):
        c5 = cycle_graph(5)
        assert strong_power(c5, 2) == strong_product(c5, c5)

    def test_k2_cubed(self):
        assert strong_power(complete_graph(2), 3) == complete_graph(8)

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            strong_power(empty_graph(10), 6, cap=20_000)


class TestPowerView:
    def test_examples(self):
        v = power_view(cycle_graph(5), 2)
        assert v.adjacent((0, 0), (0, 1))
        assert not v.adjacent((0, 0), (0, 0))
        assert not v.adjacent((0, 0), (2, 2))

    def test_invalid_tuple_rejected(self):
        v = power_view(cycle_graph(5), 2)
        with pytest.raises(ValueError):
            v.adjacent((0, 0, 0), (0, 1))
        with pytest.raises(ValueError):
            v.adjacent((0, 5), (0, 1))

    @pytest.mark.parametrize(
        "g,k",
        [
            (cycle_graph(5), 2),
            (cycle_graph(5), 4),
            (make_graph(4, [(0, 1), (2, 3)]), 3),
            (make_graph(2, [(0, 1)]), 5),
            (make_graph(8, [(i, (i + 3) % 8) for i in range(8)]), 2),
        ],
    )
    def test_agrees_with_materialized(self, g, k):
        assert g.n**k <= 4096
        gk = strong_power(g, k)
        v = power_view(g, k)
        for i in range(gk.n):
            ti = index_to_tuple(i, g.n, k)
            row = gk.adj[i]
            for j in range(gk.n):
                assert bool(row >> j & 1) == v.adjacent(ti, index_to_tuple(j, g.n, k))


class TestTupleCodec:
    def test_exhaustive_small(self):
        for n, k in [(2, 3), (5, 2), (3, 4)]:
            for i in range(n**k):
                t = index_to_tuple(i, n, k)
                assert len(t) == k
                assert tuple_to_index(t, n) == i

    @given(st.integers(min_value=2, max_value=9), st.lists(st.integers(min_value=0), min_size=1, max_size=6))
    def test_round_trip(self, n, raw):
        t = tuple(c % n for c in raw)
        assert index_to_tuple(tuple_to_index(t, n), n, len(t)) == t

    def test_coordinate_zero_most_significant(self):
        assert tuple_to_index((1, 0, 0), 5) == 25


class TestIsIndependent:
    def test_empty_set(self):
        assert is_independent(complete_graph(3), set())

    def test_k3_pair(self):
        assert not is_independent(complete_graph(3), {0, 1})

    def test_c5_pair(self):
        assert is_independent(cycle_graph(5), {0, 2})

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            is_independent(cycle_graph(5), {0, 7})

    @settings(max_examples=40, deadline=None)
    @given(graphs_strategy(max_n=5), st.integers(min_value=1, max_value=3), st.data())
    def test_view_paths_agree(self, g, k, data):
        v = power_view(g, k)
        tuples = data.draw(
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=g.n - 1)] * k),
                min_size=0,
                max_size=24,
                unique=True,
            )
        )
        members = list(tuples)
        pairwise = not any(v.adjacent(a, b) for a, b in itertools.combinations(members, 2))
        assert is_independent(v, members) == pairwise
        with patch.object(graphs, "_BLOCK_BITS", 8):  # a few members per block
            assert is_independent(v, members) == pairwise

    def test_view_blocks_bounded_when_members_outnumber_values(self):
        # 2^13 members over 2 coordinate values: a block sized by the values
        # alone would hold M x M/8 bytes (8 MiB) per coordinate.
        k = 13
        members = list(itertools.product(range(2), repeat=k))
        m = len(members)
        v = power_view(empty_graph(2), k)
        with patch.object(graphs, "_BLOCK_BITS", 1 << 15):
            tracemalloc.start()
            try:
                assert is_independent(v, members)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < m * m // 8

    def test_view_matches_graph_semantics(self):
        g = cycle_graph(5)
        v = power_view(g, 2)
        gk = strong_power(g, 2)
        members = [(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)]
        flat = {tuple_to_index(t, 5) for t in members}
        assert is_independent(v, members) == is_independent(gk, flat)
