import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capforge import (
    JumpParams,
    MultiJumpSpec,
    equivalence_classes,
    expected_class_count,
    explicit_power_set,
    explicit_power_set_size,
    is_independent,
    multi_jump_product,
    power_view,
    product_certificate,
    sample_jump_graph,
    sample_simple_jump_graph,
    simple_explicit_set,
)
from capforge.constructions import orbit_representative, shift_orbit

params_strategy = st.builds(
    JumpParams,
    nu=st.integers(min_value=2, max_value=5),
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
)


class TestEquivalenceClasses:
    def test_odd_nu_example(self):
        cls = equivalence_classes(3, 2)
        assert len(cls) == 5
        assert all(c.size == 3 for c in cls)

    def test_even_nu_smallest(self):
        cls = equivalence_classes(2, 2)
        assert len(cls) == 4
        assert sorted(c.size for c in cls) == [1, 1, 2, 2]
        singletons = sorted(c.representative for c in cls if c.size == 1)
        assert singletons == [(0, 2), (1, 3)]

    def test_even_nu_larger(self):
        cls = equivalence_classes(4, 3)
        assert len(cls) == 18
        short = [c for c in cls if c.size == 2]
        assert len(short) == 3
        # short classes are exactly the pairs y = x + nu*n/2 (mod N)
        for c in short:
            for x, y in c.members:
                assert (y - x) % 12 == 6 or (x - y) % 12 == 6

    @given(params_strategy)
    @settings(max_examples=60, deadline=None)
    def test_partition(self, p):
        cls = equivalence_classes(p.nu, p.n)
        seen = [pair for c in cls for pair in c.members]
        expected = {(x, y) for x in range(p.N) for y in range(x + 1, p.N)}
        assert len(seen) == len(expected)
        assert set(seen) == expected

    @given(params_strategy)
    @settings(max_examples=60, deadline=None)
    def test_count_matches_closed_form(self, p):
        assert len(equivalence_classes(p.nu, p.n)) == expected_class_count(p.nu, p.n)

    @given(params_strategy)
    @settings(max_examples=40, deadline=None)
    def test_sizes_and_short_classes(self, p):
        cls = equivalence_classes(p.nu, p.n)
        if p.nu % 2 == 1:
            assert all(c.size == p.nu for c in cls)
        else:
            short = [c for c in cls if c.size == p.nu // 2]
            assert len(short) == p.n
            assert all(c.size in (p.nu, p.nu // 2) for c in cls)
            half = p.nu * p.n // 2
            for c in short:
                assert all((y - x) % p.N in (half, p.N - half) for x, y in c.members)

    @given(params_strategy)
    @settings(max_examples=40, deadline=None)
    def test_closed_under_shift_and_rep_minimal(self, p):
        cls = equivalence_classes(p.nu, p.n)
        reps = [c.representative for c in cls]
        assert reps == sorted(reps)
        for c in cls:
            assert c.representative == min(c.members)
            member_set = set(c.members)
            for x, y in c.members:
                nx, ny = (x + p.n) % p.N, (y + p.n) % p.N
                assert ((nx, ny) if nx < ny else (ny, nx)) in member_set
                assert orbit_representative(x, y, p.nu, p.n) == c.representative

    def test_orbit_helper_matches(self):
        assert shift_orbit(0, 2, 2, 2) == [(0, 2)]
        assert set(shift_orbit(0, 1, 2, 2)) == {(0, 1), (2, 3)}

    def test_bad_params(self):
        with pytest.raises(ValueError):
            equivalence_classes(1, 5)
        with pytest.raises(ValueError):
            equivalence_classes(3, 1)


class TestSampleJumpGraph:
    def test_smallest_even(self):
        cg = sample_jump_graph(JumpParams(nu=2, n=2, seed=123))
        assert cg.graph.edge_count() == 2
        # singleton classes are always the removed edge
        assert not cg.graph.adjacent(0, 2)
        assert not cg.graph.adjacent(1, 3)

    def test_odd_edge_count(self):
        cg = sample_jump_graph(JumpParams(nu=3, n=2, seed=0))
        assert cg.graph.edge_count() == 15 - 5

    @given(params_strategy)
    @settings(max_examples=40, deadline=None)
    def test_edge_count_formula(self, p):
        cg = sample_jump_graph(p)
        M = expected_class_count(p.nu, p.n)
        assert cg.graph.edge_count() == p.N * (p.N - 1) // 2 - M
        assert len(cg.removed_edges) == M

    @given(params_strategy)
    @settings(max_examples=30, deadline=None)
    def test_one_removed_edge_per_class(self, p):
        cg = sample_jump_graph(p)
        cls = equivalence_classes(p.nu, p.n)
        removed = set(cg.removed_edges)
        assert len(removed) == len(cls)
        for c in cls:
            assert len(removed & set(c.members)) == 1

    def test_deterministic_given_seed(self):
        a = sample_jump_graph(JumpParams(nu=3, n=4, seed=99))
        b = sample_jump_graph(JumpParams(nu=3, n=4, seed=99))
        assert a.graph == b.graph and a.removed_edges == b.removed_edges

    def test_equality_compares_removed_arrays(self):
        a, b, c = (sample_jump_graph(JumpParams(nu=3, n=4, seed=s)) for s in (99, 99, 98))
        assert a == b and a.removed_edges != c.removed_edges and a != c
        assert dataclasses.replace(a, removed=c.removed) != a

    def test_seed_changes_graph(self):
        graphs = {tuple(sample_jump_graph(JumpParams(nu=3, n=4, seed=s)).removed_edges) for s in range(8)}
        assert len(graphs) > 1

    def test_graph_valid(self):
        sample_jump_graph(JumpParams(nu=4, n=5, seed=3)).graph.check_valid()


class TestExplicitPowerSet:
    def test_smallest_case(self):
        got = explicit_power_set(JumpParams(nu=2, n=2), 2)
        assert got == {(0, 2), (1, 3), (2, 0), (3, 1)}

    def test_below_jump_empty(self):
        assert explicit_power_set(JumpParams(nu=2, n=2), 1) == set()
        assert explicit_power_set(JumpParams(nu=4, n=3), 3) == set()

    def test_padding_above_jump(self):
        got = explicit_power_set(JumpParams(nu=2, n=2), 5)
        assert len(got) == 16
        assert all(t[-1] == 0 and len(t) == 5 for t in got)

    @given(params_strategy, st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_size_formula(self, p, k):
        assert len(explicit_power_set(p, k)) == explicit_power_set_size(p, k)

    @pytest.mark.parametrize("nu,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_independent_in_sampled_graphs(self, nu, n):
        for seed in range(20):
            cg = sample_jump_graph(JumpParams(nu=nu, n=n, seed=seed))
            cert = explicit_power_set(cg.params, nu)
            assert len(cert) == cg.params.N
            assert is_independent(power_view(cg.graph, nu), cert)

    def test_independent_above_jump(self):
        p = JumpParams(nu=2, n=3, seed=7)
        cg = sample_jump_graph(p)
        for k in range(2, 7):  # up to 3*nu
            cert = explicit_power_set(p, k)
            assert is_independent(power_view(cg.graph, k), cert)


class TestSimpleConstruction:
    def test_edge_counts(self):
        assert sample_simple_jump_graph(JumpParams(nu=2, n=2, seed=0)).graph.edge_count() == 5
        assert sample_simple_jump_graph(JumpParams(nu=3, n=3, seed=0)).graph.edge_count() == 33

    @given(params_strategy)
    @settings(max_examples=30, deadline=None)
    def test_edge_count_formula(self, p):
        cg = sample_simple_jump_graph(p)
        assert cg.graph.edge_count() == p.N * (p.N - 1) // 2 - p.n * (p.n - 1) // 2

    def test_removed_edges_equal_columns(self):
        cg = sample_simple_jump_graph(JumpParams(nu=2, n=3, seed=4))
        for u, v in cg.removed_edges:
            assert u % 2 == v % 2  # same column
            assert u // 2 != v // 2  # distinct rows

    @given(params_strategy)
    @settings(max_examples=20, deadline=None)
    def test_one_removal_per_row_pair(self, p):
        cg = sample_simple_jump_graph(p)
        pairs = {(min(u // p.nu, v // p.nu), max(u // p.nu, v // p.nu)) for u, v in cg.removed_edges}
        assert len(pairs) == len(cg.removed_edges) == p.n * (p.n - 1) // 2

    def test_certificate_smallest(self):
        p = JumpParams(nu=2, n=2, seed=0)
        cg = sample_simple_jump_graph(p)
        cert = simple_explicit_set(p, cg)
        assert cert == {(0, 1), (2, 3)}
        assert is_independent(power_view(cg.graph, 2), cert)

    @given(params_strategy)
    @settings(max_examples=20, deadline=None)
    def test_certificate_size_and_independence(self, p):
        cg = sample_simple_jump_graph(p)
        cert = simple_explicit_set(p, cg)
        assert len(cert) == p.n
        assert is_independent(power_view(cg.graph, p.nu), cert)

    def test_kind_mismatch_rejected(self):
        p = JumpParams(nu=2, n=2, seed=0)
        cg = sample_jump_graph(p)
        with pytest.raises(ValueError):
            simple_explicit_set(p, cg)


class TestMultiJump:
    def test_single_factor_is_canonical(self):
        spec = MultiJumpSpec(nus=(2,), n1=2, alpha=1.5, seeds=(7,))
        prod = multi_jump_product(spec)
        canon = sample_jump_graph(JumpParams(nu=2, n=2, seed=7))
        assert prod.graph == canon.graph

    def test_sizing_rule(self):
        spec = MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(0, 1))
        # 4 ** 2.25 = 22.6... -> 23 -> next multiple of 3 is 24
        assert spec.sizes() == [4, 24]
        assert math.isclose(4**2.25, 22.627, abs_tol=0.01)

    def test_factor_metadata_recorded(self):
        spec = MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(7, 8))
        cg = multi_jump_product(spec)
        meta = cg.metadata()
        assert meta["construction"] == "product"
        assert meta["nu_list"] == [2, 3]
        assert len(meta["factors"]) == 2
        assert meta["factors"][0]["nu"] == 2 and meta["factors"][0]["seed"] == 7
        assert meta["factors"][1]["N"] == 24
        assert meta["removed_edges"] == []

    def test_product_certificate_sizes(self):
        spec = MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(7, 8))
        cg = multi_jump_product(spec)
        assert cg.graph.n == 96
        assert len(product_certificate(cg, 2)) == 4
        assert len(product_certificate(cg, 3)) == 96
        assert len(product_certificate(cg, 6)) == 4**3 * 24**2

    def test_product_certificate_independent(self):
        spec = MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(3, 4))
        cg = multi_jump_product(spec)
        for k in (2, 3):
            cert = product_certificate(cg, k)
            assert is_independent(power_view(cg.graph, k), cert)

    def test_certificate_beats_product_of_factor_alphas(self):
        # combined certificate is exactly the product of factor certificates
        spec = MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(3, 4))
        cg = multi_jump_product(spec)
        k = 3
        factor_sizes = [len(explicit_power_set(f.params, k)) or 1 for f in cg.factors]
        assert len(product_certificate(cg, k)) == math.prod(factor_sizes)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            MultiJumpSpec(nus=(3, 2), n1=2, alpha=1.5, seeds=(0, 1))
        with pytest.raises(ValueError):
            MultiJumpSpec(nus=(2, 3), n1=2, alpha=0.5, seeds=(0, 1))
        with pytest.raises(ValueError):
            MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(0,))

    def test_cap_enforced(self):
        spec = MultiJumpSpec(nus=(2, 3), n1=8, alpha=2.0, seeds=(0, 1))
        with pytest.raises(ValueError):
            multi_jump_product(spec, cap=1000)


def test_seed_validation():
    with pytest.raises(ValueError):
        JumpParams(nu=2, n=2, seed=-1)
    with pytest.raises(ValueError):
        JumpParams(nu=2, n=2, seed=1 << 64)


def test_all_pairs_between_certificate_members_cover_whole_classes():
    # between two certificate tuples, the coordinate pairs sweep one orbit,
    # so exactly one coordinate pair is the orbit's deleted edge
    p = JumpParams(nu=3, n=2, seed=5)
    cg = sample_jump_graph(p)
    cert = sorted(explicit_power_set(p, 3))
    removed = set(cg.removed_edges)
    for a, b in itertools.combinations(cert, 2):
        coord_pairs = {(min(x, y), max(x, y)) for x, y in zip(a, b) if x != y}
        assert len(coord_pairs & removed) >= 1
