import dataclasses
import itertools
import json
import math
import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capforge import (
    ConstructedGraph,
    JumpParams,
    MultiJumpSpec,
    certificate_for,
    certificate_size_for,
    check_certificate,
    complete_graph,
    equivalence_classes,
    expected_class_count,
    explicit_power_set,
    is_independent,
    multi_jump_product,
    power_view,
    sample_jump_graph,
    sample_simple_jump_graph,
)
from capforge import constructions, graphs
from capforge.constructions import (
    from_metadata,
    orbit_representative,
    orbit_representatives,
    shift_orbit,
    verify_construction,
)

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
        assert len(cg.removed) == M

    @given(params_strategy)
    @settings(max_examples=30, deadline=None)
    def test_one_removed_edge_per_class(self, p):
        cg = sample_jump_graph(p)
        cls = equivalence_classes(p.nu, p.n)
        removed = set(map(tuple, cg.removed.tolist()))
        assert len(removed) == len(cls)
        for c in cls:
            assert len(removed & set(c.members)) == 1

    def test_deterministic_given_seed(self):
        a = sample_jump_graph(JumpParams(nu=3, n=4, seed=99))
        b = sample_jump_graph(JumpParams(nu=3, n=4, seed=99))
        assert a.graph == b.graph and a.removed.tolist() == b.removed.tolist()

    def test_equality_compares_removed_arrays(self):
        a, b, c = (sample_jump_graph(JumpParams(nu=3, n=4, seed=s)) for s in (99, 99, 98))
        assert a == b and a.removed.tolist() != c.removed.tolist() and a != c
        assert dataclasses.replace(a, removed=c.removed) != a

    def test_seed_changes_graph(self):
        graphs = {sample_jump_graph(JumpParams(nu=3, n=4, seed=s)).removed.tobytes() for s in range(8)}
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
        cg = sample_jump_graph(p)
        assert explicit_power_set(p, k) == certificate_for(cg, k)
        assert len(explicit_power_set(p, k)) == certificate_size_for(cg, k)

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
        for u, v in cg.removed.tolist():
            assert u % 2 == v % 2  # same column
            assert u // 2 != v // 2  # distinct rows

    @given(params_strategy)
    @settings(max_examples=20, deadline=None)
    def test_one_removal_per_row_pair(self, p):
        cg = sample_simple_jump_graph(p)
        pairs = {(min(u // p.nu, v // p.nu), max(u // p.nu, v // p.nu)) for u, v in cg.removed.tolist()}
        assert len(pairs) == len(cg.removed) == p.n * (p.n - 1) // 2

    def test_certificate_smallest(self):
        p = JumpParams(nu=2, n=2, seed=0)
        cg = sample_simple_jump_graph(p)
        cert = certificate_for(cg, 2)
        assert cert == {(0, 1), (2, 3)}
        assert is_independent(power_view(cg.graph, 2), cert)

    @given(params_strategy)
    @settings(max_examples=20, deadline=None)
    def test_certificate_size_and_independence(self, p):
        cg = sample_simple_jump_graph(p)
        cert = certificate_for(cg, p.nu)
        assert len(cert) == p.n
        assert is_independent(power_view(cg.graph, p.nu), cert)

    def test_certificate_above_the_jump(self):
        cg = sample_simple_jump_graph(JumpParams(nu=2, n=3, seed=0))
        assert certificate_size_for(cg, 4) == 9
        rows = [(0, 1), (2, 3), (4, 5)]
        assert certificate_for(cg, 5) == {a + b + (0,) for a in rows for b in rows}


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
        assert meta["removed_edges"].shape == (0, 2)

    def test_product_certificate_sizes(self):
        spec = MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(7, 8))
        cg = multi_jump_product(spec)
        assert cg.graph.n == 96
        assert len(certificate_for(cg, 2)) == 4
        assert len(certificate_for(cg, 3)) == 96
        assert len(certificate_for(cg, 6)) == 4**3 * 24**2

    def test_product_certificate_independent(self):
        spec = MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(3, 4))
        cg = multi_jump_product(spec)
        for k in (2, 3):
            cert = certificate_for(cg, k)
            assert is_independent(power_view(cg.graph, k), cert)

    def test_certificate_beats_product_of_factor_alphas(self):
        # combined certificate is exactly the product of factor certificates
        spec = MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(3, 4))
        cg = multi_jump_product(spec)
        k = 3
        factor_sizes = [len(explicit_power_set(f.params, k)) or 1 for f in cg.factors]
        assert len(certificate_for(cg, k)) == math.prod(factor_sizes)

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
    removed = set(map(tuple, cg.removed.tolist()))
    for a, b in itertools.combinations(cert, 2):
        coord_pairs = {(min(x, y), max(x, y)) for x, y in zip(a, b) if x != y}
        assert len(coord_pairs & removed) >= 1


def test_check_certificate_reports_each_block():
    p = JumpParams(nu=2, n=4, seed=3)
    cg = sample_jump_graph(p)
    assert check_certificate(cg) == [(2, 8, True)]
    spoiled = ConstructedGraph(graph=complete_graph(8), kind="canonical", params=p, removed=cg.removed)
    assert check_certificate(spoiled) == [(2, 8, False)]
    simple = sample_simple_jump_graph(JumpParams(nu=3, n=5, seed=1))
    assert check_certificate(simple) == [(3, 5, True)]
    product = multi_jump_product(MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(7, 8)))
    assert check_certificate(product) == [(2, 4, True), (3, 24, True)]


@st.composite
def constructions_and_k(draw):
    """A construction of any kind and a k up to 2 nu + 1 of its first jump."""
    kind = draw(st.sampled_from(["canonical", "simple", "product"]))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    if kind == "product":
        nus = draw(st.sampled_from([(2,), (3,), (2, 3)]))
        cg = multi_jump_product(MultiJumpSpec(nus=nus, n1=2, alpha=1.5, seeds=tuple(range(seed, seed + len(nus)))))
    else:
        p = JumpParams(nu=draw(st.integers(min_value=2, max_value=4)), n=draw(st.integers(min_value=2, max_value=3)), seed=seed)
        cg = sample_jump_graph(p) if kind == "canonical" else sample_simple_jump_graph(p)
    nu = (cg.factors or [cg])[0].params.nu
    return cg, draw(st.integers(min_value=1, max_value=2 * nu + 1))


@given(constructions_and_k())
@settings(max_examples=40, deadline=None)
def test_certificate_size_and_independence_every_kind(case):
    cg, k = case
    cert = certificate_for(cg, k)
    assert len(cert) == certificate_size_for(cg, k)
    assert is_independent(power_view(cg.graph, k), cert)


def test_parameters_leave_out_removed_edges():
    cg = multi_jump_product(MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(7, 8)))
    params = cg.parameters()
    assert "removed_edges" not in params
    assert [f["seed"] for f in params["factors"]] == [7, 8]
    assert all("removed_edges" not in f for f in params["factors"])
    meta = cg.metadata()
    assert {k: v for k, v in meta.items() if k not in ("removed_edges", "factors")} == {
        k: v for k, v in params.items() if k != "factors"
    }
    assert meta["factors"][1]["removed_edges"] is cg.factors[1].removed


@pytest.mark.parametrize(
    "cg",
    [
        sample_jump_graph(JumpParams(nu=2, n=4, seed=1)),
        sample_simple_jump_graph(JumpParams(nu=3, n=5, seed=1)),
        multi_jump_product(MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(7, 8))),
    ],
    ids=["canonical", "simple", "product"],
)
def test_from_metadata_takes_metadata_as_returned(cg):
    # metadata() hands over its removed-edge arrays; no file in between
    rebuilt = from_metadata(cg.graph, cg.metadata())
    assert rebuilt == cg
    assert all(ok for _, ok, _ in verify_construction(rebuilt, cg.metadata()))


def test_from_metadata_parses_each_factor_once(monkeypatch):
    cg = multi_jump_product(MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(7, 8)))
    calls = []
    parse = constructions._jump_fields
    monkeypatch.setattr(constructions, "_jump_fields", lambda meta: calls.append(meta) or parse(meta))
    assert from_metadata(cg.graph, cg.metadata()) == cg
    assert len(calls) == 2


def test_from_metadata_refuses_pair_lists():
    cg = sample_jump_graph(JumpParams(nu=2, n=4, seed=1))
    meta = json.loads(json.dumps(cg.metadata(), default=np.ndarray.tolist))
    with pytest.raises(ValueError, match=r"must be an \(M, 2\) int64 array, as io.read_metadata returns it"):
        from_metadata(cg.graph, meta)


def _randrange_loop(seed: int, sizes) -> list[int]:
    """The reference _sampler must match: one randrange call per size."""
    rng = random.Random(seed)
    return [rng.randrange(m) for m in sizes]


def _size_arrays(nu: int, n: int) -> dict[str, np.ndarray]:
    """The draw sizes of both samplers: each orbit's size, and nu per row pair."""
    reps = orbit_representatives(nu, n)
    return {
        "canonical": np.where((nu % 2 == 0) & (2 * (reps[:, 1] - reps[:, 0]) == nu * n), nu // 2, nu),
        "simple": np.full(n * (n - 1) // 2, nu),
    }


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from(["canonical", "simple"]),
)
def test_randranges_draws_what_randrange_draws(nu, n, seed, kind):
    sizes = _size_arrays(nu, n)[kind]
    drawn = constructions._sampler(seed)(sizes)
    assert drawn.dtype == np.int64
    assert drawn.tolist() == _randrange_loop(seed, sizes.tolist())


@pytest.mark.parametrize("nu, n", [(2, 9), (3, 7), (4, 6)])
def test_randranges_across_word_chunks(monkeypatch, nu, n):
    monkeypatch.setattr(constructions, "_WORD_CHUNK", 5)  # many chunks, most draws past the first
    for sizes in _size_arrays(nu, n).values():
        for seed in (0, 7, 2**64 - 1):
            assert constructions._sampler(seed)(sizes).tolist() == _randrange_loop(seed, sizes.tolist())


def test_randranges_refuses_sizes_it_cannot_draw_in_bulk():
    with pytest.raises(ValueError, match=r"nu must be below 2\*\*32"):
        constructions._sampler(0)(np.array([2, 1 << 32]))
    with pytest.raises(ValueError, match="share one threshold"):
        constructions._sampler(0)(np.array([2, 3]))  # 2 << 30 and 3 << 30
    assert constructions._sampler(0)(np.array([], dtype=np.int64)).tolist() == []


@pytest.mark.parametrize("nu, n", [(2, 3), (2, 8), (3, 5), (4, 4), (5, 3)])
def test_samplers_match_one_draw_per_orbit_or_row_pair(nu, n):
    """The samplers against the per-orbit loop they replace: orbit members in
    ascending representative order, and the row pairs i < j in order."""
    for seed in (0, 11):
        rng = random.Random(seed)
        orbits = [list(c.members[rng.randrange(c.size)]) for c in equivalence_classes(nu, n)]
        assert sample_jump_graph(JumpParams(nu, n, seed)).removed.tolist() == orbits
        rng = random.Random(seed)
        rows = [[i * nu + col, j * nu + col] for i, j in itertools.combinations(range(n), 2) for col in [rng.randrange(nu)]]
        assert sample_simple_jump_graph(JumpParams(nu, n, seed)).removed.tolist() == rows


@pytest.mark.parametrize("chunk", [1, 7, 44])
def test_canonical_sampler_does_not_depend_on_chunk_size(monkeypatch, chunk):
    """_canonical_removed draws _EDGE_CHUNK orbits at a time; accepted words
    a chunk leaves over go to the next."""
    params = [JumpParams(2, 9, 3), JumpParams(3, 7, 5), JumpParams(4, 6, 2**64 - 1)]
    whole = [constructions._canonical_removed(p) for p in params]
    monkeypatch.setattr(graphs, "_EDGE_CHUNK", chunk)
    monkeypatch.setattr(constructions, "_WORD_CHUNK", 5)
    for p, want in zip(params, whole):
        assert np.array_equal(constructions._canonical_removed(p), want)


@pytest.mark.parametrize("chunk", [1, 7, 44])
def test_simple_sampler_does_not_depend_on_chunk_size(monkeypatch, chunk):
    """_simple_removed draws _EDGE_CHUNK row pairs at a time, across the
    ends of rows, and gives the one-call draws of the whole triangle."""
    params = [JumpParams(2, 9, 3), JumpParams(3, 7, 5), JumpParams(5, 12, 2**64 - 1)]
    whole = [constructions._simple_removed(p) for p in params]
    monkeypatch.setattr(graphs, "_EDGE_CHUNK", chunk)
    monkeypatch.setattr(constructions, "_WORD_CHUNK", 5)
    for p, want in zip(params, whole):
        i, j = np.triu_indices(p.n, k=1)
        col = constructions._sampler(p.seed)(np.full(len(i), p.nu))
        assert np.array_equal(want, np.stack((i * p.nu + col, j * p.nu + col), axis=1))
        assert np.array_equal(constructions._simple_removed(p), want)


def _reference_orbit_checks(removed: np.ndarray, nu: int, n: int) -> list:
    """verify_construction's per-pair canonical checks made on the whole
    array: codes x * N + y of the orbit representatives, then np.unique."""
    N = nu * n
    reps = orbit_representatives(nu, n)
    u, v = removed[:, 0], removed[:, 1]
    checks = [("class count matches closed form", len(reps) == expected_class_count(nu, n), f"{len(reps)} classes")]
    valid = (0 <= u) & (u < v) & (v < N)
    checks += [("removed edges are valid pairs", False, f"{tuple(pair)} not a vertex pair") for pair in removed[~valid].tolist()]
    hits = constructions._representatives_of(removed[valid], nu, n)
    codes = hits[:, 0] * N + hits[:, 1]
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    multi = [tuple(rep) for rep in hits[np.sort(first[counts > 1])].tolist()]
    ok = bool(np.array_equal(np.sort(codes), reps[:, 0] * N + reps[:, 1]))
    return checks + [("one removed edge per class", ok, f"classes hit twice: {multi}; classes missed: {len(reps) - len(first)}")]


@settings(max_examples=80, deadline=None)
@given(params_strategy, st.data())
def test_orbit_checks_match_the_whole_array_checks(p, data):
    """Chunked orbit indices give the checks np.unique on whole-array codes
    gave, for sampled removed edges with some pairs replaced and appended:
    reversed, out of range, self-loops, or members of another orbit."""
    removed = sample_jump_graph(p).removed
    pair = st.tuples(st.integers(-1, p.N), st.integers(-1, p.N))
    for i, new in data.draw(st.lists(st.tuples(st.integers(0, len(removed) - 1), pair), max_size=4)):
        removed[i] = new
    removed = np.concatenate((removed, np.array(data.draw(st.lists(pair, max_size=3)), np.int64).reshape(-1, 2)))
    chunk = data.draw(st.sampled_from([1, 7, 44, len(removed)]))
    chunks = [removed[lo : lo + chunk] for lo in range(0, len(removed), chunk)]
    assert constructions._orbit_checks(chunks, p.nu, p.n) == _reference_orbit_checks(removed, p.nu, p.n)


def _reference_row_checks(removed: np.ndarray, nu: int, n: int) -> list:
    """verify_construction's per-pair simple checks made on the whole array:
    the row pairs sorted in place, then np.unique."""
    u, v = removed[:, 0], removed[:, 1]
    rows = removed // nu
    return [
        ("one removed edge per row pair", len(removed) == n * (n - 1) // 2, ""),
        ("removed edges join equal columns of distinct rows", bool(((u % nu == v % nu) & (rows[:, 0] != rows[:, 1])).all()), ""),
        ("row pairs all distinct", len(np.unique(np.sort(rows, axis=1), axis=0)) == len(removed), ""),
    ]


@settings(max_examples=80, deadline=None)
@given(params_strategy, st.data())
def test_row_checks_match_the_whole_array_checks(p, data):
    """Chunked row-pair counts give the checks np.unique on the whole array
    gave, for sampled removed edges with some pairs replaced and appended:
    in range or not, in one row, or another pair's rows."""
    removed = sample_simple_jump_graph(p).removed
    pair = st.tuples(st.integers(-2 * p.nu, p.N + 2 * p.nu), st.integers(-2 * p.nu, p.N + 2 * p.nu))
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(removed) - 1), pair | st.integers(0, len(removed) - 1)), max_size=4))
    for i, new in edits:
        removed[i] = removed[new] if isinstance(new, int) else new
    removed = np.concatenate((removed, np.array(data.draw(st.lists(pair, max_size=3)), np.int64).reshape(-1, 2)))
    chunk = data.draw(st.sampled_from([1, 7, 44, len(removed)]))
    chunks = [removed[lo : lo + chunk] for lo in range(0, len(removed), chunk)]
    assert constructions._row_checks(chunks, p.nu, p.n) == _reference_row_checks(removed, p.nu, p.n)


@pytest.mark.parametrize("kind", ["canonical", "simple"])
def test_seed_check_compares_a_chunk_at_a_time(monkeypatch, kind):
    """The resampled edges are compared chunk by chunk: equal arrays pass,
    and a changed, missing or extra last pair fails."""
    monkeypatch.setattr(graphs, "_EDGE_CHUNK", 7)
    p = JumpParams(3, 6, 11)
    cg = sample_jump_graph(p) if kind == "canonical" else sample_simple_jump_graph(p)
    chunks = constructions._canonical_chunks if kind == "canonical" else constructions._simple_chunks
    changed = cg.removed.copy()
    changed[-1, 1] += 1
    assert constructions._same_pairs(cg.removed, chunks(p))
    for removed in (changed, cg.removed[:-1], np.concatenate((cg.removed, cg.removed[:1]))):
        assert not constructions._same_pairs(removed, chunks(p))
