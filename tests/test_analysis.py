import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from capforge import (
    ClassProfile,
    JumpParams,
    MultiJumpSpec,
    SolverBudget,
    alpha_bracket,
    alpha_threshold,
    brute_force_mis,
    clique_cover_upper_bound,
    class_index,
    complete_graph,
    cycle_graph,
    edge_probability,
    edge_probability_floor,
    empty_graph,
    equivalence_classes,
    explicit_power_set,
    filter_representatives,
    first_moment_bound,
    independence_series,
    is_independent,
    jump_target,
    local_search_lower_bound,
    make_graph,
    max_independent_set,
    mitm_mis,
    multi_jump_product,
    pair_profile,
    purge_full_classes,
    sample_jump_graph,
    sample_simple_jump_graph,
    theoretical_bounds,
)

params_strategy = st.builds(
    JumpParams,
    nu=st.integers(min_value=2, max_value=5),
    n=st.integers(min_value=2, max_value=5),
)


def random_tuples(params, k, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(params.N) for _ in range(k)) for _ in range(count)]


def orbit_scanner(tuples, params, k):
    """Independent oracle for the purge: try every x in the vertex set."""
    nu, n, N = params.nu, params.n, params.N
    out = []
    for t in tuples:
        cs = set(t)
        full = any(all((x + j * n) % N in cs for j in range(nu)) for x in range(N))
        if not full:
            out.append(t)
    return out


class TestFilterRepresentatives:
    def test_k1_residues(self):
        p = JumpParams(nu=2, n=3)
        kept = filter_representatives([(i,) for i in range(6)], p, 1)
        assert kept == [(0,), (1,), (2,)]

    def test_distinct_residues_untouched(self):
        p = JumpParams(nu=2, n=4)
        s = [(0, 1), (2, 3)]
        assert filter_representatives(s, p, 2) == s

    def test_order_is_the_input_order(self):
        p = JumpParams(nu=2, n=3)
        s = [(5,), (0,), (2,)]  # 5 blocks residue 2, so (2,) is dropped
        assert filter_representatives(s, p, 1) == [(5,), (0,)]

    @given(params_strategy, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_pairwise_residue_disjoint(self, p, k, seed):
        s = random_tuples(p, k, 30, seed)
        kept = filter_representatives(s, p, k)
        for i, u in enumerate(kept):
            for v in kept[i + 1 :]:
                for a in u:
                    for b in v:
                        assert a % p.n != b % p.n

    @given(params_strategy, st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_output_size_counting_bound(self, p, k, seed):
        s = random_tuples(p, k, 40, seed)
        kept = filter_representatives(s, p, k)
        mult = {}
        for t in s:
            for j, c in enumerate(t):
                mult[(j, c)] = mult.get((j, c), 0) + 1
        a = max(mult.values())
        assert len(kept) >= len(s) / (k * k * p.nu * a)

    def test_kept_pairs_have_disjoint_class_sets(self):
        p = JumpParams(nu=3, n=3)
        idx = class_index(equivalence_classes(p.nu, p.n))
        s = random_tuples(p, 3, 60, seed=4)
        kept = filter_representatives(s, p, 3)
        used = []
        for i, u in enumerate(kept):
            for v in kept[i + 1 :]:
                prof = pair_profile(u, v, idx)
                used.append(set(prof.counts))
        for i, a in enumerate(used):
            for b in used[i + 1 :]:
                assert not (a & b)

    def test_purge_first_mode(self):
        p = JumpParams(nu=2, n=2)
        s = [(0, 2), (0, 1)]
        assert filter_representatives(s, p, 2, purge_first=True) == [(0, 1)]

    def test_bad_tuple_rejected(self):
        p = JumpParams(nu=2, n=2)
        with pytest.raises(ValueError):
            filter_representatives([(0, 1, 2)], p, 2)
        with pytest.raises(ValueError):
            filter_representatives([(0, 9)], p, 2)


class TestPurgeFullClasses:
    def test_smallest_example(self):
        p = JumpParams(nu=2, n=2)
        assert purge_full_classes([(0, 2), (0, 1)], p, 2) == [(0, 1)]

    def test_certificate_members_all_purged(self):
        p = JumpParams(nu=2, n=3)
        cert = sorted(explicit_power_set(p, 2))
        assert purge_full_classes(cert, p, 2) == []

    def test_interlaced_tuple_survives(self):
        # mixes two orbits without completing either
        p = JumpParams(nu=3, n=2)  # orbits of size 3 mod 6
        t = (0, 3, 4)  # x=0, y+n with y=1, x+2n
        assert purge_full_classes([t], p, 3) == [t]

    def test_below_jump_rejected(self):
        with pytest.raises(ValueError):
            purge_full_classes([(0,)], JumpParams(nu=2, n=2), 1)

    @given(params_strategy, st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_orbit_scanner(self, p, seed):
        k = p.nu + 1
        s = random_tuples(p, k, 40, seed)
        assert purge_full_classes(s, p, k) == orbit_scanner(s, p, k)


class TestEdgeProbability:
    def test_single_class(self):
        assert edge_probability(ClassProfile(counts={0: 1}), 4) == 0.75

    def test_concentrated_minimizes(self):
        spread = edge_probability(ClassProfile(counts={0: 1, 1: 1}), 4)
        conc = edge_probability(ClassProfile(counts={0: 2}), 4)
        assert spread == 9 / 16
        assert conc == 2 / 4
        assert spread >= conc

    def test_count_above_nu_rejected(self):
        with pytest.raises(ValueError):
            edge_probability(ClassProfile(counts={0: 5}), 4)
        with pytest.raises(ValueError):
            edge_probability(ClassProfile(counts={0: 4}), 4, purged=True)

    @given(
        st.integers(min_value=2, max_value=8),
        st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=6),
    )
    @settings(max_examples=80)
    def test_merging_never_increases(self, nu, ts):
        ts = [min(t, nu) for t in ts]
        base = ClassProfile(counts=dict(enumerate(ts)))
        merged_ts = [ts[0] + ts[1]] + ts[2:]
        if merged_ts[0] > nu:
            return
        merged = ClassProfile(counts=dict(enumerate(merged_ts)))
        assert edge_probability(merged, nu) <= edge_probability(base, nu) + 1e-12

    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80)
    def test_pushing_to_nu_minus_one_never_increases(self, nu, t1, t2):
        if not (t1 < nu - 1 and t2 < nu - 1 and t1 + t2 > nu - 1):
            return
        before = (nu - t1) * (nu - t2) / nu**2
        after = (nu - (nu - 1)) * (nu - (t1 + t2 - (nu - 1))) / nu**2
        assert after <= before + 1e-12

    @given(
        st.integers(min_value=2, max_value=6),
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6),
    )
    @settings(max_examples=80)
    def test_floor_bound_in_purged_mode(self, nu, ts):
        ts = [min(t, nu - 1) for t in ts]
        prof = ClassProfile(counts=dict(enumerate(ts)))
        prob = edge_probability(prof, nu, purged=True)
        k_prime = sum(ts)
        assert prob >= edge_probability_floor(k_prime, nu) - 1e-12
        assert edge_probability_floor(k_prime, nu) >= nu ** (-k_prime / (nu - 1)) - 1e-12

    def test_matches_exact_fractions(self):
        for nu, ts in [(3, [1, 2]), (5, [4, 1, 2]), (2, [1, 1, 1])]:
            prof = ClassProfile(counts=dict(enumerate(ts)))
            exact = math.prod(Fraction(nu - t, nu) for t in ts)
            assert math.isclose(edge_probability(prof, nu), float(exact))

    def test_pair_profile_counts_distinct_pairs(self):
        p = JumpParams(nu=2, n=2)
        idx = class_index(equivalence_classes(p.nu, p.n))
        prof = pair_profile((0, 0, 1), (1, 1, 0), idx)
        # pairs {0,1} and {1,0} coincide -> one distinct pair
        assert prof.k_prime == 1
        prof = pair_profile((0, 2), (1, 3), idx)
        assert prof.k_prime == 2


class TestFirstMoment:
    def test_tiny_example(self):
        val = first_moment_bound(2, 4, 3)
        assert math.isclose(val, 4 * 2**-3 * 2**1.5, rel_tol=1e-9)
        assert val > 1  # vacuous at this size

    @pytest.mark.parametrize("nu,N", [(2, 16), (2, 32), (3, 27), (4, 64), (2, 200)])
    def test_matches_exact_arithmetic(self, nu, N):
        for s in range(2, min(N, 40) + 1):
            exact = math.log(math.comb(N, s)) - math.comb(s, 2) * math.log(nu) + s / 2 * math.log(2)
            got = first_moment_bound(nu, N, s)
            if exact < 700:
                assert math.isclose(got, math.exp(exact), rel_tol=1e-9)

    def test_eventually_strictly_decreasing(self):
        vals = [first_moment_bound(2, 64, s) for s in range(2, 65)]
        peak = vals.index(max(vals))
        for a, b in zip(vals[peak:], vals[peak + 1 :]):
            assert b < a or b == 0.0

    def test_threshold_is_first_hit(self):
        s_star = alpha_threshold(2, 32, 1e-3, trials=200)
        assert first_moment_bound(2, 32, s_star) * 200 < 1e-3
        assert all(first_moment_bound(2, 32, s) * 200 >= 1e-3 for s in range(2, s_star))

    def test_power_variant(self):
        nu, N, k, s = 2, 16, 2, 10
        ln_p = -(nu ** (-k / (nu - 1)))
        exact = sum(math.log(N**k - i) for i in range(s)) - math.lgamma(s + 1) + math.comb(s, 2) * ln_p
        got = first_moment_bound(nu, N, s, variant="power_k", k=k)
        assert math.isclose(got, math.exp(exact), rel_tol=1e-9)

    def test_power_variant_needs_k(self):
        with pytest.raises(ValueError):
            first_moment_bound(2, 16, 5, variant="power_k")

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            first_moment_bound(2, 8, 1)
        with pytest.raises(ValueError):
            first_moment_bound(2, 8, 9)
        with pytest.raises(ValueError):
            first_moment_bound(2, 8, 3, variant="nope")


class TestTheoreticalBounds:
    def test_below_jump(self):
        p = JumpParams(nu=4, n=8)
        tb = theoretical_bounds(p, 2)
        assert tb.sandwich_low is None and tb.sandwich_high is None
        assert math.isclose(tb.prefix_bound, 0.5 * 2**4 * 4 * math.log2(32))
        assert tb.d_k == 0.0

    def test_at_jump(self):
        p = JumpParams(nu=4, n=8)
        tb = theoretical_bounds(p, 4)
        assert tb.d_k == 1.0
        assert math.isclose(tb.sandwich_low, 32 ** (1 / 4))
        assert tb.prefix_bound is None

    def test_one_recurrence_step(self):
        p = JumpParams(nu=3, n=9)
        tb = theoretical_bounds(p, 4)
        assert math.isclose(tb.d_k, 4 * 4**3 * 3 ** (1 + 4 / 2))

    def test_sandwich_ordering_on_grid(self):
        for nu in (2, 3, 4):
            for n in (2, 8, 64):
                p = JumpParams(nu=nu, n=n)
                for k in range(nu, 3 * nu):
                    tb = theoretical_bounds(p, k)
                    assert tb.sandwich_low <= tb.sandwich_high

    def test_k_validation(self):
        with pytest.raises(ValueError):
            theoretical_bounds(JumpParams(nu=2, n=2), 0)

    def test_recurrence_constant_saturates_to_inf(self):
        tb = theoretical_bounds(JumpParams(nu=2, n=2), 200)
        assert tb.d_k == math.inf
        assert tb.sandwich_high > 0
        assert theoretical_bounds(JumpParams(nu=2, n=2), 4000).sandwich_high == math.inf


class TestIndependenceSeries:
    def test_tiny_jump_graph_exact(self):
        cg = sample_jump_graph(JumpParams(nu=2, n=2, seed=3))
        rep = independence_series(cg, 2, mode="exact")
        e2 = rep.entries[1]
        assert e2.alpha_lower >= 4  # certificate floor N
        assert e2.alpha_exact is not None
        assert rep.monotone_violations == []

    def test_k1_is_alpha(self):
        cg = sample_jump_graph(JumpParams(nu=2, n=4, seed=5))
        rep = independence_series(cg, 1, mode="exact")
        from capforge import mitm_mis

        assert rep.entries[0].alpha_exact == mitm_mis(cg.graph).size

    def test_c5_plus_isolated_vertex(self):
        # alpha = 3; alpha of the square = 10 (5 for the cycle block, two
        # cycle copies at 2 each, plus the doubly-isolated vertex)
        g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        rep = independence_series(g, 2, mode="exact")
        assert rep.entries[0].alpha_exact == 3
        assert rep.entries[1].alpha_exact == 10
        assert rep.entries[1].a_k_lower > rep.entries[0].a_k_lower
        assert rep.monotone_violations == []

    def test_oversized_certificates_counted_not_materialized(self, monkeypatch):
        import capforge.constructions as constructions_mod

        build = constructions_mod.certificate_for

        def block_only(cg, k):
            if k != cg.params.nu:
                pytest.fail(f"k={k} materialized")
            return build(cg, k)

        monkeypatch.setattr(constructions_mod, "certificate_for", block_only)
        cg = sample_jump_graph(JumpParams(nu=2, n=8, seed=1))
        rep = independence_series(cg, 4, mode="certificate_only")
        assert [e.alpha_lower for e in rep.entries] == [1, 16, 16, 256]
        assert rep.entries[3].method == ("certificate", "product_bound")

    def test_a_failed_block_is_refused(self):
        cg = sample_jump_graph(JumpParams(nu=2, n=4, seed=1))
        cg.graph = complete_graph(8)
        with pytest.raises(ValueError, match=r"^canonical certificate block at k=2 is not independent"):
            independence_series(cg, 3, mode="certificate_only")

    def test_a_failed_factor_block_is_refused(self):
        cg = multi_jump_product(MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(7, 8)))
        assert independence_series(cg, 1, mode="certificate_only").entries[0].alpha_lower == 1
        cg.factors[1].graph = complete_graph(cg.factors[1].graph.n)
        with pytest.raises(ValueError, match=r"^product certificate block at k=3 is not independent"):
            independence_series(cg, 1, mode="certificate_only")

    def test_unsolved_k1_runs_local_search_on_the_base(self):
        rng = random.Random(14)
        g = make_graph(20, [(u, v) for u in range(20) for v in range(u + 1, 20) if rng.random() < 0.3])
        assert local_search_lower_bound(g, SolverBudget(max_nodes=2000), seed=1).size == 8
        (e1,) = independence_series(g, 1, mode="exact", cap=10).entries  # 20 vertices > cap
        assert (e1.alpha_lower, e1.alpha_upper, e1.alpha_exact, e1.method) == (8, None, None, ("local_search",))
        # no steps: the greedy start, 6 vertices
        (e1,) = independence_series(g, 1, mode="exact", cap=10, budget=SolverBudget(max_nodes=0)).entries
        assert (e1.alpha_lower, e1.method) == (6, ("local_search",))

    def test_a_k_of_a_bound_beyond_float_range(self):
        cg = sample_jump_graph(JumpParams(nu=2, n=4, seed=1))
        last = independence_series(cg, 700, mode="certificate_only").entries[-1]
        assert last.alpha_lower == 8**350 > 2**1024
        assert math.isclose(last.a_k_lower, math.sqrt(8))

    def test_alpha_too_long_to_write_is_refused(self, monkeypatch):
        """A certificate for G^k_max too long to write is refused before the
        loop; a bound that grows too long, when the loop reaches it."""
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 2, raising=False)
        cg = sample_jump_graph(JumpParams(nu=2, n=4, seed=1))  # certificate 8 ** (k // 2)
        with pytest.raises(ValueError, match=r"^k_max 6 is too large: alpha\(G\^6\) has over 2 digits"):
            independence_series(cg, 6, mode="certificate_only")
        assert independence_series(cg, 5, mode="certificate_only").entries[-1].alpha_lower == 64
        with pytest.raises(ValueError, match=r"^k_max 3 is too large: alpha\(G\^2\) has over 2 digits"):
            independence_series(empty_graph(10), 3, mode="exact")  # alpha(G^2) = 100

    def test_certificate_only_never_solves(self):
        cg = sample_jump_graph(JumpParams(nu=2, n=4, seed=1))
        rep = independence_series(cg, 4, mode="certificate_only")
        assert all(e.alpha_exact is None for e in rep.entries)
        assert rep.entries[1].alpha_lower >= 8
        assert rep.entries[3].alpha_lower >= 64

    def test_simple_graph_series_uses_product_bounds(self):
        cg = sample_simple_jump_graph(JumpParams(nu=2, n=3, seed=2))
        rep = independence_series(cg, 4, mode="certificate_only")
        assert rep.entries[1].alpha_lower >= 3  # row certificate
        assert rep.entries[3].alpha_lower >= 9  # product of two row certificates

    def test_simple_graph_series_has_no_theory(self):
        # the canonical closed forms would put a "certified" a_2 >= 6 ** (1/2)
        # above the exact a_2 = 2 of this graph
        cg = sample_simple_jump_graph(JumpParams(nu=2, n=3, seed=0))
        rep = independence_series(cg, 2, mode="exact")
        assert rep.entries[1].alpha_exact == 4
        assert [e.theory for e in rep.entries] == [None, None]

    def test_product_graph_series(self):
        spec = MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(7, 8))
        cg = multi_jump_product(spec)
        rep = independence_series(cg, 3, mode="certificate_only")
        assert rep.entries[1].alpha_lower >= 4
        assert rep.entries[2].alpha_lower >= 96
        assert rep.entries[2].theory.sandwich_low is not None

    def test_budget_degrades_not_fails(self):
        cg = sample_jump_graph(JumpParams(nu=2, n=8, seed=1))
        rep = independence_series(cg, 2, mode="exact", budget=SolverBudget(max_nodes=2))
        e1 = rep.entries[0]
        assert e1.alpha_exact is None
        assert e1.alpha_upper is not None  # clique cover still bounds it
        assert e1.alpha_lower >= 1

    def test_budget_cut_incumbent_is_labelled_branch_and_bound(self):
        # 3 nodes of B&B find a set larger than any single vertex; no local
        # search runs at k=1 when the power is solved
        rng = random.Random(3)
        g = make_graph(40, [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.2])
        (e1,) = independence_series(g, 1, mode="auto", budget=SolverBudget(max_nodes=3)).entries
        assert e1.alpha_exact is None and e1.alpha_lower > 1
        assert e1.method == ("branch_and_bound",)

    def test_lower_bound_upgrade_never_decreases(self):
        cg = sample_jump_graph(JumpParams(nu=2, n=3, seed=4))
        cert_rep = independence_series(cg, 2, mode="certificate_only")
        exact_rep = independence_series(cg, 2, mode="exact")
        for c, e in zip(cert_rep.entries, exact_rep.entries):
            assert e.alpha_lower >= c.alpha_lower

    def test_report_serialization(self, tmp_path):
        cg = sample_jump_graph(JumpParams(nu=2, n=2, seed=0))
        rep = independence_series(cg, 2, mode="exact")
        jpath = tmp_path / "rep.json"
        cpath = tmp_path / "rep.csv"
        rep.write_json(jpath)
        rep.write_csv(cpath)
        data = json.loads(jpath.read_text())
        assert set(data) == {"graph_meta", "entries", "monotone_violations"}
        assert data["entries"][0]["k"] == 1
        assert "theory" in data["entries"][0]
        lines = cpath.read_text().splitlines()
        assert lines[0].startswith("k,alpha_lower,alpha_upper")
        assert len(lines) == 3

    def test_supermultiplicative_monotone_flag(self):
        g = cycle_graph(5)
        rep = independence_series(g, 3, mode="exact")
        assert rep.monotone_violations == []
        exact = {e.k: e.alpha_exact for e in rep.entries}
        assert exact[2] >= exact[1] ** 2
        assert exact[3] >= exact[1] * exact[2]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            independence_series(cycle_graph(5), 2, mode="magic")
        with pytest.raises(ValueError):
            independence_series(cycle_graph(5), 0)


def test_jump_target_is_the_least_s_with_s_to_the_nu_at_least_n():
    for nu in range(2, 7):
        s = 1
        for N in range(1, 5001):
            while s**nu < N:
                s += 1
            assert jump_target(N, nu) == s, (N, nu)


class TestAlphaBracket:
    def _refute_256(self):
        return sample_jump_graph(JumpParams(nu=2, n=128, seed=0)).graph

    def test_exact_gives_the_size_twice(self):
        lo, hi, res = alpha_bracket(cycle_graph(7))
        assert (lo, hi, res.status) == (3, 3, "exact")

    def test_refutation_gives_the_certified_bound(self):
        lo, hi, res = alpha_bracket(self._refute_256(), SolverBudget(target=16))
        assert (lo, hi, res.status) == (7, 15, "upper_bound_certified")
        assert clique_cover_upper_bound(self._refute_256()) >= 15

    def test_certified_bound_never_above_the_clique_cover(self):
        # alpha(K_5) = 1: refuting 3 certifies 2, above the cover's 1
        lo, hi, res = alpha_bracket(make_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]), SolverBudget(target=3))
        assert (lo, hi, res.status, res.certified_upper) == (1, 1, "upper_bound_certified", 2)

    @pytest.mark.parametrize("budget", [SolverBudget(max_nodes=5), SolverBudget(target=11)], ids=["node-budget", "target-hit"])
    def test_lower_bound_gives_the_clique_cover(self, budget):
        g = self._refute_256()
        lo, hi, res = alpha_bracket(g, budget)
        assert res.status == "lower_bound" and res.certified_upper is None
        assert (lo, hi) == (res.size, clique_cover_upper_bound(g))


def _fields(res):
    return res.members, res.size, res.status, res.certified_upper, res.search_nodes


def _random_graph(n, density, seed, independent=()):
    """G(n, density), with no edge inside ``independent``."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density and not (u in independent and v in independent)]
    return make_graph(n, edges)


@st.composite
def dense_graphs_and_targets(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    density = draw(st.sampled_from((0.3, 0.6, 0.8, 0.9, 0.95)))
    return _random_graph(n, density, draw(st.integers(min_value=0, max_value=2**32))), draw(st.integers(min_value=1, max_value=12))


class TestRefuteByHalves:
    """A targeted bracket first tries to refute the target through the two
    index halves; the gate, the fallback and the shared budget around it."""

    def _jump_640(self):
        return sample_jump_graph(JumpParams(nu=2, n=320, seed=1)).graph  # jump_target 26

    @given(dense_graphs_and_targets())
    @settings(max_examples=300, deadline=None)
    def test_sound_and_direct_when_the_gate_says_no(self, case):
        g, target = case
        lo, hi, res = alpha_bracket(g, SolverBudget(target=target))
        event(f"{res.method}, {len(res.parts)} parts, {res.status}")
        alpha = brute_force_mis(g).size
        assert is_independent(g, res.members) and lo == res.size <= alpha <= hi
        assert res.search_nodes == sum(part["nodes"] for part in res.parts)
        if res.method == "halves" and res.certified_upper is not None:
            assert alpha <= res.certified_upper == target - 1
        if len(res.parts) == 1:  # the gate said no, or the greedy set reached the target
            assert res.parts[0]["last"] == g.n - 1
            assert _fields(res) == _fields(max_independent_set(g, SolverBudget(target=target)))

    def test_dense_graphs_pass_the_gate(self):
        # G(24, 0.9) has alpha 3 or 4: refuting 7 takes 4 in each half of 12
        for seed in range(5):
            g = _random_graph(24, 0.9, seed)
            lo, hi, res = alpha_bracket(g, SolverBudget(target=7))
            assert (res.method, res.status, res.certified_upper) == ("halves", "upper_bound_certified", 6)
            assert [(p["first"], p["last"], p["target"]) for p in res.parts] == [(0, 11, 4), (12, 23, 4)]
            assert brute_force_mis(g).size <= 6

    def test_a_half_that_hits_falls_back_to_the_direct_search(self):
        # a planted independent 5-set in A = 0..19 passes the gate, then hits tA = 4
        g = _random_graph(40, 0.85, 1, independent={0, 3, 7, 11, 15})
        lo, hi, res = alpha_bracket(g, SolverBudget(target=7))
        half_a, direct = res.parts
        assert (half_a["first"], half_a["last"], half_a["target"], half_a["status"]) == (0, 19, 4, "lower_bound")
        assert (direct["first"], direct["last"], direct["target"]) == (0, 39, 7)
        assert half_a["nodes"] > 0 and res.search_nodes == half_a["nodes"] + direct["nodes"]
        assert (res.method, res.status, res.certified_upper) == ("direct", "upper_bound_certified", 6)
        assert lo == mitm_mis(g).size == 5 and hi == 6

    def test_same_result_on_one_and_two_workers(self):
        g = self._jump_640()
        results = [alpha_bracket(g, SolverBudget(target=26, workers=w)) for w in (1, 2)]
        (lo, hi, res), (lo2, hi2, res2) = results
        assert (lo, hi, res.status, res.method) == (10, 25, "upper_bound_certified", "halves")
        assert [(p["first"], p["last"], p["target"], p["nodes"]) for p in res.parts] == [(0, 319, 13, 77110), (320, 639, 14, 39616)]
        assert res.search_nodes == 116726
        assert (lo2, hi2, res2.method, res2.parts) == (lo, hi, res.method, res.parts)
        assert _fields(res2) == _fields(res)
        # the set is the full graph's greedy set, the one the direct search returns
        assert res.members == max_independent_set(g, SolverBudget(target=26)).members

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_cut_inside_half_a_is_a_lower_bound(self, workers):
        g = self._jump_640()
        lo, hi, res = alpha_bracket(g, SolverBudget(max_nodes=1000, target=26, workers=workers))
        assert (res.status, res.certified_upper, res.search_nodes) == ("lower_bound", None, 1001)
        assert [(p["first"], p["status"]) for p in res.parts] == [(0, "lower_bound")]
        assert (lo, hi) == (res.size, clique_cover_upper_bound(g))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_expired_deadline_is_a_lower_bound(self, workers):
        lo, hi, res = alpha_bracket(self._jump_640(), SolverBudget(max_time=0.0, target=26, workers=workers))
        assert (res.status, res.method, len(res.parts)) == ("lower_bound", "halves", 1)
