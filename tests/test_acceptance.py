"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 5 performs three
certified refutations on 1024-vertex graphs, split over all available CPUs,
and dominates the runtime (about 13 s per seed on 2 cores; its stated budget
is 30 minutes per seed).
"""

import itertools
import random
import time

from capforge import (
    JumpParams,
    MultiJumpSpec,
    SolverBudget,
    alpha_threshold,
    available_cpus,
    brute_force_mis,
    cycle_graph,
    equivalence_classes,
    expected_class_count,
    explicit_power_set,
    filter_representatives,
    first_moment_bound,
    independence_series,
    is_independent,
    make_graph,
    max_independent_set,
    mitm_mis,
    multi_jump_product,
    power_view,
    product_certificate,
    purge_full_classes,
    sample_jump_graph,
    sample_simple_jump_graph,
    simple_explicit_set,
    strong_power,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_graph(n, density, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return make_graph(n, edges)


def test_criterion_1_class_structure_exactness():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for nu in (2, 3, 4, 5):
        for n in range(2, 7):
            N = n * nu
            classes = equivalence_classes(nu, n)
            seen = [p for c in classes for p in c.members]
            partition = len(seen) == N * (N - 1) // 2 and len(set(seen)) == len(seen)
            count_ok = len(classes) == expected_class_count(nu, n)
            if nu % 2 == 0:
                short = [c for c in classes if c.size == nu // 2]
                short_ok = len(short) == n and all(c.size in (nu, nu // 2) for c in classes)
            else:
                short_ok = all(c.size == nu for c in classes)
            if not (partition and count_ok and short_ok):
                ok = False
                detail = f"failed at nu={nu}, n={n}"
    elapsed = time.perf_counter() - t0
    if ok and elapsed >= 1.0:
        ok = False
        detail = f"too slow: {elapsed:.2f}s"
    if ok:
        detail = f"nu in 2..5, n in 2..6, {elapsed:.2f}s"
    _report(1, "class-structure exactness", ok, detail)
    assert ok, detail


def test_criterion_2_certificate_soundness():
    failures = []
    checked = 0
    for nu, n, seed in itertools.product((2, 3), (2, 3, 4), range(100)):
        params = JumpParams(nu=nu, n=n, seed=seed)
        cg = sample_jump_graph(params)
        cert = explicit_power_set(params, nu)
        if len(cert) != params.N or not is_independent(power_view(cg.graph, nu), cert):
            failures.append(("canonical", nu, n, seed))
        sg = sample_simple_jump_graph(params)
        scert = simple_explicit_set(params, sg)
        if len(scert) != n or not is_independent(power_view(sg.graph, nu), scert):
            failures.append(("simple", nu, n, seed))
        checked += 2
    ok = not failures
    detail = f"{checked} certificates verified" if ok else f"failures: {failures[:5]}"
    _report(2, "certificate soundness", ok, detail)
    assert ok, detail


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    count = 0
    densities = (0.2, 0.5, 0.8)
    for i in range(201):
        n = 6 + i % 15  # 6..20
        g = random_graph(n, densities[i % 3], seed=40_000 + i)
        oracle = brute_force_mis(g).size
        solver = max_independent_set(g)
        if solver.status != "exact" or solver.size != oracle:
            mismatches.append((i, n, oracle, solver.size))
        count += 1
    c5 = cycle_graph(5)
    if max_independent_set(c5).size != 2 or brute_force_mis(c5).size != 2:
        mismatches.append(("C5",))
    c5sq = strong_power(c5, 2)
    if max_independent_set(c5sq).size != 5 or mitm_mis(c5sq).size != 5:
        mismatches.append(("C5*C5",))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    detail = (
        f"{count} random graphs + C5, C5*C5 in {elapsed:.1f}s"
        if ok
        else f"mismatches={mismatches[:5]}, elapsed={elapsed:.1f}s"
    )
    _report(3, "oracle equivalence", ok, detail)
    assert ok, detail


def test_criterion_4_super_multiplicativity():
    violations = []
    for i in range(20):
        n = 4 + i % 5  # 4..8
        density = (0.2, 0.35, 0.5, 0.65, 0.8)[i % 5]
        g = random_graph(n, density, seed=7_000 + i)
        k_max = 3 if n**3 <= 512 and n <= 7 else 2
        report = independence_series(g, k_max, mode="exact")
        alpha = {e.k: e.alpha_exact for e in report.entries}
        if any(v is None for v in alpha.values()):
            violations.append((i, "non-exact entry"))
            continue
        for a, b in itertools.combinations_with_replacement(range(1, k_max), 2):
            if a + b <= k_max and alpha[a + b] < alpha[a] * alpha[b]:
                violations.append((i, a, b, alpha))
        if report.monotone_violations:
            violations.append((i, report.monotone_violations))
    ok = not violations
    detail = "20 graphs, k up to 3, all products and reports clean" if ok else str(violations[:4])
    _report(4, "super-multiplicativity", ok, detail)
    assert ok, detail


def test_criterion_5_desk_scale_jump():
    nu, n = 2, 512
    N = n * nu
    per_seed = []
    ok = True
    for seed in (1, 2, 3):
        params = JumpParams(nu=nu, n=n, seed=seed)
        cg = sample_jump_graph(params)
        cert = explicit_power_set(params, nu)
        cert_ok = len(cert) == N and is_independent(power_view(cg.graph, nu), cert)
        a2 = len(cert) ** (1 / 2)
        bound = first_moment_bound(nu, N, 32)
        res = max_independent_set(cg.graph, SolverBudget(max_time=1750.0, target=32, workers=available_cpus()))
        refuted = (res.status == "exact" and res.size <= 31) or res.certified_upper == 31
        per_seed.append((seed, cert_ok, a2, refuted, res.status, res.size, res.elapsed))
        if not (cert_ok and a2 >= 32 and refuted and bound < 1e-40):
            ok = False
    detail = "; ".join(
        f"seed {s}: cert={'ok' if c else 'BAD'} a2>={a:.0f} alpha<=31 {'proved' if r else 'NOT proved'}"
        f" ({st}, {el:.0f}s)"
        for s, c, a, r, st, sz, el in per_seed
    )
    detail += f"; union bound {first_moment_bound(nu, N, 32):.1e} < 1e-40"
    _report(5, "desk-scale jump at nu=2, N=1024", ok, detail)
    assert ok, detail


def test_criterion_6_statistical_alpha_control():
    nu, n, trials = 2, 16, 200
    N = n * nu
    s_star = alpha_threshold(nu, N, 1e-3, trials=trials)
    worst = 0
    failures = []
    for seed in range(trials):
        cg = sample_jump_graph(JumpParams(nu=nu, n=n, seed=seed))
        res = max_independent_set(cg.graph)
        assert res.status == "exact"
        worst = max(worst, res.size)
        if res.size >= s_star:
            failures.append((seed, res.size))
            break  # one failure aborts
    ok = not failures
    detail = (
        f"{trials} seeds, max alpha {worst} < s*={s_star}" if ok else f"seed {failures[0]} reached {failures[0][1]} >= s*={s_star}"
    )
    _report(6, "statistical alpha control", ok, detail)
    assert ok, detail


def test_criterion_7_power_lower_bound_ladder():
    t0 = time.perf_counter()
    params = JumpParams(nu=2, n=4, seed=9)
    cg = sample_jump_graph(params)
    N = params.N
    failures = []
    for k in range(2, 7):
        cert = explicit_power_set(params, k)
        want = N ** (k // 2)
        if len(cert) != want or not is_independent(power_view(cg.graph, k), cert):
            failures.append(k)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = f"k=2..6 certificates verified through the view in {elapsed:.1f}s" if ok else f"failed k={failures}"
    _report(7, "power lower-bound ladder", ok, detail)
    assert ok, detail


def _orbit_scanner(tuples, params, k):
    nu, n, N = params.nu, params.n, params.N
    out = []
    for t in tuples:
        cs = set(t)
        if not any(all((x + j * n) % N in cs for j in range(nu)) for x in range(N)):
            out.append(t)
    return out


def test_criterion_8_filtering_diagnostics():
    rng = random.Random(123)
    violations = 0
    for trial in range(1000):
        nu = rng.choice((2, 3, 4))
        n = rng.randrange(2, 6)
        params = JumpParams(nu=nu, n=n)
        k = rng.randrange(nu, nu + 3)
        tuples = [tuple(rng.randrange(params.N) for _ in range(k)) for _ in range(rng.randrange(1, 40))]
        kept = filter_representatives(tuples, params, k)
        for i, u in enumerate(kept):
            for v in kept[i + 1 :]:
                if any(a % n == b % n for a in u for b in v):
                    violations += 1
        if purge_full_classes(tuples, params, k) != _orbit_scanner(tuples, params, k):
            violations += 1
    ok = violations == 0
    detail = "1000 random tuple sets, residue disjointness + purge agreement" if ok else f"{violations} violations"
    _report(8, "filtering diagnostics", ok, detail)
    assert ok, detail


def test_criterion_9_multi_jump_composition():
    spec = MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(21, 22))
    cg = multi_jump_product(spec)
    failures = []
    for k in (2, 3, 6):
        cert = product_certificate(cg, k)
        if not is_independent(power_view(cg.graph, k), cert):
            failures.append(f"certificate dependent at k={k}")
    report = independence_series(cg, 6, mode="certificate_only")
    a_lower = {e.k: e.a_k_lower for e in report.entries}
    for jump in spec.nus:
        prefix = max(a_lower[j] for j in range(1, jump))
        if a_lower[jump] < prefix - 1e-12:
            failures.append(f"a_{jump}={a_lower[jump]:.3f} below prefix {prefix:.3f}")
    ok = not failures
    sizes = {k: len(product_certificate(cg, k)) for k in (2, 3, 6)}
    detail = f"certificate sizes {sizes}, jumps non-decreasing" if ok else "; ".join(failures)
    _report(9, "multi-jump composition", ok, detail)
    assert ok, detail
