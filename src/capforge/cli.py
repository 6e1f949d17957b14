"""Experiment command line: construct graphs, compute independence series,
run jump demos and Monte Carlo sweeps, verify constructed files.

Exit codes: 0 success, 1 usage/parameter error, 2 verification failure,
3 budget exhausted where exactness was demanded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import analysis, constructions, io as gio
from .constructions import (
    JumpParams,
    _is_int,
    MultiJumpSpec,
    explicit_power_set,
    multi_jump_product,
    sample_jump_graph,
    sample_simple_jump_graph,
)
from .graphs import DEFAULT_CAP, is_independent, power_view
from .solver import SolverBudget, available_cpus, clique_cover_upper_bound, max_independent_set


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_common(p: _Parser) -> None:
    p.add_argument("--seed", type=int, default=None, help="base PRNG seed (default 0)")
    p.add_argument("--out", type=str, default=None, help="output path / prefix")
    p.add_argument("--cap", type=int, default=None, help="materialization cap (vertices); env CAPFORGE_CAP overrides the default")
    p.add_argument("--budget-nodes", type=int, default=None, help="solver node budget")
    p.add_argument("--budget-secs", type=float, default=None, help="solver time budget in seconds")
    p.add_argument("--threads", type=int, default=available_cpus(), help="worker processes for mc-alpha trials and jump-demo's refutation (default: the CPUs this process may use)")
    p.add_argument("--config", type=str, default=None, help="JSON config file; explicit flags win")


def build_parser() -> _Parser:
    p = _Parser(prog="capforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", parents=[], help="sample a construction and write graph + metadata")
    c.add_argument("--nu", type=int, default=None, help="jump index (canonical/simple)")
    c.add_argument("--n", type=int, default=None, help="rows; N = n * nu")
    c.add_argument("--simple", action="store_true", help="row/column construction")
    c.add_argument("--multi", action="store_true", help="multi-jump product construction")
    c.add_argument("--nus", type=_int_list, default=None, help="jump indices for --multi, e.g. 2,3")
    c.add_argument("--n1", type=int, default=None, help="first-factor rows for --multi (N1 = n1 * nus[0])")
    c.add_argument("--alpha", type=float, default=None, help="jump spacing exponent for --multi (> 1)")
    c.add_argument("--seeds", type=_int_list, default=None, help="per-factor seeds for --multi")
    _add_common(c)

    s = sub.add_parser("series", help="compute the independence series of a graph file")
    s.add_argument("graph", type=str, help="graph file (construct output)")
    s.add_argument("--k-max", type=int, default=3)
    s.add_argument("--mode", choices=["exact", "auto", "certificate-only"], default="auto")
    _add_common(s)

    j = sub.add_parser("jump-demo", help="one-jump demonstration: certified a_nu vs solved a_1")
    j.add_argument("--nu", type=int, default=None, help="jump index (default 2)")
    j.add_argument("--n", type=int, default=None, help="rows; N = n * nu (required)")
    _add_common(j)

    m = sub.add_parser("multi-jump", help="multi-jump product: certified ladder report")
    m.add_argument("--nus", type=_int_list, default=None)
    m.add_argument("--n1", type=int, default=None)
    m.add_argument("--alpha", type=float, default=None)
    m.add_argument("--seeds", type=_int_list, default=None)
    m.add_argument("--k-max", type=int, default=None, help="default: largest jump index")
    _add_common(m)

    mc = sub.add_parser("mc-alpha", help="Monte Carlo sweep of exact alpha over seeds")
    mc.add_argument("--nu", type=int, default=None, help="jump index (default 2)")
    mc.add_argument("--n", type=int, default=None, help="rows; N = n * nu (required)")
    mc.add_argument("--trials", type=int, default=100)
    mc.add_argument("--p-budget", type=float, default=1e-3, help="union-bound budget defining the alpha threshold")
    _add_common(mc)

    v = sub.add_parser("verify", help="re-check a constructed graph file against its metadata")
    v.add_argument("graph", type=str)
    _add_common(v)
    return p


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(x) for x in value)


# The config keys the commands read, each with its type check and the type's name.
_CONFIG_TYPES = {
    "construction": (lambda v: isinstance(v, str), "a string"),
    "nu": (_is_int, "an integer"),
    "n": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
    "n1": (_is_int, "an integer"),
    "N1": (_is_int, "an integer"),
    "alpha": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "nus": (_is_int_list, "a list of integers"),
    "seeds": (_is_int_list, "a list of integers"),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_usage_error(f"cannot read config {path}: {exc}"))
    if not isinstance(cfg, dict):
        raise SystemExit(_usage_error(f"config {path} must hold a JSON object"))
    for key, value in cfg.items():
        if key in _CONFIG_TYPES:
            ok, kind = _CONFIG_TYPES[key]
            if not ok(value):
                raise SystemExit(_usage_error(f"config {path}: {key!r} must be {kind}, got {value!r}"))
    return cfg


def _usage_error(msg: str) -> int:
    print(f"capforge: error: {msg}", file=sys.stderr)
    return 1


def _pick(flag, cfg: dict, key: str, default=None):
    """An explicit flag wins over the config, which wins over the default."""
    return flag if flag is not None else cfg.get(key, default)


def _resolve_cap(flag) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("CAPFORGE_CAP")
    if env:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(_usage_error(f"CAPFORGE_CAP must be an integer, got {env!r}")) from None
    return DEFAULT_CAP


_BUDGET_FLAGS = {"max_nodes": "--budget-nodes", "max_time": "--budget-secs", "workers": "--threads"}


def _bad_common_flag(args) -> str | None:
    """The complaint about the first budget or thread flag that holds a value
    no command can use, or None: SolverBudget's own, in flag names."""
    try:
        SolverBudget(max_nodes=args.budget_nodes, max_time=args.budget_secs, workers=args.threads)
    except ValueError as exc:
        field, _, complaint = str(exc).partition(" ")
        return f"{_BUDGET_FLAGS[field]} {complaint}"
    return None


def _budget(args) -> SolverBudget | None:
    if args.budget_nodes is None and args.budget_secs is None:
        return None
    return SolverBudget(max_nodes=args.budget_nodes, max_time=args.budget_secs)


def _product(args, cfg: dict, cap: int, needs: str):
    """Sample the multi-jump product that flags and config describe; configs
    may give the first factor's size as N1 = n1 * nus[0]. Usage errors exit 1."""
    nus = _pick(args.nus, cfg, "nus")
    alpha = _pick(args.alpha, cfg, "alpha", 1.5)
    n1 = _pick(args.n1, cfg, "n1")
    if n1 is None and "N1" in cfg:
        if not nus or cfg["N1"] % nus[0]:
            raise SystemExit(_usage_error(f"config N1={cfg['N1']} is not a multiple of the first jump index"))
        n1 = cfg["N1"] // nus[0]
    if nus is None or n1 is None:
        raise SystemExit(_usage_error(f"{needs} needs --nus and --n1"))
    seeds = _pick(args.seeds, cfg, "seeds")
    if seeds is None:
        base = _pick(args.seed, cfg, "seed", 0)
        seeds = [base + i for i in range(len(nus))]
    try:
        spec = MultiJumpSpec(nus=tuple(nus), n1=n1, alpha=alpha, seeds=tuple(seeds))
        return multi_jump_product(spec, cap=cap)
    except ValueError as exc:
        raise SystemExit(_usage_error(str(exc))) from None


def _write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2)
    if out:
        Path(out).write_text(text + "\n")
        print(f"report written to {out}")
    else:
        print(text)


def cmd_construct(args) -> int:
    cfg = _load_config(args.config)
    cap = _resolve_cap(args.cap)
    construction = _pick(None, cfg, "construction")
    if args.multi or construction == "product":
        cg = _product(args, cfg, cap, "--multi")
        spec = cg.params
        resolved = {"construction": "product", "nus": list(spec.nus), "n1": spec.n1, "alpha": spec.alpha, "seeds": list(spec.seeds), "cap": cap}
    else:
        nu = _pick(args.nu, cfg, "nu")
        n = _pick(args.n, cfg, "n")
        seed = _pick(args.seed, cfg, "seed", 0)
        if nu is None or n is None:
            return _usage_error("construct needs --nu and --n")
        kind = "simple" if (args.simple or construction == "simple") else "canonical"
        try:
            params = JumpParams(nu=nu, n=n, seed=seed)
            cg = sample_simple_jump_graph(params) if kind == "simple" else sample_jump_graph(params)
        except ValueError as exc:
            return _usage_error(str(exc))
        resolved = {"construction": kind, "nu": nu, "n": n, "seed": seed, "cap": cap}
    if args.out is None:
        return _usage_error("construct needs --out")
    meta = cg.metadata()
    meta["config"] = resolved
    gio.write_graph(cg.graph, args.out, metadata=meta)
    print(
        f"wrote {args.out}: {cg.kind} graph, N={cg.graph.n}, "
        f"edges={cg.graph.edge_count()}, removed={len(cg.removed)}"
    )
    return 0


def _load_constructed(path: str):
    """The graph file, rebuilt as its construction when a sidecar is present."""
    g = gio.read_graph(path)
    meta = gio.read_metadata(path)
    return g if meta is None else constructions.from_metadata(g, meta)


def cmd_series(args) -> int:
    cap = _resolve_cap(args.cap)
    mode = args.mode.replace("-", "_")
    if args.k_max < 1:
        return _usage_error("--k-max must be >= 1")
    try:
        target = _load_constructed(args.graph)
    except (OSError, gio.GraphFormatError, ValueError, KeyError) as exc:
        return _usage_error(f"cannot load {args.graph}: {exc}")
    report = analysis.independence_series(target, args.k_max, mode=mode, budget=_budget(args), cap=cap)
    out = report.to_dict()
    out["config"] = {
        "graph": args.graph,
        "k_max": args.k_max,
        "mode": mode,
        "cap": cap,
        "budget_nodes": args.budget_nodes,
        "budget_secs": args.budget_secs,
    }
    print(f"{'k':>3} {'alpha_lo':>9} {'alpha_hi':>9} {'exact':>6} {'a_k_lo':>8}  method")
    for e in report.entries:
        hi = e.alpha_upper if e.alpha_upper is not None else "-"
        ex = e.alpha_exact if e.alpha_exact is not None else "-"
        print(f"{e.k:>3} {e.alpha_lower:>9} {hi!s:>9} {ex!s:>6} {e.a_k_lower:>8.3f}  {','.join(e.method)}")
    if report.monotone_violations:
        print(f"monotone violations: {report.monotone_violations}")
    if args.out:
        Path(args.out + ".json").write_text(json.dumps(out, indent=2) + "\n")
        report.write_csv(args.out + ".csv")
        print(f"wrote {args.out}.json and {args.out}.csv")
    if mode == "exact" and any(e.alpha_exact is None for e in report.entries):
        print("exactness demanded but some entries degraded (cap or budget)", file=sys.stderr)
        return 3
    return 0


def cmd_jump_demo(args) -> int:
    cfg = _load_config(args.config)
    nu = _pick(args.nu, cfg, "nu", 2)
    n = _pick(args.n, cfg, "n")
    seed = _pick(args.seed, cfg, "seed", 0)
    if n is None:
        return _usage_error("jump-demo needs --n (N = n * nu)")
    try:
        params = JumpParams(nu=nu, n=n, seed=seed)
    except ValueError as exc:
        return _usage_error(str(exc))
    N = params.N
    cg = sample_jump_graph(params)
    cert = explicit_power_set(params, nu)
    if not is_independent(power_view(cg.graph, nu), cert):
        print("certificate failed independence check", file=sys.stderr)
        return 2
    a_nu = N ** (1 / nu)
    root = round(a_nu)
    target = root if root**nu == N else math.ceil(a_nu)
    budget = SolverBudget(max_nodes=args.budget_nodes, max_time=args.budget_secs, target=target, workers=args.threads)
    res = max_independent_set(cg.graph, budget)
    if res.status == "exact":
        alpha1_lo = alpha1_hi = res.size
    elif res.status == "upper_bound_certified":
        alpha1_lo, alpha1_hi = res.size, res.certified_upper
    else:
        alpha1_lo, alpha1_hi = res.size, clique_cover_upper_bound(cg.graph)
    bound = analysis.first_moment_bound(nu, N, target)
    expected_alpha1 = 2 * math.log(N, nu)
    caveat = expected_alpha1 >= a_nu
    report = {
        "config": {"nu": nu, "n": n, "seed": seed, "budget_nodes": args.budget_nodes, "budget_secs": args.budget_secs, "threads": args.threads},
        "N": N,
        "alpha1": {
            "lower": alpha1_lo,
            "upper": alpha1_hi,
            "status": res.status,
            "search_nodes": res.search_nodes,
            "elapsed_secs": round(res.elapsed, 3),
        },
        "certificate": {"k": nu, "size": len(cert), "a_k_lower": a_nu},
        "a1_upper": alpha1_hi,
        "jump_ratio_lower": (a_nu / alpha1_hi) if alpha1_hi else None,
        "first_moment": {"s": target, "bound": bound},
        "theory_alpha1_almost_surely_below": expected_alpha1,
        "small_n_caveat": caveat,
    }
    print(f"N={N} nu={nu} seed={seed}")
    print(f"a_{nu} >= {a_nu:.4f} (certificate of size {len(cert)} in the power view)")
    print(f"alpha(G) in [{alpha1_lo}, {alpha1_hi}] via {res.status} ({res.search_nodes} nodes, {res.elapsed:.2f}s)")
    print(f"union bound Pr[alpha >= {target}] <= {bound:.3e}")
    if caveat:
        print(f"note: N={N} is too small for a visible jump (theory allows alpha up to ~{expected_alpha1:.1f})")
    elif alpha1_hi is not None and alpha1_hi < a_nu:
        print(f"jump: a_{nu}/a_1 >= {a_nu / alpha1_hi:.3f}")
    if args.out:
        _write_report(report, args.out)
    return 0


def cmd_multi_jump(args) -> int:
    cfg = _load_config(args.config)
    cap = _resolve_cap(args.cap)
    cg = _product(args, cfg, cap, "multi-jump")
    spec = cg.params
    k_max = args.k_max if args.k_max is not None else spec.nus[-1]
    if k_max < 1:
        return _usage_error("--k-max must be >= 1")
    report = analysis.independence_series(cg, k_max, mode="certificate_only", cap=cap)
    rows = []
    print(f"product graph: N={cg.graph.n}, factor sizes {spec.sizes()}, jumps at {list(spec.nus)}")
    print(f"{'k':>3} {'alpha_lower':>12} {'a_k_lower':>10}  method")
    for e in report.entries:
        print(f"{e.k:>3} {e.alpha_lower:>12} {e.a_k_lower:>10.4f}  {','.join(e.method)}")
        rows.append(e.to_dict())
    out = {
        "config": {"nus": list(spec.nus), "n1": spec.n1, "alpha": spec.alpha, "seeds": list(spec.seeds), "k_max": k_max, "cap": cap},
        "N": cg.graph.n,
        "sizes": spec.sizes(),
        "entries": rows,
    }
    if args.out:
        _write_report(out, args.out)
    return 0


def _mc_trial(task: tuple[int, int, int, SolverBudget | None]) -> tuple[int, str]:
    nu, n, seed, budget = task
    cg = sample_jump_graph(JumpParams(nu=nu, n=n, seed=seed))
    res = max_independent_set(cg.graph, budget)
    return res.size, res.status


def cmd_mc_alpha(args) -> int:
    cfg = _load_config(args.config)
    nu = _pick(args.nu, cfg, "nu", 2)
    n = _pick(args.n, cfg, "n")
    seed = _pick(args.seed, cfg, "seed", 0)
    if n is None:
        return _usage_error("mc-alpha needs --n (N = n * nu)")
    if args.trials < 1:
        return _usage_error("--trials must be >= 1")
    try:
        params = JumpParams(nu=nu, n=n, seed=seed)
    except ValueError as exc:
        return _usage_error(str(exc))
    if not 0 < args.p_budget <= 1:
        return _usage_error("--p-budget must be in (0, 1]")
    N = params.N
    try:
        s_star = analysis.alpha_threshold(nu, N, args.p_budget, trials=args.trials)
    except ValueError as exc:
        return _usage_error(str(exc))
    budget = _budget(args)
    tasks = [(nu, n, seed + i, budget) for i in range(args.trials)]
    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(_mc_trial, tasks))
    else:
        results = [_mc_trial(t) for t in tasks]
    alphas = [size for size, _ in results]
    # a trial that ran out of budget reports a lower bound on its alpha
    exhausted = [seed + i for i, (_, status) in enumerate(results) if status == "lower_bound"]
    hist: dict[int, int] = {}
    for a in alphas:
        hist[a] = hist.get(a, 0) + 1
    violations = [seed + i for i, a in enumerate(alphas) if a >= s_star]
    report = {
        "config": {"nu": nu, "n": n, "seed": seed, "trials": args.trials, "p_budget": args.p_budget, "threads": args.threads},
        "N": N,
        "threshold_s_star": s_star,
        "histogram": {str(k): hist[k] for k in sorted(hist)},
        "violating_seeds": violations,
        "budget_exhausted_seeds": exhausted,
    }
    print(f"N={N} nu={nu} trials={args.trials}: alpha histogram (threshold s*={s_star})")
    for k in sorted(hist):
        print(f"  alpha={k}: {'#' * hist[k]} ({hist[k]})")
    if violations:
        print(f"threshold exceeded for seeds {violations}")
    if exhausted:
        print(f"budget exhausted for seeds {exhausted}: their alphas are lower bounds")
    elif not violations:
        print("all alphas below the union-bound threshold")
    if args.out:
        _write_report(report, args.out)
    return 0


def _verify_checks(path: str):
    try:
        g = gio.read_graph(path)
    except (OSError, gio.GraphFormatError) as exc:
        return [("graph file parses", False, str(exc))]
    checks = [("graph file parses", True, "")]
    try:
        meta = gio.read_metadata(path)
    except gio.GraphFormatError as exc:
        return checks + [("metadata parses", False, str(exc))]
    if meta is None:
        return checks + [("metadata sidecar present", False, f"missing {gio.meta_path(path)}")]
    return checks + [("metadata parses", True, "")] + constructions.verify_construction(g, meta)


def cmd_verify(args) -> int:
    checks = _verify_checks(args.graph)
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        mark = "ok " if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"[{mark}] {name}{suffix}")
    if failed:
        print(f"{len(failed)} of {len(checks)} checks failed", file=sys.stderr)
        return 2
    print(f"all {len(checks)} checks passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    bad = _bad_common_flag(args)
    if bad is not None:
        return _usage_error(bad)
    handlers = {
        "construct": cmd_construct,
        "series": cmd_series,
        "jump-demo": cmd_jump_demo,
        "multi-jump": cmd_multi_jump,
        "mc-alpha": cmd_mc_alpha,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except OSError as exc:
        print(f"capforge: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
