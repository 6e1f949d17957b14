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
from pathlib import Path

from . import analysis, constructions, io as gio
from .constructions import (
    JumpParams,
    MultiJumpSpec,
    check_fields,
    multi_jump_product,
    sample_jump_graph,
    sample_simple_jump_graph,
)
from .graphs import DEFAULT_CAP
from .solver import SolverBudget, alpha_bracket, available_cpus, max_independent_set, worker_map


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


def _add_common(p: _Parser, *names: str) -> None:
    """Declare on ``p`` the common flags ``names``: only those its command reads."""
    flags = {
        "seed": (int, None, "base PRNG seed (default 0)"),
        "out": (str, None, "output path / prefix"),
        "cap": (int, None, "materialization cap (vertices); env CAPFORGE_CAP overrides the default"),
        "budget-nodes": (int, None, "solver node budget"),
        "budget-secs": (float, None, "solver time budget in seconds"),
        "threads": (int, available_cpus(), "worker processes for mc-alpha trials and jump-demo's refutation (default: the CPUs this process may use)"),
        "config": (str, None, "JSON config file; explicit flags win"),
    }
    for name in names:
        kind, default, text = flags[name]
        p.add_argument(f"--{name}", type=kind, default=default, help=text)


def build_parser() -> _Parser:
    p = _Parser(prog="capforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", parents=[], help="sample a construction and write graph + metadata")
    c.add_argument("--nu", type=int, default=None, help="jump index (canonical/simple)")
    c.add_argument("--n", type=int, default=None, help="rows; N = n * nu")
    kind = c.add_mutually_exclusive_group()
    kind.add_argument("--simple", action="store_true", help="row/column construction")
    kind.add_argument("--multi", action="store_true", help="multi-jump product construction")
    c.add_argument("--nus", type=_int_list, default=None, help="jump indices for --multi, e.g. 2,3")
    c.add_argument("--n1", type=int, default=None, help="first-factor rows for --multi (N1 = n1 * nus[0])")
    c.add_argument("--alpha", type=float, default=None, help="jump spacing exponent for --multi (> 1)")
    c.add_argument("--seeds", type=_int_list, default=None, help="per-factor seeds for --multi")
    _add_common(c, "seed", "out", "cap", "config")

    s = sub.add_parser("series", help="compute the independence series of a graph file")
    s.add_argument("graph", type=str, help="graph file (construct output)")
    s.add_argument("--k-max", type=int, default=3)
    s.add_argument("--mode", choices=["exact", "auto", "certificate-only"], default="auto")
    _add_common(s, "out", "cap", "budget-nodes", "budget-secs")

    j = sub.add_parser("jump-demo", help="one-jump demonstration: certified a_nu vs solved a_1")
    j.add_argument("--nu", type=int, default=None, help="jump index (default 2)")
    j.add_argument("--n", type=int, default=None, help="rows; N = n * nu (required)")
    _add_common(j, "seed", "out", "budget-nodes", "budget-secs", "threads", "config")

    m = sub.add_parser("multi-jump", help="multi-jump product: certified ladder report")
    m.add_argument("--nus", type=_int_list, default=None)
    m.add_argument("--n1", type=int, default=None)
    m.add_argument("--alpha", type=float, default=None)
    m.add_argument("--seeds", type=_int_list, default=None)
    m.add_argument("--k-max", type=int, default=None, help="default: largest jump index")
    _add_common(m, "seed", "out", "cap", "config")

    mc = sub.add_parser("mc-alpha", help="Monte Carlo sweep of exact alpha over seeds")
    mc.add_argument("--nu", type=int, default=None, help="jump index (default 2)")
    mc.add_argument("--n", type=int, default=None, help="rows; N = n * nu (required)")
    mc.add_argument("--trials", type=int, default=100)
    mc.add_argument("--p-budget", type=float, default=1e-3, help="union-bound budget defining the alpha threshold")
    _add_common(mc, "seed", "out", "budget-nodes", "budget-secs", "threads", "config")

    v = sub.add_parser("verify", help="re-check a constructed graph file against its metadata")
    v.add_argument("graph", type=str)
    return p


def _load_config(path: str | None, *kinds: str) -> dict:
    """The config file at ``path`` ({} for None), type-checked; its
    'construction', if any, must be one of ``kinds``, the ones the command runs."""
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    check_fields(cfg, f"config {path}:")
    if cfg.get("construction", kinds[0]) not in kinds:
        *rest, last = map(repr, kinds)
        names = f"{', '.join(rest)} or {last}" if rest else last
        raise ValueError(f"config {path}: 'construction' must be {names}, got {cfg['construction']!r}")
    return cfg


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
            raise ValueError(f"CAPFORGE_CAP must be an integer, got {env!r}") from None
    return DEFAULT_CAP


def _budget(args, **fields) -> SolverBudget:
    """SolverBudget of the budget flags and ``fields``; a command without a budget flag leaves that limit unset."""
    nodes, secs = getattr(args, "budget_nodes", None), getattr(args, "budget_secs", None)
    return SolverBudget(max_nodes=nodes, max_time=secs, **fields)


def _jump_params(args, cfg: dict, default_nu: int | None, needs: str) -> JumpParams:
    """The one-jump parameters that flags and config describe; a missing
    ``nu`` or ``n`` raises ValueError with ``needs``."""
    nu = _pick(args.nu, cfg, "nu", default_nu)
    n = _pick(args.n, cfg, "n")
    if nu is None or n is None:
        raise ValueError(needs)
    return JumpParams(nu=nu, n=n, seed=_pick(args.seed, cfg, "seed", 0))


def _product(args, cfg: dict, cap: int, needs: str):
    """Sample the multi-jump product that flags and config describe; configs
    may give the first factor's size as N1 = n1 * nus[0]."""
    nus = _pick(args.nus, cfg, "nus")
    alpha = _pick(args.alpha, cfg, "alpha", 1.5)
    n1 = _pick(args.n1, cfg, "n1")
    if n1 is None and "N1" in cfg:
        if not nus or not nus[0] or cfg["N1"] % nus[0]:
            raise ValueError(f"config N1={cfg['N1']} is not a multiple of the first jump index")
        n1 = cfg["N1"] // nus[0]
    if nus is None or n1 is None:
        raise ValueError(f"{needs} needs --nus and --n1")
    seeds = _pick(args.seeds, cfg, "seeds")
    if seeds is None:
        base = _pick(args.seed, cfg, "seed", 0)
        seeds = [base + i for i in range(len(nus))]
    return multi_jump_product(MultiJumpSpec(nus=tuple(nus), n1=n1, alpha=alpha, seeds=tuple(seeds)), cap=cap)


def _write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2)
    if out:
        Path(out).write_text(text + "\n")
        print(f"report written to {out}")
    else:
        print(text)


def cmd_construct(args) -> int:
    if args.out is None:
        raise ValueError("construct needs --out")
    cfg = _load_config(args.config, "canonical", "simple", "product")
    cap = _resolve_cap(args.cap)
    flag = "simple" if args.simple else "product" if args.multi else None
    kind = _pick(flag, cfg, "construction", "canonical")
    if kind == "product":
        cg = _product(args, cfg, cap, "--multi")
        spec = cg.params
        resolved = {"construction": "product", "nus": list(spec.nus), "n1": spec.n1, "alpha": spec.alpha, "seeds": list(spec.seeds), "cap": cap}
    else:
        params = _jump_params(args, cfg, None, "construct needs --nu and --n")
        cg = sample_simple_jump_graph(params) if kind == "simple" else sample_jump_graph(params)
        resolved = {"construction": kind, "nu": params.nu, "n": params.n, "seed": params.seed, "cap": cap}
    meta = cg.metadata()
    meta["config"] = resolved
    gio.write_graph(cg.graph, args.out, metadata=meta)
    print(
        f"wrote {args.out}: {cg.kind} graph, N={cg.graph.n}, "
        f"edges={cg.graph.edge_count()}, removed={len(cg.removed)}"
    )
    return 0


def cmd_series(args) -> int:
    cap = _resolve_cap(args.cap)
    mode = args.mode.replace("-", "_")
    try:  # the graph, rebuilt as its construction when a sidecar is present
        g, meta = gio.read_graph(args.graph, cap), gio.read_metadata(args.graph)
        target = g if meta is None else constructions.from_metadata(g, meta)
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"cannot load {args.graph}: {exc}") from None
    if meta is not None:  # the certificate bounds hold only for a verified construction
        checks = constructions.verify_construction(target, meta)
        failed = [f"[FAIL] {name}" + (f" ({detail})" if detail else "") for name, ok, detail in checks if not ok]
        if failed:
            print(*failed, f"{len(failed)} of {len(checks)} verify checks failed", sep="\n", file=sys.stderr)
            return 2
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
    params = _jump_params(args, _load_config(args.config, "canonical"), 2, "jump-demo needs --n (N = n * nu)")
    nu, n, seed, N = params.nu, params.n, params.seed, params.N
    cg = sample_jump_graph(params)
    ((_, cert_size, cert_ok),) = constructions.check_certificate(cg)
    if not cert_ok:
        print("certificate failed independence check", file=sys.stderr)
        return 2
    a_nu = N ** (1 / nu)
    target = analysis.jump_target(N, nu)
    alpha1_lo, alpha1_hi, res = alpha_bracket(cg.graph, _budget(args, target=target, workers=args.threads))
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
            "method": res.method,
            "parts": list(res.parts),
            "elapsed_secs": round(res.elapsed, 3),
            "setup_secs": round(res.setup_secs, 3),
            "search_secs": round(res.search_secs, 3),
        },
        "certificate": {"k": nu, "size": cert_size, "a_k_lower": a_nu},
        "a1_upper": alpha1_hi,
        "jump_ratio_lower": (a_nu / alpha1_hi) if alpha1_hi else None,
        "first_moment": {"s": target, "bound": bound},
        "theory_alpha1_almost_surely_below": expected_alpha1,
        "small_n_caveat": caveat,
    }
    print(f"N={N} nu={nu} seed={seed}")
    print(f"a_{nu} >= {a_nu:.4f} (certificate of size {cert_size} in the power view)")
    print(f"alpha(G) in [{alpha1_lo}, {alpha1_hi}] via {res.status}, {res.method} search ({res.search_nodes} nodes, {res.elapsed:.2f}s)")
    print(f"union bound Pr[alpha >= {target}] <= {bound:.3e}")
    if alpha1_hi < a_nu:
        print(f"jump: a_{nu}/a_1 >= {a_nu / alpha1_hi:.3f}")
    elif caveat:
        print(f"note: N={N} is too small for a visible jump (theory allows alpha up to ~{expected_alpha1:.1f})")
    if args.out:
        _write_report(report, args.out)
    return 0


def cmd_multi_jump(args) -> int:
    cfg = _load_config(args.config, "product")
    cap = _resolve_cap(args.cap)
    cg = _product(args, cfg, cap, "multi-jump")
    spec = cg.params
    k_max = args.k_max if args.k_max is not None else spec.nus[-1]
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


def _mc_trial(seed: int, nu: int, n: int, budget: SolverBudget, stop) -> tuple[int, str]:
    """One trial's alpha and status; ``stop`` goes unused, as each solve has its own budget."""
    res = max_independent_set(sample_jump_graph(JumpParams(nu=nu, n=n, seed=seed)).graph, budget)
    return res.size, res.status


def cmd_mc_alpha(args) -> int:
    params = _jump_params(args, _load_config(args.config, "canonical"), 2, "mc-alpha needs --n (N = n * nu)")
    nu, n, seed, N = params.nu, params.n, params.seed, params.N
    s_star = analysis.alpha_threshold(nu, N, args.p_budget, trials=args.trials)
    budget = _budget(args, workers=args.threads)
    with worker_map(_mc_trial, range(seed, seed + args.trials), args.threads, nu, n, budget) as trials:
        results = list(trials)
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
    cap = _resolve_cap(None)
    try:
        g = gio.read_graph(path, cap)
    except (OSError, ValueError) as exc:
        return [("graph file parses", False, str(exc))]
    checks = [("graph file parses", True, "")]
    try:
        meta = gio.read_metadata(path)
    except ValueError as exc:
        return checks + [("metadata parses", False, str(exc))]
    if meta is None:
        return checks + [("metadata sidecar present", False, f"missing {gio.meta_path(path)}")]
    checks.append(("metadata parses", True, ""))
    try:
        cg = constructions.from_metadata(g, meta)
    except (ValueError, KeyError) as exc:
        return checks + [("metadata consistent", False, str(exc))]
    return checks + constructions.verify_construction(cg, meta)


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


# The library names a bad value's parameter first; these are its flags.
_FLAGS = {
    "max_nodes": "--budget-nodes",
    "max_time": "--budget-secs",
    "workers": "--threads",
    "k_max": "--k-max",
    "p_budget": "--p-budget",
    "trials": "--trials",
}


def main(argv=None) -> int:
    """Run one command and return its exit code; every refused value is one
    ``capforge: error:`` line and exit 1."""
    handlers = {
        "construct": cmd_construct,
        "series": cmd_series,
        "jump-demo": cmd_jump_demo,
        "multi-jump": cmd_multi_jump,
        "mc-alpha": cmd_mc_alpha,
        "verify": cmd_verify,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except OSError as exc:
        print(f"capforge: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("capforge: error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        name, sep, rest = str(exc).partition(" ")
        print(f"capforge: error: {_FLAGS.get(name, name)}{sep}{rest}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
