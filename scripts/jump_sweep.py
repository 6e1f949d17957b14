#!/usr/bin/env python3
"""Sweep the one-jump construction over graph sizes and tabulate how the
certified a_nu floor separates from the solved/refuted alpha(G).

Writes a CSV with one row per (N, seed):
    N, seed, alpha_lo, alpha_hi, status, a_nu_floor, union_bound, solve_secs

Usage:
    python scripts/jump_sweep.py --nu 2 --sizes 8,16,32,64,128,256,512 \
        --seeds 3 --budget-secs 120 --out sweep.csv
"""

import argparse
import csv
import math
import sys
import time

from capforge import (
    JumpParams,
    SolverBudget,
    available_cpus,
    clique_cover_upper_bound,
    explicit_power_set,
    first_moment_bound,
    is_independent,
    max_independent_set,
    power_view,
    sample_jump_graph,
)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--nu", type=int, default=2)
    p.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")], default=[8, 16, 32, 64, 128, 256])
    p.add_argument("--seeds", type=int, default=3, help="seeds per size")
    p.add_argument("--budget-secs", type=float, default=120.0)
    p.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    return p.parse_args()


def main():
    args = parse_args()
    rows = []
    for n in args.sizes:
        params_probe = JumpParams(nu=args.nu, n=n, seed=0)
        N = params_probe.N
        target = math.ceil(N ** (1 / args.nu) - 1e-9)
        for seed in range(args.seeds):
            params = JumpParams(nu=args.nu, n=n, seed=seed)
            cg = sample_jump_graph(params)
            cert = explicit_power_set(params, args.nu)
            assert is_independent(power_view(cg.graph, args.nu), cert)
            t0 = time.perf_counter()
            budget = SolverBudget(max_time=args.budget_secs, target=target, workers=available_cpus())
            res = max_independent_set(cg.graph, budget)
            secs = time.perf_counter() - t0
            hi = res.certified_upper if res.certified_upper is not None else (
                res.size if res.status == "exact" else clique_cover_upper_bound(cg.graph)
            )
            rows.append(
                {
                    "N": N,
                    "seed": seed,
                    "alpha_lo": res.size,
                    "alpha_hi": hi,
                    "status": res.status,
                    "a_nu_floor": round(len(cert) ** (1 / args.nu), 4),
                    "union_bound": first_moment_bound(args.nu, N, target),
                    "solve_secs": round(secs, 2),
                }
            )
            print(
                f"N={N:5d} seed={seed}: alpha in [{res.size}, {hi}] ({res.status}), "
                f"a_{args.nu} >= {rows[-1]['a_nu_floor']}, {secs:.1f}s"
            )
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        out.close()
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
