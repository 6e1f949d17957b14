#!/usr/bin/env python3
"""Sweep the one-jump construction over graph sizes and tabulate how the
certified a_nu floor separates from the solved/refuted alpha(G).

--sizes lists the row counts n; each graph has N = n * nu vertices. Writes a
CSV with one row per (N, seed):
    N, seed, alpha_lo, alpha_hi, status, method, a_nu_floor, union_bound, solve_secs
The bracket [alpha_lo, alpha_hi] is the one `capforge jump-demo` reports;
method says how its upper end was searched: "halves" (two half-size
refutations) or "direct".

Usage:
    python scripts/jump_sweep.py --nu 2 --sizes 8,16,32,64,128,256,512 \
        --seeds 3 --budget-secs 120 --out sweep.csv
"""

import argparse
import csv
import sys
import time

from capforge import (
    JumpParams,
    SolverBudget,
    alpha_bracket,
    available_cpus,
    check_certificate,
    first_moment_bound,
    jump_target,
    sample_jump_graph,
)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--nu", type=int, default=2)
    p.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")], default=[8, 16, 32, 64, 128, 256], help="row counts n (N = n * nu)")
    p.add_argument("--seeds", type=int, default=3, help="seeds per size")
    p.add_argument("--budget-secs", type=float, default=120.0)
    p.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    return p.parse_args()


def main():
    args = parse_args()
    rows = []
    for n in args.sizes:
        for seed in range(args.seeds):
            params = JumpParams(nu=args.nu, n=n, seed=seed)
            N, target = params.N, jump_target(params.N, args.nu)
            cg = sample_jump_graph(params)
            ((_, cert_size, cert_ok),) = check_certificate(cg)
            if not cert_ok:
                sys.exit(f"N={N} seed={seed}: certificate failed independence check")
            t0 = time.perf_counter()
            budget = SolverBudget(max_time=args.budget_secs, target=target, workers=available_cpus())
            lo, hi, res = alpha_bracket(cg.graph, budget)
            secs = time.perf_counter() - t0
            rows.append(
                {
                    "N": N,
                    "seed": seed,
                    "alpha_lo": lo,
                    "alpha_hi": hi,
                    "status": res.status,
                    "method": res.method,
                    "a_nu_floor": round(cert_size ** (1 / args.nu), 4),
                    "union_bound": first_moment_bound(args.nu, N, target),
                    "solve_secs": round(secs, 2),
                }
            )
            print(
                f"N={N:5d} seed={seed}: alpha in [{lo}, {hi}] ({res.status}, {res.method}), "
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
