#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads build-verify,series-64 --seeds 1-10 [--trace 0] [--out FILE]

For every workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next
to the metric's bound in BENCHMARK.json. Runs go one at a time, with the
run length BENCHMARK.json sets. --out also writes every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(x) for x in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if proc.returncode == 0 else {}
            result.update(seed=seed, returncode=proc.returncode)
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: rc={proc.returncode} correct={result.get('correct')} "
                  f"failed={result.get('failed')}/{result.get('attempted')}", file=sys.stderr, flush=True)

    print(f"{'workload':14} {'metric':28} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    summary = {}
    for workload, results in runs.items():
        for name in results[0].get("metrics", {}):
            values = [r["metrics"][name]["value"] for r in results if "metrics" in r]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary.setdefault(workload, {})[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                                      "values": values}
            bound = bounds.get(name)
            print(f"{workload:14} {name:28} {med:11.4f} {q1:11.4f} {q3:11.4f} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6}")
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "trace": args.trace, "summary": summary,
                                        "runs": runs}, indent=2) + "\n")
    return 0 if all(r.get("correct") for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
