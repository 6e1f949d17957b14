#!/usr/bin/env python3
"""Run one capforge command in fresh processes and print each run's peak
resident memory and wall time.

Each run is ``python -m capforge.cli ARGS...`` in a new process, with the
environment perfbench gives its commands: every ``PYTHON*`` and
``CAPFORGE_*`` variable cleared, ``PYTHONPATH`` set to this checkout's
``src``, and one BLAS/OpenMP thread. The peak is the child's ``ru_maxrss``
as ``os.wait4`` reports it, so nothing of this script's own memory counts.
The command runs in the caller's working directory, so relative paths in
ARGS are the caller's, not this checkout's.

Usage:
    python scripts/peak_rss.py --runs 3 -- construct --nu 2 --n 512 --seed 7 --out g.col
    python scripts/peak_rss.py --runs 3 --json -- verify g.col

Prints one line per run (exit code, peak in MiB, wall time in seconds), then
the median of each; with --json, one JSON object instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("CAPFORGE_", "PYTHON"))}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_once(args: list[str], env: dict) -> dict:
    """One run of ``capforge ARGS``: its exit code, peak RSS in MiB and wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "capforge.cli", *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "peak_rss_mib": usage.ru_maxrss / 1024, "wall_s": wall}  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="capforge arguments, after --")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.runs < 1:
        parser.error("give --runs >= 1 and a capforge command after --")
    env = environment()
    runs = [run_once(command, env) for _ in range(args.runs)]
    summary = {
        "command": command,
        "runs": runs,
        "median_peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in runs),
        "median_wall_s": statistics.median(r["wall_s"] for r in runs),
    }
    if args.json:
        print(json.dumps(summary))
    else:
        for r in runs:
            print(f"rc={r['rc']} peak_rss_mib={r['peak_rss_mib']:.2f} wall_s={r['wall_s']:.3f}")
        print(f"median peak_rss_mib={summary['median_peak_rss_mib']:.2f} wall_s={summary['median_wall_s']:.3f}")
    return 0 if all(r["rc"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
