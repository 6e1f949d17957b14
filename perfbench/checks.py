"""Output checks for the benchmark workloads.

Each checker looks at what one capforge CLI step produced and returns a list
of problems; an empty list means the output is correct. The checkers take
plain values (exit code, stdout text, parsed JSON, digests) so that tests can
feed them deliberately wrong outputs.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

# Recorded from the unchanged program at each workload's default seed.
# construct writes the same bytes for the same seed ("same seed, same bytes").
BUILD_VERIFY_DEFAULT_SEED = 7
BUILD_VERIFY_DIGESTS = {
    (2, 512): {
        "graph": "e7d194f4503ab74158c4922d3ad69760c9cd6d26948f9cda571196f4cf830d95",
        "meta": "d17b1bfb4d3c0c7962f37f36c186b2dbbd346c96e9681fb53b1ea996e7183ab4",
    },
    (3, 341): {
        "graph": "7f1970c6c1091a8a060d3844522b9a08d5094e48447818ae6229a51b702c12dd",
        "meta": "2c6aed11d70156c6885f1f27a601d9343ebe88e70210254621f63c5c9edde649",
    },
}
MC_DEFAULT_SEED = 0
MC_DEFAULT_HISTOGRAM = {"9": 12, "10": 178, "11": 10}
SERIES_DEFAULT_SEED = 7
# Width alpha_upper - alpha_lower per k; None means no upper bound was found.
SERIES_DEFAULT_WIDTHS = {1: 0, 2: 161, 3: None}

_VERIFY_LINE = re.compile(r"^\[(ok |FAIL)\] ")
_VERIFY_SUMMARY = re.compile(r"^all (\d+) checks passed$", re.MULTILINE)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_exit(rc: int) -> list[str]:
    """The command exited 0."""
    return [] if rc == 0 else [f"exit code {rc}"]


def check_construct(rc: int, nu: int, n: int, seed: int, digests: dict | None) -> list[str]:
    """construct exits 0; at the default seed the graph file and its sidecar
    hash to the recorded digests."""
    problems = check_exit(rc)
    if problems or seed != BUILD_VERIFY_DEFAULT_SEED:
        return problems
    expected = BUILD_VERIFY_DIGESTS[(nu, n)]
    for part in ("graph", "meta"):
        got = (digests or {}).get(part)
        if got != expected[part]:
            problems.append(f"{part} sha256 {got} != recorded {expected[part]}")
    return problems


def verify_check_count(stdout: str) -> int:
    return sum(1 for line in stdout.splitlines() if _VERIFY_LINE.match(line))


def check_verify(rc: int, stdout: str) -> list[str]:
    """verify exits 0 and every check it prints passed."""
    problems = check_exit(rc)
    lines = [line for line in stdout.splitlines() if _VERIFY_LINE.match(line)]
    failed = [line for line in lines if line.startswith("[FAIL]")]
    if not lines:
        problems.append("verify printed no checks")
    if failed:
        problems.append(f"failed checks: {failed}")
    m = _VERIFY_SUMMARY.search(stdout)
    if m is None or int(m.group(1)) != len(lines):
        problems.append(f"summary does not report all {len(lines)} checks passed")
    return problems


def check_refute(rc: int, report: dict | None, N: int) -> list[str]:
    """jump-demo certifies alpha(G) <= ceil(sqrt(N)) - 1 with a certificate of size N."""
    problems = check_exit(rc)
    if report is None:
        return problems + ["no report written"]
    alpha1 = report.get("alpha1", {})
    upper = math.isqrt(N - 1)  # ceil(sqrt(N)) - 1
    if alpha1.get("upper") != upper:
        problems.append(f"alpha1.upper {alpha1.get('upper')} != {upper}")
    if alpha1.get("status") not in ("upper_bound_certified", "exact"):
        problems.append(f"alpha1.status {alpha1.get('status')!r} is not certified")
    size = report.get("certificate", {}).get("size")
    if size != N:
        problems.append(f"certificate size {size} != {N}")
    return problems


def canonical_certificate_size(nu: int, N: int, k: int) -> int:
    """Size of the explicit certificate in the k-th power (closed form)."""
    return N ** (k // nu) if k >= nu else 0


def check_series(rc: int, report: dict | None, nu: int, n: int, seed: int, k_max: int) -> list[str]:
    """Every entry is a consistent bracket at least as large as the
    certificate; at the default seed no bracket is wider than recorded."""
    problems = check_exit(rc)
    if report is None:
        return problems + ["no report written"]
    entries = {e.get("k"): e for e in report.get("entries", [])}
    if sorted(entries) != list(range(1, k_max + 1)):
        return problems + [f"entries for k={sorted(entries)}, expected 1..{k_max}"]
    for k, e in entries.items():
        lo, hi = e.get("alpha_lower"), e.get("alpha_upper")
        if not isinstance(lo, int):
            problems.append(f"k={k}: alpha_lower {lo!r} missing")
            continue
        if hi is not None and lo > hi:
            problems.append(f"k={k}: alpha_lower {lo} > alpha_upper {hi}")
        cert = canonical_certificate_size(nu, n * nu, k)
        if lo < cert:
            problems.append(f"k={k}: alpha_lower {lo} < certificate size {cert}")
        if seed == SERIES_DEFAULT_SEED:
            recorded = SERIES_DEFAULT_WIDTHS[k]
            width = None if hi is None else hi - lo
            if recorded is not None and (width is None or width > recorded):
                problems.append(f"k={k}: bracket width {width} wider than recorded {recorded}")
    return problems


def check_mc(rc: int, report: dict | None, trials: int, seed: int) -> list[str]:
    """Every trial is counted and below the threshold s*; at the default seed
    the histogram equals the recorded one."""
    problems = check_exit(rc)
    if report is None:
        return problems + ["no report written"]
    hist = report.get("histogram", {})
    s_star = report.get("threshold_s_star")
    if sum(hist.values()) != trials:
        problems.append(f"histogram counts {sum(hist.values())} trials, expected {trials}")
    if not isinstance(s_star, int) or any(int(a) >= s_star for a in hist):
        problems.append(f"alpha at or above threshold s*={s_star}: {sorted(hist)}")
    if report.get("violating_seeds"):
        problems.append(f"violating seeds {report['violating_seeds']}")
    if seed == MC_DEFAULT_SEED and hist != MC_DEFAULT_HISTOGRAM:
        problems.append(f"histogram {hist} != recorded {MC_DEFAULT_HISTOGRAM}")
    return problems


def file_digests(graph_path: Path) -> dict:
    meta = graph_path.with_name(graph_path.name + ".meta.json")
    return {
        "graph": sha256_file(graph_path) if graph_path.is_file() else None,
        "meta": sha256_file(meta) if meta.is_file() else None,
    }
