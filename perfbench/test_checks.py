"""Each workload's checker passes the recorded output and flags a wrong one.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

GOOD_DIGESTS = checks.BUILD_VERIFY_DIGESTS[(2, 512)]
VERIFY_OK = "[ok ] graph file parses\n[ok ] seed reproduces removed edges\nall 2 checks passed\n"
REFUTE_OK = {"alpha1": {"lower": 11, "upper": 27, "status": "upper_bound_certified"}, "certificate": {"size": 768}}
SERIES_OK = {
    "entries": [
        {"k": 1, "alpha_lower": 8, "alpha_upper": 8},
        {"k": 2, "alpha_lower": 64, "alpha_upper": 225},
        {"k": 3, "alpha_lower": 512, "alpha_upper": None},
    ]
}
MC_OK = {"threshold_s_star": 14, "histogram": dict(checks.MC_DEFAULT_HISTOGRAM), "violating_seeds": []}


def _with(report: dict, path: list, value) -> dict:
    bad = copy.deepcopy(report)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return bad


def test_construct():
    seed = checks.BUILD_VERIFY_DEFAULT_SEED
    assert checks.check_construct(0, 2, 512, seed, GOOD_DIGESTS) == []
    assert checks.check_construct(0, 2, 512, seed, dict(GOOD_DIGESTS, graph="0" * 64))
    assert checks.check_construct(0, 2, 512, seed, dict(GOOD_DIGESTS, meta=None))
    assert checks.check_construct(1, 2, 512, seed + 1, None)
    assert checks.check_construct(0, 2, 512, seed + 1, None) == []  # digests are recorded for one seed


def test_verify():
    assert checks.check_verify(0, VERIFY_OK) == []
    assert checks.check_verify(2, VERIFY_OK.replace("[ok ] seed", "[FAIL] seed"))
    assert checks.check_verify(0, "[ok ] graph file parses\nall 5 checks passed\n")
    assert checks.check_verify(0, "")
    assert checks.verify_check_count(VERIFY_OK) == 2


def test_refute():
    assert checks.check_refute(0, REFUTE_OK, 768) == []
    assert checks.check_refute(0, _with(REFUTE_OK, ["alpha1", "upper"], 28), 768)
    assert checks.check_refute(0, _with(REFUTE_OK, ["alpha1", "status"], "lower_bound"), 768)
    assert checks.check_refute(0, _with(REFUTE_OK, ["certificate", "size"], 767), 768)
    assert checks.check_refute(3, REFUTE_OK, 768)
    assert checks.check_refute(0, None, 768)


def test_series():
    seed = checks.SERIES_DEFAULT_SEED
    assert checks.check_series(0, SERIES_OK, 2, 32, seed, 3) == []
    inverted = _with(SERIES_OK, ["entries", 0, "alpha_upper"], 7)
    assert checks.check_series(0, inverted, 2, 32, seed + 1, 3)
    below_cert = _with(SERIES_OK, ["entries", 1, "alpha_lower"], 63)
    assert checks.check_series(0, below_cert, 2, 32, seed + 1, 3)
    wider = _with(SERIES_OK, ["entries", 1, "alpha_upper"], 226)
    assert checks.check_series(0, wider, 2, 32, seed, 3)
    assert checks.check_series(0, wider, 2, 32, seed + 1, 3) == []  # widths are recorded for one seed
    lost_upper = _with(SERIES_OK, ["entries", 1, "alpha_upper"], None)
    assert checks.check_series(0, lost_upper, 2, 32, seed, 3)
    missing = {"entries": SERIES_OK["entries"][:2]}
    assert checks.check_series(0, missing, 2, 32, seed, 3)


def test_mc():
    seed = checks.MC_DEFAULT_SEED
    assert checks.check_mc(0, MC_OK, 200, seed) == []
    tampered = _with(MC_OK, ["histogram"], {"9": 13, "10": 177, "11": 10})
    assert checks.check_mc(0, tampered, 200, seed)
    assert checks.check_mc(0, tampered, 200, seed + 1) == []  # histogram is recorded for one seed
    assert checks.check_mc(0, _with(MC_OK, ["histogram", "14"], 1), 201, seed + 1)
    assert checks.check_mc(0, _with(MC_OK, ["violating_seeds"], [3]), 200, seed + 1)
    assert checks.check_mc(0, MC_OK, 199, seed + 1)


def _span(proc, id, parent, name, start, end, **counters):
    return {"run": "r", "proc": proc, "id": id, "parent": parent, "name": name,
            "start": start, "end": end, "counters": counters}


def test_layer_metrics_self_time_and_probe():
    spans = [
        _span("0.0", 0, None, "cli.series", 0.0, 10.0),
        _span("0.0", 1, 0, "analysis.series", 1.0, 9.0),
        _span("0.0", 2, 1, "solver.solve", 2.0, 5.0, nodes=300),
        _span("0.0", 3, 1, tracer.PROBE, 5.0, 6.0),
        _span("0.0", 4, 1, "graphs.strong_power", 6.0, 7.0, vertices=64),
    ]
    m = tracer.layer_metrics(spans, traced_wall_s=11.0, untraced_wall_s=9.5)
    assert set(m) == set(tracer.UNITS)
    assert m["solver.setup_s"] == 1.0
    assert m["solver.search_s"] == 2.0
    assert m["solver.nodes_per_s"] == 150.0
    assert m["analysis.series_s"] == 7.0  # probe left out
    assert m["analysis.series_self_s"] == 3.0
    assert m["cli.self_s"] == 2.0
    assert m["trace.total_s"] == 10.0
    assert m["trace.overhead_s"] == 0.5
    assert m["trace.unattributed_s"] == 1.0
    assert m["graphs.power_vertices"] == 64


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mib"]
    import run

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
