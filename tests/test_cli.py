import contextlib
import csv
import io
import json
import math
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capforge.cli import main
from capforge.solver import available_cpus
from capforge.io import meta_path


def run(*argv):
    return main(list(argv))


def test_construct_writes_graph_and_meta(tmp_path, capsys):
    out = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "2", "--seed", "7", "--out", str(out)) == 0
    assert out.exists() and meta_path(out).exists()
    meta = json.loads(meta_path(out).read_text())
    assert meta["construction"] == "canonical"
    assert meta["seed"] == 7
    assert meta["config"]["nu"] == 2


def test_construct_simple_edge_count(tmp_path):
    out = tmp_path / "s.col"
    assert run("construct", "--simple", "--nu", "3", "--n", "3", "--seed", "1", "--out", str(out)) == 0
    header = out.read_text().splitlines()[0]
    assert header == "p edge 9 33"


def test_construct_multi_factor_metadata(tmp_path):
    out = tmp_path / "m.col"
    assert run(
        "construct", "--multi", "--nus", "2,3", "--n1", "2", "--alpha", "1.5",
        "--seeds", "7,8", "--out", str(out),
    ) == 0
    meta = json.loads(meta_path(out).read_text())
    assert meta["construction"] == "product"
    assert meta["sizes"] == [4, 24]
    assert len(meta["factors"]) == 2
    assert meta["factors"][1]["N"] == 24


def test_construct_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.col", tmp_path / "b.col"
    for out in (a, b):
        assert run("construct", "--nu", "3", "--n", "4", "--seed", "5", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_usage_errors(tmp_path):
    assert run("construct", "--nu", "2", "--out", str(tmp_path / "x.col")) == 1  # missing --n
    assert run("construct", "--nu", "1", "--n", "4", "--out", str(tmp_path / "x.col")) == 1
    assert run("construct", "--nu", "2", "--n", "2") == 1  # missing --out
    assert run("nonsense") == 1


def test_construct_refuses_a_missing_out_before_sampling(monkeypatch, capsys):
    from capforge import cli

    def sampled(*args, **kwargs):
        raise AssertionError("sampled before --out was checked")

    monkeypatch.setattr(cli, "sample_jump_graph", sampled)
    monkeypatch.setattr(cli, "multi_jump_product", sampled)
    assert run("construct", "--nu", "2", "--n", "2048", "--seed", "7") == 1
    assert _one_line_error(capsys) == "capforge: error: construct needs --out"
    assert run("construct", "--multi", "--nus", "2,3", "--n1", "2") == 1
    assert _one_line_error(capsys) == "capforge: error: construct needs --out"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"construction": "canonical", "nu": 2, "n": 2, "seed": 3}))
    out1 = tmp_path / "c1.col"
    assert run("construct", "--config", str(cfg), "--out", str(out1)) == 0
    assert json.loads(meta_path(out1).read_text())["seed"] == 3
    out2 = tmp_path / "c2.col"
    assert run("construct", "--config", str(cfg), "--seed", "9", "--out", str(out2)) == 0
    assert json.loads(meta_path(out2).read_text())["seed"] == 9


def test_construct_kind_is_the_flag_else_the_config_else_canonical(tmp_path, capsys):
    product, bogus, g = tmp_path / "product.json", tmp_path / "bogus.json", tmp_path / "g.col"
    product.write_text(json.dumps({"construction": "product", "nus": [2, 3], "n1": 2}))
    assert run("construct", "--simple", "--nu", "2", "--n", "3", "--config", str(product), "--out", str(g)) == 0
    assert json.loads(meta_path(g).read_text())["construction"] == "simple"
    assert run("construct", "--config", str(product), "--out", str(g)) == 0
    assert json.loads(meta_path(g).read_text())["construction"] == "product"
    capsys.readouterr()
    assert run("construct", "--simple", "--multi", "--nu", "2", "--n", "3", "--nus", "2,3", "--n1", "2", "--out", str(g)) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "capforge construct: error: argument --multi: not allowed with argument --simple"
    bogus.write_text(json.dumps({"construction": "bogus", "nu": 2, "n": 3}))
    assert run("construct", "--config", str(bogus), "--out", str(tmp_path / "b.col")) == 1
    assert _one_line_error(capsys) == f"capforge: error: config {bogus}: 'construction' must be 'canonical', 'simple' or 'product', got 'bogus'"
    assert not (tmp_path / "b.col").exists()


def test_config_with_total_first_factor_size(tmp_path):
    cfg = tmp_path / "prod.json"
    cfg.write_text(json.dumps({"construction": "product", "nus": [2, 3], "N1": 4, "alpha": 1.5, "seeds": [7, 8]}))
    out = tmp_path / "prod.col"
    assert run("construct", "--config", str(cfg), "--out", str(out)) == 0
    meta = json.loads(meta_path(out).read_text())
    assert meta["sizes"] == [4, 24]
    cfg.write_text(json.dumps({"construction": "product", "nus": [2, 3], "N1": 5, "alpha": 1.5}))
    assert run("construct", "--config", str(cfg), "--out", str(out)) == 1


def test_series_report_files(tmp_path):
    g = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "2", "--seed", "2", "--out", str(g)) == 0
    prefix = tmp_path / "rep"
    assert run("series", str(g), "--k-max", "2", "--mode", "exact", "--out", str(prefix)) == 0
    data = json.loads((tmp_path / "rep.json").read_text())
    assert data["monotone_violations"] == []
    ks = [e["k"] for e in data["entries"]]
    assert ks == [1, 2]
    assert data["entries"][1]["alpha_lower"] >= 4
    csv_lines = (tmp_path / "rep.csv").read_text().splitlines()
    assert len(csv_lines) == 3


def test_series_on_plain_graph_without_sidecar(tmp_path):
    from capforge import complete_graph, write_graph

    g = tmp_path / "k5.col"
    write_graph(complete_graph(5), g)
    prefix = tmp_path / "k5rep"
    assert run("series", str(g), "--k-max", "1", "--mode", "exact", "--out", str(prefix)) == 0
    data = json.loads((tmp_path / "k5rep.json").read_text())
    assert data["entries"][0]["alpha_exact"] == 1
    assert data["entries"][0]["a_k_lower"] == 1.0


def test_series_exact_mode_budget_exhaustion_exit_code(tmp_path):
    g = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "8", "--seed", "2", "--out", str(g)) == 0
    code = run("series", str(g), "--k-max", "2", "--mode", "exact", "--budget-nodes", "1")
    assert code == 3


def test_series_missing_graph_is_usage_error(tmp_path):
    assert run("series", str(tmp_path / "absent.col")) == 1


def test_jump_demo_small_n_caveat(tmp_path, capsys):
    out = tmp_path / "demo.json"
    assert run("jump-demo", "--nu", "2", "--n", "8", "--seed", "1", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["N"] == 16
    assert report["certificate"]["size"] == 16
    assert report["certificate"]["a_k_lower"] == 4.0
    assert report["small_n_caveat"] is True
    assert "first_moment" in report


def test_jump_demo_report_does_not_depend_on_threads(tmp_path):
    # N=256: the refutation of alpha >= 16 visits 3,393 nodes
    reports = []
    for flags in ((), ("--threads", "1"), ("--threads", "3")):
        out = tmp_path / f"demo{len(reports)}.json"
        assert run("jump-demo", "--nu", "2", "--n", "128", "--seed", "0", *flags, "--out", str(out)) == 0
        reports.append(json.loads(out.read_text()))
    assert [r["config"]["threads"] for r in reports] == [available_cpus(), 1, 3]
    for r in reports:
        del r["config"]["threads"]
        for timing in ("elapsed_secs", "setup_secs", "search_secs"):
            del r["alpha1"][timing]
    assert reports[0]["alpha1"] == {
        "lower": 7,
        "upper": 15,
        "status": "upper_bound_certified",
        "search_nodes": 3393,
        "method": "direct",  # at N=256 the halves' gate says no
        "parts": [{"first": 0, "last": 255, "target": 16, "nodes": 3393, "status": "upper_bound_certified"}],
    }
    assert reports[0] == reports[1] == reports[2]


def test_jump_demo_prints_a_jump_it_certifies_at_small_n(tmp_path, capsys):
    # alpha <= 15 < 16 = a_2 is a jump, though theory allows alpha up to ~16 here
    out = tmp_path / "demo.json"
    assert run("jump-demo", "--nu", "2", "--n", "128", "--seed", "0", "--threads", "1", "--out", str(out)) == 0
    stdout = re.sub(r"nodes, [0-9.]+s\)", "nodes, Ts)", capsys.readouterr().out)
    assert stdout == (
        "N=256 nu=2 seed=0\n"
        "a_2 >= 16.0000 (certificate of size 256 in the power view)\n"
        "alpha(G) in [7, 15] via upper_bound_certified, direct search (3393 nodes, Ts)\n"
        "union bound Pr[alpha >= 16] <= 1.941e-09\n"
        "jump: a_2/a_1 >= 1.067\n"
        f"report written to {out}\n"
    )
    assert json.loads(out.read_text())["small_n_caveat"] is True


def test_mc_alpha_report_does_not_depend_on_threads(tmp_path):
    reports = []
    for threads in (1, 2):
        out = tmp_path / f"mc{threads}.json"
        assert run("mc-alpha", "--nu", "2", "--n", "16", "--trials", "6", "--threads", str(threads), "--out", str(out)) == 0
        reports.append(json.loads(out.read_text()))
        assert reports[-1]["config"].pop("threads") == threads
    assert reports[0] == reports[1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_jump_demo_with_no_time_is_a_lower_bound(tmp_path, threads):
    # a split search once ran root subtrees of fewer than 64 nodes to the end
    out = tmp_path / "demo.json"
    assert run("jump-demo", "--nu", "2", "--n", "64", "--budget-secs", "0", "--threads", threads, "--out", str(out)) == 0
    assert json.loads(out.read_text())["alpha1"]["status"] == "lower_bound"


def test_jump_demo_names_the_halves(tmp_path, capsys):
    out = tmp_path / "demo.json"
    assert run("jump-demo", "--nu", "2", "--n", "320", "--seed", "1", "--threads", "1", "--out", str(out)) == 0
    assert "alpha(G) in [10, 25] via upper_bound_certified, halves search (116726 nodes" in capsys.readouterr().out
    alpha1 = json.loads(out.read_text())["alpha1"]
    assert alpha1["method"] == "halves"
    assert alpha1["parts"] == [
        {"first": 0, "last": 319, "target": 13, "nodes": 77110, "status": "upper_bound_certified"},
        {"first": 320, "last": 639, "target": 14, "nodes": 39616, "status": "upper_bound_certified"},
    ]


def test_multi_jump_report(tmp_path):
    out = tmp_path / "mj.json"
    assert run(
        "multi-jump", "--nus", "2,3", "--n1", "2", "--alpha", "1.5",
        "--seeds", "7,8", "--k-max", "3", "--out", str(out),
    ) == 0
    report = json.loads(out.read_text())
    assert report["N"] == 96
    assert report["sizes"] == [4, 24]
    lowers = {e["k"]: e["alpha_lower"] for e in report["entries"]}
    assert lowers[2] >= 4 and lowers[3] >= 96


def test_mc_alpha_histogram(tmp_path):
    out = tmp_path / "mc.json"
    assert run("mc-alpha", "--nu", "2", "--n", "8", "--trials", "5", "--seed", "3", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert sum(report["histogram"].values()) == 5
    assert report["threshold_s_star"] >= 2
    assert report["violating_seeds"] == []


def test_mc_alpha_single_trial(tmp_path):
    out = tmp_path / "mc1.json"
    assert run("mc-alpha", "--nu", "2", "--n", "8", "--trials", "1", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert sum(report["histogram"].values()) == 1


def test_mc_alpha_budget_reaches_the_solver(tmp_path, capsys):
    out = tmp_path / "mc.json"
    args = ("mc-alpha", "--nu", "2", "--n", "16", "--trials", "3", "--seed", "1", "--out", str(out))
    assert run(*args) == 0
    assert json.loads(out.read_text())["budget_exhausted_seeds"] == []
    capsys.readouterr()
    assert run(*args, "--budget-nodes", "2") == 0
    assert json.loads(out.read_text())["budget_exhausted_seeds"] == [1, 2, 3]
    printed = capsys.readouterr().out
    assert "budget exhausted for seeds [1, 2, 3]" in printed
    assert "all alphas below" not in printed


def test_verify_fresh_construction_passes(tmp_path):
    for extra in ([], ["--simple"]):
        g = tmp_path / f"v{len(extra)}.col"
        assert run("construct", *extra, "--nu", "2", "--n", "3", "--seed", "4", "--out", str(g)) == 0
        assert run("verify", str(g)) == 0


def test_verify_product_passes(tmp_path):
    g = tmp_path / "p.col"
    assert run(
        "construct", "--multi", "--nus", "2,3", "--n1", "2", "--alpha", "1.5",
        "--seeds", "1,2", "--out", str(g),
    ) == 0
    assert run("verify", str(g)) == 0


def test_verify_detects_class_hit_twice(tmp_path, capsys):
    g = tmp_path / "t.col"
    assert run("construct", "--nu", "2", "--n", "3", "--seed", "4", "--out", str(g)) == 0
    mp = meta_path(g)
    meta = json.loads(mp.read_text())
    # replace one removed edge with a shifted copy of another: same class twice
    from capforge.constructions import shift_orbit

    e0 = meta["removed_edges"][0]
    orbit = shift_orbit(e0[0], e0[1], 2, 3)
    other = next(p for p in orbit if list(p) != list(e0))
    victim = next(i for i, e in enumerate(meta["removed_edges"]) if tuple(e) not in orbit)
    meta["removed_edges"][victim] = list(other)
    mp.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("verify", str(g)) == 2
    out = capsys.readouterr().out
    assert "one removed edge per class" in out and "FAIL" in out


def test_verify_stdout_of_a_tampered_canonical_sidecar(tmp_path, capsys):
    """Every per-pair detail, in order: one pair swapped for a member of
    another removed pair's orbit, so that one class is hit twice and one is
    missed, and one reversed pair appended."""
    g = tmp_path / "t.col"
    assert run("construct", "--nu", "2", "--n", "3", "--seed", "4", "--out", str(g)) == 0
    mp = meta_path(g)
    meta = json.loads(mp.read_text())
    removed = meta["removed_edges"]
    assert removed[1] == [3, 5] and removed[5] == [1, 2] and removed[6] == [1, 4]
    removed[1] = [4, 5]  # {1, 2} shifted by 3: that orbit twice, the orbit of {0, 2} missed
    removed.append([4, 1])  # {1, 4} reversed
    mp.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("verify", str(g)) == 2
    assert capsys.readouterr().out == (
        "[ok ] graph file parses\n"
        "[ok ] metadata parses\n"
        "[ok ] N matches header\n"
        "[ok ] removed edges in range\n"
        "[FAIL] graph = K_N minus removed edges\n"
        "[ok ] class count matches closed form\n"
        "[FAIL] removed edges are valid pairs ((4, 1) not a vertex pair)\n"
        "[FAIL] one removed edge per class (classes hit twice: [(1, 2)]; classes missed: 1)\n"
        "[FAIL] seed reproduces removed edges\n"
        "[ok ] certificate independent in power view\n"
    )


@pytest.mark.parametrize(
    "target, edit, out",
    [
        (
            "graph",
            lambda data: data[:15] + b"\xff" + data[16:],
            "[FAIL] graph file parses ('utf-8' codec can't decode byte 0xff in position 15: invalid start byte)\n",
        ),
        (
            "sidecar",
            lambda data: b"\xff\xfe" + data,
            "[ok ] graph file parses\n"
            "[FAIL] metadata parses ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)\n",
        ),
    ],
)
def test_verify_of_input_that_is_not_utf8(tmp_path, capsys, target, edit, out):
    """A byte that is not UTF-8 fails as the text decoder reports it, also
    where json.loads, given the bytes, would take a BOM for UTF-16."""
    g = tmp_path / "t.col"
    assert run("construct", "--nu", "2", "--n", "3", "--seed", "4", "--out", str(g)) == 0
    path = g if target == "graph" else meta_path(g)
    path.write_bytes(edit(path.read_bytes()))
    capsys.readouterr()
    assert run("verify", str(g)) == 2
    assert capsys.readouterr().out == out
    assert run("series", str(g), "--k-max", "1") == 1
    message = out.splitlines()[-1].split(" (", 1)[1][:-1]
    assert capsys.readouterr().err == f"capforge: error: cannot load {g}: {message}\n"


def test_verify_fails_a_sidecar_it_cannot_open(tmp_path, capsys):
    """A sidecar path that is a directory fails "metadata parses" with the
    system's message, as an unreadable graph file fails its own check."""
    g = tmp_path / "t.col"
    assert run("construct", "--nu", "2", "--n", "3", "--seed", "4", "--out", str(g)) == 0
    meta_path(g).unlink()
    meta_path(g).mkdir()
    capsys.readouterr()
    assert run("verify", str(g)) == 2
    assert capsys.readouterr().out == (
        f"[ok ] graph file parses\n[FAIL] metadata parses ([Errno 21] Is a directory: '{meta_path(g)}')\n"
    )
    assert run("series", str(g), "--k-max", "1") == 1
    assert _one_line_error(capsys).startswith(f"capforge: error: cannot load {g}")


def test_verify_detects_tampered_graph_file(tmp_path):
    g = tmp_path / "t.col"
    assert run("construct", "--nu", "2", "--n", "3", "--seed", "4", "--out", str(g)) == 0
    lines = g.read_text().splitlines()
    n_edges = int(lines[0].split()[3])
    lines = [lines[0]] + lines[2:] + ["e 1 2" if "e 1 2" not in lines else "e 1 3"]
    # keep the edge count header consistent while changing the edge set
    assert len(lines) - 1 == n_edges
    g.write_text("\n".join(lines) + "\n")
    assert run("verify", str(g)) == 2


def test_verify_missing_sidecar_fails(tmp_path):
    from capforge import cycle_graph, write_graph

    g = tmp_path / "bare.col"
    write_graph(cycle_graph(5), g)
    assert run("verify", str(g)) == 2


def test_cap_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CAPFORGE_CAP", "10")
    g = tmp_path / "m.col"
    code = run(
        "construct", "--multi", "--nus", "2,3", "--n1", "2", "--alpha", "1.5",
        "--seeds", "1,2", "--out", str(g),
    )
    assert code == 1  # 96 vertices > cap 10
    monkeypatch.setenv("CAPFORGE_CAP", "200")
    assert run(
        "construct", "--multi", "--nus", "2,3", "--n1", "2", "--alpha", "1.5",
        "--seeds", "1,2", "--out", str(g),
    ) == 0


def test_cap_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CAPFORGE_CAP", "10")
    g = tmp_path / "m.col"
    assert run(
        "construct", "--multi", "--nus", "2,3", "--n1", "2", "--alpha", "1.5",
        "--seeds", "1,2", "--cap", "100", "--out", str(g),
    ) == 0


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.strip()


def test_bad_cap_env_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CAPFORGE_CAP", "abc")
    code = run("construct", "--nu", "2", "--n", "2", "--out", str(tmp_path / "g.col"))
    assert code == 1
    assert _one_line_error(capsys) == "capforge: error: CAPFORGE_CAP must be an integer, got 'abc'"


def test_k_max_below_one_is_usage_error(tmp_path, capsys):
    g = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "2", "--out", str(g)) == 0
    capsys.readouterr()
    assert run("series", str(g), "--k-max", "0") == 1
    assert _one_line_error(capsys) == "capforge: error: --k-max must be >= 1"
    assert run("multi-jump", "--nus", "2,3", "--n1", "2", "--k-max", "0") == 1
    assert _one_line_error(capsys) == "capforge: error: --k-max must be >= 1"


def test_config_value_of_wrong_type_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": "2"}))
    assert run("construct", "--config", str(cfg), "--n", "4", "--out", str(tmp_path / "g.col")) == 1
    err = _one_line_error(capsys)
    assert "'nu' must be an integer" in err and "\n" not in err


def test_empty_graph_header_fails_verify_and_series(tmp_path, capsys):
    g = tmp_path / "zero.col"
    g.write_text("p edge 0 0\n")
    assert run("verify", str(g)) == 2
    assert "[FAIL] graph file parses" in capsys.readouterr().out
    assert run("series", str(g)) == 1
    assert _one_line_error(capsys).startswith(f"capforge: error: cannot load {g}")


@pytest.mark.parametrize(
    "key,value",
    [
        ("removed_edges", [["a", 1]]),
        ("removed_edges", [[0, 1, 2]]),
        ("removed_edges", [[0, 2**64]]),
        ("removed_edges", [[True, 1]]),
        ("nu", "2"),
    ],
)
def test_malformed_sidecar_fails_verify_and_series(tmp_path, capsys, key, value):
    g = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "3", "--seed", "4", "--out", str(g)) == 0
    mp = meta_path(g)
    meta = json.loads(mp.read_text())
    meta[key] = value
    mp.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("verify", str(g)) == 2
    captured = capsys.readouterr()
    assert "[FAIL] metadata consistent" in captured.out and "Traceback" not in captured.err
    assert run("series", str(g)) == 1
    assert _one_line_error(capsys).startswith(f"capforge: error: cannot load {g}")


_DEEP = "[" * 100000  # json.loads raises RecursionError on this


def _deeply_nested_sidecar(tmp_path, route):
    """A graph whose sidecar nests too deeply for json: bare, which only the
    json route reads, or as one more key of a sidecar in write_graph's own
    layout, which the numpy route reads first."""
    g = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "3", "--seed", "4", "--out", str(g)) == 0
    mp = meta_path(g)
    own = mp.read_text().replace("{\n", '{\n  "deep": ' + _DEEP + "]" * len(_DEEP) + ",\n", 1)
    mp.write_text(_DEEP if route == "json" else own)
    return g


def test_a_config_nested_too_deeply_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_DEEP)
    assert run("jump-demo", "--n", "8", "--config", str(cfg)) == 1
    assert _one_line_error(capsys).startswith(f"capforge: error: cannot read config {cfg}: ")


@pytest.mark.parametrize("route", ["json", "own"])
def test_verify_fails_a_sidecar_nested_too_deeply(tmp_path, capsys, route):
    g = _deeply_nested_sidecar(tmp_path, route)
    capsys.readouterr()
    assert run("verify", str(g)) == 2
    captured = capsys.readouterr()
    assert f"[FAIL] metadata parses ({meta_path(g)}: invalid JSON: " in captured.out and "Traceback" not in captured.err


@pytest.mark.parametrize("route", ["json", "own"])
def test_series_refuses_a_sidecar_nested_too_deeply(tmp_path, capsys, route):
    g = _deeply_nested_sidecar(tmp_path, route)
    capsys.readouterr()
    assert run("series", str(g)) == 1
    assert _one_line_error(capsys).startswith(f"capforge: error: cannot load {g}: ")


def test_series_refuses_a_file_that_fails_verification(tmp_path, capsys):
    """A well-formed sidecar that does not describe the graph (a canonical
    graph relabelled simple) fails verification: exit 2 before any solve,
    with the failed checks on stderr."""
    g = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "4", "--seed", "1", "--out", str(g)) == 0
    meta = json.loads(meta_path(g).read_text())
    meta["construction"] = "simple"
    meta_path(g).write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("series", str(g), "--k-max", "2", "--mode", "certificate-only") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[FAIL] one removed edge per row pair" in captured.err
    assert "[FAIL] certificate independent in power view (size 4)" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, config, kinds",
    [
        ("jump-demo", {"construction": "simple", "nu": 2, "n": 4}, "'canonical'"),
        ("mc-alpha", {"construction": "product", "nu": 2, "n": 4}, "'canonical'"),
        ("multi-jump", {"construction": "canonical", "nus": [2, 3], "n1": 2}, "'product'"),
    ],
)
def test_command_refuses_a_config_of_another_kind(tmp_path, capsys, command, config, kinds):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert run(command, "--config", str(cfg)) == 1
    assert _one_line_error(capsys) == f"capforge: error: config {cfg}: 'construction' must be {kinds}, got {config['construction']!r}"
    assert capsys.readouterr().out == ""
    del config["construction"]  # the same values, with no kind named, run
    cfg.write_text(json.dumps(config))
    assert run(command, "--config", str(cfg), *(["--trials", "1"] if command == "mc-alpha" else [])) == 0


def test_construct_and_verify_never_import_numpy_random(tmp_path):
    """Sampling draws from random.Random; importing numpy.random alone adds
    about 6 MiB to every command's peak memory."""
    graph = tmp_path / "g.col"
    script = (
        "import sys\n"
        "from capforge.cli import main\n"
        f"assert main(['construct', '--nu', '2', '--n', '8', '--out', {str(graph)!r}]) == 0\n"
        f"assert main(['verify', {str(graph)!r}]) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_commands_without_a_pool_never_import_it(tmp_path):
    """multiprocessing and concurrent.futures are imported only where a pool
    starts: loading them adds about 1.8 MiB to every command's peak memory."""
    graph = tmp_path / "g.col"
    script = (
        "import sys\n"
        "from capforge.cli import main\n"
        f"assert main(['construct', '--nu', '2', '--n', '8', '--out', {str(graph)!r}]) == 0\n"
        f"assert main(['verify', {str(graph)!r}]) == 0\n"
        f"assert main(['series', {str(graph)!r}, '--k-max', '1']) == 0\n"
        "assert main(['mc-alpha', '--nu', '2', '--n', '8', '--trials', '2', '--threads', '1']) == 0\n"
        "assert main(['jump-demo', '--n', '64', '--threads', '1']) == 0\n"
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
        "assert not loaded, f'{loaded} imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_config_nu_reaches_jump_demo_and_mc_alpha(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": 3, "n": 4}))
    capsys.readouterr()
    assert run("jump-demo", "--config", str(cfg)) == 0
    assert capsys.readouterr().out.startswith("N=12 nu=3 ")
    out = tmp_path / "mc.json"
    assert run("mc-alpha", "--config", str(cfg), "--trials", "2", "--out", str(out)) == 0
    assert json.loads(out.read_text())["config"]["nu"] == 3


@pytest.mark.parametrize(
    "key,value",
    [("alpha", "x"), ("nu_list", [2, "3"]), ("seeds", 5), ("factors", []), ("n", "2"), ("factors", [1, 2])],
)
def test_malformed_product_sidecar_fails_verify_and_series(tmp_path, capsys, key, value):
    g = tmp_path / "p.col"
    assert run("construct", "--multi", "--nus", "2,3", "--n1", "2", "--seeds", "1,2", "--out", str(g)) == 0
    mp = meta_path(g)
    meta = json.loads(mp.read_text())
    meta[key] = value
    mp.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("verify", str(g)) == 2
    captured = capsys.readouterr()
    assert f"[FAIL] metadata consistent (metadata '{key}' must be" in captured.out
    assert "Traceback" not in captured.err
    assert run("series", str(g)) == 1
    assert _one_line_error(capsys).startswith(f"capforge: error: cannot load {g}")


def test_verify_compares_each_factor_seed(tmp_path, capsys):
    g = tmp_path / "p.col"
    assert run("construct", "--multi", "--nus", "2,3", "--n1", "2", "--seeds", "1,2", "--out", str(g)) == 0
    mp = meta_path(g)
    meta = json.loads(mp.read_text())
    meta["factors"][1]["seed"] = 9
    mp.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("verify", str(g)) == 2
    out = capsys.readouterr().out
    assert "[FAIL] factor nu=3 seed reproduces removed edges" in out
    assert "[ok ] factor nu=2 seed reproduces removed edges" in out


def test_factor_of_another_kind_fails_verify_and_series(tmp_path, capsys):
    g = tmp_path / "p.col"
    assert run("construct", "--multi", "--nus", "2,3", "--n1", "2", "--seeds", "1,2", "--out", str(g)) == 0
    mp = meta_path(g)
    meta = json.loads(mp.read_text())
    meta["factors"][1]["construction"] = "simple"
    mp.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("verify", str(g)) == 2
    captured = capsys.readouterr()
    assert "[FAIL] metadata consistent (factor construction 'simple' is not 'canonical')" in captured.out
    assert "Traceback" not in captured.err
    assert run("series", str(g)) == 1
    assert _one_line_error(capsys).startswith(f"capforge: error: cannot load {g}")


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--p-budget", "0"), "--p-budget must be in (0, 1]"),
        (("--p-budget", "nan"), "--p-budget must be in (0, 1]"),
        (("--p-budget", "inf"), "--p-budget must be in (0, 1]"),
        (("--p-budget", "1e-300"), "no s up to N=16 reaches p_budget=1e-300"),
        (("--budget-secs", "nan"), "--budget-secs must be a finite number >= 0"),
        (("--budget-secs", "-1"), "--budget-secs must be a finite number >= 0"),
        (("--budget-nodes", "-1"), "--budget-nodes must be >= 0"),
        (("--threads", "0"), "--threads must be >= 1"),
    ],
)
def test_bad_budget_flags_are_usage_errors(capsys, flags, message):
    assert run("mc-alpha", "--nu", "2", "--n", "8", "--trials", "2", *flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no trial ran
    assert "Traceback" not in captured.err
    assert captured.err.strip() == f"capforge: error: {message}"


def test_bad_budget_flag_rejected_by_every_command(tmp_path, capsys):
    g = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "2", "--out", str(g)) == 0
    capsys.readouterr()
    assert run("series", str(g), "--budget-nodes", "-1") == 1
    assert _one_line_error(capsys) == "capforge: error: --budget-nodes must be >= 0"
    assert run("jump-demo", "--n", "8", "--budget-secs", "nan") == 1
    assert _one_line_error(capsys) == "capforge: error: --budget-secs must be a finite number >= 0"


# Each command declares only the common flags it reads; these are the others.
_DROPPED_FLAGS = [
    ("construct", "--budget-nodes", "5"),
    ("construct", "--budget-secs", "1"),
    ("construct", "--threads", "3"),
    ("series", "--seed", "1"),
    ("series", "--threads", "3"),
    ("series", "--config", "cfg.json"),
    ("jump-demo", "--cap", "100"),
    ("multi-jump", "--budget-nodes", "5"),
    ("multi-jump", "--budget-secs", "1"),
    ("multi-jump", "--threads", "3"),
    ("mc-alpha", "--cap", "100"),
    ("verify", "--seed", "1"),
    ("verify", "--out", "x"),
    ("verify", "--cap", "100"),
    ("verify", "--budget-nodes", "5"),
    ("verify", "--budget-secs", "1"),
    ("verify", "--threads", "3"),
    ("verify", "--config", "cfg.json"),
]


@pytest.mark.parametrize("command,flag,value", _DROPPED_FLAGS, ids=[f"{c} {f}" for c, f, _ in _DROPPED_FLAGS])
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag, value):
    g = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "2", "--out", str(g)) == 0
    positional = {
        "construct": ("--nu", "2", "--n", "2", "--out", str(tmp_path / "c.col")),
        "series": (str(g),),
        "jump-demo": ("--n", "8"),
        "multi-jump": ("--nus", "2,3", "--n1", "2"),
        "mc-alpha": ("--n", "8", "--trials", "2"),
        "verify": (str(g),),
    }[command]
    capsys.readouterr()
    assert run(command, *positional, flag, value) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"unrecognized arguments: {flag} {value}" in captured.err


def test_jump_sweep_rows_are_jump_demo_reports(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "jump_sweep.py"
    sweep = tmp_path / "sweep.csv"
    monkeypatch.setattr(sys, "argv", [str(script), "--sizes", "4,8", "--seeds", "2", "--out", str(sweep)])
    runpy.run_path(str(script), run_name="__main__")
    with open(sweep, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["N"], r["seed"]) for r in rows] == [("8", "0"), ("8", "1"), ("16", "0"), ("16", "1")]
    for row in rows:
        out = tmp_path / "demo.json"
        assert run("jump-demo", "--n", str(int(row["N"]) // 2), "--seed", row["seed"], "--out", str(out)) == 0
        report = json.loads(out.read_text())
        alpha1 = report["alpha1"]
        assert (int(row["alpha_lo"]), int(row["alpha_hi"]), row["status"], row["method"]) == (
            alpha1["lower"],
            alpha1["upper"],
            alpha1["status"],
            alpha1["method"],
        )
        assert float(row["a_nu_floor"]) == round(report["certificate"]["a_k_lower"], 4)
        assert float(row["union_bound"]) == report["first_moment"]["bound"]


_BIG = str(10**20)
# The k_max that makes alpha_lower too long to write depends on Python's
# int-to-text limit; these cases run at its default.
_TOO_LONG = "--k-max 100000 is too large: alpha(G^100000) has over 4300 digits, more than Python writes"
# Inputs that once escaped as tracebacks, and the one line each now gives.
_REFUSED = [
    pytest.param(("construct", "--multi", "--nus", "2,3", "--n1", "4", "--alpha", "inf", "--out", "x.col"),
                 "alpha must be finite, got inf", id="alpha-inf"),
    pytest.param(("construct", "--multi", "--nus", "2,3", "--n1", "4", "--alpha", "1e5", "--out", "x.col"),
                 "alpha=100000.0 with n1=4 makes a factor size of 2**63 or more", id="alpha-1e5"),
    pytest.param(("construct", "--multi", "--nus", "2,3", "--n1", "4", "--alpha", "20", "--out", "x.col"),
                 "alpha=20.0 with n1=4 makes a factor size of 2**63 or more", id="alpha-20"),
    pytest.param(("multi-jump", "--config", "inf.json"),
                 "config inf.json: 'alpha' must be a finite number, got inf", id="config-alpha-inf"),
    pytest.param(("multi-jump", "--nus", "2,3", "--n1", "4", "--k-max", "100000"), _TOO_LONG, id="multi-jump-k-max"),
    pytest.param(("series", "g.col", "--k-max", "100000", "--mode", "certificate-only"), _TOO_LONG, id="series-k-max"),
    pytest.param(("series", "s.col", "--k-max", "100000", "--mode", "certificate-only"), _TOO_LONG, id="series-simple-k-max"),
    pytest.param(("jump-demo", "--n", _BIG), f"n * nu must be below 2**63, got {2 * 10**20}", id="jump-demo-n"),
    pytest.param(("construct", "--nu", _BIG, "--n", "2", "--out", "x.col"), f"n * nu must be below 2**63, got {2 * 10**20}", id="construct-nu"),
]


@pytest.mark.parametrize("argv,message", _REFUSED)
def test_once_a_traceback_now_one_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    Path("inf.json").write_text('{"alpha": Infinity, "nus": [2, 3], "n1": 4}')
    assert run("construct", "--nu", "2", "--n", "4", "--out", "g.col") == 0
    assert run("construct", "--simple", "--nu", "2", "--n", "4", "--out", "s.col") == 0
    capsys.readouterr()
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"capforge: error: {message}\n"


def test_default_k_max_is_the_largest_jump_index(tmp_path):
    out = tmp_path / "mj.json"
    assert run("multi-jump", "--nus", "65", "--n1", "2", "--out", str(out)) == 0
    entries = json.loads(out.read_text())["entries"]
    assert [e["k"] for e in entries] == list(range(1, 66))
    assert (entries[-1]["alpha_lower"], entries[-1]["method"]) == (130, ["certificate"])



def test_series_and_verify_parse_the_sidecar_once(tmp_path, monkeypatch):
    from capforge import constructions

    g = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "4", "--seed", "1", "--out", str(g)) == 0
    calls = []
    parse = constructions.from_metadata
    monkeypatch.setattr(constructions, "from_metadata", lambda *a: calls.append(a) or parse(*a))
    assert run("series", str(g), "--k-max", "2", "--mode", "certificate-only") == 0
    assert len(calls) == 1
    assert run("verify", str(g)) == 0
    assert len(calls) == 2


def test_series_graph_meta_holds_parameters_only(tmp_path):
    canonical, product = tmp_path / "c.col", tmp_path / "p.col"
    assert run("construct", "--nu", "2", "--n", "4", "--seed", "1", "--out", str(canonical)) == 0
    assert run("construct", "--multi", "--nus", "2,3", "--n1", "2", "--seeds", "7,8", "--out", str(product)) == 0
    metas = {}
    for g in (canonical, product):
        prefix = tmp_path / f"{g.stem}-rep"
        assert run("series", str(g), "--k-max", "2", "--mode", "certificate-only", "--out", str(prefix)) == 0
        metas[g.stem] = json.loads(prefix.with_suffix(".json").read_text())["graph_meta"]
    assert metas["c"] == {"construction": "canonical", "nu": 2, "n": 4, "N": 8, "seed": 1}
    p = metas["p"]
    assert (p["construction"], p["nu_list"], p["n"], p["N"], p["sizes"], p["seeds"]) == ("product", [2, 3], 2, 96, [4, 24], [7, 8])
    assert p["factors"] == [
        {"construction": "canonical", "nu": 2, "n": 2, "N": 4, "seed": 7},
        {"construction": "canonical", "nu": 3, "n": 8, "N": 24, "seed": 8},
    ]
    assert "removed_edges" not in p


@pytest.mark.parametrize("command", ["verify", "series"])
def test_memory_error_is_one_line(tmp_path, monkeypatch, capsys, command):
    from capforge import io as gio

    g = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "4", "--out", str(g)) == 0
    capsys.readouterr()

    def out_of_memory(path, cap):
        raise MemoryError("Unable to allocate 448. MiB")

    monkeypatch.setattr(gio, "read_graph", out_of_memory)
    assert run(command, str(g)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "capforge: error: out of memory: Unable to allocate 448. MiB\n")


def test_every_entry_names_its_method(tmp_path):
    out = tmp_path / "mj.json"
    assert run("multi-jump", "--nus", "2,3", "--n1", "2", "--k-max", "6", "--out", str(out)) == 0
    entries = json.loads(out.read_text())["entries"]
    assert entries[0]["method"] == ["single_vertex"]
    assert all(e["method"] for e in entries)
    g, prefix = tmp_path / "g.col", tmp_path / "rep"
    assert run("construct", "--nu", "3", "--n", "3", "--seed", "2", "--out", str(g)) == 0
    assert run("series", str(g), "--k-max", "4", "--mode", "certificate-only", "--out", str(prefix)) == 0
    entries = json.loads(prefix.with_suffix(".json").read_text())["entries"]
    assert [e["method"] for e in entries] == [["single_vertex"], ["product_bound"], ["certificate"], ["certificate", "product_bound"]]


def test_series_examples_script(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "series_examples.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--k-max", "2"])
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("C5 (n=5):") + 2  # past the column header
    assert [row.split()[1] for row in lines[start : lines.index("", start)]] == ["2", "5"]


# Fixed pools for the fuzz test below. No pool holds a mid-size vertex count
# (a sampled graph has at most 144 vertices, a product at most 200) and every
# solve is cut at 200 nodes.
_INTS = ["-1", "0", "1", "2", "3", "8", "12", "x", _BIG]
_LISTS = ["2,3", "2", "3,2", "2,2", "", "x", "0,3", "1,3"]
_FLOATS = ["1.5", "0.5", "1", "2", "-1", "0", "inf", "nan", "1e5", "x"]
_POOLS = {
    "--nu": _INTS,
    "--n": _INTS,
    "--n1": _INTS,
    "--nus": _LISTS,
    "--seeds": _LISTS,
    "--alpha": _FLOATS,
    "--seed": ["-1", "0", "7", "x", str(2**64)],
    "--budget-nodes": ["-1", "0", "1", "50", "200", "x"],
    "--budget-secs": ["-1", "0", "0.5", "nan", "inf", "x"],
    "--cap": ["-1", "0", "10", "200", "x"],
    "--k-max": ["-1", "0", "1", "2", "3", "x", "100000"],
    "--mode": ["exact", "auto", "certificate-only", "other"],
    "--trials": ["-1", "0", "1", "2", "3", "x"],
    "--p-budget": ["-1", "0", "1e-300", "0.001", "1", "2", "nan", "inf", "x"],
    "--config": ["cfg.json"],
    "--simple": None,
    "--multi": None,
}
# Per command: a valid run, then the flags a drawn run may change or add
# (a pool of None is a switch). --threads stays 1, and a product command
# keeps a --cap and a solving command a --budget-nodes from the pools.
_COMMANDS = {
    "construct": ("--nu 2 --n 4 --out out.col --cap 200", "--nu --n --multi --simple --nus --n1 --alpha --seeds --seed --config"),
    "series": ("--budget-nodes 50", "--k-max --mode --budget-nodes --budget-secs --out"),
    "jump-demo": ("--n 8 --threads 1 --budget-nodes 200", "--nu --n --seed --budget-nodes --budget-secs --config --out"),
    "multi-jump": ("--nus 2,3 --n1 2 --cap 200", "--nus --n1 --alpha --seeds --k-max --seed --cap --config --out"),
    "mc-alpha": ("--n 8 --trials 2 --threads 1 --budget-nodes 200", "--nu --n --trials --p-budget --seed --budget-nodes --budget-secs --config --out"),
    "verify": ("", ""),
}
_OUTS = {"construct": "out.col", "series": "rep", "jump-demo": "demo.json", "multi-jump": "mj.json", "mc-alpha": "mc.json"}
_VALUES = [-1, 0, 1, 2, 3, 8, 12, 10**20, 2**64, "x", "2", "simple", None, True, 1.5, math.inf, math.nan,
           [], [2], [2, 3], [3, 2], ["2"], [[0, 1]], [[0, 10**20]], {}]
_CONFIG_KEYS = ["construction", "nu", "n", "seed", "n1", "N1", "alpha", "nus", "seeds", "other"]
_GOOD_CONFIG = {
    "construction": st.sampled_from(["canonical", "simple", "product"]),
    "nu": st.sampled_from([2, 3, 10**20]),
    "n": st.sampled_from([2, 4, 10**20]),
    "seed": st.sampled_from([0, 7]),
    "n1": st.sampled_from([2, 3]),
    "N1": st.sampled_from([4, 5, 6]),
    "alpha": st.sampled_from([1.5, 2, 1e5, math.inf]),
    "nus": st.sampled_from([[2, 3], [2], [0, 3]]),
    "seeds": st.sampled_from([[1, 2], [1]]),
}
_SIDECAR_KEYS = ["construction", "nu", "nu_list", "n", "N", "seed", "seeds", "alpha", "sizes", "removed_edges",
                 "factors", "factors.0.n", "factors.1.nu", "factors.1.removed_edges", "factors.1.construction"]
_GRAPH_LINES = ["p edge 0 0", "p edge 8 1", f"p edge {_BIG} 1", "p edge x 1", "e 1 1", "e 1 9", "e 0 2", "junk", ""]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    base, optional = _COMMANDS[command]
    words = base.split()
    flags = dict(zip(words[::2], words[1::2]))
    for flag in draw(st.lists(st.sampled_from(optional.split()), unique=True, max_size=3)) if optional else []:
        flags[flag] = _OUTS[command] if flag == "--out" else draw(st.sampled_from(_POOLS[flag] or [None]))
    argv = [command]
    if command in ("series", "verify"):
        argv.append(draw(st.sampled_from(["g8.col", "p96.col", "mutated.col", "absent.col"])))
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


_config_text = st.one_of(
    st.fixed_dictionaries({}, optional=_GOOD_CONFIG).map(json.dumps),
    st.dictionaries(st.sampled_from(_CONFIG_KEYS), st.sampled_from(_VALUES), max_size=5).map(json.dumps),
    st.sampled_from(["[1, 2]", "{", b"\xff\xfe"]),
)
# (fixture, sidecar key, value): ... deletes the key; the key None puts the
# value in place of the graph file's second line.
_mutation = st.one_of(
    st.tuples(st.sampled_from(["g8.col", "p96.col"]), st.sampled_from(_SIDECAR_KEYS), st.sampled_from(_VALUES + [...])),
    st.tuples(st.sampled_from(["g8.col", "p96.col"]), st.none(), st.sampled_from(_GRAPH_LINES)),
)


def _mutate(src: Path, dst: Path, key, value) -> None:
    """Copy the graph file ``src`` and its sidecar to ``dst``, changed at ``key``."""
    text, meta = src.read_text(), json.loads(meta_path(src).read_text())
    if key is None:
        lines = text.splitlines()
        text = "\n".join([lines[0], value, *lines[2:]]) + "\n"
    else:
        *path, last = key.split(".")
        node = meta
        for part in path:
            node = node[int(part)] if isinstance(node, list) else node.get(part, {})  # g8 has no factors
        if value is ...:
            node.pop(last, None)
        else:
            node[last] = value
    dst.write_text(text)
    meta_path(dst).write_text(json.dumps(meta))


@pytest.fixture(scope="module")
def fuzz_fixtures(tmp_path_factory):
    """A directory holding the N=8 canonical and the N=96 product graph."""
    d = tmp_path_factory.mktemp("fixtures")
    assert run("construct", "--nu", "2", "--n", "4", "--seed", "1", "--out", str(d / "g8.col")) == 0
    assert run("construct", "--multi", "--nus", "2,3", "--n1", "2", "--out", str(d / "p96.col")) == 0
    return d


# How a refused value's line starts: its parameter or flag, a command that
# needs a flag, or the context the CLI or library adds. An internal error
# that raises ValueError starts otherwise, so main's one exit hides none.
_REFUSALS = tuple(
    f"capforge: error: {start}"
    for start in (
        "nu ", "n ", "n * nu ", "seed ", "n1 ", "nus ", "alpha ", "alpha=", "seeds ",
        "--budget-nodes ", "--budget-secs ", "--threads ", "--k-max ", "--p-budget ", "--trials ",
        "--multi needs ", *(f"{command} needs " for command in _COMMANDS),
        "cannot load ", "cannot read config ", "config ", "CAPFORGE_CAP ", "product would have ", "no s up to ",
    )
)


@given(argv=_argv(), config=_config_text, mutation=_mutation)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_no_input_gives_a_traceback(fuzz_fixtures, argv, config, mutation):
    """Random argv, config files and sidecar or graph-file mutations: every
    run ends with a contract exit code, a refused value with one line that
    starts as a refusal does (``_REFUSALS``), and nothing escapes."""
    fixture, key, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("g8.col", "p96.col"):
            for src in (fuzz_fixtures / name, meta_path(fuzz_fixtures / name)):
                shutil.copy(src, tmp / src.name)
        (tmp / "cfg.json").write_bytes(config if isinstance(config, bytes) else config.encode())
        _mutate(fuzz_fixtures / fixture, tmp / "mutated.col", key, value)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 1 and not lines[0].startswith("usage:"):  # argparse prints its usage first
        assert len(lines) == 1, (argv, lines)
        assert lines[0].startswith(_REFUSALS), (argv, lines)


@pytest.mark.parametrize("comment", ["", "c made elsewhere\n"], ids=["own_form", "comment"])
def test_header_over_the_cap_is_refused(tmp_path, capsys, comment):
    g = tmp_path / "huge.col"
    g.write_text(f"{comment}p edge 100000000 0\n")
    line = 1 + comment.count("\n")
    refusal = f"{g}:{line}: header has 100000000 vertices, over the cap of 20000"
    assert run("verify", str(g)) == 2
    assert capsys.readouterr().out == f"[FAIL] graph file parses ({refusal})\n"
    assert run("series", str(g), "--k-max", "1") == 1
    assert _one_line_error(capsys) == f"capforge: error: cannot load {g}: {refusal}"


def test_series_and_verify_read_the_cap(tmp_path, monkeypatch, capsys):
    g = tmp_path / "g.col"
    assert run("construct", "--nu", "2", "--n", "4", "--out", str(g)) == 0
    capsys.readouterr()
    assert run("series", str(g), "--k-max", "1", "--cap", "7") == 1
    assert _one_line_error(capsys).endswith("header has 8 vertices, over the cap of 7")
    monkeypatch.setenv("CAPFORGE_CAP", "7")
    assert run("verify", str(g)) == 2
    assert "over the cap of 7" in capsys.readouterr().out
    assert run("series", str(g), "--k-max", "1", "--cap", "8") == 0
