import json

import pytest

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


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"construction": "canonical", "nu": 2, "n": 2, "seed": 3}))
    out1 = tmp_path / "c1.col"
    assert run("construct", "--config", str(cfg), "--out", str(out1)) == 0
    assert json.loads(meta_path(out1).read_text())["seed"] == 3
    out2 = tmp_path / "c2.col"
    assert run("construct", "--config", str(cfg), "--seed", "9", "--out", str(out2)) == 0
    assert json.loads(meta_path(out2).read_text())["seed"] == 9


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
        del r["config"]["threads"], r["alpha1"]["elapsed_secs"]
    assert reports[0]["alpha1"] == {"lower": 7, "upper": 15, "status": "upper_bound_certified", "search_nodes": 3393}
    assert reports[0] == reports[1] == reports[2]


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
    [("removed_edges", [["a", 1]]), ("removed_edges", [[0, 1, 2]]), ("nu", "2")],
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
