import json

import pytest

from capforge import (
    GraphFormatError,
    JumpParams,
    cycle_graph,
    read_graph,
    read_metadata,
    sample_jump_graph,
    write_graph,
)
from capforge.constructions import from_metadata
from capforge.io import meta_path


def test_round_trip_c5(tmp_path):
    path = tmp_path / "c5.col"
    g = cycle_graph(5)
    write_graph(g, path)
    assert read_graph(path) == g


def test_header_and_sorted_lines(tmp_path):
    path = tmp_path / "g.col"
    write_graph(cycle_graph(5), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p edge 5 5"
    assert lines[1:] == sorted(lines[1:])
    assert all(line.startswith("e ") for line in lines[1:])


def test_one_based_endpoints(tmp_path):
    path = tmp_path / "g.col"
    write_graph(cycle_graph(3), path)
    body = path.read_text()
    assert "e 1 2" in body and "e 0" not in body


def test_byte_reproducible(tmp_path):
    p1, p2 = tmp_path / "a.col", tmp_path / "b.col"
    cg1 = sample_jump_graph(JumpParams(nu=3, n=4, seed=11))
    cg2 = sample_jump_graph(JumpParams(nu=3, n=4, seed=11))
    write_graph(cg1.graph, p1, metadata=cg1.metadata())
    write_graph(cg2.graph, p2, metadata=cg2.metadata())
    assert p1.read_bytes() == p2.read_bytes()
    assert meta_path(p1).read_bytes() == meta_path(p2).read_bytes()


def test_write_constructed_graph_directly(tmp_path):
    path = tmp_path / "cg.col"
    cg = sample_jump_graph(JumpParams(nu=2, n=3, seed=5))
    write_graph(cg, path)
    assert read_graph(path) == cg.graph
    assert read_metadata(path)["seed"] == 5


def test_constructed_round_trip_keeps_removed_edges(tmp_path):
    path = tmp_path / "jump.col"
    cg = sample_jump_graph(JumpParams(nu=2, n=3, seed=5))
    write_graph(cg.graph, path, metadata=cg.metadata())
    g = read_graph(path)
    meta = read_metadata(path)
    rebuilt = from_metadata(g, meta)
    assert rebuilt.graph == cg.graph
    assert rebuilt.removed_edges == cg.removed_edges
    assert rebuilt.params == cg.params


def test_endpoint_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.col"
    path.write_text("p edge 3 1\ne 1 4\n")
    with pytest.raises(GraphFormatError):
        read_graph(path)


def test_edge_count_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.col"
    path.write_text("p edge 3 2\ne 1 2\n")
    with pytest.raises(GraphFormatError):
        read_graph(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.col"
    path.write_text("e 1 2\n")
    with pytest.raises(GraphFormatError):
        read_graph(path)


def test_garbage_line_rejected(tmp_path):
    path = tmp_path / "bad.col"
    path.write_text("p edge 3 1\nq 1 2\n")
    with pytest.raises(GraphFormatError):
        read_graph(path)


def test_empty_vertex_set_rejected(tmp_path):
    path = tmp_path / "bad.col"
    path.write_text("p edge 0 0\n")
    with pytest.raises(GraphFormatError):
        read_graph(path)


def test_self_loop_rejected(tmp_path):
    path = tmp_path / "bad.col"
    path.write_text("p edge 3 1\ne 2 2\n")
    with pytest.raises(GraphFormatError):
        read_graph(path)


def test_comment_lines_ignored(tmp_path):
    path = tmp_path / "ok.col"
    path.write_text("c generated elsewhere\np edge 2 1\ne 1 2\n")
    assert read_graph(path).edge_count() == 1


def test_bad_sidecar_json(tmp_path):
    path = tmp_path / "g.col"
    write_graph(cycle_graph(3), path)
    meta_path(path).write_text("{not json")
    with pytest.raises(GraphFormatError):
        read_metadata(path)


def test_missing_sidecar_returns_none(tmp_path):
    path = tmp_path / "g.col"
    write_graph(cycle_graph(3), path)
    assert read_metadata(path) is None


def test_metadata_schema_fields(tmp_path):
    path = tmp_path / "g.col"
    cg = sample_jump_graph(JumpParams(nu=2, n=2, seed=1))
    write_graph(cg.graph, path, metadata=cg.metadata())
    meta = json.loads(meta_path(path).read_text())
    for key in ("construction", "nu", "n", "N", "seed", "removed_edges", "generator_version"):
        assert key in meta
    assert meta["N"] == 4
    assert all(len(e) == 2 for e in meta["removed_edges"])
