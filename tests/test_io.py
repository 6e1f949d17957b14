import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capforge import io as gio
from capforge import (
    GraphFormatError,
    JumpParams,
    cycle_graph,
    make_graph,
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


@pytest.mark.parametrize("chunk", [1, 7, 44])
def test_edge_lines_do_not_depend_on_chunk_size(tmp_path, monkeypatch, chunk):
    g = sample_jump_graph(JumpParams(nu=3, n=4, seed=11)).graph  # 44 edges
    whole = tmp_path / "whole.col"
    write_graph(g, whole)
    monkeypatch.setattr(gio, "_EDGE_CHUNK", chunk)
    chunked = tmp_path / "chunked.col"
    write_graph(g, chunked)
    assert chunked.read_bytes() == whole.read_bytes()
    lines = whole.read_text().splitlines()
    assert lines[0] == "p edge 12 44" and len(lines) == 45


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


def _graph_from_seed(n, density, seed):
    rng = random.Random(seed)
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


def _parse(path, parser):
    try:
        return parser()
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}"


def _perturb(text: str, how: str, rng: random.Random) -> str:
    lines = text.splitlines()
    header, edges = lines[0], lines[1:]
    n, m = map(int, header.split()[2:])
    i = rng.randrange(len(edges)) if edges else None
    if how == "comment":
        lines.insert(rng.randrange(len(lines) + 1), "c a comment")
    elif how == "blank":
        lines.insert(rng.randrange(1, len(lines) + 1), "")
    elif how == "spaces" and edges:
        _, u, v = edges[i].split()
        lines[1 + i] = f"  e {u}   {v} "
    elif how == "plus" and edges:
        _, u, v = edges[i].split()
        lines[1 + i] = f"e +{u} {v}"
    elif how == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif how == "duplicate" and edges:
        lines.insert(1 + i, edges[i])
    elif how == "count":
        lines[0] = f"p edge {n} {m + rng.choice([-1, 1])}"
    elif how == "out_of_range":
        lines.insert(rng.randrange(1, len(lines) + 1), f"e 1 {n + 1}")
    elif how == "self_loop":
        lines.insert(rng.randrange(1, len(lines) + 1), f"e {n} {n}")
    elif how == "no_final_newline":
        return "\n".join(lines)
    return "\n".join(lines) + "\n"


PERTURBATIONS = [
    "none", "comment", "blank", "spaces", "plus", "crlf", "duplicate",
    "count", "out_of_range", "self_loop", "no_final_newline",
]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(PERTURBATIONS),
)
def test_read_graph_agrees_with_line_parser(tmp_path_factory, n, density, seed, how):
    """write_graph -> read_graph round-trips, and on perturbed files the fast
    path gives the same Graph or the same error as the line-by-line parser."""
    path = tmp_path_factory.mktemp("rt") / "g.col"
    g = _graph_from_seed(n, density, seed)
    write_graph(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"p edge {n} {g.edge_count()}" and lines[1:] == sorted(lines[1:])
    assert read_graph(path) == g
    path.write_bytes(_perturb(path.read_text(), how, random.Random(seed)).encode())
    text = path.read_text()
    assert _parse(path, lambda: read_graph(path)) == _parse(path, lambda: gio._read_lines(path, text))
    if how in ("none", "crlf", "duplicate", "no_final_newline"):
        assert gio._read_plain(text) == g  # write_graph's own format: the fast path
    if how in ("none", "comment", "blank", "spaces", "plus", "crlf", "duplicate", "no_final_newline"):
        assert read_graph(path) == g


int_pairs = st.lists(st.tuples(st.integers(), st.integers()) | st.lists(st.integers(), min_size=2, max_size=2), max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5) | int_pairs,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_sidecar_text_matches_json_dumps(value):
    assert gio._json_text(value) == json.dumps(value, indent=2, sort_keys=True)
