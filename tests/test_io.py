import json
import random
import re
import tracemalloc
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from capforge import graphs
from capforge import io as gio
from capforge import (
    DEFAULT_CAP,
    GraphFormatError,
    JumpParams,
    MultiJumpSpec,
    cycle_graph,
    make_graph,
    multi_jump_product,
    read_graph,
    read_metadata,
    sample_jump_graph,
    sample_simple_jump_graph,
    write_graph,
)
from capforge.constructions import from_metadata, verify_construction
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
    monkeypatch.setattr(graphs, "_EDGE_CHUNK", chunk)
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
    assert rebuilt.removed.tolist() == cg.removed.tolist()
    assert rebuilt.params == cg.params


@pytest.mark.parametrize(
    "cg",
    [
        sample_jump_graph(JumpParams(nu=2, n=4, seed=1)),
        sample_simple_jump_graph(JumpParams(nu=3, n=5, seed=1)),
        multi_jump_product(MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(7, 8))),
    ],
    ids=["canonical", "simple", "product"],
)
def test_read_metadata_decodes_removed_edges_into_arrays(tmp_path, cg):
    path = tmp_path / "g.col"
    write_graph(cg, path)
    meta = read_metadata(path)
    for have, want in [(meta, cg), *zip(meta.get("factors", []), cg.factors)]:
        removed = have["removed_edges"]
        assert isinstance(removed, np.ndarray) and removed.dtype == np.int64 and removed.shape == (len(want.removed), 2)
        assert np.array_equal(removed, want.removed)


@pytest.mark.parametrize("value", [[["a", 1]], [[0, 1, 2]], [[0, 2**64]], [[True, 1]], 5, [[0, 1], 2]])
def test_read_metadata_keeps_other_removed_edges_as_parsed(tmp_path, value):
    path = tmp_path / "g.col"
    write_graph(cycle_graph(5), path, metadata={"removed_edges": value})
    assert read_metadata(path)["removed_edges"] == value


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


def _line_route(path):
    """What read_graph gives, or its error, with every window sent to the
    line-by-line route: the reference the regex route must agree with."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "_LINES", re.compile(rb"(?!)"))  # matches no window
        return _parse(path, lambda: read_graph(path))


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
    """write_graph -> read_graph round-trips, and on perturbed files it gives
    the same Graph or the same error as with every window read line by line."""
    path = tmp_path_factory.mktemp("rt") / "g.col"
    g = _graph_from_seed(n, density, seed)
    write_graph(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"p edge {n} {g.edge_count()}" and lines[1:] == sorted(lines[1:])
    assert read_graph(path) == g
    path.write_bytes(_perturb(path.read_text(), how, random.Random(seed)).encode())
    assert _parse(path, lambda: read_graph(path)) == _line_route(path)
    if how in ("none", "comment", "blank", "spaces", "plus", "crlf", "duplicate", "no_final_newline"):
        assert read_graph(path) == g


int_pairs = st.lists(st.tuples(st.integers(), st.integers()) | st.lists(st.integers(), min_size=2, max_size=2), max_size=4)
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# (M, 2) int64 arrays, as removed edges are held; M = 0 included
pair_arrays = st.lists(st.tuples(int64s, int64s), max_size=4).map(lambda p: np.array(p, dtype=np.int64).reshape(-1, 2))


def _containers(inner):
    # A named function, not a lambda: Hypothesis reads extend's source to see
    # that it uses its argument, and warns when it cannot tell.
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5) | int_pairs | pair_arrays,
    _containers,
    max_leaves=20,
)


def _dict_in_a_container(value) -> bool:
    # Only _containers makes dicts, so a dict inside a list or dict was made by recursing.
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return any(isinstance(item, dict) for item in items)


def test_json_values_nest_a_container_in_a_container():
    nested = find(json_values, _dict_in_a_container, settings=settings(database=None), random=random.Random(0))
    assert nested in ([{}], {"": {}})


@given(json_values)
def test_sidecar_text_matches_json_dumps(value):
    # json.dumps sees each array as the list of its rows
    assert "".join(gio._json_pieces(value)) == json.dumps(value, indent=2, sort_keys=True, default=np.ndarray.tolist)


def test_sidecar_text_of_a_long_pair_array(monkeypatch):
    monkeypatch.setattr(graphs, "_EDGE_CHUNK", 3)  # several chunks, the last one short
    arr = np.arange(20, dtype=np.int64).reshape(-1, 2)
    for value in (arr, {"removed_edges": arr, "factors": [{"removed_edges": arr[:0]}]}):
        assert "".join(gio._json_pieces(value)) == json.dumps(value, indent=2, sort_keys=True, default=np.ndarray.tolist)


def _same(have, want) -> bool:
    """Equal parsed sidecars: arrays of one dtype, shape and content, and every
    other value equal and of the same type."""
    if isinstance(have, np.ndarray) or isinstance(want, np.ndarray):
        return isinstance(have, np.ndarray) and isinstance(want, np.ndarray) and have.dtype == want.dtype and np.array_equal(have, want)
    if isinstance(have, dict):
        return isinstance(want, dict) and have.keys() == want.keys() and all(_same(have[k], want[k]) for k in have)
    if isinstance(have, list):
        return isinstance(want, list) and len(have) == len(want) and all(map(_same, have, want))
    return type(have) is type(want) and have == want


def _json_route(text: str):
    """What read_metadata gives through json alone, the route of any sidecar
    not in write_graph's own layout."""
    try:
        return json.loads(text, object_hook=gio._pair_arrays)
    except json.JSONDecodeError:
        return GraphFormatError


def _read_route(path):
    try:
        return read_metadata(path)
    except GraphFormatError:
        return GraphFormatError


SIDECARS = {
    "canonical": sample_jump_graph(JumpParams(nu=2, n=5, seed=3)),
    "simple": sample_simple_jump_graph(JumpParams(nu=3, n=5, seed=3)),
    "product": multi_jump_product(MultiJumpSpec(nus=(2, 3), n1=2, alpha=1.5, seeds=(7, 8))),
}


@pytest.mark.parametrize("kind", SIDECARS)
def test_own_sidecars_take_the_numpy_path(tmp_path, kind):
    path = tmp_path / "g.col"
    write_graph(SIDECARS[kind], path)
    text = meta_path(path).read_text()
    assert _same(gio._read_own(BytesIO(text.encode())), _json_route(text))
    assert _same(read_metadata(path), _json_route(text))


def _perturb_sidecar(text: str, how: str, rng: random.Random) -> str:
    """``text`` with one change; number lines are a pair's "<indent><digits>[,]"."""
    lines = text.split("\n")
    numbers = [i for i, line in enumerate(lines) if re.fullmatch(r" +[0-9]+,?", line)]
    if how in ("missing_comma", "trailing_comma"):  # a pair's first number, or its second
        numbers = [i for i in numbers if lines[i].endswith(",") == (how == "missing_comma")]
    i = rng.choice(numbers)
    indent, digits, comma = re.fullmatch(r"( +)([0-9]+)(,?)", lines[i]).groups()
    if how in ("reindent", "empty_list", "mark", "backslash", "non_ascii"):
        meta = json.loads(text)
        if how == "empty_list":
            target = meta if len(meta["removed_edges"]) else meta["factors"][rng.randrange(len(meta["factors"]))]
            target["removed_edges"] = []
        else:
            meta["note"] = {"mark": f"{gio._MARK}0", "backslash": "a\\b", "non_ascii": "caf\u00e9"}.get(how)
        return json.dumps(meta, indent=3 if how == "reindent" else 2, sort_keys=True, ensure_ascii=how != "non_ascii") + "\n"
    if how == "crlf":
        return text.replace("\n", "\r\n")
    line = {
        "leading_zero": f"{indent}0{digits}{comma}",
        "negative": f"{indent}-{digits}{comma}",
        "past_int64": f"{indent}{2**63 + int(digits)}{comma}",
        "int64_max": f"{indent}{2**63 - 1}{comma}",
        "plus": f"{indent}+{digits}{comma}",
        "float": f"{indent}{digits}.0{comma}",
        "missing_comma": f"{indent}{digits}",
        "trailing_comma": f"{indent}{digits},",
        "two_numbers": f"{indent[:-1]}1 {digits}{comma}",  # same text once digits go
        "empty_slot": f"{indent}{comma}",
        "moved_up": f"{indent}{comma}",  # its digits go to the start of the line above
    }[how]
    lines[i] = line
    if how == "moved_up":
        lines[i - 1] = digits + lines[i - 1]
    return "\n".join(lines)


SIDECAR_PERTURBATIONS = [
    "none", "leading_zero", "negative", "past_int64", "int64_max", "plus", "float", "reindent", "crlf",
    "missing_comma", "trailing_comma", "two_numbers", "empty_slot", "moved_up", "empty_list", "mark",
    "backslash", "non_ascii",
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(SIDECARS)), st.sampled_from(SIDECAR_PERTURBATIONS), st.integers(min_value=0, max_value=2**32))
def test_read_metadata_agrees_with_json_on_perturbed_sidecars(tmp_path_factory, kind, how, seed):
    """A perturbed sidecar gives what json alone gives, or GraphFormatError
    where json finds invalid JSON; only write_graph's layout takes numpy."""
    path = tmp_path_factory.mktemp("meta") / "g.col"
    write_graph(SIDECARS[kind], path)
    if how != "none":
        meta_path(path).write_bytes(_perturb_sidecar(meta_path(path).read_text(), how, random.Random(seed)).encode())
    text = meta_path(path).read_text()
    assert _same(_read_route(path), _json_route(text))
    if kind != "product" and how not in ("none", "crlf"):  # its one list is not write_graph's
        assert gio._read_own(BytesIO(text.encode())) is None


def _graph_error(path) -> str:
    with pytest.raises(GraphFormatError) as exc:
        read_graph(path)
    return str(exc.value)


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("p edge 2 1\np edge 2 1\ne 1 2\n", 2, "duplicate header"),
        ("p edge 2\n", 1, "bad header 'p edge 2'"),
        ("p edge x 1\n", 1, "bad header 'p edge x 1'"),
        ("p edge 2 1\ne 1 2 3\n", 2, "bad edge line 'e 1 2 3'"),
        ("p edge 2 1\ne 1 x\n", 2, "bad edge line 'e 1 x'"),
        ("c no header\n\n", None, "missing header"),
    ],
)
def test_line_parser_names_the_line(tmp_path, body, line, message):
    path = tmp_path / "bad.col"
    path.write_text(body)
    assert _graph_error(path) == f"{path}{'' if line is None else f':{line}'}: {message}"


def test_sidecar_that_is_not_an_object(tmp_path):
    path = tmp_path / "g.col"
    write_graph(cycle_graph(3), path)
    meta_path(path).write_text("[1, 2]\n")
    with pytest.raises(GraphFormatError) as exc:
        read_metadata(path)
    assert str(exc.value) == f"{meta_path(path)}: expected a JSON object"


@pytest.mark.parametrize("comment", ["", "c made elsewhere\n"], ids=["own_form", "comment"])
def test_header_over_the_cap_is_refused_before_allocating(tmp_path, comment):
    """A header of 10^8 vertices asks for rows of about 1.1 PiB; it is refused
    on its line, in the writer's own form and in any other."""
    path = tmp_path / "huge.col"
    path.write_text(f"{comment}p edge 100000000 0\n")
    line = 1 + comment.count("\n")
    tracemalloc.start()
    try:
        message = _graph_error(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message == f"{path}:{line}: header has 100000000 vertices, over the cap of {DEFAULT_CAP}"
    assert peak < 2**20


def test_cap_bounds_both_parsers(tmp_path):
    path = tmp_path / "g.col"
    write_graph(cycle_graph(5), path)
    assert read_graph(path, cap=5) == cycle_graph(5)
    assert _parse(path, lambda: read_graph(path, cap=4)) == f"GraphFormatError: {path}:1: header has 5 vertices, over the cap of 4"


def test_header_over_the_cap_is_refused_before_the_rest_is_decoded(tmp_path):
    path = tmp_path / "g.col"
    path.write_bytes(b"p edge 100 0\n\xff\n")
    assert _parse(path, lambda: read_graph(path, cap=10)) == f"GraphFormatError: {path}:1: header has 100 vertices, over the cap of 10"


def _one_pair_sidecar(tmp_path) -> Path:
    path = tmp_path / "g.col"
    write_graph(cycle_graph(5), path, metadata={"removed_edges": np.array([[1, 2]], dtype=np.int64)})
    return path


@pytest.mark.parametrize(
    "edit, own",
    [
        (lambda text: text, True),  # a one-pair list
        (lambda text: text.replace("    2\n", f"    {10**19}\n"), False),  # a 20-digit number
        (lambda text: text.replace("\n    ", "\n        "), False),  # pairs deeper than their key allows
        (lambda text: text.replace(',\n  "removed_edges"', ', "removed_edges"'), False),  # the key does not start its line
    ],
    ids=["one_pair", "twenty_digits", "pairs_indent", "key_mid_line"],
)
def test_pair_list_pattern_edges_agree_with_json(tmp_path, edit, own):
    path = _one_pair_sidecar(tmp_path)
    text = edit(meta_path(path).read_text())
    meta_path(path).write_text(text)
    assert (gio._read_own(BytesIO(text.encode())) is not None) == own
    assert _same(read_metadata(path), _json_route(text))


@pytest.mark.parametrize("body", ["p edge 3 0\n", "p edge 3 1\ne 1 2", "p edge 3 0"], ids=["no_edges", "no_final_newline", "header_only"])
def test_plain_pattern_edges_agree_with_line_parser(tmp_path, monkeypatch, body):
    path = tmp_path / "g.col"
    path.write_text(body)
    monkeypatch.setattr(graphs, "_EDGE_CHUNK", 1)  # a window per line: edge lines take the regex route
    assert read_graph(path) == _line_route(path)


def test_own_file_sends_only_the_header_window_line_by_line(tmp_path, monkeypatch):
    """With windows of about 44 bytes, the header's window is parsed line by
    line and every later window of the writer's own lines by regex."""
    path = tmp_path / "g.col"
    g = _graph_from_seed(60, 0.3, 1)
    write_graph(g, path)
    monkeypatch.setattr(graphs, "_EDGE_CHUNK", 44)
    calls = []
    lines = gio._window_lines
    monkeypatch.setattr(gio, "_window_lines", lambda window, at: calls.append(at) or lines(window, at))
    assert read_graph(path) == g
    assert calls == [0] and len(path.read_bytes()) > 10 * 44


def test_own_sidecar_memory_stays_near_its_size(tmp_path):
    """2^18 pairs, as many as the N=1024 canonical graph removes. The
    possessive repeats keep no state per pair, and the list is decoded from
    windows of the file into its array: the read holds the array and under
    1 MiB more, not the sidecar's bytes."""
    path = tmp_path / "g.col"
    pairs = (np.arange(2**19, dtype=np.int64) * 7919 % 1024).reshape(-1, 2)
    write_graph(cycle_graph(3), path, metadata={"removed_edges": pairs})
    tracemalloc.start()
    try:
        meta = read_metadata(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(meta["removed_edges"], pairs)
    assert peak < pairs.nbytes + 2**20


def test_sidecar_is_written_without_holding_its_text(tmp_path, monkeypatch):
    """2^18 pairs, as many as the N=1024 canonical graph removes, written
    4,096 pairs at a time: the write holds one chunk's text and ints, not
    the whole sidecar's text."""
    monkeypatch.setattr(graphs, "_EDGE_CHUNK", 4096)
    path = tmp_path / "g.col"
    pairs = (np.arange(2**19, dtype=np.int64) * 7919 % 1024).reshape(-1, 2)
    tracemalloc.start()
    try:
        write_graph(cycle_graph(3), path, metadata={"removed_edges": pairs})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = meta_path(path).stat().st_size
    assert np.array_equal(read_metadata(path)["removed_edges"], pairs)
    assert peak < size / 4


@pytest.mark.parametrize("chunk", [1, 7, 44])
def test_bytes_readers_do_not_depend_on_chunk_size(tmp_path, monkeypatch, chunk):
    """Text is decoded about _EDGE_CHUNK bytes at a time, cut at line and
    pair ends: with one record per chunk, a few or many, the readers give
    what the line route and json give, on own files and perturbed ones."""
    monkeypatch.setattr(graphs, "_EDGE_CHUNK", chunk)
    rng = random.Random(chunk)
    for kind, cg in SIDECARS.items():
        path = tmp_path / f"{kind}.col"
        write_graph(cg, path)
        text, sidecar = path.read_text(), meta_path(path).read_text()
        assert read_graph(path) == _line_route(path) == cg.graph
        assert _same(gio._read_own(BytesIO(sidecar.encode())), _json_route(sidecar))
        for how in PERTURBATIONS:
            path.write_bytes(_perturb(text, how, rng).encode())
            assert _parse(path, lambda: read_graph(path)) == _line_route(path)
        for how in SIDECAR_PERTURBATIONS[1:]:  # all but "none"
            meta_path(path).write_bytes(_perturb_sidecar(sidecar, how, rng).encode())
            assert _same(_read_route(path), _json_route(meta_path(path).read_text()))


def _string_sorted_body(g) -> str:
    """The body write_graph writes, made the slow way: the header, then
    every 1-based edge line, sorted as a string."""
    lines = sorted(f"e {u} {v}\n" for u, v in (g.edge_array() + 1).tolist())
    return f"p edge {g.n} {len(lines)}\n" + "".join(lines)


@pytest.mark.parametrize("n", [9, 10, 11, 99, 100, 101, 999, 1000, 1001])
def test_row_blocks_write_lines_sorted_as_strings(tmp_path, monkeypatch, n):
    """Rows go out in the string order of their labels, which changes where
    the labels gain a digit, in blocks of at most _EDGE_CHUNK bits."""
    g = _graph_from_seed(n, 0.2, n)
    path = tmp_path / "g.col"
    for chunk in (graphs._EDGE_CHUNK, 44):
        monkeypatch.setattr(graphs, "_EDGE_CHUNK", chunk)
        write_graph(g, path)
        assert path.read_text() == _string_sorted_body(g)


@pytest.fixture(scope="module")
def jump_1024(tmp_path_factory):
    """The N=1024 seed-7 canonical graph, written with its sidecar."""
    path = tmp_path_factory.mktemp("n1024") / "g.col"
    cg = sample_jump_graph(JumpParams(nu=2, n=512, seed=7))
    write_graph(cg, path)
    return cg, path


def _traced(fn):
    """fn's result and the tracemalloc peak of its call, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "edit",
    [
        lambda body: body,
        lambda body: b"c made elsewhere\n" + body,
        lambda body: body.replace(b"\ne ", b"\ne  "),
    ],
    ids=["own", "comment", "spaces"],
)
def test_read_graph_holds_the_file_and_one_chunk(jump_1024, tmp_path, edit):
    """The packed rows, the row ints and one window of the file and its
    numbers: under 1 MiB, less than the 2.57 MB file itself, in the writer's
    own layout and in one that is parsed line by line."""
    cg, own = jump_1024
    path = tmp_path / "g.col"
    path.write_bytes(edit(own.read_bytes()))
    g, peak = _traced(lambda: read_graph(path))
    assert g == cg.graph
    assert peak < 2**20


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda body: body[:-3] + b"\xff" + body[-2:], "'utf-8' codec can't decode byte 0xff in position 2573996: invalid start byte"),
        (lambda body: body[:-3] + b"\xe2\x82" + body[-1:], "'utf-8' codec can't decode bytes in position 2573996-2573997: invalid continuation byte"),
    ],
    ids=["start_byte", "cut_sequence"],
)
def test_read_graph_names_a_bad_byte_near_the_end_in_one_chunk(jump_1024, tmp_path, edit, message):
    """A byte that is not UTF-8 near the end of the N=1024 file is named at its
    offset in the file, as decoding the whole file names it, under the same
    1 MiB as a clean read: no buffer as long as the file is built for it."""
    _, own = jump_1024
    path = tmp_path / "g.col"
    path.write_bytes(edit(own.read_bytes()))
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_bytes().decode()
    raised, peak = _traced(lambda: pytest.raises(GraphFormatError, read_graph, path))
    assert str(raised.value) == str(whole.value) == message
    assert peak < 2**20


def test_write_body_holds_one_block(jump_1024):
    """Row blocks of at most _EDGE_CHUNK bits, formatted one at a time: under
    a quarter of the (M, 2) int64 edge array a sort of every edge needs."""
    cg, path = jump_1024
    copy = path.with_name("copy.col")
    with open(copy, "w", newline="\n") as f:
        _, peak = _traced(lambda: gio._write_body(cg.graph, f))
    assert copy.read_bytes() == path.read_bytes()
    assert peak < cg.graph.edge_count() * 16 / 4


def test_verify_construction_holds_one_copy_of_the_removed_edges(jump_1024):
    """Per-pair checks a chunk at a time into one uint8 count per orbit, and
    the resampled edges compared a chunk at a time: no second (M, 2) copy,
    under half of one."""
    cg, path = jump_1024
    meta = read_metadata(path)
    rebuilt = from_metadata(read_graph(path), meta)
    checks, peak = _traced(lambda: verify_construction(rebuilt, meta))
    assert all(ok for _, ok, _ in checks)
    assert peak < cg.removed.nbytes / 2


def test_verify_construction_of_a_simple_graph_holds_no_copy_of_its_removed_edges():
    """The simple kind's checks count row pairs a chunk at a time, in one
    uint8 count per pair, and compare the resampled edges a chunk at a time."""
    cg = sample_simple_jump_graph(JumpParams(nu=2, n=1024, seed=7))
    checks, peak = _traced(lambda: verify_construction(cg, cg.metadata()))
    assert all(ok for _, ok, _ in checks)
    assert peak < cg.removed.nbytes / 2


@pytest.mark.parametrize("chunk", [1, 7, 44])
def test_windowed_sidecar_reader_does_not_depend_on_chunk_size(tmp_path, monkeypatch, chunk):
    """Windows of one byte, a few or many pairs: read_metadata gives what
    json alone gives on own canonical, simple and product sidecars (a
    product's top-level list is empty, its factors' lists sit deeper), and
    on every perturbed one; own sidecars take the windowed route."""
    monkeypatch.setattr(graphs, "_EDGE_CHUNK", chunk)
    rng = random.Random(chunk)
    for kind, cg in SIDECARS.items():
        path = tmp_path / f"{kind}.col"
        write_graph(cg, path)
        sidecar = meta_path(path).read_text()
        with open(meta_path(path), "rb") as f:
            assert _same(gio._read_own(f), _json_route(sidecar))
        for how in SIDECAR_PERTURBATIONS:
            text = sidecar if how == "none" else _perturb_sidecar(sidecar, how, rng)
            meta_path(path).write_bytes(text.encode())
            assert _same(_read_route(path), _json_route(text)), how


@pytest.mark.parametrize("value", [2**63 - 1, 2**63 - 2])
def test_windowed_reader_leaves_a_list_at_int64_max_to_json(tmp_path, value):
    """np.fromstring reads int64 max for any larger number too, so a list
    holding it is parsed by json; a list beside it still takes numpy."""
    path = tmp_path / "g.col"
    big = np.array([[0, value], [1, 2]], dtype=np.int64)
    write_graph(cycle_graph(5), path, metadata={"removed_edges": big, "factors": [{"removed_edges": big[1:]}]})
    text = meta_path(path).read_text()
    meta = read_metadata(path)
    assert _same(meta, _json_route(text))
    assert isinstance(meta["removed_edges"], np.ndarray) and meta["removed_edges"].tolist() == big.tolist()
    with open(meta_path(path), "rb") as f:
        assert _same(gio._read_own(f), _json_route(text))
