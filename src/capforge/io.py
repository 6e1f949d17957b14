"""Graph file I/O.

Format: DIMACS-like text with a ``p edge <N> <M>`` header and one
``e <u> <v>`` line per edge (1-based, u < v), edge lines sorted
lexicographically as strings so identical graphs serialize byte-identically.
Construction metadata travels in a JSON sidecar at ``<path>.meta.json``.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path

import numpy as np

from . import graphs
from .graphs import DEFAULT_CAP, Graph, _add_edges, _chunks, _ints, _row_blocks, _unpack_rows, make_graph

GENERATOR_VERSION = "capforge 0.1.0"

# A body as write_graph writes it: this header, then "e u v" lines and
# nothing else. The possessive repeat keeps no backtracking state per line.
_PLAIN = re.compile(rb"p edge ([0-9]{1,9}) ([0-9]{1,9})\n(?:e [0-9]{1,9} [0-9]{1,9}\n)*+")


class GraphFormatError(ValueError):
    """Raised on malformed graph files or inconsistent headers/sidecars."""


def meta_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.name + ".meta.json")


def _write_body(g: Graph, f) -> None:
    """Write the header and g's 1-based "e u v" lines, sorted as strings, to f:
    rows u in the decimal-string order of their labels, each with its
    neighbours v > u in that order, a block of at most _EDGE_CHUNK bits of
    rows at a time."""
    n = g.n
    order = np.array(sorted(range(n), key=lambda x: str(x + 1)))  # vertices by label string
    f.write(f"p edge {n} {g.edge_count()}\n")
    for lo, hi in _row_blocks(n, n, graphs._EDGE_CHUNK):
        u = order[lo:hi]
        bits = _unpack_rows([g.adj[x] for x in u.tolist()], n)[:, order]
        bits &= order > u[:, None]
        rows, cols = np.nonzero(bits)
        lines = np.stack((u[rows], order[cols]), axis=1) + 1
        f.write(("e %d %d\n" * len(lines)) % tuple(lines.ravel().tolist()))


def _json_pieces(value, indent: str = ""):
    """``json.dumps(value, indent=2, sort_keys=True)`` at nesting ``indent``,
    in pieces, so that it can be written without being held whole. An
    (M, 2) integer array, such as removed edges, prints as the list of its
    rows, one piece per _EDGE_CHUNK pairs."""
    inner = indent + "  "
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        sep = "{\n"
        for k in sorted(value):
            yield f"{sep}{inner}{json.dumps(k)}: "
            yield from _json_pieces(value[k], inner)
            sep = ",\n"
        yield "\n" + indent + "}"
    elif isinstance(value, np.ndarray):
        if not len(value):
            yield "[]"
            return
        deep = inner + "  "
        pair = f"{inner}[\n{deep}%d,\n{deep}%d\n{inner}]"
        sep = "[\n"
        for chunk in _chunks(value):
            yield sep
            yield ",\n".join([pair] * len(chunk)) % tuple(chunk.ravel().tolist())
            sep = ",\n"
        yield "\n" + indent + "]"
    elif isinstance(value, (list, tuple)) and value:
        sep = "[\n"
        for item in value:
            yield sep + inner
            yield from _json_pieces(item, inner)
            sep = ",\n"
        yield "\n" + indent + "]"
    else:
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def write_graph(g, path, metadata: dict | None = None) -> None:
    """Serialize a Graph, or a ConstructedGraph along with its metadata
    sidecar (explicit ``metadata`` wins if both are given)."""
    if not isinstance(g, Graph):  # ConstructedGraph without importing it
        if metadata is None:
            metadata = g.metadata()
        g = g.graph
    with open(path, "w", newline="\n") as f:
        _write_body(g, f)
    if metadata is not None:
        meta = dict(metadata)
        meta.setdefault("generator_version", GENERATOR_VERSION)
        with open(meta_path(path), "w", newline="\n") as f:
            f.writelines(_json_pieces(meta))
            f.write("\n")


def _text_chunks(data: bytes, start: int, end: int, mark: bytes):
    """data[start:end] in consecutive pieces of about _EDGE_CHUNK bytes, each
    ending just past a ``mark`` (a line or pair end) or at ``end``."""
    while start < end:
        cut = data.find(mark, start + graphs._EDGE_CHUNK - 1, end)
        cut = end if cut < 0 else cut + len(mark)
        yield data[start:cut]
        start = cut


def _read_plain(data: bytes, cap: int = DEFAULT_CAP) -> Graph | None:
    """The graph of a body in write_graph's own format, or None when the body
    is in any other form, is not a valid graph or has over ``cap`` vertices.
    Its edge lines are decoded a chunk at a time into packed rows."""
    data = data if data.endswith(b"\n") else data + b"\n"
    header = _PLAIN.fullmatch(data)
    if header is None:
        return None
    n, m = int(header[1]), int(header[2])
    if not 1 <= n <= cap:
        return None
    packed = np.zeros((n, (n + 7) // 8), np.uint8)
    for chunk in _text_chunks(data, header.end(2) + 1, len(data), b"\n"):
        ends = np.fromstring(chunk.translate(None, b"e"), dtype=np.int64, sep=" ").reshape(-1, 2) - 1
        if ((ends < 0) | (ends >= n)).any() or (ends[:, 0] == ends[:, 1]).any():
            return None
        _add_edges(packed, ends)
    g = Graph(n, _ints(packed))
    return g if g.edge_count() == m else None


def read_graph(path, cap: int = DEFAULT_CAP) -> Graph:
    """Parse a graph file, refusing a header of over ``cap`` vertices before
    anything is allocated for them. A body in write_graph's own format takes a
    regex and numpy fast path on the file's bytes; any other, and any invalid
    one, is read again as text by the line-by-line parser, which raises
    GraphFormatError with the line."""
    g = _read_plain(Path(path).read_bytes(), cap)
    return g if g is not None else _read_lines(path, Path(path).read_text(), cap)


def _read_lines(path, text: str, cap: int = DEFAULT_CAP) -> Graph:
    n = None
    m = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"{path}:{lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(f"{path}:{lineno}: bad header {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: bad header {line!r}") from exc
            if n < 1:
                raise GraphFormatError(f"{path}:{lineno}: header needs at least one vertex, got {n}")
            if n > cap:
                raise GraphFormatError(f"{path}:{lineno}: header has {n} vertices, over the cap of {cap}")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"{path}:{lineno}: edge before header")
            if len(parts) != 3:
                raise GraphFormatError(f"{path}:{lineno}: bad edge line {line!r}")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: bad edge line {line!r}") from exc
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"{path}:{lineno}: endpoint out of range in {line!r}")
            if u == v:
                raise GraphFormatError(f"{path}:{lineno}: self-loop in {line!r}")
            edges.append((u, v))
        else:
            raise GraphFormatError(f"{path}:{lineno}: unrecognized line {line!r}")
    if n is None:
        raise GraphFormatError(f"{path}: missing header")
    g = make_graph(n, edges)
    if g.edge_count() != m:
        raise GraphFormatError(f"{path}: header claims {m} edges, found {g.edge_count()} distinct")
    return g


def _pair_arrays(obj: dict) -> dict:
    """``json`` object hook: ``removed_edges``, at the top level or in a factor, becomes the
    (M, 2) int64 array metadata() holds if it is a list of pairs of integers that fit in
    int64; any other value stays as parsed, for from_metadata to refuse."""
    removed = obj.get("removed_edges")
    if (
        isinstance(removed, list)
        and set(map(type, removed)) <= {list}
        and set(map(len, removed)) <= {2}
        and set(map(type, chain.from_iterable(removed))) <= {int}
    ):
        try:
            obj["removed_edges"] = np.fromiter(chain.from_iterable(removed), np.int64, 2 * len(removed)).reshape(-1, 2)
        except OverflowError:  # an integer outside the signed 64-bit range
            pass
    return obj


# A removed_edges list as _json_pieces writes it: its key starts a line, each
# pair takes three lines two and four spaces deeper, and each number is a
# non-negative decimal of at most 19 digits, written without leading zeros.
_NUM = rb"(?:0|[1-9][0-9]{0,18})"
_PAIR = rb"\1  \[\n\1    " + _NUM + rb",\n\1    " + _NUM + rb"\n\1  \]"
_PAIR_LIST = re.compile(rb'^( *)"removed_edges": \[\n((?:' + _PAIR + rb",\n)*+" + _PAIR + rb")\n\1\]", re.MULTILINE)
_PUNCTUATION_TO_SPACES = bytes.maketrans(b"[],", b"   ")
_INT64_MAX = np.iinfo(np.int64).max  # also what np.fromstring makes of a larger value
# The string a cut-out list stands as while json parses the rest of a sidecar.
_MARK = "capforge removed_edges "


def _pair_list(data: bytes, start: int, end: int) -> np.ndarray | None:
    """The pairs of the list _PAIR_LIST matched at data[start:end], decoded a
    chunk at a time into an (M, 2) int64 array; None if a number may be past
    int64. Each pair holds one "]"."""
    out = np.empty((data.count(b"]", start, end), 2), np.int64)
    flat, done = out.reshape(-1), 0
    for chunk in _text_chunks(data, start, end, b"]"):
        nums = np.fromstring(chunk.translate(_PUNCTUATION_TO_SPACES), dtype=np.int64, sep=" ")
        if (nums == _INT64_MAX).any():
            return None
        flat[done : done + len(nums)] = nums
        done += len(nums)
    return out


def _read_own(data: bytes) -> dict | None:
    """A sidecar in which every removed_edges list that _PAIR_LIST matches is
    parsed by numpy and the rest by json, with _pair_arrays. None when no list
    is in that layout or the rest is not valid JSON, and for bytes that are
    not ASCII or hold a backslash or _MARK, where a string could pass for a
    cut-out list."""
    if b"\\" in data or _MARK.encode() in data or not data.isascii():
        return None
    arrays, rest, start = {}, [], 0
    for match in _PAIR_LIST.finditer(data):
        pairs = _pair_list(data, match.start(2), match.end(2))
        if pairs is None:  # left to json
            continue
        token = f"{_MARK}{len(arrays)}"
        arrays[token] = pairs
        rest += [data[start : match.start()].decode(), f'{match[1].decode()}"removed_edges": {json.dumps(token)}']
        start = match.end()
    if not arrays:
        return None
    rest.append(data[start:].decode())

    # Each token directly follows a "removed_edges" key, so once the rest
    # parses it is that key's value, where the json route finds its list.
    def hook(obj: dict) -> dict:
        removed = obj.get("removed_edges")
        if isinstance(removed, str) and removed in arrays:
            obj["removed_edges"] = arrays[removed]
        return _pair_arrays(obj)

    try:
        return json.loads("".join(rest), object_hook=hook)
    except json.JSONDecodeError:
        return None


def read_metadata(path) -> dict | None:
    """The sidecar of ``path``, None if there is none, with _pair_arrays' arrays.
    A sidecar in write_graph's own layout takes _read_own's numpy path on its
    bytes; any other is read again as text and goes through json alone, which
    raises GraphFormatError on invalid JSON."""
    mp = meta_path(path)
    if not mp.exists():
        return None
    meta = _read_own(mp.read_bytes())
    if meta is None:
        try:
            meta = json.loads(mp.read_text(), object_hook=_pair_arrays)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{mp}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise GraphFormatError(f"{mp}: expected a JSON object")
    return meta
