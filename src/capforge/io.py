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

from .graphs import Graph, bitset_rows, make_graph

GENERATOR_VERSION = "capforge 0.1.0"

# A body as write_graph writes it is this header, then "e u v" lines and
# nothing else: no line of it matches _OTHER_LINE. (One line at a time, since
# a repeated group would keep backtracking state for every line.)
_PLAIN_HEADER = re.compile(r"p edge ([0-9]{1,9}) ([0-9]{1,9})\n")
_OTHER_LINE = re.compile(r"^(?!e [0-9]{1,9} [0-9]{1,9}$)", re.MULTILINE)


class GraphFormatError(ValueError):
    """Raised on malformed graph files or inconsistent headers/sidecars."""


def meta_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.name + ".meta.json")


def _string_order_key(x: np.ndarray) -> np.ndarray:
    """Integers keyed so that keys order like their decimal strings: the
    digits padded with zeros to a common width, then the digit count."""
    width = len(str(int(x.max(initial=1))))
    digits = np.searchsorted(10 ** np.arange(width, dtype=np.int64), x, side="right")
    return x * 10 ** (width - digits) * (width + 1) + digits


# Edge lines are formatted this many at a time, so the Python ints and the
# text of one chunk are all that exist at once, however large the graph is.
_EDGE_CHUNK = 1 << 16


def _write_body(g: Graph, f) -> None:
    """Write the header and g's 1-based "e u v" lines, sorted as strings, to f."""
    edges = g.edge_array()
    edges += 1
    u, v = edges.T
    edges = edges[np.lexsort((_string_order_key(v), _string_order_key(u)))]
    f.write(f"p edge {g.n} {len(edges)}\n")
    for start in range(0, len(edges), _EDGE_CHUNK):
        chunk = edges[start : start + _EDGE_CHUNK]
        f.write(("e %d %d\n" * len(chunk)) % tuple(chunk.ravel().tolist()))


def _is_pair_list(value) -> bool:
    return (
        set(map(type, value)) <= {list, tuple}
        and set(map(len, value)) == {2}
        and set(map(type, chain.from_iterable(value))) == {int}
    )


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at nesting ``indent``;
    lists of integer pairs, such as removed edges, are printed directly."""
    inner = indent + "  "
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        body = ",\n".join(f"{inner}{json.dumps(k)}: {_json_text(value[k], inner)}" for k in sorted(value))
        return "{\n" + body + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        if _is_pair_list(value):
            deep = inner + "  "
            pair = f"{inner}[\n{deep}%d,\n{deep}%d\n{inner}]"
            body = ",\n".join([pair] * len(value)) % tuple(chain.from_iterable(value))
        else:
            body = ",\n".join(inner + _json_text(item, inner) for item in value)
        return "[\n" + body + "\n" + indent + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


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
        meta_path(path).write_text(_json_text(meta) + "\n", newline="\n")


def _read_plain(text: str) -> Graph | None:
    """The graph of a body in write_graph's own format, or None when the body
    is in any other form or is not a valid graph."""
    text = text if text.endswith("\n") else text + "\n"
    header = _PLAIN_HEADER.match(text)
    if header is None or _OTHER_LINE.search(text, header.end(), len(text) - 1):
        return None
    n, m = int(header[1]), int(header[2])
    body = text[header.end() :].replace("e", "")
    ends = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2) - 1
    if n < 1 or ((ends < 0) | (ends >= n)).any() or (ends[:, 0] == ends[:, 1]).any():
        return None
    g = Graph(n, bitset_rows(n, ends))
    return g if g.edge_count() == m else None


def read_graph(path) -> Graph:
    """Parse a graph file. A body in write_graph's own format takes a regex
    and numpy fast path; any other body, and any invalid one, goes through
    the line-by-line parser, which raises GraphFormatError with the line."""
    text = Path(path).read_text()
    g = _read_plain(text)
    return g if g is not None else _read_lines(path, text)


def _read_lines(path, text: str) -> Graph:
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


def read_metadata(path) -> dict | None:
    mp = meta_path(path)
    if not mp.exists():
        return None
    try:
        meta = json.loads(mp.read_text())
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{mp}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise GraphFormatError(f"{mp}: expected a JSON object")
    return meta
