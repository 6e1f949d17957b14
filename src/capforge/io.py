"""Graph file I/O.

Format: DIMACS-like text with a ``p edge <N> <M>`` header and one
``e <u> <v>`` line per edge (1-based, u < v), edge lines sorted
lexicographically as strings so identical graphs serialize byte-identically.
Construction metadata travels in a JSON sidecar at ``<path>.meta.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .graphs import Graph, make_graph

GENERATOR_VERSION = "capforge 0.1.0"


class GraphFormatError(ValueError):
    """Raised on malformed graph files or inconsistent headers/sidecars."""


def meta_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.name + ".meta.json")


def write_graph(g, path, metadata: dict | None = None) -> None:
    """Serialize a Graph, or a ConstructedGraph along with its metadata
    sidecar (explicit ``metadata`` wins if both are given)."""
    if not isinstance(g, Graph):  # ConstructedGraph without importing it
        if metadata is None:
            metadata = g.metadata()
        g = g.graph
    lines = [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    lines.sort()
    text = "\n".join([f"p edge {g.n} {len(lines)}"] + lines) + "\n"
    Path(path).write_text(text, newline="\n")
    if metadata is not None:
        meta = dict(metadata)
        meta.setdefault("generator_version", GENERATOR_VERSION)
        meta_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", newline="\n")


def read_graph(path) -> Graph:
    n = None
    m = None
    edges = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
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
