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
_HEADER = re.compile(rb"p edge ([0-9]{1,9}) ([0-9]{1,9})\n")
_LINES = re.compile(rb"(?:e [0-9]{1,9} [0-9]{1,9}\n)*+")


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


def _windows(f, start: int, end: int, mark: bytes):
    """The bytes of the binary file f from start to end, in windows that each
    end just past the last ``mark`` (a line or pair end) of a block of
    _EDGE_CHUNK bytes, or at end; a block without a mark joins the next."""
    f.seek(start)
    parts = []
    while start < end:
        block = f.read(min(graphs._EDGE_CHUNK, end - start))
        if not block:  # the file ends before end
            return
        start += len(block)
        cut = len(block) if start == end else block.rfind(mark) + 1
        if cut:
            yield b"".join([*parts, block[:cut]])
            parts = [block[cut:]]
        else:
            parts.append(block)


def _read_plain(f, cap: int = DEFAULT_CAP) -> Graph | None:
    """The graph of the body in the binary file f if it is in write_graph's
    own format, or None when it is in any other form, is not a valid graph
    or has over ``cap`` vertices. The body is read in windows of whole
    lines, each checked and decoded into packed rows, which are allocated
    once the header is within the cap."""
    packed = None
    for window in _windows(f, 0, f.seek(0, 2), b"\n"):
        if not window.endswith(b"\n"):  # only the last line may lack its newline
            window += b"\n"
        start = 0
        if packed is None:
            header = _HEADER.match(window)
            if header is None or not 1 <= int(header[1]) <= cap:
                return None
            n, m = int(header[1]), int(header[2])
            packed = np.zeros((n, (n + 7) // 8), np.uint8)
            start = header.end()
        if not _LINES.fullmatch(window, start):
            return None
        ends = np.fromstring(window[start:].translate(None, b"e"), dtype=np.int64, sep=" ").reshape(-1, 2) - 1
        if ((ends < 0) | (ends >= n)).any() or (ends[:, 0] == ends[:, 1]).any():
            return None
        _add_edges(packed, ends)
    if packed is None:
        return None
    g = Graph(n, _ints(packed))
    return g if g.edge_count() == m else None


def read_graph(path, cap: int = DEFAULT_CAP) -> Graph:
    """Parse a graph file, refusing a header of over ``cap`` vertices before
    anything is allocated for them. A body in write_graph's own format takes a
    regex and numpy fast path on windows of the file, so the read holds the
    packed rows and one window, not the file; any other or invalid body goes
    to the line-by-line parser, which raises GraphFormatError with the line."""
    with open(path, "rb") as f:
        return _read_plain(f, cap) or _read_lines(path, f, cap)


def _text_lines(f):
    """The lines of the binary file f, from its start, as ``str.splitlines()``
    splits its text, decoded a line at a time: a bad header is refused unread."""
    f.seek(0)
    for piece in f:
        try:
            text = piece.decode()
        except UnicodeDecodeError as exc:  # named at its position in the file, as decoding all of it names it
            at = f.tell() - len(piece)
            exc.object, exc.start, exc.end = bytes(at) + piece, at + exc.start, at + exc.end
            raise
        yield from text.splitlines()


def _read_lines(path, f, cap: int = DEFAULT_CAP) -> Graph:
    n = None
    m = None
    edges = []
    for lineno, line in enumerate(_text_lines(f), start=1):
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
_KEY = re.compile(rb'^( *)"removed_edges": \[\n', re.MULTILINE)
_NUM = rb"(?:0|[1-9][0-9]{0,18})"
_PUNCTUATION_TO_SPACES = bytes.maketrans(b"[],", b"   ")
_INT64_MAX = np.iinfo(np.int64).max  # also what np.fromstring makes of a larger value
# The string a cut-out list stands as while json parses the rest of a sidecar.
_MARK = "capforge removed_edges "


def _pairs_pattern(indent: bytes, first: bool) -> re.Pattern:
    """The pairs of a list whose key has ``indent``, as they fill a window
    of its body that ends just past a pair's "]": the first window starts
    with a pair, every later one with the "," before its first pair. The
    possessive repeat keeps no backtracking state per pair."""
    pair = indent + rb"  \[\n" + indent + rb"    " + _NUM + rb",\n" + indent + rb"    " + _NUM + rb"\n" + indent + rb"  \]"
    return re.compile((pair + rb"(?:,\n" + pair + rb")*+") if first else rb"(?:,\n" + pair + rb")++")


def _pair_list(f, start: int, size: int, indent: bytes) -> tuple[np.ndarray, int] | None:
    """The pairs of the removed_edges list whose key has ``indent`` and whose
    body starts at byte ``start`` of f, a file of ``size`` bytes, with the
    offset just past the list's "]". None unless the body is in
    _json_pieces' layout, or if a number may be past int64. One pass over
    windows of the body finds its end and counts its "]", one per pair; a
    second checks each window and decodes it into one (M, 2) int64 array."""
    close = b"\n" + indent + b"]"  # no line of a pair starts with indent and "]"
    count, end = 0, start
    for window in _windows(f, start, size, b"]"):  # a window ends at a "]", so close is not cut
        at = window.find(close)
        count += window.count(b"]", 0, None if at < 0 else at)
        if at >= 0:
            end += at
            break
        end += len(window)
    else:
        return None
    out = np.empty((count, 2), np.int64)
    flat, done = out.reshape(-1), 0
    for window in _windows(f, start, end, b"]"):
        if not _pairs_pattern(indent, not done).fullmatch(window):
            return None
        nums = np.fromstring(window.translate(_PUNCTUATION_TO_SPACES), dtype=np.int64, sep=" ")
        if (nums == _INT64_MAX).any():
            return None
        flat[done : done + len(nums)] = nums
        done += len(nums)
    return (out, end + len(close)) if done else None


def _read_own(f) -> dict | None:
    """The sidecar in the binary file f, with every removed_edges list in
    _json_pieces' layout decoded by _pair_list from windows of the file,
    and the rest, which is small in that layout, parsed by json with
    _pair_arrays. None when no list is in that layout or the rest is not
    valid JSON, and for bytes that are not ASCII or hold a backslash or
    _MARK, where a string could pass for a cut-out list."""
    size = f.seek(0, 2)
    arrays, rest, pos = {}, [], 0
    while pos < size:
        # Windows start at a line start, or just past a list's "]", where a
        # key would follow a "]" with no "," between: json refuses the rest then.
        window = next(_windows(f, pos, size, b"\n"))
        if b"\\" in window or _MARK.encode() in window or not window.isascii():
            return None
        key = _KEY.search(window)
        if key is None:
            rest.append(window)
            pos += len(window)
            continue
        rest.append(window[: key.end()])
        pos += key.end()
        listed = _pair_list(f, pos, size, key[1])
        if listed is None:  # left to json
            continue
        token = f"{_MARK}{len(arrays)}"
        arrays[token], pos = listed
        rest[-1] = window[: key.start()] + key[1] + b'"removed_edges": ' + json.dumps(token).encode()
    if not arrays:
        return None

    # Each token directly follows a "removed_edges" key, so once the rest
    # parses it is that key's value, where the json route finds its list.
    def hook(obj: dict) -> dict:
        removed = obj.get("removed_edges")
        if isinstance(removed, str) and removed in arrays:
            obj["removed_edges"] = arrays[removed]
        return _pair_arrays(obj)

    try:
        return json.loads(b"".join(rest).decode(), object_hook=hook)
    except (json.JSONDecodeError, RecursionError):  # read_metadata's json route reports it
        return None


def read_metadata(path) -> dict | None:
    """The sidecar of ``path``, None if there is none, with _pair_arrays' arrays.
    A sidecar in write_graph's own layout takes _read_own's numpy path on
    windows of the file, so the read holds the decoded pairs, the small rest
    and one window, not the file; any other is read again as text and goes
    through json alone, which raises GraphFormatError on invalid JSON."""
    mp = meta_path(path)
    if not mp.exists():
        return None
    with open(mp, "rb") as f:
        meta = _read_own(f)
    if meta is None:
        try:
            meta = json.loads(mp.read_text(), object_hook=_pair_arrays)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise GraphFormatError(f"{mp}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise GraphFormatError(f"{mp}: expected a JSON object")
    return meta
