"""In-memory spans around calls into capforge's public functions.

Run as a program, this file is the traced stand-in for the ``capforge``
command:

    python perfbench/tracer.py --spans OUT.json --run-id ID -- <capforge args>

It wraps the public functions listed in TRACED, runs ``capforge.cli.main``
on the arguments inside a ``cli.<command>`` span, and writes its spans to
OUT.json once, when the command has finished. The program itself is not
changed; every span is recorded from this file.

``layer_metrics`` turns the spans of one workload pass into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("constructions", "io", "graphs", "solver", "analysis", "cli")
PROBE = "solver.setup_probe"
_COUNTS = {
    "constructions.orbits": "count",
    "io.bytes": "bytes",
    "cli.verify_checks": "count",
    "graphs.cert_members": "count",
    "graphs.power_vertices": "count",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.solves": "count",
}
# Every metric layer_metrics returns, with its unit.
UNITS = {
    name: _COUNTS.get(name, "s")
    for name in [
        "constructions.orbits_s", "constructions.orbits", "constructions.sample_s", "constructions.certificate_s",
        "io.write_s", "io.read_s", "io.bytes",
        "cli.verify_s", "cli.verify_checks", "cli.verify_residual_s",
        "graphs.cert_check_s", "graphs.cert_members", "graphs.strong_power_s", "graphs.power_vertices",
        "solver.setup_s", "solver.search_s", "solver.nodes", "solver.nodes_per_s", "solver.solves",
        "solver.clique_cover_s", "solver.local_search_s",
        "analysis.series_s", "analysis.series_self_s", "analysis.class_index_s", "analysis.bounds_s",
        *(f"{layer}.self_s" for layer in LAYERS),
        "trace.total_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.unattributed_s",
    ]
}


def _size(path) -> int:
    p = Path(path)
    return p.stat().st_size if p.is_file() else 0


def _meta_size(path) -> int:
    p = Path(path)
    return _size(p.with_name(p.name + ".meta.json"))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


# (module, function, span name, counters(args, kwargs, result) or None)
TRACED = [
    ("constructions", "equivalence_classes", "constructions.orbits", lambda a, k, r: {"orbits": len(r)}),
    ("constructions", "sample_jump_graph", "constructions.sample", None),
    ("constructions", "certificate_for", "constructions.certificate", None),
    ("constructions", "explicit_power_set", "constructions.certificate", None),
    ("constructions", "from_metadata", "constructions.from_metadata", None),
    ("io", "write_graph", "io.write",
     lambda a, k, r: {"bytes": _size(_arg(a, k, 1, "path")) + _meta_size(_arg(a, k, 1, "path"))}),
    ("io", "read_graph", "io.read", lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))}),
    ("io", "read_metadata", "io.read", lambda a, k, r: {"bytes": _meta_size(_arg(a, k, 0, "path"))}),
    ("graphs", "is_independent", "graphs.cert_check", lambda a, k, r: {"members": len(_arg(a, k, 1, "members"))}),
    ("graphs", "strong_power", "graphs.strong_power", lambda a, k, r: {"vertices": r.n}),
    ("solver", "max_independent_set", "solver.solve", lambda a, k, r: {"nodes": r.search_nodes}),
    ("solver", "clique_cover_upper_bound", "solver.clique_cover", None),
    ("solver", "local_search_lower_bound", "solver.local_search", None),
    ("analysis", "independence_series", "analysis.series", None),
    ("analysis", "class_index", "analysis.class_index", None),
    ("analysis", "first_moment_bound", "analysis.bounds", None),
    ("analysis", "alpha_threshold", "analysis.bounds", None),
    ("analysis", "theoretical_bounds", "analysis.bounds", None),
]


class Recorder:
    """Spans of one process, kept in memory: name, start, end, parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    @contextlib.contextmanager
    def span(self, name: str):
        s = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counters": {},
        }
        self.spans.append(s)
        self._stack.append(s["id"])
        self._open[name] += 1
        try:
            yield s["counters"]
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1


def _wrap(rec: Recorder, func, name: str, counters):
    """Time func in a span. A call made while a span of the same name is open
    (certificate_for -> explicit_power_set) is not recorded again, so the
    inclusive time of a name never counts an interval twice."""

    def traced(*args, **kwargs):
        if rec.is_open(name):
            return func(*args, **kwargs)
        with rec.span(name) as c:
            result = func(*args, **kwargs)
            if counters is not None:
                c.update(counters(args, kwargs, result))
        return result

    traced.__wrapped__ = func
    return traced


def _wrap_solver(rec: Recorder, func, name: str, counters):
    """Time a solve, then time its set-up alone: the same call with a budget
    of one node. The probe is a sibling span, so it is subtracted from its
    parent's self time and from the traced total."""
    from capforge.solver import SolverBudget

    timed = _wrap(rec, func, name, counters)

    def traced(g, budget=None):
        result = timed(g, budget)
        with rec.span(PROBE):
            func(g, SolverBudget(max_nodes=1))
        return result

    traced.__wrapped__ = func
    return traced


def install(rec: Recorder) -> None:
    """Replace every binding of each TRACED function in the capforge modules."""
    import importlib

    modules = [importlib.import_module(f"capforge.{m}") for m in ("constructions", "io", "graphs", "solver", "analysis", "cli")]
    modules.append(importlib.import_module("capforge"))
    for mod_name, attr, name, counters in TRACED:
        func = getattr(importlib.import_module(f"capforge.{mod_name}"), attr)
        make = _wrap_solver if name == "solver.solve" else _wrap
        wrapper = make(rec, func, name, counters)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, key, wrapper)


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def layer_metrics(spans: list[dict], traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one workload pass.

    Each span carries ``proc``, the index of the process that recorded it,
    because span ids are only unique within one process.

    ``<name>_s`` metrics are inclusive times of spans with that name, less
    the solver set-up probes they contain;
    ``<layer>.self_s`` is the time a layer's spans do not hand to child spans.
    ``traced_wall_s`` is the wall time of the traced processes, probes
    included; ``untraced_wall_s`` the same pass run without tracing.
    """
    by_key = {(s["proc"], s["id"]): s for s in spans}
    probe_inside: Counter = Counter()  # probe time within each span, to leave out of inclusive times
    for s in spans:
        if s["name"] == PROBE:
            parent = s["parent"]
            while parent is not None:
                probe_inside[(s["proc"], parent)] += _dur(s)
                parent = by_key[(s["proc"], parent)]["parent"]
    incl: Counter = Counter()
    count: Counter = Counter()
    child_time: Counter = Counter()
    for s in spans:
        incl[s["name"]] += _dur(s) - probe_inside[(s["proc"], s["id"])]
        for key, value in s["counters"].items():
            count[f"{s['name']}.{key}"] += value
        if s["parent"] is not None:
            child_time[(s["proc"], s["parent"])] += _dur(s)
    self_time: Counter = Counter()
    for s in spans:
        if s["name"] != PROBE:
            own = _dur(s) - child_time[(s["proc"], s["id"])]
            self_time[s["name"]] += own
            self_time[s["name"].split(".")[0]] += own
    top = sum(_dur(s) for s in spans if s["parent"] is None)
    setup = incl[PROBE]
    solve = incl["solver.solve"]
    search = max(solve - setup, 0.0)
    total = traced_wall_s - setup
    m = {
        "constructions.orbits_s": incl["constructions.orbits"],
        "constructions.orbits": count["constructions.orbits.orbits"],
        "constructions.sample_s": incl["constructions.sample"],
        "constructions.certificate_s": incl["constructions.certificate"],
        "io.write_s": incl["io.write"],
        "io.read_s": incl["io.read"],
        "io.bytes": count["io.write.bytes"] + count["io.read.bytes"],
        "cli.verify_s": incl["cli.verify"],
        "cli.verify_checks": count["cli.verify.checks"],
        "cli.verify_residual_s": self_time["cli.verify"],
        "graphs.cert_check_s": incl["graphs.cert_check"],
        "graphs.cert_members": count["graphs.cert_check.members"],
        "graphs.strong_power_s": incl["graphs.strong_power"],
        "graphs.power_vertices": count["graphs.strong_power.vertices"],
        "solver.setup_s": setup,
        "solver.search_s": search,
        "solver.nodes": count["solver.solve.nodes"],
        "solver.nodes_per_s": count["solver.solve.nodes"] / search if search > 0 else 0.0,
        "solver.solves": sum(1 for s in spans if s["name"] == "solver.solve"),
        "solver.clique_cover_s": incl["solver.clique_cover"],
        "solver.local_search_s": incl["solver.local_search"],
        "analysis.series_s": incl["analysis.series"],
        "analysis.series_self_s": self_time["analysis.series"],
        "analysis.class_index_s": incl["analysis.class_index"],
        "analysis.bounds_s": incl["analysis.bounds"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.total_s"] = total
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = total - untraced_wall_s
    m["trace.unattributed_s"] = total - (top - setup)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then capforge arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no capforge command given")

    from capforge import cli

    rec = Recorder(args.run_id)
    install(rec)
    out = io.StringIO()
    with rec.span(f"cli.{command[0]}") as counters, contextlib.redirect_stdout(out):
        rc = cli.main(command)
    text = out.getvalue()
    sys.stdout.write(text)
    if command[0] == "verify":
        from checks import verify_check_count

        counters["checks"] = verify_check_count(text)
    Path(args.spans).write_text(json.dumps(rec.spans))
    return rc


if __name__ == "__main__":
    sys.exit(main())
