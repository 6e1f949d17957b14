"""The package's public names: ``__all__`` is derived from its imports."""

import ast
import re
import types
from pathlib import Path

import capforge


def test_all_is_the_public_non_module_names():
    public = {
        name
        for name, value in vars(capforge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert capforge.__all__ == sorted(public)
    assert {"check_certificate", "independence_series", "read_graph", "write_graph"} <= public


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from capforge import *", namespace)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    assert "io" not in namespace and "Graph" in namespace


def test_readme_imports_only_public_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    imported = [
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "capforge"
        for alias in node.names
    ]
    assert imported
    assert sorted(set(imported) - set(capforge.__all__)) == []


def test_only_the_solver_uses_its_private_names():
    """Other modules reach the solver through its public names."""
    imported = [
        f"{path.name}: {alias.name}"
        for path in sorted(Path(capforge.__file__).parent.glob("*.py"))
        if path.name != "solver.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "solver"), (0, "capforge.solver"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imported == []
