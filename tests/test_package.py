"""The package's public names: ``__all__`` is derived from its imports."""

import types

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
