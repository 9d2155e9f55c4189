"""Every public name the package advertises must exist, so a retired name
left behind in an ``__all__`` list fails here by name."""

import importlib
import importlib.util
import pkgutil

import pytest

MODULES = sorted(
    m.name
    for m in pkgutil.iter_modules(importlib.util.find_spec("skorotail").submodule_search_locations)
    if not m.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"skorotail.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
