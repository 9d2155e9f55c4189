"""Every public name the package advertises must exist, so a retired name
left behind in an ``__all__`` list fails here by name."""

import importlib
import importlib.util
import inspect
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


# the arguments that perfbench/spans.py binds by name to count a traced
# call's work; renaming one breaks every traced benchmark run
TRACED_ARGUMENTS = [
    ("simulate", "estimate_triple_moments", ["bundle"]),
    ("paths", "ps_module_matrix", ["times", "values", "delta"]),
    ("gls", "moment_tail_equivalence", ["sample"]),
    ("io", "write_csv", ["path"]),
    ("io", "write_matrix", ["path"]),
    ("io", "write_json", ["path"]),
]


@pytest.mark.parametrize("module,name,leading", TRACED_ARGUMENTS)
def test_traced_argument_names(module, name, leading):
    fn = getattr(importlib.import_module(f"skorotail.{module}"), name)
    assert list(inspect.signature(fn).parameters)[: len(leading)] == leading


def test_simulate_calls_the_paths_module_kernel():
    # the tracer wraps paths.ps_module_matrix in every namespace holding it,
    # so simulate must hold that very function, not a copy or a wrapper
    from skorotail import paths, simulate

    assert simulate.ps_module_matrix is paths.ps_module_matrix
