"""Every public name the package advertises must exist, so a retired name
left behind in an ``__all__`` list fails here by name; the names perfbench
binds keep their arguments; and the package imports no scipy part it does
not run."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


# scipy.stats and scipy.optimize take about a second to import and pull in
# sparse, linalg, integrate and interpolate; only `clt` and the optimized
# chaining constant need them, and those import them where they run
SMALL_RUN = "'--paths', '200', '--grid', '16', '--u-points', '5', '--h', '0.1', '--seed', '3'"
RUNS = {
    "import": "import skorotail",
    "verify-simulate": f"""
from skorotail.cli import run
assert run(['verify', {SMALL_RUN}, '--out', 'v']) == 0
assert run(['simulate', {SMALL_RUN}, '--out', 's']) == 0
""",
    "kappa": """
import runpy
sys.argv = ['skorotail', 'kappa']
try:
    runpy.run_module('skorotail', run_name='__main__', alter_sys=True)
except SystemExit as e:
    assert e.code == 0, e.code
""",
}


@pytest.mark.parametrize("body", RUNS.values(), ids=RUNS.keys())
def test_heavy_scipy_parts_not_imported(body, tmp_path):
    # a fresh interpreter: the test modules themselves import scipy.stats
    src = str(Path(importlib.util.find_spec("skorotail").origin).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (f"import sys\n{body}\n"
              "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"
