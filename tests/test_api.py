"""Every public name the package advertises must exist, so a retired name
left behind in an ``__all__`` list fails here by name; the names perfbench
binds keep their arguments; and scipy loads only where it runs: the import,
the CLI parser and the calls that need no scipy function load no scipy
module at all."""

import ast
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


# scipy.special takes most of a bare `import skorotail` and pulls in
# scipy's array-API layer; scipy.stats and scipy.optimize take about a second
# more and pull in sparse, linalg, integrate and interpolate.  Each function
# that needs one imports it where it runs: betaincinv at the first tail
# estimate, zeta for polynomial weights, brentq for the optimized chaining
# constant and anderson in `clt`.  So the runs below load no scipy module, and
# `verify` and `simulate` load neither scipy.stats nor scipy.optimize.
SMALL_RUN = "'--paths', '200', '--grid', '16', '--u-points', '5', '--h', '0.1', '--seed', '3'"


def _main(*argv):
    """A body that runs ``python -m skorotail *argv`` and expects exit 0."""
    return f"""
import runpy
sys.argv = ['skorotail', *{list(argv)!r}]
try:
    runpy.run_module('skorotail', run_name='__main__', alter_sys=True)
except SystemExit as e:
    assert e.code == 0, e.code
"""


NO_SCIPY_RUNS = {
    "import": "import skorotail",
    "import-cli": "import skorotail.cli",
    "kappa": _main("kappa"),
    "bound-exp-envelope": _main("bound", "exp-envelope"),
    "gls-tails": """
import numpy as np
from skorotail import bounds, gls
rng = np.random.default_rng(5)
pareto = rng.pareto(1.5, 1000) + 1.0
gauss = rng.normal(size=1000)
gauss -= gauss.mean()
gls.moment_tail_equivalence(gls.EmpiricalSample(pareto), m=1.0)
phi = gls.natural_phi(gls.EmpiricalSample(gauss))
gls.mgf_norm(gls.EmpiricalSample(gauss), phi)
bounds.min_tail_2d(bounds.EmpiricalJointMoment(gauss, pareto), 2.0, 2.0)
""",
}
RUNS = {
    **{name: (body, ("scipy",)) for name, body in NO_SCIPY_RUNS.items()},
    "verify-simulate": (f"""
from skorotail.cli import run
assert run(['verify', {SMALL_RUN}, '--out', 'v']) == 0
assert run(['simulate', {SMALL_RUN}, '--out', 's']) == 0
""", ("scipy.stats", "scipy.optimize")),
    # every pass over the paths runs before the first tail estimate loads
    # scipy.special (pipeline.estimate), so their memory is not stacked on it;
    # two passes per checked bundle: one bundle in verify and simulate, three in clt
    **{f"statistics-before-tails-{cmd}": (f"""
from skorotail import paths, simulate
from skorotail.cli import run
loaded = []
def spy(fn):
    def call(*args, **kwargs):
        loaded.append('scipy.special' in sys.modules)
        return fn(*args, **kwargs)
    return call
for name in ('ps_module_matrix', 'triple_min_sup_matrix'):
    setattr(simulate, name, spy(getattr(paths, name)))
assert run(['{cmd}', {SMALL_RUN}, '--out', 'out']) == 0
assert loaded == [False] * {calls}, loaded
""", ()) for cmd, calls in (("verify", 2), ("simulate", 2), ("clt", 6))},
}


def _scipy_modules(body, tmp_path):
    """The scipy modules loaded after ``body`` runs in a fresh interpreter (the
    test modules themselves import scipy.stats)."""
    src = str(Path(importlib.util.find_spec("skorotail").origin).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (f"import sys\n{body}\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


@pytest.mark.parametrize("body, banned", RUNS.values(), ids=RUNS.keys())
def test_heavy_scipy_parts_not_imported(body, banned, tmp_path):
    assert [m for m in _scipy_modules(body, tmp_path)
            if any(m == b or m.startswith(b + ".") for b in banned)] == []


@pytest.mark.parametrize("body", [
    "from skorotail.simulate import empirical_tail\nempirical_tail([0.5, 2.0], [1.0])",
    "from skorotail.bounds import polynomial_sequences\npolynomial_sequences()",
], ids=["empirical_tail", "polynomial_sequences"])
def test_scipy_special_loads_where_it_runs(body, tmp_path):
    # the control for the guard above: a loaded module is seen
    assert "scipy.special" in _scipy_modules(body, tmp_path)
