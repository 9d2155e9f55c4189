"""The experiment, simulate -> estimate -> bound -> check, behind the CLI's
``simulate``, ``verify`` and ``clt`` subcommands; each returns a ``Run``,
whose ``write`` is the one writer of an output directory.

Each check compares a moment bound with the exact-binomial upper confidence
envelope of the simulated tail it bounds (``simulate.domination_report``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as tio
from . import simulate as sim
from .bounds import moment_global_bound, moment_module_bound, rosenthal_nu
from .paths import GFunction, _in_range

__all__ = ["Estimation", "Run", "estimate", "simulate", "verify", "clt", "triple_grid"]


@dataclass(frozen=True)
class Estimation:
    """The natural moment function and least envelope G fitted on one bundle,
    the threshold grid, and the simulated tails of each checked bundle, label
    suffix -> (tail of the global statistic, {h: tail of the module at span h})."""

    table: sim.MomentTable
    envelope: GFunction
    u_grid: np.ndarray
    tails: dict

    def tables(self) -> dict:
        """The CSV tables of the estimation, name -> (header, columns)."""
        tails = {}
        for suffix, (delta, kappa) in self.tails.items():
            tails[f"tail_delta{suffix}.csv"] = delta
            tails.update((f"tail_kappa{suffix}_{h:g}.csv", est) for h, est in kappa.items())
        return {
            "moments.csv": (["p", "nu"], [self.table.p_grid, self.table.values]),
            "pair_norms.csv": ([tio.fmt(t) for t in self.table.pair_times],
                               [self.table.pair_norms]),
            "envelope.csv": (["t", "G"], [self.envelope.times, self.envelope.values]),
            **{name: (["u", "frequency", "upper_confidence"],
                      [est.thresholds, est.freqs, est.upper]) for name, est in tails.items()},
        }


@dataclass(frozen=True)
class Run:
    """A finished run: its report dict (``report.json``, or ``summary.json``
    for ``simulate``; a checked run has one entry per check under ``checks``)
    and the CSV tables ``write`` puts next to it, name -> (header, columns)."""

    report: dict
    tables: dict
    report_name: str = "report.json"

    @property
    def exit_code(self) -> int:
        return 0 if self.report.get("overall_pass", True) else 1

    def write(self, outdir) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, (header, columns) in self.tables.items():
            tio.write_csv(outdir / name, header, columns)
        tio.write_json(outdir / self.report_name, self.report)


def triple_grid(table: sim.MomentTable, config: sim.SimConfig) -> dict:
    """The grid the triple moments, hence nu and G, are certified on."""
    return {"points": int(table.pair_times.size), "stride": config.triple_stride}


def estimate(fit: sim.PathBundle, checked: dict, config: sim.SimConfig,
             u_grid=None) -> Estimation:
    """Estimate nu and G on the ``fit`` paths, and tabulate the tails of each
    checked bundle (label suffix -> bundle) on ``u_grid`` (default:
    ``config.u_points`` quantiles of their pooled global statistics).

    It runs in two phases.  First every pass over the paths: each checked
    bundle's global statistic and module at every span
    (``PathBundle.statistics``), then nu and G.  Then the tails, whose first
    estimate loads ``scipy.special``: the statistics' working memory is freed
    by then and reused, not stacked on that import's."""
    stats = {suffix: b.statistics(config.h_grid) for suffix, b in checked.items()}
    table = sim.estimate_triple_moments(fit, config.p_grid, stride=config.triple_stride)
    envelope = sim.fit_g_envelope(table.pair_times, table.pair_norms)
    if u_grid is None:
        u_grid = sim.quantile_u_grid(np.concatenate([g for g, _ in stats.values()]),
                                     config.u_points)
    tail = lambda s: sim.empirical_tail(s, u_grid, config.confidence)
    tails = {suffix: (tail(g), {h: tail(k) for h, k in kappa.items()})
             for suffix, (g, kappa) in stats.items()}
    return Estimation(table, envelope, u_grid, tails)


def _check(est: Estimation, nu, config: sim.SimConfig, strict: bool, report: dict):
    """The global curve and each span's module curve of the moment function
    ``nu`` on the estimation's grid, each evaluated once, and the run's report
    with the check of every tail against its curve: per label suffix, the
    global statistic, then the module at each span."""
    u = est.u_grid
    gcurve = moment_global_bound(nu, est.envelope, u)
    mcurves = {h: moment_module_bound(nu, est.envelope, h, u) for h in config.h_grid}
    checks = []
    for suffix, (delta, kappa) in est.tails.items():
        checks.append((f"global{suffix}", gcurve, delta))
        checks += [(f"module{suffix}_h={h:g}", mcurves[h], tail) for h, tail in kappa.items()]
    entries = [sim.domination_report(bound, tail, strict, label) for label, bound, tail in checks]
    report = {**report, "overall_pass": all(e["overall_pass"] for e in entries), "checks": entries}
    return gcurve, mcurves, report


def verify(spec: sim.ProcessSpec, config: sim.SimConfig, u_grid=None,
           strict: bool = False) -> Run:
    """Simulate, ``estimate`` on those paths, and check the global moment
    bound and the module bound at every span against their tails; writes
    ``bound_<label>.csv`` files."""
    bundle = sim.generate_paths(spec, config)
    est = estimate(bundle, {"": bundle}, config, u_grid)
    report = {"process": spec.kind, "seed": config.seed, "n_paths": len(bundle),
              "triple_grid": triple_grid(est.table, config)}
    gcurve, mcurves, report = _check(est, est.table, config, strict, report)
    tables = est.tables()
    tables["bound_global.csv"] = gcurve.table()
    tables.update((f"bound_module_h_{h:g}.csv", c.table()) for h, c in mcurves.items())
    return Run(report, tables)


def simulate(spec: sim.ProcessSpec, config: sim.SimConfig, u_grid=None, beta_grid=None,
             write_paths: bool = False) -> Run:
    """``estimate``, summarized in ``summary.json``: nu, G(1), the threshold
    grid and, given ``beta_grid``, the boundary functionals at those endpoint
    window widths (also ``boundary.csv``).  ``write_paths`` adds the paths as
    ``paths.csv``.  Nothing is checked, so the exit code is 0."""
    bundle = sim.generate_paths(spec, config)
    est = estimate(bundle, {"": bundle}, config, u_grid)
    summary = {"process": spec.kind, "n_paths": len(bundle), "grid_size": spec.grid_size,
               "seed": config.seed, "g_total": est.envelope.total, "u_grid": list(est.u_grid),
               "nu": {tio.fmt(p): v for p, v in zip(est.table.p_grid, est.table.values)},
               "triple_grid": triple_grid(est.table, config)}
    tables = est.tables()
    if beta_grid is not None:
        b = sim.boundary_functionals(bundle, beta_grid)
        summary["boundary"] = {"beta": list(b.beta_grid), "z0": list(b.z0), "z1": list(b.z1),
                               "z0_vanishing": b.z0_vanishing, "z1_vanishing": b.z1_vanishing}
        tables["boundary.csv"] = (["beta", "z0", "z1"], [b.beta_grid, b.z0, b.z1])
    if write_paths:
        tables["paths.csv"] = (["path_id"] + [tio.fmt(t) for t in bundle.times],
                               [np.arange(len(bundle)), bundle.values])
    return Run(summary, tables, "summary.json")


def clt(spec: sim.ProcessSpec, config: sim.SimConfig, n_list, t_marks, u_grid=None,
        strict: bool = False) -> Run:
    """``estimate`` nu and G on the summand paths, then check the moment
    bounds of the Rosenthal-scaled nu against the tails of normalized sums of
    n summands for each n in ``n_list`` (distinct): the global statistic once
    per n, and the module at every span in ``config.h_grid``, all from one
    seed stream.  The largest sum's marginal at each time in ``t_marks`` (in
    [0, 1], and not the same on every path) gets an Anderson-Darling test at
    level 1%."""
    _in_range("t_marks", t_marks, "[0, 1]")
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"n must not repeat, got {list(n_list)}")
    rng = np.random.default_rng(config.seed)
    summands = sim.generate_paths(spec, config, rng=rng)
    bundles = {n: sim.partial_sum_paths(spec, n, config, rng=rng) for n in n_list}
    est = estimate(summands, {f"_n={n}": b for n, b in bundles.items()}, config, u_grid)
    # loaded only by this command, after the statistics (see ``estimate``)
    from scipy.stats import anderson

    n_big = max(n_list)
    vb = bundles[n_big]
    normality = {}
    for tm in t_marks:
        marginal = vb.values[:, int(np.searchsorted(vb.times, tm, side="right")) - 1]
        if np.all(marginal == marginal[0]):
            raise ValueError(f"the marginal at t_mark {tm:g} is the same on every path")
        # the interpolated p-value floors at exactly 0.01, hence <=
        res = anderson(marginal, dist="norm", method="interpolate")
        normality[tio.fmt(tm)] = {
            "statistic": float(res.statistic),
            "pvalue": float(res.pvalue),
            "rejected_at_1pct": bool(res.pvalue <= 0.01),
        }
    report = {"process": spec.kind, "seed": config.seed, "n_list": n_list,
              "normality_n": n_big, "normality": normality}
    gcurve, mcurves, report = _check(est, rosenthal_nu(est.table), config, strict, report)
    # the first span's column keeps its name; each further span adds one
    names = ["module_bound"] + [f"module_bound_h={h:g}" for h in config.h_grid[1:]]
    return Run(report, {"clt_bounds.csv": (["u", "global_bound", *names], [
        est.u_grid, gcurve.probs, *(c.probs for c in mcurves.values())])})
