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
from .bounds import clt_bounds, moment_global_bound, moment_module_bound
from .paths import GFunction

__all__ = ["Estimation", "Run", "estimate", "simulate", "verify", "clt", "triple_grid"]


@dataclass(frozen=True)
class Estimation:
    """Simulated paths, their natural moment function and least envelope G,
    the threshold grid, and the simulated tails of the global statistic and
    of the module at each span h (``tails_kappa[h]``)."""

    bundle: sim.PathBundle
    table: sim.MomentTable
    envelope: GFunction
    u_grid: np.ndarray
    tail_delta: sim.TailEstimate
    tails_kappa: dict

    def tables(self) -> dict:
        """The CSV tables of the estimation, name -> (header, columns)."""
        tails = {"tail_delta.csv": self.tail_delta}
        tails.update((f"tail_kappa_{h:g}.csv", est) for h, est in self.tails_kappa.items())
        return {
            "moments.csv": (["p", "nu"], [self.table.p_grid, self.table.values]),
            "pair_norms.csv": ([tio.fmt(t) for t in self.table.pair_times],
                               list(self.table.pair_norms.T)),
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


def _moments(bundle: sim.PathBundle, config: sim.SimConfig):
    table = sim.estimate_triple_moments(bundle, config.p_grid, stride=config.triple_stride)
    return table, sim.fit_g_envelope(table.pair_times, table.pair_norms)


def _run(report: dict, checks, strict: bool, tables: dict) -> Run:
    """Check each (label, bound, tail) and finish the report with the verdicts."""
    entries = [sim.domination_report(bound, tail, strict, label) for label, bound, tail in checks]
    report = {**report, "overall_pass": all(e["overall_pass"] for e in entries), "checks": entries}
    return Run(report, tables)


def estimate(spec: sim.ProcessSpec, config: sim.SimConfig, u_grid=None) -> Estimation:
    """Simulate, estimate nu and G, and tabulate the tails on ``u_grid``
    (default: ``config.u_points`` quantiles of the global statistic)."""
    bundle = sim.generate_paths(spec, config)
    table, envelope = _moments(bundle, config)
    stats = bundle.global_stats()
    if u_grid is None:
        u_grid = sim.quantile_u_grid(stats, config.u_points)
    tail = lambda s: sim.empirical_tail(s, u_grid, config.confidence)
    return Estimation(bundle, table, envelope, u_grid, tail(stats),
                      {h: tail(bundle.module_stats(h)) for h in config.h_grid})


def verify(spec: sim.ProcessSpec, config: sim.SimConfig, u_grid=None,
           strict: bool = False) -> Run:
    """``estimate``, then check the global moment bound and the module bound
    at every span against their tails; writes ``bound_<label>.csv`` files."""
    est = estimate(spec, config, u_grid)
    u = est.u_grid
    checks = [("global", moment_global_bound(est.table, est.envelope, u), est.tail_delta)]
    for h, tail in est.tails_kappa.items():
        checks.append((f"module_h={h:g}",
                       moment_module_bound(est.table, est.envelope, h, u), tail))
    tables = est.tables()
    tables.update((f"bound_{label.replace('=', '_')}.csv", curve.table())
                  for label, curve, _ in checks)
    report = {"process": spec.kind, "seed": config.seed, "n_paths": len(est.bundle),
              "triple_grid": triple_grid(est.table, config)}
    return _run(report, checks, strict, tables)


def simulate(spec: sim.ProcessSpec, config: sim.SimConfig, u_grid=None, beta_grid=None,
             write_paths: bool = False) -> Run:
    """``estimate``, summarized in ``summary.json``: nu, G(1), the threshold
    grid and, given ``beta_grid``, the boundary functionals at those endpoint
    window widths (also ``boundary.csv``).  ``write_paths`` adds the paths as
    ``paths.csv``.  Nothing is checked, so the exit code is 0."""
    est = estimate(spec, config, u_grid)
    bundle = est.bundle
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
                               [np.arange(len(bundle))] + list(bundle.values.T))
    return Run(summary, tables, "summary.json")


def clt(spec: sim.ProcessSpec, config: sim.SimConfig, n_list, t_marks, u_grid=None,
        strict: bool = False) -> Run:
    """Estimate the summand's nu and G, then check the Rosenthal-scaled bounds
    against the tails of normalized sums of n summands for each n in
    ``n_list``: the global statistic once per n, and the module at every
    span in ``config.h_grid``, all from one seed stream.  The largest
    sum's marginal at each time in ``t_marks`` (in [0, 1], and not the same
    on every path) gets an Anderson-Darling test at level 1%."""
    from scipy.stats import anderson  # loaded only by this command

    if not all(0.0 <= tm <= 1.0 for tm in t_marks):
        raise ValueError(f"t_marks must lie in [0, 1], got {list(t_marks)}")
    rng = np.random.default_rng(config.seed)
    table, envelope = _moments(sim.generate_paths(spec, config, rng=rng), config)
    bundles = {n: sim.partial_sum_paths(spec, n, config, rng=rng) for n in n_list}
    stats = {n: b.global_stats() for n, b in bundles.items()}
    if u_grid is None:
        u_grid = sim.quantile_u_grid(np.concatenate(list(stats.values())), config.u_points)
    curves = {h: clt_bounds(table, envelope, h, u_grid) for h in config.h_grid}
    gcurve = curves[config.h_grid[0]][0]  # the same at every span
    module = {h: mcurve for h, (_, mcurve) in curves.items()}
    tail = lambda s: sim.empirical_tail(s, u_grid, config.confidence)
    checks = []
    for n, b in bundles.items():
        checks.append((f"global_n={n}", gcurve, tail(stats[n])))
        checks += [(f"module_n={n}_h={h:g}", curve, tail(b.module_stats(h)))
                   for h, curve in module.items()]

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
    # the first span's column keeps its name; each further span adds one
    names = ["module_bound"] + [f"module_bound_h={h:g}" for h in config.h_grid[1:]]
    tables = {"clt_bounds.csv": (["u", "global_bound", *names],
                                 [u_grid, gcurve.probs, *(c.probs for c in module.values())])}
    return _run(report, checks, strict, tables)
