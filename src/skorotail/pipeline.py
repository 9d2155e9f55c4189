"""The experiment, simulate -> estimate -> bound -> check, behind the CLI's
``simulate`` (``estimate``), ``verify`` and ``clt`` subcommands.

Each check compares a moment bound with the exact-binomial upper confidence
envelope of the simulated tail it bounds (``simulate.domination_report``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.stats import anderson

from . import io as tio
from . import simulate as sim
from .bounds import clt_bounds, moment_global_bound, moment_module_bound
from .paths import GFunction

__all__ = ["Estimation", "Run", "estimate", "verify", "clt", "triple_grid"]


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

    def write(self, outdir) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        tio.write_csv(outdir / "moments.csv", ["p", "nu"], [self.table.p_grid, self.table.values])
        tio.write_matrix(outdir / "pair_norms.csv", self.table.pair_times, self.table.pair_norms)
        tio.write_csv(outdir / "envelope.csv", ["t", "G"],
                      [self.envelope.times, self.envelope.values])
        tails = {"tail_delta.csv": self.tail_delta}
        tails.update((f"tail_kappa_{h:g}.csv", est) for h, est in self.tails_kappa.items())
        for name, est in tails.items():
            tio.write_csv(outdir / name, ["u", "frequency", "upper_confidence"],
                          [est.thresholds, est.freqs, est.upper])


@dataclass(frozen=True)
class Run:
    """A checked run: the ``report.json`` dict, with one entry per check
    under ``checks``, and what ``write`` puts next to it: CSV tables (name ->
    (header, columns)) and the estimation, if any."""

    report: dict
    tables: dict
    estimation: Optional[Estimation] = None

    @property
    def exit_code(self) -> int:
        return 0 if self.report["overall_pass"] else 1

    def write(self, outdir) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        if self.estimation is not None:
            self.estimation.write(outdir)
        for name, (header, columns) in self.tables.items():
            tio.write_csv(outdir / name, header, columns)
        tio.write_json(outdir / "report.json", self.report)


def triple_grid(table: sim.MomentTable, config: sim.SimConfig) -> dict:
    """The grid the triple moments, hence nu and G, are certified on."""
    return {"points": int(table.pair_times.size), "stride": config.triple_stride}


def _moments(bundle: sim.PathBundle, config: sim.SimConfig):
    table = sim.estimate_triple_moments(bundle, config.p_grid, stride=config.triple_stride)
    return table, sim.fit_g_envelope(table.pair_times, table.pair_norms)


def _run(report: dict, checks, strict: bool, tables: dict, estimation=None) -> Run:
    """Check each (label, bound, tail) and finish the report with the verdicts."""
    entries = [sim.domination_report(bound, tail, strict, label) for label, bound, tail in checks]
    report = {**report, "overall_pass": all(e["overall_pass"] for e in entries), "checks": entries}
    return Run(report, tables, estimation)


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
    tables = {f"bound_{label.replace('=', '_')}.csv": curve.table() for label, curve, _ in checks}
    report = {"process": spec.kind, "seed": config.seed, "n_paths": len(est.bundle),
              "triple_grid": triple_grid(est.table, config)}
    return _run(report, checks, strict, tables, est)


def clt(spec: sim.ProcessSpec, config: sim.SimConfig, n_list, t_marks, u_grid=None,
        strict: bool = False) -> Run:
    """Estimate the summand's nu and G, then check the Rosenthal-scaled bounds
    (span ``config.h_grid[0]``) against the tails of normalized sums of n
    summands for each n in ``n_list``, all from one seed stream.  The largest
    sum's marginal at each time in ``t_marks`` gets an Anderson-Darling test
    at level 1%."""
    rng = np.random.default_rng(config.seed)
    table, envelope = _moments(sim.generate_paths(spec, config, rng=rng), config)
    bundles = {n: sim.partial_sum_paths(spec, n, config, rng=rng) for n in n_list}
    stats = {n: b.global_stats() for n, b in bundles.items()}
    if u_grid is None:
        u_grid = sim.quantile_u_grid(np.concatenate(list(stats.values())), config.u_points)
    h = config.h_grid[0]
    gcurve, mcurve = clt_bounds(table, envelope, h, u_grid)
    tail = lambda s: sim.empirical_tail(s, u_grid, config.confidence)
    checks = []
    for n, b in bundles.items():
        checks += [(f"global_n={n}", gcurve, tail(stats[n])),
                   (f"module_n={n}_h={h:g}", mcurve, tail(b.module_stats(h)))]

    n_big = max(n_list)
    vb = bundles[n_big]
    normality = {}
    for tm in t_marks:
        col = int(np.searchsorted(vb.times, tm, side="right")) - 1
        # the interpolated p-value floors at exactly 0.01, hence <=
        res = anderson(vb.values[:, col], dist="norm", method="interpolate")
        normality[tio.fmt(tm)] = {
            "statistic": float(res.statistic),
            "pvalue": float(res.pvalue),
            "rejected_at_1pct": bool(res.pvalue <= 0.01),
        }
    report = {"process": spec.kind, "seed": config.seed, "n_list": n_list,
              "normality_n": n_big, "normality": normality}
    tables = {"clt_bounds.csv": (["u", "global_bound", "module_bound"],
                                 [u_grid, gcurve.probs, mcurve.probs])}
    return _run(report, checks, strict, tables)
