"""Command-line front end.

Subcommands
-----------
kappa      path statistics: span-constrained module and global statistic
bound      evaluate a constant, tail bound or envelope by name
entropy    covering numbers and metric entropy of [0,1] under a pair function
conjugate  convex (Young-Fenchel) conjugate of a tabulated function
simulate   seeded path generation plus empirical estimation
verify     full pipeline: simulate, estimate, bound, check domination
clt        normalized partial-sum experiments with uniform envelopes

Every flag's type, default and choices live in the parser.  A flat JSON
config file (``--config``) is read as flags placed before the command line's
own: key ``k`` with value ``v`` is ``--k=v``, a list is its comma-joined items,
``true`` is the bare flag and ``false`` adds nothing; keys that are not flags
of the command are skipped, and every value is checked as its flag is.  A run
with identical flags, config and seed writes byte-identical outputs.  Invalid
input exits 2, and an entropy series that diverges exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as B
from . import io as tio
from . import pipeline
from . import simulate as sim
from .entropy import SemiDistanceGrid, covering_number, scaled_window_modulus
from .gls import PsiFunction, young_fenchel
from .paths import GFunction, SampledPath, ps_module, triple_min_sup

TWO_JUMP_FIXTURE = SampledPath(
    np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 1.0, 2.0, 2.0])
)


def _parse_grid(spec: str) -> np.ndarray:
    """Grid spec: 'lo:hi:n' (log-spaced), or a comma list."""
    if ":" in spec:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if lo <= 0 or hi <= lo:
            raise ValueError("log grid needs 0 < lo < hi")
        return np.logspace(np.log10(lo), np.log10(hi), n)
    return np.array(_parse_floats(spec))


def _parse_floats(spec: str) -> list[float]:
    return [float(x) for x in spec.split(",")]


def _g_function(ns) -> GFunction:
    if ns.g_file:
        t, v = tio.read_two_columns(ns.g_file)
        return GFunction(t, v)
    return GFunction.linear(ns.g_slope)


def _nu_function(ns):
    """The moment function the bounds take: a (p, nu) table from ``--nu-file``,
    or nu(p) = c p^m from ``--nu-power c,m``."""
    if ns.nu_file:
        return tuple(tio.read_two_columns(ns.nu_file))
    c, m = _parse_floats(ns.nu_power)
    return lambda p: c * np.asarray(p, dtype=float) ** m


def _config_flags(ns) -> list[str]:
    """The ``--config`` file as flags of the parsed command ``ns``."""
    cfg = json.loads(Path(ns.config).read_text())
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a flat JSON object")
    flags = []
    for key, value in cfg.items():
        if key not in vars(ns) or key in ("cmd", "func", "name", "config"):
            continue
        flag = "--" + key.replace("_", "-")
        if value is None or isinstance(value, dict):
            raise ValueError(f"config key {key!r} needs a number, string, list or "
                             f"boolean, got {json.dumps(value)}")
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if value is True:
            flags.append(flag)
        elif value is not False:
            flags.append(f"{flag}={value}")
    return flags


def _process_spec(ns) -> sim.ProcessSpec:
    return sim.ProcessSpec(
        kind=ns.process,
        rate=ns.rate,
        jump_scale=ns.jump_scale,
        scale=ns.scale,
        sample_size=ns.sample_size,
        grid_size=ns.grid,
    )


def _sim_config(ns) -> sim.SimConfig:
    return sim.SimConfig(
        n_paths=ns.paths,
        seed=ns.seed,
        p_grid=np.array(_parse_floats(ns.p_grid)),
        u_points=ns.u_points,
        h_grid=tuple(_parse_floats(ns.h)),
        confidence=ns.confidence,
        triple_stride=ns.stride,
    )


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--process", default="compound-poisson",
                   choices=["compound-poisson", "poisson", "brownian", "empirical",
                            "uniform-jump"], help="process to simulate")
    p.add_argument("--rate", type=float, default=5.0, help="jump intensity on [0,1]")
    p.add_argument("--jump-scale", type=float, default=1.0,
                   help="std of centered Gaussian jump sizes")
    p.add_argument("--scale", type=float, default=1.0, help="diffusion scale")
    p.add_argument("--sample-size", type=int, default=16,
                   help="draws per empirical-process path")
    p.add_argument("--grid", type=int, default=64, help="grid points on [0,1]")
    p.add_argument("--paths", type=int, default=10_000, help="number of simulated paths")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed; all randomness derives from it")
    p.add_argument("--p-grid", default="2,4,8,16,32",
                   help="comma list of moment orders (>= 2)")
    p.add_argument("--u-points", type=int, default=20, help="thresholds in the tail grids")
    p.add_argument("--u-grid", help="explicit threshold grid (lo:hi:n or comma list); "
                                    "overrides the data-driven grid")
    p.add_argument("--h", default="0.05,0.1", help="comma list of module spans")
    p.add_argument("--confidence", type=float, default=0.99,
                   help="one-sided binomial confidence level")
    p.add_argument("--stride", type=int, default=1,
                   help="triple-enumeration stride; 1 is the full grid")
    p.add_argument("--config", help="JSON file of flag values; the command line wins")
    p.add_argument("--out", help="output directory")


def _run_inputs(ns):
    """The process, run parameters and explicit threshold grid (or None)."""
    u_grid = _parse_grid(ns.u_grid) if ns.u_grid else None
    return _process_spec(ns), _sim_config(ns), u_grid


def _finish(ns, run: pipeline.Run) -> int:
    if ns.out:
        run.write(ns.out)
    print(json.dumps(tio._jsonable(run.report), sort_keys=True))
    return run.exit_code


def cmd_kappa(ns) -> int:
    if ns.path:
        t, v = tio.read_two_columns(ns.path)
        path = SampledPath(t, v)
    else:
        path = TWO_JUMP_FIXTURE
    if ns.delta_grid is not None:
        grid = _parse_grid(ns.delta_grid)
        vals = [ps_module(path, d) for d in grid]
        for d, x in zip(grid, vals):
            print(f"{tio.fmt(d)},{tio.fmt(x)}")
        if ns.out:
            tio.write_csv(ns.out, ["delta", "kappa"], [grid, vals])
    elif ns.delta is not None:
        for d in _parse_floats(ns.delta):
            print(tio.fmt(ps_module(path, d)))
    else:
        print(tio.fmt(triple_min_sup(path)))
    return 0


def cmd_entropy(ns) -> int:
    if ns.matrix:
        t, q = tio.read_matrix(ns.matrix)
        grid = SemiDistanceGrid(t, q)
    else:
        grid = SemiDistanceGrid.from_gap_function(lambda g: g**ns.gap_power, ns.grid)
    rows = []
    for eps in _parse_floats(ns.epsilon):
        res = covering_number(grid, eps)
        print(f"epsilon={tio.fmt(eps)} count={res.count} "
              f"entropy={tio.fmt(np.log(res.count))} exact={tio.fmt(res.exact)}")
        rows.append((eps, res.count, np.log(res.count)))
    if ns.sigma_h is not None:
        print(f"window_modulus={tio.fmt(scaled_window_modulus(grid, ns.sigma_h))}")
    if ns.out:
        arr = np.array(rows)
        tio.write_csv(ns.out, ["epsilon", "count", "entropy"],
                      [arr[:, 0], arr[:, 1].astype(int), arr[:, 2]])
    return 0


def cmd_conjugate(ns) -> int:
    if ns.table:
        x, f = tio.read_two_columns(ns.table)
    else:
        x = np.linspace(-ns.lam_max, ns.lam_max, ns.points)
        f = 0.5 * x**2
    u = _parse_grid(ns.u_grid) if ns.u_grid else None
    us, fs = young_fenchel(x, f, u)
    if ns.out:
        tio.write_csv(ns.out, ["u", "conjugate"], [us, fs])
    else:
        for a, b in zip(us, fs):
            print(f"{tio.fmt(a)},{tio.fmt(b)}")
    return 0


def cmd_bound(ns) -> int:
    name = ns.name
    out_curve = env = None
    if name == "k-constant":
        print(tio.fmt(B.chaining_constant(ns.alpha, ns.beta, ns.mode)))
    elif name == "rosenthal":
        print(tio.fmt(B.rosenthal_constant(ns.p)))
    elif name in ("power-global", "power-module"):
        g = _g_function(ns)
        u = _parse_grid(ns.u)
        pair = (ns.alpha, ns.beta)
        if name == "power-global":
            out_curve = B.power_global_bound(pair, g, u, mode=ns.mode)
        else:
            out_curve = B.power_module_bound(pair, g, ns.h, u, mode=ns.mode)
    elif name in ("moment-global", "moment-module"):
        g = _g_function(ns)
        u = _parse_grid(ns.u)
        nu = _nu_function(ns)
        if name == "moment-global":
            out_curve = B.moment_global_bound(nu, g, u, b=ns.b)
        else:
            out_curve = B.moment_module_bound(nu, g, ns.h, u, b=ns.b)
    elif name == "entropy-series":
        covering = lambda e: e ** (-ns.gamma)
        lam = lambda x: x ** (2 * ns.beta)
        if ns.preset == "geometric":
            pair = B.geometric_sequences(ns.seq_s, ns.seq_theta)
        else:
            pair = B.polynomial_sequences(ns.seq_nu)
        u0 = float(_parse_grid(ns.u)[0])
        res = B.entropy_series_bound(covering, lam, pair, u0)
        print(f"value={tio.fmt(res.value)} remainder={tio.fmt(res.remainder)} "
              f"terms={res.terms_used} pair={res.pair_label}")
    elif name == "exp-envelope":
        g = _g_function(ns)
        u0 = float(_parse_grid(ns.u)[0])
        env = B.exp_tail_envelopes(ns.c1, ns.m, g, ns.h, u0)
    elif name == "min-tail-fenchel":
        if ns.psi_file:
            grid, vals = tio.read_two_columns(ns.psi_file)
            psi = PsiFunction(grid, vals, b=np.inf)
        else:
            psi = PsiFunction.from_callable(lambda p: p**ns.psi_power, b=np.inf,
                                            p_max=64.0)
        u0 = float(_parse_grid(ns.u)[0])
        res = B.min_tail_fenchel(psi, ns.d, u0)
        print(f"value={tio.fmt(res.value)} p={tio.fmt(res.p_star)} "
              f"at_edge={tio.fmt(res.at_edge)}")
    else:  # clt, clt-envelope
        g = _g_function(ns)
        if name == "clt":
            u = _parse_grid(ns.u)
            gc, mc = B.clt_bounds(_nu_function(ns), g, ns.h, u, b=ns.b)
            for uu, gg, mm in zip(u, gc.probs, mc.probs):
                print(f"{tio.fmt(uu)},{tio.fmt(gg)},{tio.fmt(mm)}")
            if ns.out:
                tio.write_csv(ns.out, ["u", "global_bound", "module_bound"],
                              [u, gc.probs, mc.probs])
            return 0
        u0 = float(_parse_grid(ns.u)[0])
        env = B.clt_exp_envelope(ns.c1, ns.m, ns.s, g, ns.h, u0)
    if env is not None:
        print(f"delta={tio.fmt(env.delta_value)} kappa={tio.fmt(env.kappa_value)} "
              f"c2={tio.fmt(env.c2)} c3={tio.fmt(env.c3)} "
              f"delta_in_range={tio.fmt(env.delta_in_range)} "
              f"kappa_in_range={tio.fmt(env.kappa_in_range)}")
    if out_curve is not None:
        for uu, pp, par in zip(out_curve.thresholds, out_curve.probs, out_curve.params):
            print(f"{tio.fmt(uu)},{tio.fmt(pp)},{tio._csv_field(str(par))}")
        if ns.out:
            tio.write_csv(ns.out, *out_curve.table())
    return 0


def cmd_simulate(ns) -> int:
    spec, config, u_grid = _run_inputs(ns)
    est = pipeline.estimate(spec, config, u_grid)
    bundle = est.bundle
    summary = {
        "process": spec.kind,
        "n_paths": len(bundle),
        "grid_size": spec.grid_size,
        "seed": config.seed,
        "nu": {tio.fmt(p): v for p, v in zip(est.table.p_grid, est.table.values)},
        "g_total": est.envelope.total,
        "u_grid": list(est.u_grid),
        "triple_grid": pipeline.triple_grid(est.table, config),
    }
    boundary = None
    if ns.beta_grid:
        betas = np.array(_parse_floats(ns.beta_grid))
        boundary = sim.boundary_functionals(bundle, betas)
        summary["boundary"] = {
            "beta": list(betas),
            "z0": list(boundary.z0),
            "z1": list(boundary.z1),
            "z0_vanishing": boundary.z0_vanishing,
            "z1_vanishing": boundary.z1_vanishing,
        }
    if ns.out:
        outdir = Path(ns.out)
        est.write(outdir)
        if boundary is not None:
            tio.write_csv(outdir / "boundary.csv", ["beta", "z0", "z1"],
                          [boundary.beta_grid, boundary.z0, boundary.z1])
        if ns.write_paths:
            ids = np.arange(len(bundle))
            tio.write_csv(
                outdir / "paths.csv",
                ["path_id"] + [tio.fmt(t) for t in bundle.times],
                [ids] + [bundle.values[:, j] for j in range(bundle.times.size)],
            )
        tio.write_json(outdir / "summary.json", summary)
    print(json.dumps(tio._jsonable(summary), sort_keys=True))
    return 0


def cmd_verify(ns) -> int:
    return _finish(ns, pipeline.verify(*_run_inputs(ns), strict=ns.strict))


def cmd_clt(ns) -> int:
    spec, config, u_grid = _run_inputs(ns)
    n_list = _parse_floats(ns.n)
    if not all(x.is_integer() and x >= 1 for x in n_list):
        raise ValueError(f"n must be positive integers, got {ns.n!r}")
    n_list = [int(x) for x in n_list]
    t_marks = _parse_floats(ns.t_marks)
    return _finish(ns, pipeline.clt(spec, config, n_list, t_marks, u_grid,
                                    strict=ns.strict))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skorotail",
        description="Regularity statistics and tail bounds for step paths on [0,1].",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    add = functools.partial(sub.add_parser,
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = add("kappa", help="span-constrained module and global statistic of a step path")
    p.add_argument("--path", help="two-column (time, value) file")
    p.add_argument("--delta", help="comma list of span constraints")
    p.add_argument("--delta-grid", help="grid spec lo:hi:n or comma list")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kappa)

    p = add("bound", help="evaluate a tail bound by name")
    p.add_argument("name", choices=[
        "k-constant", "rosenthal", "power-global", "power-module",
        "moment-global", "moment-module", "entropy-series", "exp-envelope",
        "min-tail-fenchel", "clt", "clt-envelope",
    ])
    p.add_argument("--alpha", type=float, default=2.0,
                   help="power-bound exponent alpha > 1")
    p.add_argument("--beta", type=float, default=1.0, help="power-bound exponent beta > 0")
    p.add_argument("--mode", default="closed", choices=["closed", "optimized"],
                   help="chaining-constant form")
    p.add_argument("--p", type=float, default=2.0, help="moment order")
    p.add_argument("--u", default="1:100:20",
                   help="threshold (or grid spec for curve bounds)")
    p.add_argument("--h", type=float, default=0.05, help="module span")
    p.add_argument("--b", type=float, default=np.inf, help="upper moment-order support")
    p.add_argument("--c1", type=float, default=1.0, help="moment-growth coefficient")
    p.add_argument("--m", type=float, default=1.0, help="moment-growth power")
    p.add_argument("--s", type=float, default=0.0, help="moment-growth log power")
    p.add_argument("--d", type=int, default=1, help="number of jointly small variables")
    p.add_argument("--gamma", type=float, default=0.5,
                   help="covering-number power N = eps^-gamma")
    p.add_argument("--preset", default="geometric", choices=["geometric", "polynomial"],
                   help="entropy-series sequence pair")
    p.add_argument("--seq-s", type=float, default=0.1, help="geometric scale ratio")
    p.add_argument("--seq-theta", type=float, default=0.6, help="geometric weight ratio")
    p.add_argument("--seq-nu", type=float, default=2.0, help="polynomial weight power")
    p.add_argument("--nu-power", default="1,0.5", help="c,m for nu(p) = c p^m")
    p.add_argument("--nu-file", help="two-column (p, nu) table")
    p.add_argument("--psi-power", type=float, default=0.5, help="a for psi(p) = p^a")
    p.add_argument("--psi-file", help="two-column (p, psi) table")
    p.add_argument("--g-slope", type=float, default=1.0, help="linear envelope slope")
    p.add_argument("--g-file", help="two-column (t, G) envelope table")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = add("entropy", help="covering numbers of [0,1] under a pair function")
    p.add_argument("--epsilon", required=True, help="comma list of radii")
    p.add_argument("--gap-power", type=float, default=1.0, help="q(r,t) = |r-t|^a")
    p.add_argument("--matrix", help="dense matrix file with time header row")
    p.add_argument("--grid", type=int, default=1001, help="grid resolution")
    p.add_argument("--sigma-h", type=float, help="also print the scaled window modulus")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_entropy)

    p = add("conjugate", help="convex conjugate of a tabulated function")
    p.add_argument("--table", help="two-column (x, f) file; default quadratic demo")
    p.add_argument("--lam-max", type=float, default=5.0, help="demo table half-width")
    p.add_argument("--points", type=int, default=201, help="demo table size")
    p.add_argument("--u-grid", help="grid spec lo:hi:n or comma list")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_conjugate)

    for name, fn, extra in (
        ("simulate", cmd_simulate, "generate paths and estimate tails/moments"),
        ("verify", cmd_verify, "simulate, bound, and check tail domination"),
        ("clt", cmd_clt, "partial-sum experiments with uniform envelopes"),
    ):
        p = add(name, help=extra)
        _add_sim_flags(p)
        if name == "simulate":
            p.add_argument("--write-paths", action="store_true",
                           help="also dump the simulated paths matrix")
            p.add_argument("--beta-grid", help="comma list of endpoint-window "
                                               "widths for boundary functionals")
        if name in ("verify", "clt"):
            p.add_argument("--strict", action="store_true",
                           help="fail thresholds with zero exceedances too")
        if name == "clt":
            p.add_argument("--n", default="1,4,64", help="comma list of summand counts")
            p.add_argument("--t-marks", default="0.25,0.5,0.75",
                           help="comma list of marginal times to test")
        p.set_defaults(func=fn)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = ap.parse_args(argv)
    try:
        if ns.config:
            ns = ap.parse_args(argv[:1] + _config_flags(ns) + argv[1:])
        return ns.func(ns)
    except B.BoundUnavailable as e:
        print(f"bound unavailable: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
