"""Command-line front end.

Subcommands
-----------
kappa      path statistics: span-constrained module and global statistic
bound      evaluate any tail-bound by name
entropy    covering numbers and metric entropy of [0,1] under a pair function
conjugate  convex (Young-Fenchel) conjugate of a tabulated function
simulate   seeded path generation plus empirical estimation
verify     full pipeline: simulate, estimate, bound, check domination
clt        normalized partial-sum experiments with uniform envelopes

Flags override values from an optional JSON config file (``--config``); a run
with identical flags, config and seed writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
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
    """Grid spec: either 'lo:hi:n' (log-spaced) or a comma list."""
    if ":" in spec:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if lo <= 0 or hi <= lo:
            raise ValueError("log grid needs 0 < lo < hi")
        return np.logspace(np.log10(lo), np.log10(hi), n)
    return np.array([float(x) for x in spec.split(",")])


def _parse_floats(spec: str) -> list[float]:
    return [float(x) for x in spec.split(",")]


def _g_function(ns) -> GFunction:
    if getattr(ns, "g_file", None):
        t, v = tio.read_two_columns(ns.g_file)
        return GFunction(t, v)
    slope = ns.g_slope if getattr(ns, "g_slope", None) is not None else 1.0
    return GFunction.linear(slope)


def _merge_config(ns: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    cfg = {}
    if getattr(ns, "config", None):
        cfg = json.loads(Path(ns.config).read_text())
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a flat JSON object")
    for key, fallback in defaults.items():
        if getattr(ns, key, None) is None:
            setattr(ns, key, cfg.get(key, fallback))
    return ns


def _process_spec(ns) -> sim.ProcessSpec:
    return sim.ProcessSpec(
        kind=ns.process,
        rate=float(ns.rate),
        jump_scale=float(ns.jump_scale),
        scale=float(ns.scale),
        sample_size=int(ns.sample_size),
        grid_size=int(ns.grid),
    )


def _sim_config(ns) -> sim.SimConfig:
    return sim.SimConfig(
        n_paths=int(ns.paths),
        seed=int(ns.seed),
        p_grid=np.array(_parse_floats(ns.p_grid)) if isinstance(ns.p_grid, str) else ns.p_grid,
        u_points=int(ns.u_points),
        h_grid=tuple(_parse_floats(ns.h)) if isinstance(ns.h, str) else tuple(ns.h),
        confidence=float(ns.confidence),
        triple_stride=None if ns.stride in (None, "auto") else int(ns.stride),
    )


_SIM_DEFAULTS = {
    "u_grid": None,
    "process": "compound-poisson",
    "rate": 5.0,
    "jump_scale": 1.0,
    "scale": 1.0,
    "sample_size": 16,
    "grid": 64,
    "paths": 10_000,
    "seed": 0,
    "p_grid": "2,4,8,16,32",
    "u_points": 20,
    "h": "0.05,0.1",
    "confidence": 0.99,
    "stride": "auto",
}


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--process", choices=["compound-poisson", "poisson", "brownian",
                                         "empirical", "uniform-jump"])
    p.add_argument("--rate", type=float, help="jump intensity on [0,1]")
    p.add_argument("--jump-scale", type=float, help="std of centered Gaussian jump sizes")
    p.add_argument("--scale", type=float, help="diffusion scale")
    p.add_argument("--sample-size", type=int, help="draws per empirical-process path")
    p.add_argument("--grid", type=int, help="grid points on [0,1]")
    p.add_argument("--paths", type=int, help="number of simulated paths")
    p.add_argument("--seed", type=int, help="RNG seed; all randomness derives from it")
    p.add_argument("--p-grid", help="comma list of moment orders (>= 2)")
    p.add_argument("--u-points", type=int, help="thresholds in the tail grids")
    p.add_argument("--u-grid", help="explicit threshold grid (lo:hi:n or comma list); "
                                    "overrides the data-driven grid")
    p.add_argument("--h", help="comma list of module spans")
    p.add_argument("--confidence", type=float, help="one-sided binomial confidence level")
    p.add_argument("--stride", help="triple-enumeration stride or 'auto'")
    p.add_argument("--config", help="JSON file with defaults for these flags")
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
    ns = _merge_config(ns, {"delta": None, "delta_grid": None})
    if ns.path:
        t, v = tio.read_two_columns(ns.path)
        path = SampledPath(t, v)
    else:
        path = TWO_JUMP_FIXTURE
    if ns.delta_grid is not None:
        grid = _parse_grid(ns.delta_grid) if isinstance(ns.delta_grid, str) else ns.delta_grid
        vals = [ps_module(path, d) for d in grid]
        for d, x in zip(grid, vals):
            print(f"{tio.fmt(d)},{tio.fmt(x)}")
        if ns.out:
            tio.write_csv(ns.out, ["delta", "kappa"], [grid, vals])
    elif ns.delta is not None:
        for d in _parse_floats(str(ns.delta)):
            print(tio.fmt(ps_module(path, d)))
    else:
        print(tio.fmt(triple_min_sup(path)))
    return 0


def cmd_entropy(ns) -> int:
    ns = _merge_config(ns, {"grid": 1001, "gap_power": 1.0, "sigma_h": None})
    if ns.matrix:
        t, q = tio.read_matrix(ns.matrix)
        grid = SemiDistanceGrid(t, q)
    else:
        a = float(ns.gap_power)
        grid = SemiDistanceGrid.from_gap_function(lambda g: g**a, int(ns.grid))
    rows = []
    for eps in _parse_floats(ns.epsilon):
        res = covering_number(grid, eps)
        print(f"epsilon={tio.fmt(eps)} count={res.count} "
              f"entropy={tio.fmt(np.log(res.count))} exact={tio.fmt(res.exact)}")
        rows.append((eps, res.count, np.log(res.count)))
    if ns.sigma_h is not None:
        print(f"window_modulus={tio.fmt(scaled_window_modulus(grid, float(ns.sigma_h)))}")
    if ns.out:
        arr = np.array(rows)
        tio.write_csv(ns.out, ["epsilon", "count", "entropy"],
                      [arr[:, 0], arr[:, 1].astype(int), arr[:, 2]])
    return 0


def cmd_conjugate(ns) -> int:
    ns = _merge_config(ns, {"lam_max": 5.0, "points": 201, "u_grid": None})
    if ns.table:
        x, f = tio.read_two_columns(ns.table)
    else:
        x = np.linspace(-float(ns.lam_max), float(ns.lam_max), int(ns.points))
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
    defaults = {
        "alpha": 2.0, "beta": 1.0, "mode": "closed", "p": 2.0, "u": "1:100:20",
        "v": None, "h": 0.05, "b": np.inf, "c1": 1.0, "m": 1.0, "s": 0.0,
        "d": 1, "l": 0.25, "gamma": 0.5, "nu_power": None, "nu_file": None,
        "psi_power": 0.5, "psi_file": None, "g_slope": 1.0, "g_file": None, "seq_s": 0.1,
        "seq_theta": 0.6, "seq_nu": 2.0, "preset": "geometric", "r": 0.0,
        "mid": 0.25, "t": 0.5, "holder": 0.5, "rosenthal_off": False,
    }
    ns = _merge_config(ns, defaults)
    name = ns.name
    out_curve = None
    if name == "k-constant":
        print(tio.fmt(B.chaining_constant(float(ns.alpha), float(ns.beta), ns.mode)))
    elif name == "rosenthal":
        print(tio.fmt(B.rosenthal_constant(float(ns.p))))
    elif name in ("power-global", "power-module"):
        g = _g_function(ns)
        u = _parse_grid(str(ns.u))
        pair = (float(ns.alpha), float(ns.beta))
        if name == "power-global":
            out_curve = B.power_global_bound(pair, g, u, mode=ns.mode)
        else:
            out_curve = B.power_module_bound(pair, g, float(ns.h), u, mode=ns.mode)
    elif name in ("moment-global", "moment-module"):
        g = _g_function(ns)
        u = _parse_grid(str(ns.u))
        if ns.nu_file:
            nu = tuple(tio.read_two_columns(ns.nu_file))
        else:
            c, m = _parse_floats(ns.nu_power) if ns.nu_power else (1.0, 0.5)
            nu = lambda p: c * np.asarray(p, dtype=float) ** m
        if name == "moment-global":
            out_curve = B.moment_global_bound(nu, g, u, b=float(ns.b))
        else:
            out_curve = B.moment_module_bound(nu, g, float(ns.h), u, b=float(ns.b))
    elif name == "entropy-series":
        gam = float(ns.gamma)
        beta = float(ns.beta)
        covering = lambda e: e ** (-gam)
        lam = lambda x: x ** (2 * beta)
        if ns.preset == "geometric":
            pair = B.geometric_sequences(float(ns.seq_s), float(ns.seq_theta))
        elif ns.preset == "polynomial":
            pair = B.polynomial_sequences(float(ns.seq_nu))
        else:
            raise ValueError(f"unknown preset {ns.preset!r}")
        u0 = float(_parse_grid(str(ns.u))[0])
        res = B.entropy_series_bound(covering, lam, pair, u0)
        print(f"value={tio.fmt(res.value)} remainder={tio.fmt(res.remainder)} "
              f"terms={res.terms_used} pair={res.pair_label}")
    elif name == "exp-envelope":
        g = _g_function(ns)
        u0 = float(_parse_grid(str(ns.u))[0])
        env = B.exp_tail_envelopes(float(ns.c1), float(ns.m), g, float(ns.h), u0)
        print(f"delta={tio.fmt(env.delta_value)} kappa={tio.fmt(env.kappa_value)} "
              f"c2={tio.fmt(env.c2)} c3={tio.fmt(env.c3)} "
              f"delta_in_range={tio.fmt(env.delta_in_range)} "
              f"kappa_in_range={tio.fmt(env.kappa_in_range)}")
    elif name == "min-tail-2d":
        u0 = float(_parse_grid(str(ns.u))[0])
        v0 = float(ns.v) if ns.v is not None else u0
        # independent uniforms demo moment: E|x|^p1 |y|^p2 = 1/((p1+1)(p2+1))
        moment = lambda p1, p2: 1.0 / ((p1 + 1.0) * (p2 + 1.0))
        res = B.min_tail_2d(moment, u0, v0)
        print(f"value={tio.fmt(res.value)} p1={tio.fmt(res.p1)} p2={tio.fmt(res.p2)}")
    elif name == "min-tail-fenchel":
        if ns.psi_file:
            grid, vals = tio.read_two_columns(ns.psi_file)
            psi = PsiFunction(grid, vals, b=np.inf)
        else:
            a = float(ns.psi_power)
            psi = PsiFunction.from_callable(lambda p: p**a, b=np.inf, p_max=64.0)
        u0 = float(_parse_grid(str(ns.u))[0])
        res = B.min_tail_fenchel(psi, int(ns.d), u0)
        print(f"value={tio.fmt(res.value)} p={tio.fmt(res.p_star)} "
              f"at_edge={tio.fmt(res.at_edge)}")
    elif name == "pizier":
        a = float(ns.holder)
        d2p = lambda p, x, y: abs(x - y) ** a
        u0 = float(_parse_grid(str(ns.u))[0])
        val, p_star = B.pizier_min_bound(d2p, float(ns.r), float(ns.mid), float(ns.t), u0)
        print(f"value={tio.fmt(val)} p={tio.fmt(p_star)}")
    elif name == "factored-module":
        v = _g_function(ns)
        u0 = float(_parse_grid(str(ns.u))[0])
        term = B.factored_module_term(lambda p: 1.0, v, float(ns.l), float(ns.p),
                                      float(ns.h), u0)
        print(f"term={tio.fmt(term)}")
        val, p_star = B.factored_module_bound(lambda p: 1.0, v, float(ns.l),
                                              float(ns.b), float(ns.h), u0)
        print(f"value={tio.fmt(val)} p={tio.fmt(p_star)}")
    elif name in ("clt", "clt-envelope"):
        g = _g_function(ns)
        if name == "clt":
            c, m = _parse_floats(ns.nu_power) if ns.nu_power else (1.0, 0.5)
            y = lambda p: c * np.asarray(p, dtype=float) ** m
            u = _parse_grid(str(ns.u))
            gc, mc = B.clt_bounds(y, g, float(ns.h), u, b=float(ns.b),
                                  rosenthal=not ns.rosenthal_off)
            for uu, gg, mm in zip(u, gc.probs, mc.probs):
                print(f"{tio.fmt(uu)},{tio.fmt(gg)},{tio.fmt(mm)}")
            if ns.out:
                tio.write_csv(ns.out, ["u", "global_bound", "module_bound"],
                              [u, gc.probs, mc.probs])
            return 0
        u0 = float(_parse_grid(str(ns.u))[0])
        env = B.clt_exp_envelope(float(ns.c1), float(ns.m), float(ns.s), g,
                                 float(ns.h), u0)
        print(f"delta={tio.fmt(env.delta_value)} kappa={tio.fmt(env.kappa_value)} "
              f"c2={tio.fmt(env.c2)} c3={tio.fmt(env.c3)}")
    else:
        raise ValueError(f"unknown bound name {name!r}")
    if out_curve is not None:
        for uu, pp, par in zip(out_curve.thresholds, out_curve.probs, out_curve.params):
            print(f"{tio.fmt(uu)},{tio.fmt(pp)},{par}")
        if ns.out:
            tio.write_csv(ns.out, ["u", "bound", "param"],
                          [out_curve.thresholds, out_curve.probs,
                           np.array([str(p) for p in out_curve.params])])
    return 0


def cmd_simulate(ns) -> int:
    ns = _merge_config(ns, {**_SIM_DEFAULTS, "beta_grid": None})
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
    ns = _merge_config(ns, {**_SIM_DEFAULTS, "strict": False})
    return _finish(ns, pipeline.verify(*_run_inputs(ns), strict=bool(ns.strict)))


def cmd_clt(ns) -> int:
    ns = _merge_config(ns, {**_SIM_DEFAULTS, "n": "1,4,64", "t_marks": "0.25,0.5,0.75",
                            "strict": False})
    spec, config, u_grid = _run_inputs(ns)
    n_list = [int(x) for x in str(ns.n).split(",")]
    t_marks = _parse_floats(str(ns.t_marks))
    return _finish(ns, pipeline.clt(spec, config, n_list, t_marks, u_grid,
                                    strict=bool(ns.strict)))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skorotail",
        description="Regularity statistics and tail bounds for step paths on [0,1].",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("kappa", help="span-constrained module and global statistic "
                                     "of a step path")
    p.add_argument("--path", help="two-column (time, value) file")
    p.add_argument("--fixture", choices=["two-jump"], help="built-in demo path")
    p.add_argument("--delta", help="comma list of span constraints")
    p.add_argument("--delta-grid", help="grid spec lo:hi:n or comma list")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("bound", help="evaluate a tail bound by name")
    p.add_argument("name", choices=[
        "k-constant", "rosenthal", "power-global", "power-module",
        "moment-global", "moment-module", "entropy-series", "exp-envelope",
        "min-tail-2d", "min-tail-fenchel", "pizier", "factored-module",
        "clt", "clt-envelope",
    ])
    p.add_argument("--alpha", type=float, help="power-bound exponent alpha > 1")
    p.add_argument("--beta", type=float, help="power-bound exponent beta > 0")
    p.add_argument("--mode", choices=["closed", "optimized"])
    p.add_argument("--p", type=float, help="moment order")
    p.add_argument("--u", help="threshold (or grid spec for curve bounds)")
    p.add_argument("--v", type=float, help="second threshold (joint bounds)")
    p.add_argument("--h", type=float, help="module span")
    p.add_argument("--b", type=float, help="upper moment-order support")
    p.add_argument("--c1", type=float, help="moment-growth coefficient")
    p.add_argument("--m", type=float, help="moment-growth power")
    p.add_argument("--s", type=float, help="moment-growth log power")
    p.add_argument("--d", type=int, help="number of jointly small variables")
    p.add_argument("--l", type=float, help="factored-distance exponent")
    p.add_argument("--gamma", type=float, help="covering-number power N = eps^-gamma")
    p.add_argument("--preset", choices=["geometric", "polynomial"])
    p.add_argument("--seq-s", type=float, help="geometric scale ratio")
    p.add_argument("--seq-theta", type=float, help="geometric weight ratio")
    p.add_argument("--seq-nu", type=float, help="polynomial weight power")
    p.add_argument("--nu-power", help="c,m for nu(p) = c p^m")
    p.add_argument("--nu-file", help="two-column (p, nu) table")
    p.add_argument("--psi-power", type=float, help="a for psi(p) = p^a")
    p.add_argument("--psi-file", help="two-column (p, psi) table")
    p.add_argument("--g-slope", type=float, help="linear envelope slope")
    p.add_argument("--g-file", help="two-column (t, G) envelope table")
    p.add_argument("--r", type=float, help="left time of a triple")
    p.add_argument("--mid", type=float, help="middle time of a triple")
    p.add_argument("--t", type=float, help="right time of a triple")
    p.add_argument("--holder", type=float, help="increment-norm gap power")
    p.add_argument("--rosenthal-off", action="store_true", default=None,
                   help="drop the iid-sum factor (plain moment bound)")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("entropy", help="covering numbers of [0,1] under a pair function")
    p.add_argument("--epsilon", required=True, help="comma list of radii")
    p.add_argument("--gap-power", type=float, help="q(r,t) = |r-t|^a")
    p.add_argument("--matrix", help="dense matrix file with time header row")
    p.add_argument("--grid", type=int, help="grid resolution")
    p.add_argument("--sigma-h", type=float, help="also print the scaled window modulus")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("conjugate", help="convex conjugate of a tabulated function")
    p.add_argument("--table", help="two-column (x, f) file; default quadratic demo")
    p.add_argument("--lam-max", type=float, help="demo table half-width")
    p.add_argument("--points", type=int, help="demo table size")
    p.add_argument("--u-grid", help="grid spec lo:hi:n or comma list")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_conjugate)

    for name, fn, extra in (
        ("simulate", cmd_simulate, "generate paths and estimate tails/moments"),
        ("verify", cmd_verify, "simulate, bound, and check tail domination"),
        ("clt", cmd_clt, "partial-sum experiments with uniform envelopes"),
    ):
        p = sub.add_parser(name, help=extra)
        _add_sim_flags(p)
        if name == "simulate":
            p.add_argument("--write-paths", action="store_true",
                           help="also dump the simulated paths matrix")
            p.add_argument("--beta-grid", help="comma list of endpoint-window "
                                               "widths for boundary functionals")
        if name in ("verify", "clt"):
            p.add_argument("--strict", action="store_true", default=None,
                           help="fail thresholds with zero exceedances too")
        if name == "clt":
            p.add_argument("--n", help="comma list of summand counts")
            p.add_argument("--t-marks", help="comma list of marginal times to test")
        p.set_defaults(func=fn)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        return ns.func(ns)
    except B.BoundUnavailable as e:
        print(f"bound unavailable: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
