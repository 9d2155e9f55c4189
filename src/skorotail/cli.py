"""Command-line front end.

Subcommands
-----------
kappa      path statistics: span-constrained module and global statistic
bound      evaluate a constant, tail bound or envelope by name
           (``bound <name>`` takes only the flags that name reads)
entropy    covering numbers and metric entropy of [0,1] under a pair function
conjugate  convex (Young-Fenchel) conjugate of a tabulated function
simulate   seeded path generation plus empirical estimation
verify     full pipeline: simulate, estimate, bound, check domination
clt        normalized partial-sum experiments with uniform envelopes

Every flag's type, default and choices live in the parser.  A flat JSON
config file (``--config``) is read as flags placed before the command line's
own: key ``k`` with value ``v`` is ``--k=v``, a list is its comma-joined items,
``true`` is the bare flag and ``false`` adds nothing (an error if the flag takes
a value); keys that are not flags of the command (or bound name) are skipped,
and every value is checked as its flag is.  A run with identical flags, config
and seed writes byte-identical outputs.  Invalid input, or ``--out`` on a
command that writes no file, exits 2; an entropy series that diverges exits 3.
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
from .paths import GFunction, SampledPath, _in_range, ps_module, triple_min_sup

TWO_JUMP_FIXTURE = SampledPath(
    np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 1.0, 2.0, 2.0])
)


def _parse_grid(spec: str) -> np.ndarray:
    """Grid spec: 'lo:hi:n' (log-spaced), or a comma list."""
    if ":" in spec:
        lo, hi, n = spec.split(":")
        lo = _in_range("log grid lo", float(lo), "(0, inf)")
        hi = _in_range("log grid hi", float(hi), f"({lo}, inf)")
        n = _in_range("log grid n", int(n), "[1, inf)")
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
        if value is False and not isinstance(vars(ns)[key], bool):  # on/off flags hold bools
            raise ValueError(f"config key {key!r} takes a value, got false")
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
    print(json.dumps(run.report, sort_keys=True, default=tio._tolist))
    return run.exit_code


def cmd_kappa(ns) -> int:
    if ns.out and ns.delta_grid is None:
        raise ValueError("kappa writes no --out file without --delta-grid")
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
        # under the bounds' rule: a negative power is inf on the diagonal, not a warning
        grid = SemiDistanceGrid.from_gap_function(B._float_range(lambda g: g**ns.gap_power),
                                                  ns.grid)
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
    else:  # the demo f = x^2/2, inf beyond float range under the bounds' rule
        lam_max = _in_range("lam_max", ns.lam_max, "(0, inf)")
        x = np.linspace(-lam_max, lam_max, _in_range("points", ns.points, "[2, inf)"))
        f = 0.5 * B._float_range(np.square)(x)
    u = _parse_grid(ns.u_grid) if ns.u_grid else None
    us, fs = young_fenchel(x, f, u)
    if ns.out:
        tio.write_csv(ns.out, ["u", "conjugate"], [us, fs])
    else:
        for a, b in zip(us, fs):
            print(f"{tio.fmt(a)},{tio.fmt(b)}")
    return 0


def _envelope(env) -> str:
    return (f"delta={tio.fmt(env.delta_value)} kappa={tio.fmt(env.kappa_value)} "
            f"c2={tio.fmt(env.c2)} c3={tio.fmt(env.c3)} "
            f"delta_in_range={tio.fmt(env.delta_in_range)} "
            f"kappa_in_range={tio.fmt(env.kappa_in_range)}")


def _entropy_series(ns) -> str:
    pair = (B.geometric_sequences(ns.seq_s, ns.seq_theta) if ns.preset == "geometric"
            else B.polynomial_sequences(ns.seq_nu))
    # float64 bases: a power beyond float range is inf (no series), not OverflowError
    res = B.entropy_series_bound(lambda e: np.float64(e) ** -ns.gamma,
                                 lambda x: np.float64(x) ** (2 * ns.beta), pair, ns.u)
    return (f"value={tio.fmt(res.value)} remainder={tio.fmt(res.remainder)} "
            f"terms={res.terms_used} pair={res.pair_label}")


@B._float_range  # the bounds' rule for the --psi-power table p^a
def _min_tail_fenchel(ns) -> str:
    psi = (PsiFunction(*tio.read_two_columns(ns.psi_file), b=np.inf) if ns.psi_file
           else PsiFunction.from_callable(lambda p: p**ns.psi_power, b=np.inf, p_max=64.0))
    res = B.min_tail_fenchel(psi, ns.d, ns.u)
    return f"value={tio.fmt(res.value)} p={tio.fmt(res.p_star)} at_edge={tio.fmt(res.at_edge)}"


def _clt(ns) -> tuple[list, list]:
    nu, g, u = B.rosenthal_nu(_nu_function(ns), b=ns.b), _g_function(ns), _parse_grid(ns.u)
    gc, mc = B.moment_global_bound(nu, g, u), B.moment_module_bound(nu, g, ns.h, u)
    return ["u", "global_bound", "module_bound"], [gc.thresholds, gc.probs, mc.probs]


# Every flag of a ``bound`` name, declared once as ``--<key>``, except that
# ``u`` is a scalar bound's threshold and ``u-grid`` a curve's grid, both ``--u``.
_BOUND_FLAGS = {
    "alpha": dict(type=float, default=2.0, help="power-bound exponent alpha > 1"),
    "beta": dict(type=float, default=1.0, help="power-bound exponent beta > 0"),
    "mode": dict(default="closed", choices=["closed", "optimized"], help="chaining-constant form"),
    "p": dict(type=float, default=2.0, help="moment order"),
    "u": dict(type=float, default=1.0, help="threshold"),
    "u-grid": dict(default="1:100:20", help="threshold grid spec lo:hi:n or comma list"),
    "h": dict(type=float, default=0.05, help="module span"),
    "b": dict(type=float, default=np.inf, help="upper moment-order support"),
    "c1": dict(type=float, default=1.0, help="moment-growth coefficient"),
    "m": dict(type=float, default=1.0, help="moment-growth power"),
    "s": dict(type=float, default=0.0, help="moment-growth log power"),
    "d": dict(type=int, default=1, help="number of jointly small variables"),
    "gamma": dict(type=float, default=0.5, help="covering-number power N = eps^-gamma"),
    "preset": dict(default="geometric", choices=["geometric", "polynomial"],
                   help="entropy-series sequence pair"),
    "seq-s": dict(type=float, default=0.1, help="geometric scale ratio"),
    "seq-theta": dict(type=float, default=0.6, help="geometric weight ratio"),
    "seq-nu": dict(type=float, default=2.0, help="polynomial weight power"),
    "nu-power": dict(default="1,0.5", help="c,m for nu(p) = c p^m"),
    "nu-file": dict(help="two-column (p, nu) table"),
    "psi-power": dict(type=float, default=0.5, help="a for psi(p) = p^a"),
    "psi-file": dict(help="two-column (p, psi) table"),
    "g-slope": dict(type=float, default=1.0, help="linear envelope slope"),
    "g-file": dict(help="two-column (t, G) envelope table"),
    "config": dict(help="JSON file of flag values; the command line wins"),
    "out": dict(help="CSV file of the curve"),
}
# a table file and the parameter it replaces exclude each other
_FILE_OR_PARAM = {"g": "g-slope g-file", "nu": "nu-power nu-file", "psi": "psi-power psi-file"}

# Each bound name: the flags it reads and its evaluator, which returns the value
# or line to print, or a curve's (header, columns).
_BOUNDS = {
    "k-constant": ("alpha beta mode", lambda ns: B.chaining_constant(ns.alpha, ns.beta, ns.mode)),
    "rosenthal": ("p", lambda ns: B.rosenthal_constant(ns.p)),
    "power-global": ("alpha beta mode g u-grid out", lambda ns: B.power_global_bound(
        (ns.alpha, ns.beta), _g_function(ns), _parse_grid(ns.u), mode=ns.mode).table()),
    "power-module": ("alpha beta mode g h u-grid out", lambda ns: B.power_module_bound(
        (ns.alpha, ns.beta), _g_function(ns), ns.h, _parse_grid(ns.u), mode=ns.mode).table()),
    "moment-global": ("b g nu u-grid out", lambda ns: B.moment_global_bound(
        _nu_function(ns), _g_function(ns), _parse_grid(ns.u), b=ns.b).table()),
    "moment-module": ("b g h nu u-grid out", lambda ns: B.moment_module_bound(
        _nu_function(ns), _g_function(ns), ns.h, _parse_grid(ns.u), b=ns.b).table()),
    "entropy-series": ("beta gamma preset seq-s seq-theta seq-nu u", _entropy_series),
    "exp-envelope": ("c1 m g h u", lambda ns: _envelope(
        B.exp_tail_envelopes(ns.c1, ns.m, _g_function(ns), ns.h, ns.u))),
    "min-tail-fenchel": ("psi d u", _min_tail_fenchel),
    "clt": ("b g h nu u-grid out", _clt),
    "clt-envelope": ("c1 m s g h u", lambda ns: _envelope(
        B.clt_exp_envelope(ns.c1, ns.m, ns.s, _g_function(ns), ns.h, ns.u))),
}


def _print_bound(evaluate, ns) -> int:
    """Print a bound's value, or its curve's rows, also written to ``--out`` as CSV."""
    value = evaluate(ns)
    if not isinstance(value, tuple):
        print(tio.fmt(value))
        return 0
    for row in zip(*value[1]):
        print(",".join(tio._csv_field(tio.fmt(x)) for x in row))
    if ns.out:
        tio.write_csv(ns.out, *value)
    return 0


def cmd_simulate(ns) -> int:
    betas = _parse_floats(ns.beta_grid) if ns.beta_grid else None
    return _finish(ns, pipeline.simulate(*_run_inputs(ns), betas, ns.write_paths))


def cmd_verify(ns) -> int:
    return _finish(ns, pipeline.verify(*_run_inputs(ns), strict=ns.strict))


def cmd_clt(ns) -> int:
    spec, config, u_grid = _run_inputs(ns)
    n_list = _in_range("n", _parse_floats(ns.n), "[1, inf)")
    if not all(x.is_integer() for x in n_list):
        raise ValueError(f"n must be integers, got {ns.n!r}")
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
    delta = p.add_mutually_exclusive_group()
    delta.add_argument("--delta", help="comma list of span constraints")
    delta.add_argument("--delta-grid", help="grid spec lo:hi:n or comma list")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kappa)

    p = add("bound", help="evaluate a constant, tail bound or envelope by name")
    names = p.add_subparsers(dest="name", required=True)
    for name, (keys, evaluate) in _BOUNDS.items():
        # no abbreviations: --h or --b would otherwise stand for --help or --beta
        q = names.add_parser(name, allow_abbrev=False,
                             formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for key in keys.split() + ["config"]:
            group = q.add_mutually_exclusive_group() if key in _FILE_OR_PARAM else q
            for k in _FILE_OR_PARAM.get(key, key).split():
                group.add_argument("--u" if k == "u-grid" else "--" + k, **_BOUND_FLAGS[k])
        q.set_defaults(func=functools.partial(_print_bound, evaluate))
    names.choices["min-tail-fenchel"].set_defaults(u=2.0)  # the bound needs u > 1

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
            words = [ns.cmd, ns.name] if ns.cmd == "bound" else [ns.cmd]  # they chose the parser
            ns = ap.parse_args(words + _config_flags(ns) + argv[len(words):])
        return ns.func(ns)
    except B.BoundUnavailable as e:
        print(f"bound unavailable: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
