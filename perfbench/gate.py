"""Correctness gate, run on every operation's output outside the timed region.

Seed-independent checks hold for any seed: brute-force oracles on a fixed
subsample of the run's paths, tail tables recounted from the paths, the
envelope certificate re-checked from the written CSVs, bounds inside [0,1]
and nonincreasing, and the verdict and exit code agreeing with the report.
At ``REFERENCE_SEED`` the outputs are also compared with the values recorded
in ``reference.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import stats as sps
from scipy.special import logsumexp

import skorotail as sk
from skorotail import paths
from workloads import JOINT_P_GRID, JOINT_U, MTE_P_GRID, TAIL_X, GlsWorkload, canonical

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# nu is a float32 reduction: later kernels may change its last float32 digits
NU_RTOL = 1e-5
# float64 results recomputed by an independent formula
RTOL = 1e-9


class Checks:
    """Collects the messages of failed checks."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok, message: str) -> None:
        if not bool(ok):
            self.failures.append(message)


def _floats(spec) -> list[float]:
    return [float(x) for x in str(spec).split(",")]


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """A CSV file as (header fields, float rows)."""
    with open(path) as f:
        header = f.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _tail_files(params) -> dict[str, str]:
    files = {"delta": "tail_delta.csv"}
    for h in _floats(params["h"]):
        files[f"kappa_{h:g}"] = f"tail_kappa_{h:g}.csv"
    return files


def regenerate(params: dict, seed: int):
    spec = sk.ProcessSpec(params["process"], rate=float(params["rate"]),
                          grid_size=int(params["grid"]))
    return sk.generate_paths(spec, sk.SimConfig(n_paths=int(params["paths"]), seed=seed))


def oracle_rows(n_paths: int, count: int) -> np.ndarray:
    return np.unique(np.linspace(0, n_paths - 1, count).astype(int))


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def check_cli(wl, seed: int, result: dict, reference=None) -> list[str]:
    """Every seed-independent check on one CLI run's outputs, and the
    comparison with ``reference`` when given."""
    c = Checks()
    params, outdir = wl.params, Path(result["outdir"])
    bundle = regenerate(params, seed)
    t, v = bundle.times, bundle.values
    m = v.shape[0]
    hs = _floats(params["h"])

    rows = oracle_rows(m, wl.oracle_paths)
    fast_d = paths.triple_min_sup_matrix(v[rows])
    fast_k = {h: paths.ps_module_matrix(t, v[rows], h) for h in hs}
    for i, row in enumerate(rows):
        path = sk.SampledPath(t, v[row])
        c.expect(fast_d[i] == paths.global_stat_brute(path),
                 f"path {row}: fast global statistic differs from brute force")
        for h in hs:
            c.expect(fast_k[h][i] == paths.ps_module_brute(path, h),
                     f"path {row}: fast module at h={h:g} differs from brute force")

    tails = {}
    for key, name in _tail_files(params).items():
        header, data = read_table(outdir / name)
        c.expect(header == ["u", "frequency", "upper_confidence"], f"{name}: header {header}")
        tails[key] = data
        u, freq, upper = data.T
        counts = np.rint(freq * m)
        c.expect(np.array_equal(counts / m, freq), f"{name}: frequencies are not counts / m")
        c.expect(np.all(np.diff(freq) <= 0), f"{name}: frequency increases in u")
        expected = np.array([1.0 if k >= m else sps.beta.ppf(float(params["confidence"]),
                                                              k + 1, m - k) for k in counts])
        c.expect(np.allclose(upper, expected, rtol=1e-12, atol=0),
                 f"{name}: upper confidence is not the exact binomial bound")
    u = tails["delta"][:, 0]
    c.expect(u.size == int(params["u_points"]), f"tail_delta.csv: {u.size} thresholds")
    dstats = paths.triple_min_sup_matrix(v)
    c.expect(np.array_equal(tails["delta"][:, 1], (dstats[:, None] > u).sum(axis=0) / m),
             "tail_delta.csv: frequencies differ from a recount over the paths")
    previous = None
    for h in hs:
        kappa = tails[f"kappa_{h:g}"]
        c.expect(np.array_equal(kappa[:, 0], u), f"kappa h={h:g}: threshold grid differs")
        c.expect(np.all(kappa[:, 1] <= tails["delta"][:, 1]),
                 f"kappa h={h:g}: module tail above the global tail")
        if previous is not None:
            c.expect(np.all(kappa[:, 1] >= previous), f"kappa h={h:g}: tail shrinks as h grows")
        previous = kappa[:, 1]

    header, w = read_table(outdir / "pair_norms.csv")
    pair_t = np.array([float(x) for x in header])
    _, env = read_table(outdir / "envelope.csv")
    g = env[:, 1]
    c.expect(np.array_equal(env[:, 0], pair_t), "envelope grid differs from the pair grid")
    c.expect(g[0] == 0.0 and np.all(np.diff(g) >= 0), "envelope is not nondecreasing from 0")
    have = g[None, :] - g[:, None]
    iu = np.triu_indices(pair_t.size, 1)
    c.expect(np.all(w[iu] <= have[iu] + 1e-9 + 1e-9 * np.abs(have[iu])),
             "envelope certificate w(r,t) <= G(t) - G(r) fails")

    _, mom = read_table(outdir / "moments.csv")
    c.expect(np.array_equal(mom[:, 0], _floats(params["p_grid"])), "moments.csv: p grid")
    c.expect(np.all(mom[:, 1] > 0) and np.all(np.diff(mom[:, 1]) >= 0),
             "moments.csv: nu not positive and nondecreasing")

    if wl.command == "verify":
        _check_verify(c, params, outdir, result, tails)
    else:
        _check_simulate(c, wl, seed, bundle, rows, outdir, result, g, mom)
    if reference is not None:
        _check_cli_reference(c, wl, result, reference)
    return c.failures


def _check_verify(c: Checks, params, outdir: Path, result, tails) -> None:
    report = json.loads((outdir / "report.json").read_text())
    c.expect(json.loads(result["stdout"]) == report, "stdout differs from report.json")
    c.expect(result["code"] == (0 if report["overall_pass"] else 1),
             f"exit code {result['code']} disagrees with overall_pass")
    checks = {chk["label"]: chk for chk in report["checks"]}
    labels = {"global": "delta"}
    labels.update({f"module_h={h:g}": f"kappa_{h:g}" for h in _floats(params["h"])})
    c.expect(sorted(checks) == sorted(labels), f"report checks {sorted(checks)}")
    passes = []
    for label, tail_key in labels.items():
        chk = checks.get(label)
        if chk is None:
            continue
        name = f"bound_{label.replace('=', '_')}.csv"
        _, data = read_table(outdir / name)
        u, bound = data[:, 0], data[:, 1]
        tail = tails[tail_key]
        c.expect(np.all((bound >= 0) & (bound <= 1)), f"{name}: bound outside [0,1]")
        c.expect(np.all(np.diff(bound) <= 0), f"{name}: bound increases in u")
        c.expect(np.array_equal(u, tail[:, 0]) and np.array_equal(chk["thresholds"], u),
                 f"{label}: threshold grids differ")
        c.expect(np.array_equal(chk["bound"], bound), f"{label}: report bound differs from CSV")
        c.expect(np.array_equal(chk["frequency"], tail[:, 1])
                 and np.array_equal(chk["upper_confidence"], tail[:, 2]),
                 f"{label}: report tail differs from the tail table")
        ok = (bound + 1e-12 >= tail[:, 2]) | (tail[:, 1] == 0.0)
        c.expect(np.array_equal(chk["ok"], ok), f"{label}: per-threshold verdicts are wrong")
        c.expect(chk["overall_pass"] == bool(ok.all()), f"{label}: verdict is wrong")
        passes.append(chk["overall_pass"])
    c.expect(report["overall_pass"] == all(passes), "overall_pass disagrees with the checks")


def _check_simulate(c: Checks, wl, seed, bundle, rows, outdir: Path, result, g, mom) -> None:
    params = wl.params
    t, v = bundle.times, bundle.values
    summary = json.loads((outdir / "summary.json").read_text())
    c.expect(json.loads(result["stdout"]) == summary, "stdout differs from summary.json")
    c.expect(result["code"] == 0, f"exit code {result['code']}")
    c.expect(summary["n_paths"] == v.shape[0] and summary["grid_size"] == t.size
             and summary["seed"] == seed, "summary.json: run parameters")
    c.expect(summary["g_total"] == g[-1], "summary.json: g_total differs from envelope.csv")
    c.expect({float(p): nu for p, nu in summary["nu"].items()} == dict(mom.tolist()),
             "summary.json: nu differs from moments.csv")
    if "beta_grid" in params:
        betas = _floats(params["beta_grid"])
        _, data = read_table(outdir / "boundary.csv")
        z0 = [np.mean(np.arctan(np.abs(v[:, t <= b] - v[:, :1]).max(axis=1))) for b in betas]
        z1 = [np.mean(np.arctan(np.abs(v[:, t >= 1 - b] - v[:, -1:]).max(axis=1)))
              for b in betas]
        c.expect(np.array_equal(data[:, 0], betas), "boundary.csv: beta grid")
        c.expect(np.allclose(data[:, 1], z0, rtol=RTOL, atol=0)
                 and np.allclose(data[:, 2], z1, rtol=RTOL, atol=0),
                 "boundary.csv: functionals differ from a recomputation")
    if params.get("write_paths"):
        with open(outdir / "paths.csv") as f:
            header = f.readline().strip().split(",")
            lines = f.readlines()
        c.expect(header[0] == "path_id" and np.array_equal([float(x) for x in header[1:]], t),
                 "paths.csv: header")
        c.expect(len(lines) == v.shape[0], "paths.csv: row count")
        for row in rows:
            vals = [float(x) for x in lines[row].split(",")]
            c.expect(vals[0] == row and np.array_equal(vals[1:], v[row]),
                     f"paths.csv: row {row} differs from the seeded path")


# ---------------------------------------------------------------------------
# gls-tails
# ---------------------------------------------------------------------------


def _log_moments(x: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """log E|x|^p / p for each order, by log-sum-exp (no overflow)."""
    logx = np.log(np.abs(x))
    return np.array([(logsumexp(p * logx) - math.log(x.size)) / p for p in ps])


def _log_mgf(x: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """max over signs of log mean exp(+-lam x)."""
    n = math.log(x.size)
    return np.array([max(logsumexp(l * x), logsumexp(-l * x)) - n for l in lams])


def check_gls(x: dict, out: dict, reference=None) -> dict[str, list[str]]:
    """Failed checks per gls-tails operation: the seed-independent ones, and
    the comparison with ``reference`` when given."""
    fails: dict[str, list[str]] = {}

    def op(name):
        checks = Checks()
        checks.failures = fails.setdefault(name, [])
        return checks

    for key, draws, m in (("mte_pareto", x["pareto"], 1.0), ("mte_gauss", x["gauss"], 2.0)):
        c, rep = op(key), out[key]
        ratios = np.exp(_log_moments(draws, MTE_P_GRID)) / MTE_P_GRID ** (1.0 / m)
        c.expect(math.isclose(rep.moment_sup, ratios.max(), rel_tol=RTOL),
                 f"{key}: moment sup {rep.moment_sup} vs {ratios.max()}")
        i = int(np.searchsorted(MTE_P_GRID, rep.moment_argmax))
        c.expect(math.isclose(ratios[i], ratios.max(), rel_tol=RTOL), f"{key}: argmax")
        c.expect(rep.moment_sup_at_edge == (rep.moment_argmax >= 0.98 * MTE_P_GRID[-1]),
                 f"{key}: edge flag")
        # tail just below each atom |x| >= e, counted on the sorted sample
        srt = np.sort(draws)
        xr = np.unique(np.abs(draws))
        xr = xr[xr >= np.e]
        below_atom = xr * (1 - 1e-12)
        above = srt.size - np.searchsorted(srt, below_atom, side="right")
        below = np.searchsorted(srt, -below_atom, side="left")
        tail = np.maximum(above, below) / srt.size
        keep = tail > 0
        consts = -np.log(tail[keep]) / xr[keep] ** m
        expected = float(consts.min()) if consts.size else math.inf
        c.expect(math.isclose(rep.tail_constant, expected, rel_tol=1e-12),
                 f"{key}: tail constant {rep.tail_constant} vs {expected}")
        c.expect(rep.both_finite == (math.isfinite(rep.moment_sup)
                                     and not rep.moment_sup_at_edge and rep.tail_constant > 0),
                 f"{key}: both_finite flag")

    gauss = x["gauss"]
    phi = out["natural_phi"]
    c = op("natural_phi")
    lams = phi.grid
    log_mgf = _log_mgf(gauss, lams)
    c.expect(phi.values[0] == 0.0 and np.all(phi.values >= 0), "phi(0) = 0, phi >= 0")
    c.expect(np.all(phi.values <= log_mgf + 1e-9), "phi exceeds the empirical log-mgf")

    c, tau = op("mgf_norm"), out["mgf_norm"]
    pos = lams > 0

    def feasible(scale):
        return np.all(log_mgf[pos] <= phi(lams[pos] * scale) + 1e-12)

    c.expect(tau > 0 and feasible(tau), f"tau={tau} does not satisfy the mgf constraint")
    c.expect(not feasible(tau * (1 - 1e-6)), f"tau={tau} is not the least feasible scale")

    c = op("gls_norm")
    psi = x["psi"]
    expected = float(np.max(np.exp(_log_moments(gauss, psi.grid)) / psi.values))
    c.expect(math.isclose(out["gls_norm"], expected, rel_tol=RTOL),
             f"gls norm {out['gls_norm']} vs {expected}")

    c, tail = op("tail_from_phi"), np.asarray(out["tail_from_phi"])
    c.expect(np.all((tail >= 0) & (tail <= 1)), "tail bound outside [0,1]")
    c.expect(np.all(np.diff(tail) <= 0), "tail bound increases in x")
    star = np.max(np.outer(TAIL_X / tau, lams) - phi.values[None, :], axis=1)
    c.expect(np.allclose(tail, np.minimum(1.0, np.exp(-star)), rtol=RTOL, atol=0),
             "tail bound differs from exp(-phi*(x / tau))")

    ax, ay = np.abs(gauss), np.abs(x["pareto"])
    values = []
    for u in JOINT_U:
        key = f"min_tail_2d_u{u:g}"
        c, res = op(key), out[key]
        c.expect(0.0 <= res.value <= 1.0, f"{key}: bound outside [0,1]")
        direct = np.mean(ax**res.p1 * ay**res.p2) / (u**res.p1 * u**res.p2)
        c.expect(math.isclose(res.raw, direct, rel_tol=RTOL), f"{key}: raw {res.raw} vs {direct}")
        for p1 in JOINT_P_GRID[::10]:
            for p2 in JOINT_P_GRID[::10]:
                other = np.mean(ax**p1 * ay**p2) / (u**p1 * u**p2)
                c.expect(res.raw <= other * (1 + RTOL), f"{key}: not minimal at ({p1}, {p2})")
        values.append(res.value)
    c.expect(all(np.diff(values) <= 0), "joint tail bound increases in u")
    if reference is not None:
        got = canonical(out)
        for key, want in reference.items():
            op(key).expect(_close(got[key], want), "differs from the reference")
    return fails


# ---------------------------------------------------------------------------
# recorded reference values
# ---------------------------------------------------------------------------


def reference_for(name: str, seed: int):
    """The values recorded for workload ``name``, when ``seed`` is the
    reference seed and a reference exists."""
    if seed != REFERENCE_SEED or not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(name)


def extract_reference(wl, result) -> dict:
    """The values compared at ``REFERENCE_SEED``."""
    if isinstance(wl, GlsWorkload):
        return canonical(result)
    outdir = Path(result["outdir"])
    ref = {name: read_table(outdir / name)[1].tolist() for name in _tail_files(wl.params).values()}
    ref["nu"] = read_table(outdir / "moments.csv")[1][:, 1].tolist()
    ref["g_total"] = float(read_table(outdir / "envelope.csv")[1][-1, 1])
    return ref


def _close(got, want) -> bool:
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)
    return bool(np.allclose(got, want, rtol=RTOL, atol=0))


def _check_cli_reference(c: Checks, wl, result, reference: dict) -> None:
    got = extract_reference(wl, result)
    for key, want in reference.items():
        if key == "nu":
            c.expect(np.allclose(got[key], want, rtol=NU_RTOL, atol=0),
                     "nu differs from the reference")
        elif key == "g_total":
            # a tighter (smaller) envelope is allowed, a looser one is not
            c.expect(got[key] <= want * (1 + 1e-12), f"G(1)={got[key]} above reference {want}")
        else:
            c.expect(got[key] == want, f"{key}: differs from the reference (exact)")
