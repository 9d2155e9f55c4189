"""Seeded jump-process simulation and empirical estimation.

Generates sample paths of simple jump and diffusion processes on a shared
grid of [0,1], estimates the empirical objects the tail bounds consume (the
natural moment function of the triple-minimum statistic, the normalized pair
distance and its monotone envelope, boundary-continuity functionals, tails of
the global statistic and the module, normalized partial sums), and checks
computed bounds against exact-binomial upper confidence envelopes of the
simulated tails.

All randomness derives from a single seed; every estimator is a pure function
of (inputs, seed).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import stats as sps

from .bounds import TailCurve
from .paths import GFunction, _worker_count, ps_module_matrix, triple_min_sup_matrix

__all__ = [
    "ProcessSpec",
    "SimConfig",
    "PathBundle",
    "MomentTable",
    "TailEstimate",
    "BoundaryEstimate",
    "DominationReport",
    "generate_paths",
    "estimate_triple_moments",
    "fit_g_envelope",
    "empirical_tail",
    "boundary_functionals",
    "partial_sum_paths",
    "domination_report",
]

_KINDS = ("compound_poisson", "poisson", "brownian", "empirical", "uniform_jump")
_CENTERED = ("compound_poisson", "brownian", "empirical")


@dataclass(frozen=True)
class ProcessSpec:
    """What to simulate on [0,1].

    kinds: ``compound_poisson`` (Poisson(rate) jump count, centered Gaussian
    jump sizes of scale ``jump_scale``), ``poisson`` (counting process),
    ``brownian`` (grid-sampled, independent Gaussian increments),
    ``empirical`` (centered scaled empirical distribution function of
    ``sample_size`` uniform draws), ``uniform_jump`` (single unit jump at a
    uniform time).
    """

    kind: str
    rate: float = 5.0
    jump_scale: float = 1.0
    scale: float = 1.0
    sample_size: int = 16
    grid_size: int = 64

    def __post_init__(self):
        kind = self.kind.replace("-", "_")
        if kind not in _KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}; choose from {_KINDS}")
        object.__setattr__(self, "kind", kind)
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if kind in ("compound_poisson", "poisson") and self.rate < 0:
            raise ValueError("rate must be nonnegative")
        if kind == "compound_poisson" and self.jump_scale <= 0:
            raise ValueError("jump_scale must be positive")
        if kind == "brownian" and self.scale <= 0:
            raise ValueError("scale must be positive")
        if kind == "empirical" and self.sample_size < 1:
            raise ValueError("sample_size must be positive")

    @property
    def centered(self) -> bool:
        return self.kind in _CENTERED


def _default_p_grid() -> np.ndarray:
    return np.array([2.0, 4.0, 8.0, 16.0, 32.0])


@dataclass(frozen=True)
class SimConfig:
    """Run parameters shared by the estimators."""

    n_paths: int = 10_000
    seed: int = 0
    p_grid: np.ndarray = field(default_factory=_default_p_grid)
    u_points: int = 20
    h_grid: tuple[float, ...] = (0.05, 0.1)
    confidence: float = 0.99
    triple_stride: Optional[int] = None  # None: 1 up to 64 grid points, else 4

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0,1)")
        p = np.asarray(self.p_grid, dtype=float)
        if np.any(p < 2.0) or not np.all(np.diff(p) > 0):
            raise ValueError("p_grid must be increasing and start at >= 2")
        if np.any(p > 512.0):
            warnings.warn("p grid truncated at 512: higher moments carry no "
                          "resolution at these sample sizes", RuntimeWarning)
            p = p[p <= 512.0]
        object.__setattr__(self, "p_grid", p)
        for h in self.h_grid:
            if not 0.0 < h <= 0.5:
                raise ValueError("every h must lie in (0, 1/2]")


@dataclass(frozen=True)
class PathBundle:
    """A family of step paths sharing one grid: values[i] is path i."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 2 or v.shape[1] != t.size:
            raise ValueError("values must be (n_paths, len(times))")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]

    def global_stats(self) -> np.ndarray:
        """Per-path unconstrained triple-minimum sup."""
        return triple_min_sup_matrix(self.values)

    def module_stats(self, h: float) -> np.ndarray:
        """Per-path span-constrained module at span h."""
        return ps_module_matrix(self.times, self.values, h)


def _generate(spec: ProcessSpec, m: int, rng: np.random.Generator) -> np.ndarray:
    n = spec.grid_size
    times = np.linspace(0.0, 1.0, n)
    if spec.kind in ("compound_poisson", "poisson"):
        counts = rng.poisson(spec.rate, m)
        total = int(counts.sum())
        jt = rng.uniform(0.0, 1.0, total)
        js = rng.normal(0.0, spec.jump_scale, total) if spec.kind == "compound_poisson" else np.ones(total)
        vals = np.zeros((m, n))
        if total:
            rows = np.repeat(np.arange(m), counts)
            cols = np.searchsorted(times, jt, side="left")
            np.add.at(vals, (rows, cols), js)
        return np.cumsum(vals, axis=1)
    if spec.kind == "brownian":
        inc = rng.normal(0.0, 1.0, (m, n - 1)) * (spec.scale * np.sqrt(np.diff(times)))
        return np.concatenate([np.zeros((m, 1)), np.cumsum(inc, axis=1)], axis=1)
    if spec.kind == "empirical":
        ss = spec.sample_size
        u = np.sort(rng.uniform(0.0, 1.0, (m, ss)), axis=1)
        counts = np.stack([np.searchsorted(u[i], times, side="right") for i in range(m)])
        return np.sqrt(ss) * (counts / ss - times[None, :])
    # uniform_jump
    u = rng.uniform(0.0, 1.0, m)
    return (times[None, :] >= u[:, None]).astype(float)


def generate_paths(
    spec: ProcessSpec, config: SimConfig, n_paths: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> PathBundle:
    """Simulate paths on the process grid; deterministic given the seed."""
    m = config.n_paths if n_paths is None else n_paths
    if rng is None:
        rng = np.random.default_rng(config.seed)
    times = np.linspace(0.0, 1.0, spec.grid_size)
    return PathBundle(times, _generate(spec, m, rng))


def partial_sum_paths(
    spec: ProcessSpec, n_terms: int, config: SimConfig,
    rng: Optional[np.random.Generator] = None,
) -> PathBundle:
    """Normalized partial sums: each output path is n^(-1/2) times the sum of
    ``n_terms`` independent copies on the shared grid.  Requires a centered
    process."""
    if not spec.centered:
        raise ValueError(f"partial sums require a centered process, got {spec.kind!r}")
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    m = config.n_paths
    acc = np.zeros((m, spec.grid_size))
    for _ in range(n_terms):
        acc += _generate(spec, m, rng)
    times = np.linspace(0.0, 1.0, spec.grid_size)
    return PathBundle(times, acc / np.sqrt(n_terms))


# ---------------------------------------------------------------------------
# natural moment function and pair distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentTable:
    """Estimated natural moment function of the triple-minimum statistic.

    ``values[k]`` estimates the sup over triples of the order-``p_grid[k]``
    moment norm; ``pair_norms[a, b]`` is the normalized pair distance
    max_p (sup_s |triple min|_p) / values[k], the input to envelope fitting;
    ``raw_moments[a, b, k]`` keeps sup_s of the order-p norm per pair.
    """

    p_grid: np.ndarray
    values: np.ndarray
    pair_times: np.ndarray
    pair_norms: np.ndarray
    raw_moments: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.values) < -1e-6 * max(1.0, float(self.values.max(initial=0.0)))):
            raise ValueError("moment values must be nondecreasing in p")


_TRIPLE_BLOCK = 512  # path rows per float32 block of ``estimate_triple_moments``


def _triple_sums(vs, ps, s_indices, arms, powers) -> np.ndarray:
    """Max over the middle indices ``s_indices`` of the per-pair mean of
    min(|x(s)-x(r)|, |x(t)-x(s)|)^p, as a (k, k, P) array indexed (r, t, p).

    ``arms`` are two (block, k) and ``powers`` two flat float32 workspaces of
    at least block * max_s (s+1)(k-s) cells; every intermediate is written
    into them, so the call allocates only its per-pair float64 sums.
    """
    m, k = vs.shape
    a_buf, b_buf = arms
    c_buf, p_buf = powers
    block = a_buf.shape[0]
    best = np.zeros((k, k, ps.size))
    for si in s_indices:
        nr, nt = si + 1, k - si
        sums = np.zeros((nr, nt, ps.size))
        for lo in range(0, m, block):
            rows = vs[lo : lo + block]
            r = rows.shape[0]
            a = np.subtract(rows[:, :nr], rows[:, si : si + 1], out=a_buf[:r, :nr])
            np.abs(a, out=a)
            b = np.subtract(rows[:, si:], rows[:, si : si + 1], out=b_buf[:r, :nt])
            np.abs(b, out=b)
            # a, b >= 0, so min(a^p, b^p) = min(a, b)^p: one minimum per block
            c = np.minimum(a[:, :, None], b[:, None, :],
                           out=c_buf[: r * nr * nt].reshape(r, nr, nt))
            pw = p_buf[: r * nr * nt].reshape(r, nr, nt)
            cur, prev = c, 1.0
            for pi, p in enumerate(ps):
                if p == 2.0 * prev:
                    np.multiply(cur, cur, out=pw)
                else:
                    np.power(c, np.float32(p), out=pw)
                cur, prev = pw, p
                sums[:, :, pi] += pw.sum(axis=0, dtype=np.float64)
        np.maximum(best[:nr, si:], sums / m, out=best[:nr, si:])
    return best


def estimate_triple_moments(
    bundle: PathBundle,
    p_grid=None,
    stride: Optional[int] = None,
) -> MomentTable:
    """Monte Carlo estimate of sup over triples r <= s <= t of the p-norm of
    min(|x(s)-x(r)|, |x(t)-x(s)|), with the per-pair sup over s kept for
    envelope fitting.

    Triples are enumerated over every ``stride``-th grid point (endpoints
    always kept); the default keeps the full grid up to 64 points and thins
    by 4 beyond.  Powers are taken after scaling by the largest increment, so
    arbitrary moment orders stay inside floating range.

    For each middle point s the paths are reduced in float32 blocks of
    ``_TRIPLE_BLOCK`` rows with float64 accumulation.  The minimum of the two
    arms is taken once per block; each order p is the square of the previous
    one when p doubles it (the default grid 2, 4, ..., 32 needs squarings
    only) and ``min ** p`` otherwise.  The middle points are dealt out
    round-robin to a thread pool with one worker per available CPU, each
    writing into workspaces allocated here; the per-s means combine by
    maximum, so the result is byte-identical for any number of workers.
    """
    t = bundle.times
    v = bundle.values
    m, n = v.shape
    if m == 0:
        raise ValueError("empty path collection")
    if p_grid is None:
        p_grid = _default_p_grid()
    ps = np.asarray(p_grid, dtype=float)
    if stride is None:
        stride = 1 if n <= 64 else 4
    idx = np.unique(np.concatenate([np.arange(0, n, stride), [n - 1]]))
    k = idx.size
    scale = float(v.max() - v.min())
    if scale == 0.0:
        zero = np.zeros((k, k, ps.size))
        return MomentTable(ps, np.zeros(ps.size), t[idx], np.zeros((k, k)), zero)

    vs = (v[:, idx] / scale).astype(np.float32)
    block = min(_TRIPLE_BLOCK, m)
    cells = block * ((k + 1) // 2) * (k // 2 + 1)  # block * max_s (s+1)(k-s)
    workers = min(_worker_count(), k)
    with ThreadPoolExecutor(workers) as pool:
        # interleaved middle points balance the per-s cost (s+1)(k-s)
        futures = [
            pool.submit(
                _triple_sums, vs, ps, range(w, k, workers),
                (np.empty((block, k), np.float32), np.empty((block, k), np.float32)),
                (np.empty(cells, np.float32), np.empty(cells, np.float32)),
            )
            for w in range(workers)
        ]
        best = futures[0].result()  # max over s of mean (scaled min)^p
        for future in futures[1:]:
            np.maximum(best, future.result(), out=best)
    # symmetrize: best currently holds (r, t) with r <= t
    rho = scale * best ** (1.0 / ps[None, None, :])
    iu = np.triu_indices(k, 1)
    rho[iu[1], iu[0], :] = rho[iu[0], iu[1], :]
    nu_vals = rho.reshape(-1, ps.size).max(axis=0)
    nu_vals = np.maximum.accumulate(nu_vals)  # iron out float32 noise
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(nu_vals[None, None, :] > 0, rho / nu_vals[None, None, :], 0.0).max(axis=2)
    np.fill_diagonal(w, 0.0)
    return MomentTable(ps, nu_vals, t[idx], w, rho)


def fit_g_envelope(pair_times: np.ndarray, w: np.ndarray) -> GFunction:
    """Least monotone envelope G with G(0) = 0 dominating a pair distance:
    w(r,t) <= G(t) - G(r) for all grid pairs, certified exhaustively.

    G is the longest-path value G(j) = max_{i<j} G(i) + w(i,j) in the DAG of
    grid points; every admissible envelope is at least this at each point,
    and w >= 0 makes it nondecreasing.
    """
    t = np.asarray(pair_times, dtype=float)
    w = np.asarray(w, dtype=float)
    k = t.size
    if w.shape != (k, k):
        raise ValueError("w must be square and match pair_times")
    if np.any(w < 0) or np.max(np.abs(w - w.T)) > 1e-9:
        raise ValueError("w must be symmetric and nonnegative")
    if t[0] != 0.0 or t[-1] != 1.0:
        raise ValueError("pair grid must span [0,1]")
    values = np.zeros(k)
    for j in range(1, k):
        values[j] = np.max(values[:j] + w[:j, j])
    diffs = values[None, :] - values[:, None]
    upper = w[np.triu_indices(k, 1)]
    have = diffs[np.triu_indices(k, 1)]
    if not np.all(upper <= have + 1e-9 + 1e-9 * np.abs(have)):
        raise AssertionError("envelope certificate failed")
    return GFunction(t, values)


# ---------------------------------------------------------------------------
# empirical tails and boundary functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    """Empirical exceedance frequencies with exact-binomial upper confidence
    bounds (one-sided, at the stated confidence level)."""

    thresholds: np.ndarray
    freqs: np.ndarray
    upper: np.ndarray


def binomial_upper(count: int, n: int, confidence: float) -> float:
    """Exact one-sided upper confidence bound for a binomial proportion."""
    if count >= n:
        return 1.0
    return float(sps.beta.ppf(confidence, count + 1, n - count))


def empirical_tail(
    bundle: PathBundle,
    u_grid,
    confidence: float = 0.99,
    statistic: str = "delta",
    h: Optional[float] = None,
    stats: Optional[np.ndarray] = None,
) -> TailEstimate:
    """Per-threshold exceedance frequency of a per-path statistic with its
    exact binomial upper confidence bound.

    ``statistic`` is ``delta`` (global triple-minimum sup) or ``kappa``
    (module at span ``h``); precomputed per-path values may be passed via
    ``stats``."""
    u = np.asarray(u_grid, dtype=float)
    if stats is None:
        if statistic == "delta":
            stats = bundle.global_stats()
        elif statistic == "kappa":
            if h is None:
                raise ValueError("kappa statistic needs a span h")
            stats = bundle.module_stats(h)
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
    n = stats.size
    counts = (stats[:, None] > u[None, :]).sum(axis=0)
    freqs = counts / n
    upper = np.array([binomial_upper(int(c), n, confidence) for c in counts])
    return TailEstimate(u, freqs, upper)


@dataclass(frozen=True)
class BoundaryEstimate:
    """Estimated boundary-continuity functionals: the mean arctangent of the
    largest deviation from each endpoint over a shrinking window."""

    beta_grid: np.ndarray
    z0: np.ndarray
    z1: np.ndarray
    z0_vanishing: bool
    z1_vanishing: bool


def boundary_functionals(bundle: PathBundle, beta_grid) -> BoundaryEstimate:
    betas = np.asarray(beta_grid, dtype=float)
    if np.any(betas <= 0) or np.any(betas >= 0.5) or not np.all(np.diff(betas) > 0):
        raise ValueError("beta grid must be increasing inside (0, 1/2)")
    t = bundle.times
    v = bundle.values
    z0 = np.empty(betas.size)
    z1 = np.empty(betas.size)
    for i, b in enumerate(betas):
        k0 = int(np.searchsorted(t, b, side="right"))
        z0[i] = np.mean(np.arctan(np.abs(v[:, :k0] - v[:, :1]).max(axis=1)))
        k1 = int(np.searchsorted(t, 1.0 - b, side="left"))
        z1[i] = np.mean(np.arctan(np.abs(v[:, k1:] - v[:, -1:]).max(axis=1)))

    def vanishing(z: np.ndarray) -> bool:
        return bool(z[0] <= max(0.25 * z[-1], 5e-3))

    return BoundaryEstimate(betas, z0, z1, vanishing(z0), vanishing(z1))


# ---------------------------------------------------------------------------
# domination reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationReport:
    """Per-threshold verdicts that a computed bound sits above the upper
    confidence envelope of a simulated tail.

    Thresholds with zero observed exceedances cannot refute a bound and pass
    vacuously unless ``strict``; strict mode demands the bound dominate the
    confidence envelope everywhere.
    """

    thresholds: np.ndarray
    bound: np.ndarray
    freqs: np.ndarray
    upper: np.ndarray
    ok: np.ndarray
    vacuous: np.ndarray
    overall_pass: bool
    strict: bool
    label: str = ""

    @property
    def failures(self) -> list[dict]:
        out = []
        for i in np.nonzero(~self.ok)[0]:
            out.append(
                {
                    "u": float(self.thresholds[i]),
                    "bound": float(self.bound[i]),
                    "upper_confidence": float(self.upper[i]),
                    "frequency": float(self.freqs[i]),
                    "margin": float(self.bound[i] - self.upper[i]),
                }
            )
        return out

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "strict": self.strict,
            "overall_pass": bool(self.overall_pass),
            "thresholds": [float(x) for x in self.thresholds],
            "bound": [float(x) for x in self.bound],
            "frequency": [float(x) for x in self.freqs],
            "upper_confidence": [float(x) for x in self.upper],
            "ok": [bool(x) for x in self.ok],
            "vacuous": [bool(x) for x in self.vacuous],
            "failures": self.failures,
        }


def domination_report(
    bound: TailCurve, estimate: TailEstimate, strict: bool = False, label: str = ""
) -> DominationReport:
    """Check bound >= upper confidence envelope on a shared threshold grid."""
    if not np.array_equal(bound.thresholds, estimate.thresholds):
        raise ValueError("bound and estimate must share the threshold grid")
    dominated = bound.probs + 1e-12 >= estimate.upper
    vacuous = estimate.freqs == 0.0
    ok = dominated if strict else (dominated | vacuous)
    return DominationReport(
        thresholds=bound.thresholds,
        bound=bound.probs,
        freqs=estimate.freqs,
        upper=estimate.upper,
        ok=ok,
        vacuous=vacuous & ~dominated,
        overall_pass=bool(ok.all()),
        strict=strict,
        label=label,
    )


def quantile_u_grid(stats: np.ndarray, points: int = 20, q_lo: float = 0.5) -> np.ndarray:
    """Log-spaced threshold grid spanning the informative range of a
    nonnegative statistic sample: from its ``q_lo`` quantile to 1.5x its max."""
    s = np.asarray(stats, dtype=float)
    top = float(s.max(initial=0.0))
    if top <= 0.0:
        return np.logspace(-2, 1, points)
    lo = float(np.quantile(s, q_lo))
    lo = max(lo, 1e-6 * top)
    return np.logspace(np.log10(lo), np.log10(1.5 * top), points)
