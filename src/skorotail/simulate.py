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

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import TailCurve
from .paths import (GFunction, _in_range, _table, _unit_grid, _worker_count,
                    ps_module_matrix, triple_min_sup_matrix)

__all__ = [
    "ProcessSpec",
    "SimConfig",
    "PathBundle",
    "MomentTable",
    "TailEstimate",
    "BoundaryEstimate",
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
# ``quantile_u_grid`` starts at this quantile of the statistic
_U_GRID_QUANTILE = 0.5
# the largest mean numpy's Poisson sampler accepts
_RATE_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


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
        _in_range("grid_size", self.grid_size, "[2, inf)")
        if kind in ("compound_poisson", "poisson"):
            _in_range("rate", self.rate, f"[0, {_RATE_MAX!r}]")
        if kind == "compound_poisson":
            _in_range("jump_scale", self.jump_scale, "(0, inf)")
        if kind == "brownian":
            _in_range("scale", self.scale, "(0, inf)")
        if kind == "empirical":
            _in_range("sample_size", self.sample_size, "[1, inf)")

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
    triple_stride: int = 1

    def __post_init__(self):
        _in_range("n_paths", self.n_paths, "[1, inf)")
        _in_range("seed", self.seed, "[0, inf)")
        _in_range("u_points", self.u_points, "[1, inf)")
        _in_range("confidence", self.confidence, "(0, 1)")
        # orders above 512 carry no resolution at these sample sizes
        object.__setattr__(self, "p_grid", _table("p_grid", self.p_grid, "[2, 512]"))
        _in_range("h", self.h_grid, "(0, 0.5]")
        _in_range("triple_stride", self.triple_stride, "[1, inf)")
        if len({f"{h:g}" for h in self.h_grid}) < len(self.h_grid):  # as checks label them
            raise ValueError(f"spans must differ in 6 significant digits, got {self.h_grid}")


@dataclass(frozen=True)
class PathBundle:
    """A family of step paths sharing one grid: values[i] is path i."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t, v = _unit_grid(self.times, ("values", self.values, None), "mn")
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
        return np.cumsum(vals, axis=1, out=vals)
    if spec.kind == "brownian":
        vals = np.zeros((m, n))
        np.multiply(rng.normal(0.0, 1.0, (m, n - 1)), spec.scale * np.sqrt(np.diff(times)),
                    out=vals[:, 1:])
        np.cumsum(vals[:, 1:], axis=1, out=vals[:, 1:])
        return vals
    if spec.kind == "empirical":
        ss = spec.sample_size
        return np.sqrt(ss) * (_draws_up_to(times, rng.uniform(0.0, 1.0, (m, ss))) / ss
                              - times[None, :])
    # uniform_jump
    u = rng.uniform(0.0, 1.0, m)
    return (times[None, :] >= u[:, None]).astype(float)


def _draws_up_to(times: np.ndarray, u: np.ndarray) -> np.ndarray:
    """counts[i, j]: the draws u[i] <= times[j], from each draw's first grid
    index at or past it (draws lie below times[-1]), counted per row and cell
    and summed along the grid."""
    m, n = u.shape[0], times.size
    first = np.searchsorted(times, u, side="left") + n * np.arange(m)[:, None]
    return np.bincount(first.ravel(), minlength=m * n).reshape(m, n).cumsum(axis=1)


def generate_paths(
    spec: ProcessSpec, config: SimConfig, rng: Optional[np.random.Generator] = None,
) -> PathBundle:
    """Simulate paths on the process grid; deterministic given the seed."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    times = np.linspace(0.0, 1.0, spec.grid_size)
    return PathBundle(times, _generate(spec, config.n_paths, rng))


def partial_sum_paths(
    spec: ProcessSpec, n_terms: int, config: SimConfig,
    rng: Optional[np.random.Generator] = None,
) -> PathBundle:
    """Normalized partial sums: each output path is n^(-1/2) times the sum of
    ``n_terms`` independent copies on the shared grid.  Requires a centered
    process."""
    if not spec.centered:
        raise ValueError(f"partial sums require a centered process, got {spec.kind!r}")
    _in_range("n_terms", n_terms, "[1, inf)")
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
        tol = 1e-6 * max(1.0, float(np.max(self.values, initial=0.0)))
        _table("p_grid", self.p_grid, "(0, inf)", values=("moment values", self.values, None),
               monotone=("nondecreasing", tol))


_TRIPLE_BLOCK = 256  # path rows per block of a full step; fewer
_TRIPLE_CELLS = 1 << 18  # where a power workspace would pass 2 MiB (k > 64),
# and the most workspace cells one block of segments takes
# multiply-adds per matrix product: OpenBLAS runs a product this small on the
# calling thread, so its sums do not depend on the BLAS thread count
_TRIPLE_PRODUCT = 1 << 18


def _carve(ws, *shapes):
    """Consecutive views of the flat workspace ``ws``, one per shape."""
    views, lo = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(ws[lo : lo + size].reshape(shape))
        lo += size
    return views


def _segment_cells(k, s, segments):
    """Workspace cells of one moving row with ``segments`` segments left of s."""
    nt = k - s - 1
    return k + 2 * nt + s + segments * (3 * nt + s + 2)


def _triple_step(vs, moves, ps, s, scale, ws, block):
    """The sums S_s[p, r, t] over all paths of (min(|x(s)-x(r)|, |x(t)-x(s)|)
    / scale)^p for r < s < t, as ``(True, S_s)``, or as ``(False, S_s -
    S_{s-1})`` from the paths that move at s (``moves[s-1]``), when under half
    of them do.  Every intermediate but the (s, k-s-1) sums goes into the flat
    workspace ``ws``."""
    moved = np.flatnonzero(moves[s - 1])
    if 2 * moved.size >= vs.shape[0]:
        return True, _full_sums(vs, ps, s, scale, ws, block)
    return False, _segment_sums(vs, moves, moved, ps, s, scale, ws)


def _full_sums(vs, ps, s, scale, ws, block):
    """S_s afresh, ``block`` rows at a time: one minimum of the two arms per
    (row, r, t) cell, then each order p as the square of the previous one
    when p doubles it, summed over the rows."""
    m, k = vs.shape
    nt = k - s - 1
    sums = np.zeros((ps.size, s, nt))
    for lo in range(0, m, block):
        rows = vs[lo : lo + block]
        r = rows.shape[0]
        a, b, c, pw = _carve(ws, (r, s), (r, nt), (r, s, nt), (r, s, nt))
        for arm, ends in ((a, rows[:, :s]), (b, rows[:, s + 1 :])):
            np.subtract(ends, rows[:, s : s + 1], out=arm)
            np.divide(np.abs(arm, out=arm), scale, out=arm)
        # a, b >= 0, so min(a^p, b^p) = min(a, b)^p: one minimum per block
        np.minimum(a[:, :, None], b[:, None, :], out=c)
        cur, prev = c, 1.0
        for out, p in zip(sums, ps):
            if p == 2.0 * prev:
                np.multiply(cur, cur, out=pw)
            else:
                np.power(c, p, out=pw)
            cur, prev = pw, p
            out += pw.sum(axis=0)
    return sums


def _segment_sums(vs, moves, moved, ps, s, scale, ws):
    """S_s - S_{s-1} from the ``moved`` rows, by their segments: a step path
    is constant on each run of left points r with one value.  Per segment g
    of a moving row, D_p[g, t] is the term at s minus the term at s-1, and
    the difference is A @ D_p, with A[r, g] = 1 when g covers r: each product
    in it is exact or zero, so each cell sums only its own rows' terms.  The
    rows go in blocks whose segments fit ``_TRIPLE_CELLS`` cells of ``ws``,
    and each product in pieces of at most ``_TRIPLE_PRODUCT`` multiply-adds."""
    k = vs.shape[1]
    nt = k - s - 1
    sums = np.zeros((ps.size, s, nt))
    # a segment starts at r = 0 and wherever the row moves within [1, s)
    starts = np.ones((moved.size, s), dtype=bool)
    starts[:, 1:] = moves[: s - 1, moved].T
    cost = _segment_cells(k, s, starts.sum(axis=1))
    cum = np.cumsum(cost)
    budget = max(min(ws.size, _TRIPLE_CELLS), int(cost.max(initial=0)))
    chunk = max(1, _TRIPLE_PRODUCT // (s * nt))  # segments per product
    lo = 0
    while lo < moved.size:
        hi = max(lo + 1, int(np.searchsorted(cum, cum[lo] - cost[lo] + budget, "right")))
        r, st = hi - lo, starts[lo:hi]
        first = np.flatnonzero(st)  # flat (row, r) index of each segment's start
        g = first.size
        x, idx, b_new, b_old, a_new, a_old, c_new, c_old, d, A = _carve(
            ws, (r, k), (r, s), (r, nt), (r, nt), (g,), (g,), (g, nt), (g, nt), (g, nt), (s, g))
        # "clip" writes straight into out ("raise" would buffer a copy); the
        # indices are all in range
        np.take(vs, moved[lo:hi], axis=0, out=x, mode="clip")
        seg_row = first // s
        level = x.ravel()[first + seg_row * (k - s)]  # the value on each segment
        arms = ((c_new, a_new, b_new), (c_old, a_old, b_old))
        for (c, a, b), mid in zip(arms, (s, s - 1)):
            np.subtract(x[:, s + 1 :], x[:, mid : mid + 1], out=b)
            np.divide(np.abs(b, out=b), scale, out=b)
            np.subtract(level, x[seg_row, mid], out=a)
            np.divide(np.abs(a, out=a), scale, out=a)
            np.minimum(np.take(b, seg_row, axis=0, out=c, mode="clip"), a[:, None], out=c)
        # the segment of each (row, r) is the count of starts up to it, less one
        idx = idx.view(np.int64)
        idx[...] = st  # a cumsum that casts the bools would allocate a copy
        np.cumsum(idx.ravel(), out=idx.ravel())
        np.add(idx, np.arange(s) * g - 1, out=idx)
        A.fill(0.0)
        A.put(idx, 1.0)
        # c holds min(a, b), then each order in turn: the square of the last
        # one when p doubles it, else the min again to the power p
        prev = 1.0
        for out, p in zip(sums, ps):
            for c, a, b in arms:
                if p == 2.0 * prev:
                    np.multiply(c, c, out=c)
                else:
                    np.minimum(np.take(b, seg_row, axis=0, out=c, mode="clip"), a[:, None], out=c)
                    np.power(c, p, out=c)
            prev = p
            np.subtract(c_new, c_old, out=d)
            for lo_g in range(0, g, chunk):
                out += A[:, lo_g : lo_g + chunk] @ d[lo_g : lo_g + chunk]
        lo = hi
    return sums


def estimate_triple_moments(bundle: PathBundle, p_grid=None, stride: int = 1) -> MomentTable:
    """Monte Carlo estimate of sup over triples r <= s <= t of the p-norm of
    min(|x(s)-x(r)|, |x(t)-x(s)|), with the per-pair sup over s kept for
    envelope fitting.  Triples run over every ``stride``-th grid point
    (endpoints always kept; by default the full grid); powers are taken after
    scaling by the largest increment, so any moment order stays in range.

    The float64 per-pair sums S_s over the paths are a running sum over the
    middle point s: a path with x(s) == x(s-1) has bitwise the same terms at
    s as at s-1 (row r = s is zero), so S_s is S_{s-1} plus the new-minus-old
    terms of the paths that move at s.  A step path is constant on each
    segment, a run of left points with one value, so those terms are formed
    once per segment and put onto the rows r by a product with a 0/1 matrix:
    each cell adds only its own paths' terms, so no rounding from other cells
    enters it.  When at least half the paths move (Brownian and empirical
    paths, partial sums), S_s is summed afresh over dense blocks of rows,
    which also resets any rounding drift.  Each order p is the square of the
    previous one when p doubles it (the default 2, 4, ..., 32 needs squarings
    only).  A pool with one worker per CPU computes the S_s, at most two
    middle points per worker ahead; this thread applies them in s order and
    keeps the running max, so the result is byte-identical for any worker
    count, and under OpenBLAS for any BLAS thread count.
    """
    t, v = bundle.times, bundle.values
    m, n = v.shape
    if m == 0:
        raise ValueError("empty path collection")
    _in_range("stride", stride, "[1, inf)")
    ps = np.asarray(_default_p_grid() if p_grid is None else p_grid, dtype=float)
    idx = np.unique(np.concatenate([np.arange(0, n, stride), [n - 1]]))
    k = idx.size
    vs = v if k == n else v.take(idx, axis=1)  # rows stay contiguous
    # constant paths never move, so a zero scale is never divided by
    scale = float(v.max() - v.min())
    widest = max(1, ((k - 1) // 2) * (k // 2))  # max_s s(k-s-1)
    block = max(1, min(m, _TRIPLE_BLOCK, _TRIPLE_CELLS // widest))
    # a full step's block, or one moving row with a segment at every left point
    mids = np.arange(1, k - 1)
    cells = max(2 * block * (k + widest), int(_segment_cells(k, mids, mids).max(initial=0)))
    workers = min(_worker_count(), k)
    # one workspace per worker, cut from one allocation: freed whole, it leaves
    # no holes in the allocator's heap to grow the later stages' peak.  Segment
    # blocks write at most _TRIPLE_CELLS cells of it; the rest becomes resident
    # only when a full step writes it
    spaces = list(np.empty((workers, cells)))
    moves = np.empty((k - 1, m), dtype=bool)  # moves[s-1]: the paths with x(s) != x(s-1)
    np.not_equal(vs[:, 1:].T, vs[:, :-1].T, out=moves)

    def step(s):
        ws = spaces.pop()  # at most ``workers`` steps run at once
        try:
            return _triple_step(vs, moves, ps, s, scale, ws, block)
        finally:
            spaces.append(ws)

    running = np.zeros((ps.size, k, k))  # S_s[p, r, t]; rows r >= s are still zero
    best = np.zeros_like(running)  # max over s of S_s
    with ThreadPoolExecutor(workers) as pool:
        window = deque(pool.submit(step, s) for s in range(1, min(k - 1, 1 + 2 * workers)))
        for s in range(1, k - 1):
            full, sums = window.popleft().result()
            if s + 2 * workers < k - 1:
                window.append(pool.submit(step, s + 2 * workers))
            view = running[:, :s, s + 1 :]
            view[...] = sums if full else view + sums
            np.maximum(best[:, :s, s + 1 :], view, out=best[:, :s, s + 1 :])
    # symmetrize: best holds (r, t) with r < t
    rho = scale * (np.moveaxis(best, 0, -1) / m) ** (1.0 / ps[None, None, :])
    iu = np.triu_indices(k, 1)
    rho[iu[1], iu[0], :] = rho[iu[0], iu[1], :]
    nu_vals = rho.reshape(-1, ps.size).max(axis=0)
    # nondecreasing in p (Lyapunov); rounding in the p-th root can break it by an ulp
    nu_vals = np.maximum.accumulate(nu_vals)
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
    t, w = _unit_grid(pair_times, ("w", w, "[0, inf)"), "nn")
    if np.max(np.abs(w - w.T)) > 1e-9:
        raise ValueError("w must be symmetric")
    k = t.size
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


def empirical_tail(stats, u_grid, confidence: float = 0.99) -> TailEstimate:
    """Per-threshold exceedance frequency of a per-path statistic (such as
    ``PathBundle.global_stats`` or ``module_stats``) with its exact one-sided
    binomial upper confidence bound at level ``confidence``: the
    ``confidence`` quantile of beta(count + 1, n - count)."""
    from scipy.special import betaincinv  # loaded at the first tail estimate

    _in_range("confidence", confidence, "(0, 1)")
    stats = np.asarray(stats, dtype=float)
    u = np.asarray(u_grid, dtype=float)
    n = stats.size
    counts = (stats[:, None] > u[None, :]).sum(axis=0)
    full = counts >= n  # beta(n + 1, 0) is no distribution: the bound is 1
    upper = np.where(full, 1.0, betaincinv(counts + 1, np.where(full, 1, n - counts), confidence))
    return TailEstimate(u, counts / n, upper)


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
    betas = _table("beta_grid", beta_grid, "(0, 0.5)")
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


def domination_report(
    bound: TailCurve, tail: TailEstimate, strict: bool = False, label: str = ""
) -> dict:
    """The report entry checking that a computed bound sits above the upper
    confidence envelope of a simulated tail on their shared threshold grid.

    Thresholds with zero observed exceedances cannot refute a bound and pass
    vacuously unless ``strict``; strict mode demands the bound dominate the
    confidence envelope everywhere.  ``failures`` lists the thresholds that
    do not pass.
    """
    if not np.array_equal(bound.thresholds, tail.thresholds):
        raise ValueError("bound and tail must share the threshold grid")
    dominated = bound.probs + 1e-12 >= tail.upper
    vacuous = tail.freqs == 0.0
    ok = dominated if strict else (dominated | vacuous)
    u, probs, freqs, upper = bound.thresholds, bound.probs, tail.freqs, tail.upper
    return {
        "label": label,
        "strict": strict,
        "overall_pass": bool(ok.all()),
        "thresholds": [float(x) for x in u],
        "bound": [float(x) for x in probs],
        "frequency": [float(x) for x in freqs],
        "upper_confidence": [float(x) for x in upper],
        "ok": [bool(x) for x in ok],
        "vacuous": [bool(x) for x in vacuous & ~dominated],
        "failures": [{"u": float(u[i]), "bound": float(probs[i]),
                      "upper_confidence": float(upper[i]), "frequency": float(freqs[i]),
                      "margin": float(probs[i] - upper[i])} for i in np.flatnonzero(~ok)],
    }


def quantile_u_grid(stats: np.ndarray, points: int = 20) -> np.ndarray:
    """Log-spaced threshold grid spanning the informative range of a
    nonnegative statistic sample: from its ``_U_GRID_QUANTILE`` quantile to
    1.5x its max."""
    s = np.asarray(stats, dtype=float)
    top = float(s.max(initial=0.0))
    if top <= 0.0:
        return np.logspace(-2, 1, points)
    lo = float(np.quantile(s, _U_GRID_QUANTILE))
    lo = max(lo, 1e-6 * top)
    return np.logspace(np.log10(lo), np.log10(1.5 * top), points)
