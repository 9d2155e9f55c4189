"""Moment-scale and exponential-moment norms of empirical samples.

Two norm families drive every tail estimate in this library:

* the moment norm sup_p |xi|_p / psi(p) over a weight function psi on [1, b)
  (the Grand Lebesgue Space norm; a degenerate psi concentrated at l recovers
  the plain L_l norm), and
* the exponential-moment norm: the least tau >= 0 such that the two-sided
  moment generating function is dominated by exp(phi(lambda * tau)) for a
  Young-Orlicz function phi.

Both are computed from finite samples on finite grids.  The Young-Fenchel
transform (convex conjugate) converts moment growth into tail decay; on
tabulated convex functions the double transform is exact when the conjugate
is evaluated at the table's chord slopes, which is the default grid here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import logsumexp

__all__ = [
    "PhiFunction",
    "PsiFunction",
    "EmpiricalSample",
    "EquivalenceReport",
    "lp_norm",
    "lp_norms",
    "lower_convex_envelope",
    "gls_norm",
    "mgf_norm",
    "natural_phi",
    "young_fenchel",
    "conjugate_at",
    "double_conjugate",
    "tail_from_phi",
    "moment_tail_equivalence",
]

# log-mgf values beyond this are treated as an effective loss of the
# exponential-moment property on the requested grid
LOG_MGF_CAP = 700.0
# chord slopes closer than this, relative to the table's slope scale, are one node
SLOPE_MERGE_RTOL = 1e-7


def lp_norm(draws: np.ndarray, p: float) -> float:
    """(mean |x|^p)^(1/p), computed scale-free to avoid overflow."""
    x = np.abs(np.asarray(draws, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample")
    c = x.max()
    if c == 0.0:
        return 0.0
    return float(c * np.mean((x / c) ** p) ** (1.0 / p))


def lp_norms(draws: np.ndarray, ps) -> np.ndarray:
    x = np.abs(np.asarray(draws, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample")
    ps = np.asarray(ps, dtype=float)
    c = x.max()
    if c == 0.0:
        return np.zeros_like(ps)
    r = x / c
    out = np.empty_like(ps)
    for i, p in enumerate(ps):
        out[i] = np.mean(r**p) ** (1.0 / p)
    return c * out


@dataclass(frozen=True)
class PhiFunction:
    """Tabulated Young-Orlicz function phi on [0, lambda_max), extended evenly.

    phi(0) = 0, convex and increasing for positive arguments.  Beyond the last
    grid point the function is extended linearly with the final slope when
    ``lambda_max`` is infinite (a convex minorant, hence conservative), and by
    +infinity when the table ends at a finite ``lambda_max``.
    """

    grid: np.ndarray
    values: np.ndarray
    lambda_max: float = np.inf

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size != v.size or g.size < 2:
            raise ValueError("grid and values must be 1-d of equal length >= 2")
        if g[0] != 0.0 or not np.all(np.diff(g) > 0):
            raise ValueError("grid must start at 0 and increase strictly")
        if abs(v[0]) > 1e-12:
            raise ValueError("phi(0) must be 0")
        if np.any(v < -1e-12):
            raise ValueError("phi must be nonnegative")
        if np.any(np.diff(v) < -1e-12):
            raise ValueError("phi must be nondecreasing for positive arguments")
        # convexity along the grid: divided differences nondecreasing
        slopes = np.diff(v) / np.diff(g)
        if np.any(np.diff(slopes) < -1e-9 * max(1.0, np.abs(slopes).max())):
            raise ValueError("phi must be convex along the grid")
        if not self.lambda_max >= g[-1]:
            raise ValueError("lambda_max must be >= the last grid point")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def __call__(self, lam) -> np.ndarray:
        """Evaluate at |lam| by piecewise-linear interpolation."""
        x = np.abs(np.asarray(lam, dtype=float))
        g, v = self.grid, self.values
        out = np.interp(x, g, v)
        beyond = x > g[-1]
        if np.any(beyond):
            if np.isinf(self.lambda_max):
                slope = (v[-1] - v[-2]) / (g[-1] - g[-2])
                out = np.where(beyond, v[-1] + slope * (x - g[-1]), out)
            else:
                out = np.where(beyond, np.inf, out)
        return out

    @classmethod
    def quadratic(cls, lam_max: float = 10.0, n: int = 201, scale: float = 0.5) -> "PhiFunction":
        g = np.linspace(0.0, lam_max, n)
        return cls(g, scale * g**2)


@dataclass(frozen=True)
class PsiFunction:
    """Tabulated moment weight psi(p) > 0 on a grid inside [1, b).

    ``degenerate_at=l`` marks the single-moment weight concentrated at p = l,
    for which the moment norm reduces to the plain L_l norm.
    """

    grid: np.ndarray
    values: np.ndarray
    b: float = np.inf
    degenerate_at: Optional[float] = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size != v.size or g.size < 1:
            raise ValueError("grid and values must be 1-d of equal length >= 1")
        if not np.all(np.diff(g) > 0):
            raise ValueError("grid must be strictly increasing")
        if g[0] < 1.0 or not self.b > 1.0 or g[-1] >= self.b:
            raise ValueError("grid must lie in [1, b) with b > 1")
        if np.any(v <= 0) or v.min() <= 0:
            raise ValueError("psi must be positive with positive infimum")
        if self.degenerate_at is not None and g.size != 1:
            raise ValueError("degenerate psi must have a single grid point")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(
        cls, fn: Callable[[np.ndarray], np.ndarray], b: float = np.inf,
        p_max: float = 256.0, n: int = 200,
    ) -> "PsiFunction":
        hi = min(b, p_max)
        g = np.logspace(0.0, np.log10(hi), n, endpoint=False)
        return cls(g, np.asarray(fn(g), dtype=float), b=b)

    @classmethod
    def degenerate(cls, l: float) -> "PsiFunction":
        if l < 1:
            raise ValueError("degenerate order must be >= 1")
        return cls(np.array([l]), np.array([1.0]), b=max(l + 1.0, 2.0), degenerate_at=l)


@dataclass(frozen=True)
class EmpiricalSample:
    """A finite batch of real observations of one random variable."""

    draws: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.draws, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("draws must be a nonempty 1-d array")
        if not np.all(np.isfinite(d)):
            raise ValueError("draws must be finite")
        object.__setattr__(self, "draws", d)

    def moment(self, p: float) -> float:
        return lp_norm(self.draws, p)

    def moments(self, ps) -> np.ndarray:
        return lp_norms(self.draws, ps)

    def tail(self, x: float) -> float:
        """max(P(xi > x), P(xi < -x)) on the empirical measure."""
        d = self.draws
        return float(max(np.mean(d > x), np.mean(d < -x)))

    @property
    def n(self) -> int:
        return self.draws.size

    def is_centered(self, k_sigma: float = 3.0) -> bool:
        """|mean| <= k_sigma * std / sqrt(n), the statistical centering check."""
        d = self.draws
        tol = k_sigma * d.std() / np.sqrt(d.size)
        return bool(abs(d.mean()) <= tol + 1e-15)


def gls_norm(sample: EmpiricalSample, psi: PsiFunction) -> float:
    """Moment norm: max over the psi grid of |xi|_p / psi(p)."""
    ms = sample.moments(psi.grid)
    return float(np.max(ms / psi.values))


def _log_mgf(draws: np.ndarray, lam: float) -> float:
    """log mean exp(lam * xi), overflow-safe."""
    return float(logsumexp(lam * draws) - np.log(draws.size))


def mgf_norm(
    sample: EmpiricalSample,
    phi: PhiFunction,
    rel_tol: float = 1e-12,
    tau_cap: float = 1e12,
) -> float:
    """Least tau >= 0 with max(mean exp(+lam xi), mean exp(-lam xi)) <=
    exp(phi(lam * tau)) at every grid lam, found by bisection.

    Requires an approximately centered sample.  Raises ValueError when no
    finite tau satisfies the constraint (the empirical exponential-moment
    condition fails on this grid).
    """
    if not sample.is_centered():
        raise ValueError("sample is not centered: |mean| exceeds 3*std/sqrt(n)")
    lams = phi.grid[phi.grid > 0]
    log_mgf = np.array(
        [max(_log_mgf(sample.draws, l), _log_mgf(sample.draws, -l)) for l in lams]
    )

    def feasible(tau: float) -> bool:
        bound = phi(lams * tau)
        return bool(np.all(log_mgf <= bound + 1e-12))

    if feasible(0.0):
        return 0.0
    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > tau_cap:
            raise ValueError(
                "no finite scale satisfies the exponential-moment constraint "
                "(empirical Kramer condition fails on this grid)"
            )
    lo = 0.0
    while hi - lo > rel_tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def lower_convex_envelope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values of the lower convex envelope of the points (x_i, y_i) at x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hull = [0]
    for i in range(1, x.size):
        hull.append(i)
        while len(hull) >= 3:
            a, b, c = hull[-3], hull[-2], hull[-1]
            # drop b if it lies on or above chord a-c
            if (y[b] - y[a]) * (x[c] - x[a]) >= (y[c] - y[a]) * (x[b] - x[a]):
                hull.pop(-2)
            else:
                break
    return np.interp(x, x[hull], y[hull])


def natural_phi(
    samples: Sequence[EmpiricalSample] | EmpiricalSample,
    lam_max: float = 5.0,
    n_grid: int = 200,
) -> PhiFunction:
    """Empirical log-mgf envelope of a family of centered samples:

        phi(lam) = max over signs of log sup over the family of mean exp(+-lam xi),

    convexified by its lower convex envelope.  Grid points where the log-mgf
    exceeds the overflow cap are dropped, shrinking the table (with a warning).
    """
    if isinstance(samples, EmpiricalSample):
        samples = [samples]
    if len(samples) == 0:
        raise ValueError("empty family")
    for s in samples:
        if not s.is_centered():
            raise ValueError("every sample in the family must be centered")
    lams = np.linspace(0.0, lam_max, n_grid)
    vals = np.zeros_like(lams)
    for i, l in enumerate(lams[1:], start=1):
        v = max(max(_log_mgf(s.draws, l), _log_mgf(s.draws, -l)) for s in samples)
        vals[i] = v
    keep = vals <= LOG_MGF_CAP
    if not np.all(keep):
        last = int(np.argmin(keep))
        warnings.warn(
            f"log-mgf exceeds {LOG_MGF_CAP:g} beyond lam={lams[last - 1]:g}; "
            "table truncated",
            RuntimeWarning,
            stacklevel=2,
        )
        lams, vals = lams[:last], vals[:last]
        if lams.size < 2:
            raise ValueError("log-mgf overflows at every positive grid point")
    vals = np.maximum(lower_convex_envelope(lams, vals), 0.0)
    vals[0] = 0.0
    return PhiFunction(lams, vals, lambda_max=np.inf)


def conjugate_at(x: np.ndarray, f: np.ndarray, u) -> np.ndarray:
    """max over the table of (x*u - f(x)) for each requested u."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    u = np.asarray(u, dtype=float)
    vals = np.outer(u, x) - f[None, :]
    out = vals.max(axis=1)
    return out if out.ndim else float(out)


def young_fenchel(
    x: np.ndarray, f: np.ndarray, u: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Convex conjugate of a tabulated function: u -> max(x*u - f(x)).

    When ``u`` is omitted the conjugate is evaluated at the table's chord
    slopes, on which the double transform reproduces a convex table exactly.
    Slopes within ``SLOPE_MERGE_RTOL * (max|u| + max|f| / max|x|)`` of the
    last kept one are merged into it (the largest slope is always kept): the
    conjugate values carry rounding of order eps * (max|x| max|u| + max|f|),
    so difference quotients between closer nodes are noise.
    Returns (u, conjugate values); the output is convex in u.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.ndim != 1 or x.size != f.size or x.size < 2:
        raise ValueError("x and f must be 1-d of equal length >= 2")
    if not np.all(np.diff(x) > 0):
        raise ValueError("x must be strictly increasing")
    if not np.all(np.isfinite(f)):
        raise ValueError("f must be finite on its grid")
    if u is None:
        u = np.unique(np.diff(f) / np.diff(x))
        tol = SLOPE_MERGE_RTOL * (np.abs(u).max() + np.abs(f).max() / np.abs(x).max())
        kept = [u[0]]
        for slope in u[1:]:
            if slope - kept[-1] > tol:
                kept.append(slope)
        kept[-1] = u[-1]
        u = np.array(kept)
    else:
        u = np.asarray(u, dtype=float)
    return u, conjugate_at(x, f, u)


def double_conjugate(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply the transform twice; recovers a convex table, and in general
    returns the convex-hull values (always <= f)."""
    u, fstar = young_fenchel(x, f)
    return conjugate_at(u, fstar, x)


def tail_from_phi(phi: PhiFunction, c: float, x) -> np.ndarray:
    """Tail estimate min(1, exp(-phi*(c*x))) from an exponential-moment
    function, nonincreasing in x."""
    if c <= 0:
        raise ValueError("c must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    star = conjugate_at(phi.grid, phi.values, c * np.atleast_1d(x))
    out = np.minimum(1.0, np.exp(-star))
    return out if x.ndim else float(out[0])


@dataclass(frozen=True)
class EquivalenceReport:
    """Two routes to the same regularity statement: a moment-growth supremum
    and the matching empirical tail-decay constant."""

    m: float
    s: float
    moment_sup: float
    moment_argmax: float
    moment_sup_at_edge: bool
    tail_constant: float  # largest C with U(x) <= exp(-C x^m (ln x)^(-m s)), x >= e
    both_finite: bool


def moment_tail_equivalence(
    sample: EmpiricalSample,
    m: float,
    s: float = 0.0,
    p_grid: Optional[np.ndarray] = None,
    edge_factor: float = 0.98,
) -> EquivalenceReport:
    """Check the equivalence between |xi|_p <= C1 p^(1/m) log^s p growth and
    stretched-exponential tail decay on the empirical sample.

    Reports sup_p |xi|_p / (p^(1/m) log^s p) over the grid (with a flag when
    the sup sits at the grid edge, the empirical signature of divergence) and
    the best constant C2 with U(xi, x) <= exp(-C2 x^m (ln x)^(-m s)) for
    x >= e; C2 is +inf when the sample never reaches e.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    if p_grid is None:
        lo = 1.0 if s == 0.0 else 2.0
        p_grid = np.logspace(np.log10(lo), np.log10(256.0), 200, endpoint=False)
    p_grid = np.asarray(p_grid, dtype=float)
    weights = p_grid ** (1.0 / m)
    if s != 0.0:
        weights = weights * np.log(p_grid) ** s
    ratios = sample.moments(p_grid) / weights
    i = int(np.argmax(ratios))
    moment_sup = float(ratios[i])
    at_edge = p_grid[i] >= edge_factor * p_grid[-1]

    # sample.tail just below each distinct |draw| >= e, from one sort: the
    # atom itself counts, so every tail is at least 1/n
    d = np.sort(sample.draws)
    xs = np.unique(np.abs(d))
    xs = xs[xs >= np.e]
    y = xs * (1 - 1e-12)
    above = d.size - np.searchsorted(d, y, side="right")
    below = np.searchsorted(d, -y, side="left")
    u = np.maximum(above, below) / d.size
    cs = -np.log(u) * np.log(xs) ** (m * s) / xs**m
    tail_constant = float(cs.min()) if cs.size else np.inf
    both = np.isfinite(moment_sup) and not at_edge and tail_constant > 0
    return EquivalenceReport(
        m=m,
        s=s,
        moment_sup=moment_sup,
        moment_argmax=float(p_grid[i]),
        moment_sup_at_edge=bool(at_edge),
        tail_constant=tail_constant,
        both_finite=bool(both),
    )
