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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import paths

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
# exp of anything below this is subnormal (or +0.0), which numpy reaches on a
# slow path.  Zeroing such terms keeps a mean's bits: every shifted row holds
# exp(0) = 1 at its top, so its sum is at least 1, and the zeroed terms of n
# draws add up to under n 2^-1022, far below half an ulp of 1 (tested
# against the floor of -746, whose exp is +0.0)
_EXP_UNDERFLOW = float(np.log(np.finfo(float).tiny))  # about -708.40
# a moment sup at an order above this fraction of the largest is at the grid edge
_EDGE_FACTOR = 0.98
# standard errors of the mean within which ``is_centered`` holds
_CENTERING_SIGMAS = 3.0


def lp_norm(draws: np.ndarray, p: float) -> float:
    """(mean |x|^p)^(1/p), computed scale-free to avoid overflow."""
    return float(lp_norms(draws, [p])[0])


def _shifted_means(v: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each scale c of ``cs``: top = max c v and mean exp(c v - top).

    fl(c x) is monotone in x, so a row's ends are c times v's ends.  Entries
    below _EXP_UNDERFLOW are zeroed before exp, which skips numpy's slow
    subnormal path, and again after it.  A row whose top overflowed to +-inf
    is not formed: its mean is 1, so top + log(mean) is that +-inf.

    The rows are dealt round-robin (the high orders carry the masks) to one
    share per available CPU, and ``paths._pool_map`` forms each share in one
    buffer, on its pool when v is long enough.  A row is formed alike in any
    share, so the result is the same for any number of workers.
    """
    with np.errstate(over="ignore"):  # c v beyond float range is +-inf
        ends = np.multiply.outer(cs, [v.min(), v.max()])
        tops, lows = ends.max(axis=1), ends.min(axis=1)
        means = np.ones_like(tops)
        rows = np.flatnonzero(np.isfinite(tops))
        shares = min(paths._worker_count(), rows.size)

        def fill(share):
            buf, under = np.empty_like(v), np.empty(v.shape, dtype=bool)
            for k in share:
                np.multiply(cs[k], v, out=buf)
                if tops[k]:  # x - 0.0 is x, so lp_norms rows skip this pass
                    np.subtract(buf, tops[k], out=buf)
                if lows[k] - tops[k] < _EXP_UNDERFLOW:
                    np.less(buf, _EXP_UNDERFLOW, out=under)
                    np.copyto(buf, 0.0, where=under)
                    np.exp(buf, out=buf)
                    np.copyto(buf, 0.0, where=under)
                else:
                    np.exp(buf, out=buf)
                means[k] = np.add.reduce(buf) / v.size  # np.mean's sum and divide

        paths._pool_map(fill, [rows[i::shares] for i in range(shares)], v.size)
    return tops, means


def lp_norms(draws: np.ndarray, ps) -> np.ndarray:
    x = np.abs(np.asarray(draws, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample")
    ps = paths._in_range("orders p", np.asarray(ps, dtype=float), "(0, inf)")
    c = x.max()
    if c == 0.0:
        return np.zeros_like(ps)
    with np.errstate(divide="ignore"):
        log_r = np.log(np.divide(x, c, out=x), out=x)  # -inf at zero draws: exp(-inf) = 0
    # every top is p * 0 = 0; each root is a scalar power, as numpy's array
    # power may differ from it in the last bit
    means = _shifted_means(log_r, ps)[1]
    return c * np.array([mean ** (1.0 / p) for mean, p in zip(means, ps)])


@dataclass(frozen=True)
class PhiFunction:
    """Tabulated Young-Orlicz function phi on [0, lambda_max], extended evenly.

    phi(0) = 0, convex and increasing for positive arguments.  Beyond the last
    grid point the function is extended linearly with the final slope when
    ``lambda_max`` is infinite (a convex minorant, hence conservative), and by
    +infinity when it is finite: a finite table ends at its last knot, so a
    finite ``lambda_max`` must equal ``grid[-1]``.
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
        paths._in_range("phi", v, f"[{-1e-12}, inf)")  # a rounding's leeway
        if abs(v[0]) > 1e-12:
            raise ValueError("phi(0) must be 0")
        if np.any(np.diff(v) < -1e-12):
            raise ValueError("phi must be nondecreasing for positive arguments")
        # convexity along the grid: divided differences nondecreasing
        slopes = np.diff(v) / np.diff(g)
        if np.any(np.diff(slopes) < -1e-9 * max(1.0, np.abs(slopes).max())):
            raise ValueError("phi must be convex along the grid")
        if self.lambda_max != np.inf and self.lambda_max != g[-1]:
            raise ValueError("lambda_max must be +inf or the last grid point")
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

    ``degenerate(l)`` is the single-moment weight concentrated at p = l, for
    which the moment norm reduces to the plain L_l norm.
    """

    grid: np.ndarray
    values: np.ndarray
    b: float = np.inf

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size != v.size or g.size < 1:
            raise ValueError("grid and values must be 1-d of equal length >= 1")
        if not np.all(np.diff(g) > 0):
            raise ValueError("grid must be strictly increasing")
        b = paths._in_range("b", self.b, "(1, inf]")
        paths._in_range("grid", g, f"[1, {float(b)})")
        paths._in_range("psi", v, "(0, inf]")  # +inf is an infinite moment
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
        paths._in_range("degenerate order", l, "[1, inf)")
        return cls(np.array([l]), np.array([1.0]), b=max(l + 1.0, 2.0))


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """A finite batch of real observations of one random variable.

    The sample owns a read-only copy of its draws, so the log-mgf table it
    keeps for the last grid asked for cannot go stale.  Equality and hashing
    go by identity.
    """

    draws: np.ndarray
    _log_mgf: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        d = np.array(self.draws, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("draws must be a nonempty 1-d array")
        paths._in_range("draws", d, "(-inf, inf)")
        d.setflags(write=False)
        object.__setattr__(self, "draws", d)

    def moments(self, ps) -> np.ndarray:
        return lp_norms(self.draws, ps)

    def log_mgf(self, lams) -> np.ndarray:
        """max over signs of log mean exp(+-lam xi) at each lam of a 1-d grid;
        +inf where lam xi overflows.  The table is built once for a grid and
        kept until another grid is asked for; it is returned read-only."""
        lams = np.asarray(lams, dtype=float)
        key = (lams.shape, lams.tobytes())
        if self._log_mgf[0] != key:
            table = _log_mgf_table(self.draws, lams)
            table.setflags(write=False)
            object.__setattr__(self, "_log_mgf", (key, table))
        return self._log_mgf[1]

    def tail(self, x: float) -> float:
        """max(P(xi > x), P(xi < -x)) on the empirical measure."""
        d = self.draws
        return float(max(np.mean(d > x), np.mean(d < -x)))

    def is_centered(self) -> bool:
        """|mean| <= _CENTERING_SIGMAS * std / sqrt(n), the statistical
        centering check."""
        d = self.draws
        tol = _CENTERING_SIGMAS * d.std() / np.sqrt(d.size)
        return bool(abs(d.mean()) <= tol + 1e-15)


def gls_norm(sample: EmpiricalSample, psi: PsiFunction) -> float:
    """Moment norm: max over the psi grid of |xi|_p / psi(p)."""
    ms = sample.moments(psi.grid)
    return float(np.max(ms / psi.values))


def _log_mgf_table(draws: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """max over signs of log mean exp(+-lam xi) at each lam, as top + log(mean)
    of the shifted means; +inf where lam xi overflows.  Within
    2 eps max(1, |lam| max|xi|, |value|) of a long-double oracle (tested in
    ``tests/test_gls.py``), as the rounding of lam xi alone is eps |lam| max|xi|."""
    tops, means = _shifted_means(draws, np.concatenate([lams, -lams]))
    return np.max((tops + np.log(means)).reshape(2, -1), axis=0)


def mgf_norm(sample: EmpiricalSample, phi: PhiFunction) -> float:
    """Least tau >= 0 with max(mean exp(+lam xi), mean exp(-lam xi)) <=
    exp(phi(lam * tau)) at every grid lam.

    phi is nondecreasing and piecewise linear, so each grid lam needs
    tau >= phi^-1(log mgf(lam)) / lam, with phi^-1(y) the least argument
    where phi reaches y (read off the table, or its final-slope extension);
    tau is the largest of these.  Requires an approximately centered
    sample.  Raises ValueError when no finite tau satisfies the constraint
    (the empirical exponential-moment condition fails on this grid).
    """
    if not sample.is_centered():
        raise ValueError("sample is not centered: |mean| exceeds 3*std/sqrt(n)")
    g, v = phi.grid, phi.values
    lams = g[g > 0]
    log_mgf = sample.log_mgf(lams)
    level = np.maximum.accumulate(v)  # the table allows dips of 1e-12
    i = np.searchsorted(level, log_mgf)  # the first knot with level >= log mgf
    x = np.zeros_like(log_mgf)  # i == 0: phi(0) already reaches it
    inside = (i > 0) & (i < g.size)
    j, y = i[inside], log_mgf[inside]
    # knot j - 1 is the last one below y, so phi rises through y on
    # [g[j-1], g[j]] with v[j] > v[j-1]; exact at a knot's own value
    x[inside] = np.where(
        v[j] == y, g[j], g[j - 1] + (g[j] - g[j - 1]) / (v[j] - v[j - 1]) * (y - v[j - 1])
    )
    over = i == g.size
    if np.any(over):
        slope = (v[-1] - v[-2]) / (g[-1] - g[-2])
        if np.isinf(phi.lambda_max) and slope > 0:
            x[over] = g[-1] + (log_mgf[over] - v[-1]) / slope
        elif np.isinf(phi.lambda_max):
            raise ValueError(
                "no finite scale satisfies the exponential-moment constraint "
                "(empirical Kramer condition fails on this grid)"
            )
        else:
            # phi is +inf only strictly past the table: step beyond its end
            # by more than x / lam * lam can round back
            x[over] = g[-1] * (1 + 8 * np.finfo(float).eps)
    return float(np.max(x / lams))


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
    vals[1:] = np.max([s.log_mgf(lams[1:]) for s in samples], axis=0)
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
    out = (np.multiply.outer(u, x) - f).max(axis=-1)
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
    paths._in_range("f", f, "(-inf, inf)")
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
        u = paths._in_range("u", np.asarray(u, dtype=float), "(-inf, inf)")
    return u, conjugate_at(x, f, u)


def double_conjugate(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply the transform twice; recovers a convex table, and in general
    returns the convex-hull values (always <= f)."""
    u, fstar = young_fenchel(x, f)
    return conjugate_at(u, fstar, x)


def tail_from_phi(phi: PhiFunction, c: float, x) -> np.ndarray:
    """Tail estimate min(1, exp(-phi*(c*x))) from an exponential-moment
    function, nonincreasing in x."""
    paths._in_range("c", c, "(0, inf)")
    x = paths._in_range("x", np.asarray(x, dtype=float), "[0, inf]")
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


def _distinct_abs_from_e(d: np.ndarray) -> np.ndarray:
    """The distinct |x| >= e of a sorted sample, ascending, from its two
    tails alone."""
    return np.union1d(-d[: np.searchsorted(d, -np.e, side="right")],
                      d[np.searchsorted(d, np.e, side="left"):])


def moment_tail_equivalence(
    sample: EmpiricalSample,
    m: float,
    s: float = 0.0,
    p_grid: Optional[np.ndarray] = None,
) -> EquivalenceReport:
    """Check the equivalence between |xi|_p <= C1 p^(1/m) log^s p growth and
    stretched-exponential tail decay on the empirical sample.

    Reports sup_p |xi|_p / (p^(1/m) log^s p) over the grid (with a flag when
    the sup sits at the grid edge, the empirical signature of divergence) and
    the best constant C2 with U(xi, x) <= exp(-C2 x^m (ln x)^(-m s)) for
    x >= e; C2 is +inf when the sample never reaches e.  ``p_grid`` must
    increase strictly, and lie above 1 when s != 0, where log^s p is the weight.
    """
    paths._in_range("m", m, "(0, inf)")
    if p_grid is None:
        lo = 1.0 if s == 0.0 else 2.0
        p_grid = np.logspace(np.log10(lo), np.log10(256.0), 200, endpoint=False)
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.ndim != 1 or p_grid.size == 0 or np.any(np.diff(p_grid) <= 0):
        raise ValueError("p_grid must be a nonempty, strictly increasing 1-d grid")
    if s != 0.0:
        paths._in_range("orders p (s != 0)", p_grid, "(1, inf)")
    weights = p_grid ** (1.0 / m)
    if s != 0.0:
        weights = weights * np.log(p_grid) ** s
    ratios = sample.moments(p_grid) / weights
    i = int(np.argmax(ratios))
    moment_sup = float(ratios[i])
    at_edge = p_grid[i] >= _EDGE_FACTOR * p_grid[-1]

    # sample.tail just below each distinct |draw| >= e, from one sort: the
    # atom itself counts, so every tail is at least 1/n
    d = np.sort(sample.draws)
    xs = _distinct_abs_from_e(d)
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
