"""Tail bounds for the two-sided jump statistics of a path.

Every evaluator here turns moment or entropy information about a process
into an explicit upper bound on P(statistic > u), clamped to [0,1]:

* power bounds: a chaining constant K(alpha, beta) times u^(-2 beta) times a
  power of an increasing envelope G, for the global statistic and (with a
  continuity-modulus factor) for the span-constrained module;
* an entropy series: sum over scales of covering number x scale / growth
  function, minimized over scale/weight sequences;
* moment bounds: infima over p of (3 nu(p) G(1) / u)^p built from the
  natural moment function nu of the triple-minimum statistic;
* minimum-of-variables tail bounds via joint moments and convex conjugation;
* central-limit envelopes, uniform over the number of summands: the moment
  bounds of the Rosenthal-scaled moment function K_R(p) nu(p)
  (``rosenthal_nu``).

Infima over continuous parameters are taken over finite grids, so every
returned value is a valid (if slightly loose) bound, with the achieving
parameter reported.

Bounds are routinely +inf, 0 or beyond the float range, so every evaluator
runs under one rule, ``_float_range``: an overflow is +-inf and log 0 is -inf,
without a warning.  An infinite raw bound clamps to 1, an order with an
infinite moment is skipped, and an infinite threshold leaves u out of range.
A power bound reads log K (``_log_k``), so a K beyond the float range keeps
its digits.  Python float ``**`` raises OverflowError whatever the rule, so
such powers take an ``np.float64`` base.  The rule changes warnings, never values.

Inputs follow the range rule of ``paths._in_range``: each parameter is checked
against its declared range, where nan lies in no range and +-inf only in one
that the evaluator returns a number for, and a ValueError names the
parameter, its range and the value.  So the CLI exits 0 with a result, 2 on
such an error and 3 on ``BoundUnavailable``, and prints no nan bound.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .gls import PsiFunction
from .paths import GFunction, _in_range, _pool_map, _table

__all__ = [
    "BoundUnavailable",
    "TailCurve",
    "SequencePair",
    "SeriesBound",
    "chaining_constant",
    "chaining_theta_form",
    "power_global_bound",
    "power_module_bound",
    "geometric_sequences",
    "polynomial_sequences",
    "entropy_series_bound",
    "moment_global_bound",
    "moment_module_bound",
    "exp_tail_envelopes",
    "ExpEnvelopes",
    "joint_moment",
    "pair_pseudo_norm",
    "EmpiricalJointMoment",
    "min_tail_2d",
    "MinTail2D",
    "min_tail_fenchel",
    "MinTailFenchel",
    "pizier_min_bound",
    "factored_module_term",
    "rosenthal_constant",
    "rosenthal_nu",
    "clt_exp_envelope",
]

ROSENTHAL_FACTOR = 0.6535


def _float_range(f):
    """``f`` under the module docstring's rule, in a fresh errstate per call."""
    @functools.wraps(f)
    def ruled(*args, **kwargs):
        with np.errstate(over="ignore", divide="ignore"):
            return f(*args, **kwargs)
    return ruled


# an entropy series stops once its geometric-majorant remainder is below
# _SERIES_TOL, and is unavailable if that takes more than _SERIES_MAX_TERMS
_SERIES_TOL = 1e-9
_SERIES_MAX_TERMS = 100_000
# leading terms of a sequence pair that ``validate_sequence_pair`` checks
_SEQUENCE_CHECK_TERMS = 200
# the exponential envelopes calibrate on _ENVELOPE_CAL_POINTS thresholds
# against moment bounds on orders up to _ENVELOPE_P_MAX
_ENVELOPE_P_MAX = 256.0
_ENVELOPE_CAL_POINTS = 60


class BoundUnavailable(RuntimeError):
    """Raised when a bound cannot be produced: a diverging series, or an
    empty admissible parameter range."""


@dataclass(frozen=True)
class TailCurve:
    """Threshold grid with bound (or tail) values in [0,1], nonincreasing;
    ``params`` defaults to nan, the achieving parameter of no row."""

    thresholds: np.ndarray
    probs: np.ndarray
    raw: Optional[np.ndarray] = None
    params: Optional[np.ndarray] = None

    def __post_init__(self):
        u, p = _table("thresholds", self.thresholds, "(0, inf]",  # probs: a rounding's leeway
                      values=("probs", self.probs, f"[{-1e-12}, {1 + 1e-12}]"),
                      monotone=("nonincreasing", 1e-9))
        object.__setattr__(self, "thresholds", u)
        object.__setattr__(self, "probs", np.clip(p, 0.0, 1.0))
        if self.params is None:
            object.__setattr__(self, "params", np.full(u.size, np.nan))

    def table(self) -> tuple[list, list]:
        """CSV header and columns: threshold, bound, achieving parameter."""
        return ["u", "bound", "param"], [self.thresholds, self.probs,
                                          np.array([str(p) for p in self.params])]


# ---------------------------------------------------------------------------
# chaining constant
# ---------------------------------------------------------------------------


def _check_alpha_beta(alpha: float, beta: float, upper: str = "inf]") -> None:
    """alpha in (1, inf], beta in (0, inf], not both inf; ``upper="inf)"`` leaves inf out."""
    _in_range("alpha", alpha, "(1, " + upper)
    _in_range("beta", beta, "(0, " + upper)
    if alpha == beta == math.inf:
        raise ValueError("alpha and beta must not both be inf, where K has no limit")


def _log1mexp(x):
    """log(1 - e^-x) for x in [0, inf], to full precision near 0."""
    return np.log(-np.expm1(-x))


@_float_range
def _optimize_theta(q: float, beta: float) -> float:
    """s* = log(1/theta*) at the minimizer theta* of the theta form, lo = e^-q.
    Its stationarity condition 2 theta - 1 = theta (lo/theta)^(2 beta) reads
    -log(2 - e^s) = 2 beta (q - s); the residual rises strictly from -q at s = 0
    and is >= 0 at ln 2, q and 4 beta q / (2 beta + 1), as -log(2 - e^s) >= s."""
    from scipy.optimize import brentq  # loaded only for mode="optimized"

    hi = min(math.log(2.0), q, 4 * beta * q / (2 * beta + 1))
    residual = lambda s: -np.log1p(-np.expm1(s)) / (2 * beta) + s - q
    return brentq(residual, 0.0, hi, xtol=1e-300)  # a relative tolerance only


@_float_range
def _log_k(alpha: float, beta: float, mode: str, theta: Optional[float] = None) -> float:
    """log K(alpha, beta) in ``mode``, or of the theta form at ``theta``, factor
    by factor, so no term overflows or cancels.  With t = (alpha-1)/2 ln 2,
    closed     log K = -2 beta log(1 - e^(-t/(2 beta))) - log(e^t - 1);
    optimized  with q = t/beta = -log lo, s = log(1/theta) (or s*) and
               q - s = log(theta/lo), the form's log is
               -q + 2 beta s - 2 beta log(1 - e^-s) - log(1 - e^(-2 beta (q - s)))."""
    _check_alpha_beta(alpha, beta)
    t = (alpha - 1) / 2 * math.log(2.0)
    if mode == "closed":  # log(e^t - 1) = t + log(1 - e^-t)
        return -2 * beta * _log1mexp(t / (2 * beta)) - t - _log1mexp(t)
    if mode != "optimized":
        raise ValueError(f"unknown mode {mode!r}")
    q = _in_range("(alpha-1)/(2 beta) ln 2", t / beta, "(0, inf)")
    if theta is None:  # lo = e^-q may round to 0 or 1; log K reads q alone
        s = _optimize_theta(q, beta)
    else:
        s = -math.log(_in_range("theta", theta, f"({2 ** ((1 - alpha) / (2 * beta))}, 1)"))
    x = max(q - s, 0.0)  # a theta within rounding of lo gives F = inf
    return -q + 2 * beta * s - 2 * beta * _log1mexp(s) - _log1mexp(2 * beta * x)


@_float_range
def chaining_theta_form(alpha: float, beta: float, theta: float) -> float:
    """One-parameter family of chaining constants; valid for
    theta in (2^((1-alpha)/(2 beta)), 1)."""
    return float(np.exp(_log_k(alpha, beta, "optimized", theta)))


@_float_range
def chaining_constant(alpha: float, beta: float, mode: str = "closed") -> float:
    """Constant K(alpha, beta) of the power tail bounds, the exp of ``_log_k``.

    ``closed``     the closed form
                   (1 - 2^((1-alpha)/(4 beta)))^(-2 beta) / (2^((alpha-1)/2) - 1);
    ``optimized``  the theta form at the root of its stationarity condition.

    The two modes come from distinct displayed estimates and do not order
    consistently: the closed form is smaller than the theta-form minimum for
    beta > 1/2 (substituting the nominal theta into the theta form reproduces
    the closed form only up to a factor 2^((alpha-1)(1-1/(2 beta)))).
    """
    return float(np.exp(_log_k(alpha, beta, mode)))


# ---------------------------------------------------------------------------
# power bounds (global statistic and module)
# ---------------------------------------------------------------------------


def _as_pairs(pairs) -> list[tuple[float, float]]:
    if isinstance(pairs, tuple) and len(pairs) == 2 and np.isscalar(pairs[0]):
        pairs = [pairs]
    out = [(float(a), float(b)) for a, b in pairs]
    if not out:
        raise ValueError("need at least one (alpha, beta) pair")
    for a, b in out:
        _check_alpha_beta(a, b, "inf)")  # an infinite exponent makes a bound inf * 0
    return out


def _u_grid(u_grid) -> np.ndarray:
    return _in_range("u", np.atleast_1d(np.asarray(u_grid, dtype=float)), "(0, inf]")


def _zero_curve(u: np.ndarray) -> TailCurve:
    zeros = np.zeros_like(u)
    return TailCurve(u, zeros, raw=zeros)


def _envelope(g: GFunction, h) -> tuple[float, Optional[float], bool]:
    """G(1) - G(0), omega_G(2h) (None without a span h) and whether either is 0,
    which makes every bound built on them 0.  A span must lie in (0, 1/2]."""
    g1 = g.total
    om = None if h is None else g.modulus(2 * _in_range("h", h, "(0, 0.5]"))
    return g1, om, g1 == 0.0 or om == 0.0


def _grid_inf(log_terms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Infimum over the rows of a (n_params, n_points) table of log bound terms:
    per column, the bound clamped to [0,1], the raw bound and the achieving row."""
    j = np.argmin(log_terms, axis=0)
    raw = np.exp(log_terms[j, np.arange(log_terms.shape[1])])
    return np.clip(raw, 0.0, 1.0), raw, j


def _curve_from_log(u, log_terms, params) -> TailCurve:
    """The clamped pointwise-infimum curve of a (n_params, n_u) log-term table."""
    probs, raw, j = _grid_inf(log_terms)
    par = np.empty(len(params), dtype=object)
    par[:] = params
    return TailCurve(thresholds=u, probs=probs, raw=raw, params=par[j])


def _power_terms(pairs, g: GFunction, h, u_grid, mode: str):
    """Pairs, u grid and (n_pairs, n_u) log table of K(alpha,beta) u^(-2 beta) G(1)^alpha,
    times 2 omega_G(2h)^(alpha-1) when a span h is given; None for a 0 envelope."""
    g1, om, zero = _envelope(g, h)
    pl = _as_pairs(pairs)
    u = _u_grid(u_grid)
    if zero:
        return pl, u, None
    rows = []
    for a, b in pl:
        log_k = _log_k(a, b, mode)
        if om is None:
            log_c = log_k + a * math.log(g1)
        else:
            log_c = math.log(2.0) + log_k + a * math.log(g1) + (a - 1) * math.log(om)
        rows.append(log_c - 2 * b * np.log(u))
    return pl, u, np.vstack(rows)


@_float_range
def _power_curve(pairs, g: GFunction, h, u_grid, mode: str) -> TailCurve:
    """Pointwise min over (alpha, beta) of the power terms; clamped."""
    pl, u, log_terms = _power_terms(pairs, g, h, u_grid, mode)
    return _zero_curve(u) if log_terms is None else _curve_from_log(u, log_terms, pl)


def power_global_bound(pairs, g: GFunction, u_grid, mode: str = "closed") -> TailCurve:
    """K(alpha,beta) u^(-2 beta) (G(1)-G(0))^alpha, minimized over the
    supplied (alpha, beta) pairs and clamped to [0,1]."""
    return _power_curve(pairs, g, None, u_grid, mode)


def power_module_bound(
    pairs, g: GFunction, h: float, u_grid, mode: str = "closed"
) -> TailCurve:
    """Module version: 2 K(alpha,beta) u^(-2 beta) (G(1)-G(0))^alpha
    (omega_G(2h))^(alpha-1), minimized over pairs and clamped."""
    return _power_curve(pairs, g, h, u_grid, mode)


# ---------------------------------------------------------------------------
# entropy series bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequencePair:
    """Scale sequence eps (eps(1) = 1, strictly decreasing to 0) and weight
    sequence theta (positive, summing to at most 1), both 1-indexed."""

    eps: Callable[[int], float]
    theta: Callable[[int], float]
    label: str = "custom"


def geometric_sequences(s: float = 0.1, theta: float = 0.6) -> SequencePair:
    """eps(k) = s^(k-1), theta(k) = (1-theta) theta^(k-1) (weights sum to 1)."""
    _in_range("s", s, "(0, 1)")
    _in_range("theta", theta, "(0, 1)")
    return SequencePair(
        eps=lambda k: s ** (k - 1),
        theta=lambda k: (1 - theta) * theta ** (k - 1),
        label=f"geometric(s={s:g},theta={theta:g})",
    )


def polynomial_sequences(nu: float = 2.0) -> SequencePair:
    """eps(k) = e^(1-k), theta(k) = k^(-nu) / zeta(nu)."""
    _in_range("nu", nu, "(1, inf)")  # for summable weights
    from scipy.special import zeta  # loaded only for polynomial weights

    c = 1.0 / float(zeta(nu))
    return SequencePair(
        eps=lambda k: math.exp(1 - k),
        theta=lambda k: c * k ** (-nu),
        label=f"polynomial(nu={nu:g})",
    )


def validate_sequence_pair(pair: SequencePair) -> None:
    """Check eps(1) = 1, eps decreasing and theta positive with total weight
    at most 1, on the first ``_SEQUENCE_CHECK_TERMS`` terms."""
    if abs(pair.eps(1) - 1.0) > 1e-12:
        raise ValueError(f"{pair.label}: eps(1) must equal 1")
    eps = [pair.eps(k) for k in range(1, _SEQUENCE_CHECK_TERMS + 1)]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"{pair.label}: eps must be strictly decreasing")
    th = [pair.theta(k) for k in range(1, _SEQUENCE_CHECK_TERMS + 1)]
    _in_range(f"{pair.label}: theta", th, "(0, inf)")
    _in_range(f"{pair.label}: the sum of the theta weights", sum(th), f"(0, {1 + 1e-9}]")


@dataclass(frozen=True)
class SeriesBound:
    """Converged entropy-series value with its truncation remainder."""

    value: float
    remainder: float
    terms_used: int
    pair_label: str


def _series_try(
    covering: Callable[[float], float],
    lam: Callable[[float], float],
    pair: SequencePair,
    u: float,
) -> Optional[SeriesBound]:
    total = 0.0
    prev = None
    ratios: list[float] = []
    for k in range(1, _SERIES_MAX_TERMS + 1):
        scale = pair.eps(k + 1)
        if not scale > 0:
            return None  # the scales underflowed before the remainder was certified
        growth = lam(u * pair.theta(k))
        if not 0 < growth < np.inf:
            return None  # the growth underflowed to 0 or overflowed to inf
        term = covering(scale) * pair.eps(k) / growth
        if not np.isfinite(term) or term < 0:
            return None
        total += term
        if prev is not None and prev > 0:
            ratios.append(term / prev)
            ratios = ratios[-8:]
        prev = term
        if len(ratios) == 8:
            rho = max(ratios)
            if rho < 1.0:
                remainder = term * rho / (1.0 - rho)
                if remainder < _SERIES_TOL:
                    return SeriesBound(total, remainder, k, pair.label)
            elif k >= 32 and min(ratios) >= 1.0:
                return None  # terms stopped decreasing: numerically divergent
        if total > 1e15:
            return None
    return None  # truncation budget exhausted without a certified remainder


@_float_range
def entropy_series_bound(
    covering: Callable[[float], float],
    lam: Callable[[float], float],
    pairs: SequencePair | Sequence[SequencePair],
    u: float,
) -> SeriesBound:
    """Truncated series sum_k N(eps(k+1)) eps(k) / lam(u theta(k)), minimized
    over the supplied sequence pairs.

    ``covering`` maps a scale to a covering number and ``lam`` is the
    increasing growth function; the result bounds the probability that the
    global statistic exceeds 2u.  The truncation index is chosen so the
    geometric-majorant remainder falls below ``_SERIES_TOL``.  Raises
    ``BoundUnavailable`` when no supplied pair yields a numerically
    convergent series within ``_SERIES_MAX_TERMS`` terms.
    """
    _in_range("u", u, "(0, inf)")  # the growth lam(inf theta(k)) is no number
    if isinstance(pairs, SequencePair):
        pairs = [pairs]
    if not pairs:
        raise ValueError("need at least one sequence pair")
    best: Optional[SeriesBound] = None
    for pair in pairs:
        validate_sequence_pair(pair)
        res = _series_try(covering, lam, pair, u)
        if res is not None and (best is None or res.value < best.value):
            best = res
    if best is None:
        raise BoundUnavailable(
            "entropy series bound unavailable: partial sums are not Cauchy "
            "within the truncation budget for any supplied sequence pair"
        )
    return best


# ---------------------------------------------------------------------------
# moment bounds from the natural function
# ---------------------------------------------------------------------------


def _nu_table(nu, b: float, p_grid) -> tuple[np.ndarray, np.ndarray]:
    """Normalize the moment-function argument to (p grid, values) in [2, b).
    The orders must increase strictly and neither column may be nan; the
    orders outside [2, b) and the moments of +inf are left out, and the
    other moments must lie in [0, inf)."""
    _in_range("b", b, "(2, inf]")
    if hasattr(nu, "p_grid") and hasattr(nu, "values"):
        ps, vals = nu.p_grid, nu.values
    elif callable(nu):
        if p_grid is None:
            hi = min(b, 256.0)
            p_grid = np.logspace(np.log10(2.0), np.log10(hi), 200, endpoint=False)
        ps = np.asarray(p_grid, dtype=float)
        vals = nu(ps)
    else:
        ps, vals = nu
    ps, vals = _table("p", ps, "[-inf, inf]", values=("nu", vals, "[-inf, inf]"))
    keep = (ps >= 2.0) & (ps < b) & (vals != np.inf)
    ps, vals = ps[keep], vals[keep]
    if ps.size == 0:
        raise ValueError("moment function nu has no finite values on [2, b)")
    return ps, _in_range("nu", vals, "[0, inf)")


@_float_range
def _moment_curve(nu, g: GFunction, h, u_grid, b: float, p_grid) -> TailCurve:
    """Pointwise inf over p of (3 nu(p) G(1) / u)^p, times the module factor
    2 omega_G(2h)^(p-1) when a span h is given; clamped."""
    g1, om, zero = _envelope(g, h)
    ps, vals = _nu_table(nu, b, p_grid)
    u = _u_grid(u_grid)
    if zero:
        return _zero_curve(u)
    log_coef = np.log(3.0 * vals * g1)
    log_terms = ps[:, None] * (log_coef[:, None] - np.log(u)[None, :])
    if om is not None:
        # a term whose two factors leave the float range at opposite ends is
        # inf - inf: no number, so that order is skipped there
        with np.errstate(invalid="ignore"):
            log_terms = log_terms + (math.log(2.0) + (ps - 1.0) * math.log(om))[:, None]
        log_terms[np.isnan(log_terms)] = np.inf
    return _curve_from_log(u, log_terms, ps)


def moment_global_bound(nu, g: GFunction, u_grid, b: float = np.inf, p_grid=None) -> TailCurve:
    """inf over p in [2, b) of (3 nu(p) (G(1)-G(0)) / u)^p, clamped.

    ``nu`` may be a callable p -> nu(p), a (p grid, values) pair, or any
    object with ``p_grid`` and ``values`` attributes (a moment table).
    """
    return _moment_curve(nu, g, None, u_grid, b, p_grid)


def moment_module_bound(
    nu, g: GFunction, h: float, u_grid, b: float = np.inf, p_grid=None
) -> TailCurve:
    """Module version: 2 inf_p (3 nu(p) (G(1)-G(0)) / u)^p (omega_G(2h))^(p-1)."""
    return _moment_curve(nu, g, h, u_grid, b, p_grid)


# ---------------------------------------------------------------------------
# exponential envelopes for power-of-p moment growth
# ---------------------------------------------------------------------------


def _calibrate(raw: np.ndarray, rate: np.ndarray) -> float:
    """Largest constant C with exp(-C * rate) >= raw at all calibration points
    where the constraint binds (raw < 1); 0 when it never binds."""
    mask = (raw > 0) & (raw < 1) & (rate > 0)
    if not np.any(mask):
        return 0.0
    return float(np.min(-np.log(raw[mask]) / rate[mask]))


def _decay(c: float, rate, scale: float = 1.0) -> float:
    """exp(-c rate scale) for a calibrated c >= 0; 1 at c = 0 (also where the
    rate overflowed to inf) and at a zero rate (also for an infinite c)."""
    if not c > 0 or rate == 0:
        return 1.0
    return math.exp(-c * rate * scale)


@dataclass(frozen=True)
class ExpEnvelopes:
    """Stretched-exponential envelopes of the moment bounds under
    nu(p) <= c1 p^m (``exp_tail_envelopes``) or of the central-limit bounds
    under y(p) <= c1 p^(1/m) ln^s p (``clt_exp_envelope``), with numerically
    calibrated constants."""

    delta_value: float
    kappa_value: float
    c2: float
    c3: float
    delta_in_range: bool
    kappa_in_range: bool


@_float_range
def exp_tail_envelopes(
    c1: float,
    m: float,
    g: GFunction,
    h: float,
    u: float,
) -> ExpEnvelopes:
    """Envelopes exp(-C2 u^(1/m)) for the global statistic and
    2 omega^(-1) exp(-C3 u^(1/m) omega) for the module, where omega is the
    continuity modulus of G at 2h.

    C2 and C3 are calibrated numerically as the largest constants for which
    the envelope dominates the corresponding grid-infimum moment bound over a
    reference threshold range, so the envelopes relax (sit above) the exact
    bounds there.  The module envelope carries a validity flag for
    u >= (omega |ln omega|)^(-m).
    """
    _in_range("c1", c1, "(0, inf)")
    _in_range("m", m, "(0, inf)")
    _in_range("u", u, "(0, inf]")
    g1, om, _ = _envelope(g, h)
    if g1 == 0.0:
        return ExpEnvelopes(0.0, 0.0, np.inf, np.inf, True, True)
    a = 3.0 * c1 * g1
    nu = lambda p: c1 * p**m
    rate_u = np.float64(u) ** (1.0 / m)
    p_cal = np.logspace(np.log10(2.0), np.log10(_ENVELOPE_P_MAX / 4.0), _ENVELOPE_CAL_POINTS)

    def cal_grid(scale):
        # thresholds where each calibration p is the unconstrained optimum; the
        # query threshold joins the grid so domination there is by construction,
        # and the p grid is left at the evaluators' default so the relaxation is
        # of the same bound a direct call produces
        grid = scale * (math.e * p_cal) ** m
        if not np.all(np.isfinite(grid)):
            raise ValueError(f"m={m:g} (c1={c1:g}, G(1)={g1:g}) puts the calibration "
                             f"thresholds {scale:.6g} (e p)^m beyond the float range")
        if not np.all(np.diff(grid) > 0):
            raise ValueError(f"m={m:g} (c1={c1:g}, G(1)={g1:g}) rounds the calibration "
                             f"thresholds {scale:.6g} (e p)^m to equal values")
        return np.unique(np.append(grid, u))  # a u on the grid is not repeated

    u_cal = cal_grid(a)
    delta_curve = moment_global_bound(nu, g, u_cal)
    c2 = _calibrate(delta_curve.raw, u_cal ** (1.0 / m))
    delta_value = _decay(c2, rate_u)

    if om == 0.0:
        return ExpEnvelopes(delta_value, 0.0, c2, np.inf, u >= 1.0, True)
    u_cal_k = cal_grid(a * om)
    kappa_curve = moment_module_bound(nu, g, h, u_cal_k)
    c3 = _calibrate(kappa_curve.raw * om / 2.0, u_cal_k ** (1.0 / m) * om)
    threshold = np.float64(om * abs(math.log(om))) ** (-m) if 0 < om < 1 else 0.0
    kappa_value = min(1.0, 2.0 / om * _decay(c3, rate_u, om))
    return ExpEnvelopes(
        delta_value=delta_value,
        kappa_value=kappa_value,
        c2=c2,
        c3=c3,
        delta_in_range=bool(u >= 1.0),
        kappa_in_range=bool(u >= threshold),
    )


# ---------------------------------------------------------------------------
# minimum-of-variables tail bounds (joint moments)
# ---------------------------------------------------------------------------


def joint_moment(xs, ys, p1: float, p2: float) -> float:
    """mean |x|^p1 |y|^p2 on paired samples, scale-free against overflow."""
    x, y = (np.abs(a) for a in _table("xs", xs, None, values=("ys", ys, None), ordered=False))
    cx = x.max() or 1.0
    cy = y.max() or 1.0
    return float(cx**p1 * cy**p2 * np.mean((x / cx) ** p1 * (y / cy) ** p2))


def pair_pseudo_norm(xs, ys, p1: float, p2: float) -> float:
    """(mean |x|^p1 |y|^p2)^(1/(p1+p2)): degree-1 homogeneous but not a norm
    (its unit ball is not convex)."""
    return joint_moment(xs, ys, p1, p2) ** (1.0 / (p1 + p2))


# sample rows per task of ``EmpiricalJointMoment.matrix`` at most, the tasks
# a sample of fewer blocks is cut into, and rows per slice on which a task
# forms its two power tables: at 8 bytes per row and order, a slice's tables
# stay in cache at the grids of ``min_tail_2d``
_JOINT_BLOCK = 8192
_JOINT_TASKS = 2
_JOINT_SLICE = 512


class EmpiricalJointMoment:
    """Joint absolute moments of a paired sample with a fast grid evaluator.

    The object owns read-only copies |xs| and |ys|, so the matrix it keeps for
    the last grid pair asked for cannot go stale.
    """

    def __init__(self, xs, ys):
        self.x, self.y = (np.abs(a) for a in _table("xs", xs, None, values=("ys", ys, None),
                                                   ordered=False))
        self.x.setflags(write=False)
        self.y.setflags(write=False)
        self._matrix = (None, None)

    def __call__(self, p1: float, p2: float) -> float:
        return joint_moment(self.x, self.y, p1, p2)

    def matrix(self, p1s: np.ndarray, p2s: np.ndarray) -> np.ndarray:
        """E|x|^p1 |y|^p2 at every (p1, p2) of the two 1-d grids.  The matrix
        is built once for a grid pair and kept until another pair is asked
        for; it is returned read-only.

        The draws are cut into tasks of a pool with one thread per available
        CPU: blocks of ``_JOINT_BLOCK`` draws, or ``_JOINT_TASKS`` runs of
        whole slices for a smaller sample.  A task forms the scaled power
        tables on slices of ``_JOINT_SLICE`` draws and adds each slice's
        product into its part; the parts are added in order, and the cut
        depends on n alone, so the result is the same for any number of
        workers."""
        p1s = np.asarray(p1s, dtype=float)
        p2s = np.asarray(p2s, dtype=float)
        key = (p1s.shape, p1s.tobytes(), p2s.shape, p2s.tobytes())
        if self._matrix[0] != key:
            cx = self.x.max() or 1.0
            cy = self.y.max() or 1.0
            n = self.x.size
            # rows per task: a block, or a small sample's share in whole slices
            step = min(_JOINT_BLOCK, -(-n // (_JOINT_TASKS * _JOINT_SLICE)) * _JOINT_SLICE)

            def task(lo):
                part = np.zeros((p1s.size, p2s.size))
                hi = min(lo + step, n)
                for a in range(lo, hi, _JOINT_SLICE):
                    xs = (self.x[a : min(a + _JOINT_SLICE, hi)] / cx)[:, None] ** p1s
                    ys = (self.y[a : min(a + _JOINT_SLICE, hi)] / cy)[:, None] ** p2s
                    part += xs.T @ ys
                return part

            cells = min(n, step) * (p1s.size + p2s.size)
            acc = np.zeros((p1s.size, p2s.size))
            for part in _pool_map(task, range(0, n, step), cells):
                acc += part
            mat = np.outer(cx**p1s, cy**p2s) * acc / n
            mat.setflags(write=False)
            self._matrix = (key, mat)
        return self._matrix[1]


@dataclass(frozen=True)
class MinTail2D:
    value: float
    raw: float
    p1: float
    p2: float


@_float_range
def min_tail_2d(moment, u: float, v: float, p1_grid=None, p2_grid=None) -> MinTail2D:
    """Joint tail bound min over (p1, p2) of moment(p1,p2) / (u^p1 v^p2),
    clamped to [0,1].

    ``moment`` is either a scalar callable (p1, p2) -> E|x|^p1 |y|^p2 or an
    object exposing ``matrix(p1s, p2s)`` (see ``EmpiricalJointMoment``).
    Infinite moments are skipped; if nothing on the grid is finite the bound
    degenerates to 1 with a warning.
    """
    _in_range("u", u, "(0, inf]")
    _in_range("v", v, "(0, inf]")
    if p1_grid is None:
        p1_grid = np.logspace(-1, np.log10(16.0), 60)
    if p2_grid is None:
        p2_grid = np.logspace(-1, np.log10(16.0), 60)
    p1_grid = np.asarray(p1_grid, dtype=float)
    p2_grid = np.asarray(p2_grid, dtype=float)
    if hasattr(moment, "matrix"):
        mom = np.asarray(moment.matrix(p1_grid, p2_grid), dtype=float)
    else:
        mom = np.array([[moment(a, b) for b in p2_grid] for a in p1_grid], dtype=float)
    log_terms = (
        np.log(mom)
        - p1_grid[:, None] * math.log(u)
        - p2_grid[None, :] * math.log(v)
    )
    log_terms = np.where(np.isfinite(mom), log_terms, np.inf)
    if not np.any(np.isfinite(log_terms)):
        warnings.warn("joint moment infinite everywhere on the grid; bound is 1",
                      RuntimeWarning, stacklevel=2)
        return MinTail2D(1.0, np.inf, np.nan, np.nan)
    value, raw, k = _grid_inf(log_terms.reshape(-1, 1))
    i, j = divmod(int(k[0]), p2_grid.size)
    return MinTail2D(float(value[0]), float(raw[0]), float(p1_grid[i]), float(p2_grid[j]))


@dataclass(frozen=True)
class MinTailFenchel:
    value: float
    p_star: float
    at_edge: bool


@_float_range
def min_tail_fenchel(psi: PsiFunction, d: int, u: float) -> MinTailFenchel:
    """Tail bound exp(-psi1*(d ln u)) for the minimum of d variables whose
    absolute product has moment function psi, where psi1(p) = p ln psi(p) and
    * is the convex conjugate over the tabulated support.

    Identical to the direct infimum of psi(p)^p u^(-dp) over the grid; requires
    u > 1.  The achieving p is reported, with a flag when it sits at the grid
    edge (the infimum is then a grid artifact, not an interior optimum).
    """
    _in_range("d", d, "[1, inf)")
    _in_range("u", u, "(1, inf]")  # where the transform bound applies
    ps = psi.grid
    psi1 = ps * np.log(psi.values)
    # psi1*(d ln u) is the largest exponent (d ln u) p - psi1(p)
    value, _, k = _grid_inf((psi1 - d * math.log(u) * ps)[:, None])
    return MinTailFenchel(float(value[0]), float(ps[k[0]]), bool(k[0] == ps.size - 1))


# ---------------------------------------------------------------------------
# chaining-metric (increment-norm) bounds
# ---------------------------------------------------------------------------


@_float_range
def pizier_min_bound(d2p, r: float, s: float, t: float, u: float, p_grid=None) -> tuple[float, float]:
    """Triple bound inf over p of d(p, r, s)^p d(p, s, t)^p / u^(2p), clamped;
    d2p(p, a, b) is the order-2p increment norm.  Returns (value, achieving p)."""
    _in_range("u", u, "(0, inf]")
    if p_grid is None:
        p_grid = np.logspace(-1, np.log10(32.0), 120)
    p_grid = np.asarray(p_grid, dtype=float)
    norms = [[d2p(p, r, s), d2p(p, s, t)] for p in p_grid]
    d1, d2 = np.array(norms, dtype=float).reshape(-1, 2).T
    finite = np.isfinite(d1) & np.isfinite(d2)
    if not finite.any():
        raise ValueError("increment norms are nowhere finite on the p grid")
    # a row with a non-finite norm is skipped; its nan log term is discarded
    with np.errstate(invalid="ignore"):
        log_terms = np.where(finite, p_grid * (np.log(d1) + np.log(d2) - 2 * math.log(u)), np.inf)
    value, _, k = _grid_inf(log_terms[:, None])
    return float(value[0]), float(p_grid[k[0]])


# ---------------------------------------------------------------------------
# factored-distance module bound
# ---------------------------------------------------------------------------


@_float_range
def factored_module_term(
    z: Callable[[float], float], v: GFunction, l: float, p: float, h: float, u: float
) -> float:
    """Single-parameter term 2 K(lp, p) Z(2p)^(1/l) V(1)^(lp) u^(-2p)
    (omega_V(2h))^(lp-1), clamped to [0,1].

    Applies under the factored increment-norm condition
    d_p(r,s) d_p(s,t) <= Z(p) |V(t)-V(r)|^l; requires l*p > 1 so the
    chaining constant exists.
    """
    _in_range("l*p", l * p, "(1, inf)")  # for the chaining constant
    # log Z(2p) / l plus the (lp, p) power module log term; 0 for a 0 envelope, Z or u^(-2p)
    _, _, log_terms = _power_terms((l * p, p), v, h, [u], "closed")
    zval = _in_range("Z(2p)", z(2 * p), "[0, inf]")
    if log_terms is None or zval == 0.0 or log_terms[0, 0] == -np.inf:
        return 0.0
    return min(1.0, float(np.exp(log_terms[0, 0] + math.log(zval) / l)))


# ---------------------------------------------------------------------------
# central-limit envelopes
# ---------------------------------------------------------------------------


def rosenthal_constant(p: float) -> float:
    """Upper bound 0.6535 p / ln p on the constant relating the p-norm of a
    normalized iid sum to the summand's p-norm, for p >= 2."""
    return ROSENTHAL_FACTOR * _in_range("p", p, "[2, inf)") / math.log(p)


@_float_range
def rosenthal_nu(y, b: float = np.inf, p_grid=None) -> tuple[np.ndarray, np.ndarray]:
    """The table (p, K_R(p) y(p)) of the Rosenthal-scaled moment function, for
    any form of ``y`` that ``moment_global_bound`` takes.  Its moment bounds
    are envelopes, uniform over the number of summands, for the tails of the
    global statistic and the module of normalized partial-sum paths, where y
    is the natural moment function of the summand process and the envelope
    its increment envelope."""
    ps, vals = _nu_table(y, b, p_grid)
    return ps, np.array([rosenthal_constant(p) for p in ps]) * vals


@_float_range
def clt_exp_envelope(
    c1: float,
    m: float,
    s: float,
    b_env: GFunction,
    h: float,
    u: float,
) -> ExpEnvelopes:
    """Closed-form-shaped envelopes

        exp(-C2 u^(m/(m+1)) |ln u|^(m(s-1)/(m+1)))                  (global)
        2 omega^(-1) exp(-C3 (u/omega)^(m/(m+1)) ln(u/omega)^(m(s-1)/(m+1)))

    with C2, C3 calibrated so the envelopes dominate the grid-infimum
    central-limit bounds over a reference range.  The global form is stated
    for u >= e; the module form for u > e omega |ln omega|^(1+1/m); the
    returned flags mark whether the requested u is inside those ranges."""
    _in_range("c1", c1, "(0, inf)")
    _in_range("m", m, "(0, inf]")
    _in_range("s", s, "[-inf, inf]")
    _in_range("u", u, "(0, inf)")  # the rate at u = inf is inf * 0 for s < 1
    b1, om, _ = _envelope(b_env, h)
    if b1 == 0.0:
        return ExpEnvelopes(0.0, 0.0, np.inf, np.inf, True, True)

    p_eval = np.logspace(np.log10(2.0), np.log10(_ENVELOPE_P_MAX), 400)

    def rate(uu, omega=1.0):  # the module's rate at u is the global one at u / omega
        # a u / omega beyond float range is inf, whose rate is nan for s < 1;
        # _calibrate skips a nan rate
        with np.errstate(invalid="ignore"):
            uu = uu / omega
            return uu ** (m / (m + 1)) * np.abs(np.log(uu)) ** (m * (s - 1) / (m + 1))

    def cal_grid(lo):  # six decades of thresholds from lo
        if lo < np.inf:
            grid = np.logspace(np.log10(lo), np.log10(lo) + 6, _ENVELOPE_CAL_POINTS)
            if np.isfinite(grid[-1]):
                return grid
        raise ValueError(f"m={m:g} (c1={c1:g}, G(1)={b1:g}) puts the calibration "
                         f"thresholds, six decades from {lo:.6g}, beyond the float range")

    d0 = 3.0 * rosenthal_constant(2.0) * c1 * b1
    u_lo = max(math.e * 1.0001, d0)
    u_cal = cal_grid(u_lo)
    if u >= math.e:
        u_cal = np.unique(np.append(u_cal, u))  # a u on the grid is not repeated
    y = c1 * p_eval ** (1.0 / m) * np.log(p_eval) ** s
    if not np.any(np.isfinite(y)):
        raise ValueError(f"m={m:g} (c1={c1:g}, s={s:g}) puts y(p) = c1 p^(1/m) ln^s p "
                         "beyond the float range")
    nu = rosenthal_nu((p_eval, y))
    c2 = _calibrate(moment_global_bound(nu, b_env, u_cal).raw, rate(u_cal))
    delta_value = _decay(c2, float(rate(u)))

    if om == 0.0:
        return ExpEnvelopes(delta_value, 0.0, c2, np.inf, u >= math.e, True)
    threshold = (math.e * om * np.float64(abs(math.log(om))) ** (1 + 1.0 / m) if om < 1
                 else math.e * om)
    if threshold == np.inf:  # the module form's range u > threshold is empty
        return ExpEnvelopes(delta_value, 1.0, c2, 0.0, bool(u >= math.e), False)

    lo_k = max(threshold * 1.0001, u_lo)
    u_cal_k = cal_grid(lo_k)
    if u > threshold:
        u_cal_k = np.unique(np.append(u_cal_k, u))
    c3 = _calibrate(moment_module_bound(nu, b_env, h, u_cal_k).raw * om / 2.0,
                    rate(u_cal_k, om))
    kappa_value = min(1.0, 2.0 / om * _decay(c3, float(rate(u, om))))
    return ExpEnvelopes(
        delta_value=delta_value,
        kappa_value=kappa_value,
        c2=c2,
        c3=c3,
        delta_in_range=bool(u >= math.e),
        kappa_in_range=bool(u > threshold),
    )
