"""Step paths on a grid of [0,1] and their two-sided jump statistics.

A sampled path is a right-continuous step function: constant on every
interval [t_i, t_{i+1}) between grid times.  The central statistic is the
triple minimum

    min(|f(s) - f(r)|, |f(t) - f(s)|),    r <= s <= t,

whose unconstrained supremum (``triple_min_sup``) measures how strongly two
comparably sized jumps interlace, and whose span-constrained supremum
(``ps_module``) is the Prokhorov-Skorokhod module of continuity: it vanishes
as the span constraint tightens exactly when the path has no "double jump"
at a single location.

All suprema are taken over grid triples, which is exact for step paths read
through the step rule.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampledPath",
    "GFunction",
    "triple_min",
    "triple_min_sup",
    "ps_module",
    "continuity_modulus",
    "global_stat_brute",
    "ps_module_brute",
]


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _unit_grid(times, values, ndim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``times`` and ``values`` as float arrays, checked: times a finite,
    strictly increasing grid of at least two points from 0 to 1, and values
    ``ndim``-d with one entry per time along their last axis."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.size < 2 or v.ndim != ndim or v.shape[-1] != t.size:
        raise ValueError(f"times must be 1-d of length >= 2 and values {ndim}-d "
                         "with one entry per time")
    if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
        raise ValueError("times must be finite and strictly increasing")
    if t[0] != 0.0 or t[-1] != 1.0:
        raise ValueError("times must start at 0 and end at 1")
    return t, v


@dataclass(frozen=True)
class SampledPath:
    """Right-continuous step function on a finite grid of [0,1].

    ``times`` must be strictly increasing with ``times[0] == 0`` and
    ``times[-1] == 1``; ``values[i]`` is the value on [times[i], times[i+1]).
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t, v = _unit_grid(self.times, self.values)
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def value_at(self, t: float) -> float:
        """Evaluate by the step rule: value at the greatest grid time <= t."""
        if t < 0.0 or t > 1.0:
            raise ValueError(f"t={t} outside [0,1]")
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.values[i])


@dataclass(frozen=True)
class GFunction:
    """Nondecreasing continuous function on [0,1], piecewise linear between
    grid points, with G(0) = 0.  Used as a deterministic envelope in the
    tail bounds."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t, v = _unit_grid(self.times, self.values)
        if abs(v[0]) > 1e-12:
            raise ValueError("G(0) must be 0")
        if np.any(np.diff(v) < -1e-12):
            raise ValueError("values must be nondecreasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", np.maximum.accumulate(v))

    @property
    def total(self) -> float:
        """G(1) - G(0)."""
        return float(self.values[-1] - self.values[0])

    def modulus(self, h: float) -> float:
        return continuity_modulus(self.times, self.values, h)

    @classmethod
    def linear(cls, slope: float = 1.0) -> "GFunction":
        return cls(np.array([0.0, 1.0]), np.array([0.0, slope]))

    @classmethod
    def constant(cls) -> "GFunction":
        return cls(np.array([0.0, 1.0]), np.array([0.0, 0.0]))


def _check_triple(r: float, s: float, t: float) -> None:
    if not (0.0 <= r <= s <= t <= 1.0):
        raise ValueError(f"triple must satisfy 0 <= r <= s <= t <= 1, got ({r}, {s}, {t})")


def triple_min(path: SampledPath, r: float, s: float, t: float) -> float:
    """min(|f(s)-f(r)|, |f(t)-f(s)|) with f evaluated by the step rule."""
    _check_triple(r, s, t)
    fr, fs, ft = path.value_at(r), path.value_at(s), path.value_at(t)
    return min(abs(fs - fr), abs(ft - fs))


def _arm_maxima(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each grid index s: max_{r<=s} |v[s]-v[r]| and max_{t>=s} |v[t]-v[s]|.

    Works on a (m, n) matrix of paths; returns two (m, n) arrays.
    """
    v = np.atleast_2d(values)
    return _reach(v), _reach(v[:, ::-1])[:, ::-1]


def _reach(v: np.ndarray) -> np.ndarray:
    """max_{r<=s} |v[s]-v[r]| along rows, from running minima and maxima."""
    below = np.minimum.accumulate(v, axis=1)
    np.subtract(v, below, out=below)
    above = np.maximum.accumulate(v, axis=1)
    np.subtract(above, v, out=above)
    return np.maximum(below, above, out=below)


def triple_min_sup(path: SampledPath) -> float:
    """Largest triple minimum over all grid triples r <= s <= t.

    Uses the max-min split: for fixed s the maximum over (r, t) of
    min(a_r, b_t) equals min(max_r a_r, max_t b_t).
    """
    return float(triple_min_sup_matrix(path.values[None, :])[0])


def triple_min_sup_matrix(values: np.ndarray) -> np.ndarray:
    """Vectorized ``triple_min_sup`` over rows of a (m, n) value matrix."""
    left, right = _arm_maxima(values)
    return np.minimum(left, right, out=left).max(axis=1)


def ps_module(path: SampledPath, delta: float) -> float:
    """Prokhorov-Skorokhod module: largest triple minimum over grid triples
    (t1, t, t2) whose span satisfies times[t2] - times[t1] <= delta.

    Nondecreasing in delta, and equal to ``triple_min_sup`` at delta = 1.
    """
    return float(ps_module_matrix(path.times, path.values[None, :], delta)[0])


def ps_module_matrix(times: np.ndarray, values: np.ndarray, delta: float) -> np.ndarray:
    """Vectorized ``ps_module`` over rows of a (m, n) value matrix on a
    grid of [0,1] (checked as ``_unit_grid`` checks it).

    The admissible triples are exactly the triples inside the span windows
    [r, cap(r)], cap(r) the last index t with times[t] - times[r] <= delta,
    so the module is the largest ``triple_min_sup`` over those windows; each
    row is visited only at the windows where it jumps (``_window_maxima``).
    Rows are independent: one block of them per available CPU goes to a
    thread pool, and the result is the same for any number of workers.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta={delta} outside [0,1]")
    t, v = _unit_grid(times, values, ndim=2)
    # the brute force's difference predicate; subtraction is monotone, so
    # each row's admissible indices form a prefix and caps never decrease
    caps = (t[None, :] - t[:, None] <= delta).sum(axis=1) - 1
    workers = min(_worker_count(), v.shape[0])
    if workers <= 1:
        return _window_maxima(v, caps)
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(_window_maxima, rows, caps)
                   for rows in np.array_split(v, workers)]
        return np.concatenate([f.result() for f in futures])


def _window_maxima(v: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Per row of ``v``, the largest triple minimum inside any span window
    [lo, caps[lo]].

    A row is visited at window lo only where that window can hold its
    module.  If the row does not move at lo (v[lo] == v[lo+1]), a triple
    from lo has the same value from lo+1 (or is 0), and the window at lo+1
    reaches at least as far.  Windows sharing a cap nest inside the run's
    first one, so within a run only the row's first move counts; and a
    window holding fewer than two moves has statistic 0.
    """
    m, n = v.shape
    moves = np.ascontiguousarray((v[:, 1:] != v[:, :-1]).T)
    counts = np.zeros((n, m), dtype=np.int32)  # moves before each index
    np.cumsum(moves, axis=0, out=counts[1:])
    best = np.zeros(m)
    run_lo = 0
    for lo in range(n - 1):
        if caps[lo] != caps[run_lo]:
            run_lo = lo
        hi = caps[lo] + 1
        idx = np.flatnonzero(moves[lo] & (counts[lo] == counts[run_lo])
                             & (counts[hi - 1] - counts[lo] >= 2))
        if idx.size == 0:
            continue
        left, right = _arm_maxima(v[:, lo:hi] if idx.size == m else v[idx, lo:hi])
        best[idx] = np.maximum(best[idx], np.minimum(left, right, out=left).max(axis=1))
    return best


def global_stat_brute(path: SampledPath) -> float:
    """Reference O(n^3) enumeration of the unconstrained triple-minimum sup."""
    v = path.values
    n = v.size
    best = 0.0
    for s in range(n):
        for r in range(s + 1):
            a = abs(v[s] - v[r])
            if a <= best:
                continue
            for t in range(s, n):
                m = min(a, abs(v[t] - v[s]))
                if m > best:
                    best = m
    return best


def ps_module_brute(path: SampledPath, delta: float) -> float:
    """Reference O(n^3) enumeration of the span-constrained module."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta={delta} outside [0,1]")
    t, v = path.times, path.values
    n = v.size
    best = 0.0
    for s in range(n):
        for r in range(s + 1):
            a = abs(v[s] - v[r])
            for t2 in range(s, n):
                if t[t2] - t[r] <= delta:
                    m = min(a, abs(v[t2] - v[s]))
                    if m > best:
                        best = m
    return best


def continuity_modulus(times, values, h: float) -> float:
    """Modulus of continuity sup{|G(t)-G(r)| : |r-t| <= h} of the piecewise
    linear interpolant of a monotone table.

    The sup over the continuum is attained with one endpoint at a knot, so it
    is computed exactly from the knots and their h-shifts.  On grids where h
    aligns with the spacing this coincides with the maximum over grid pairs.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.size != v.size or t.size < 2:
        raise ValueError("times and values must be 1-d of equal length >= 2")
    if not np.all(np.diff(t) > 0):
        raise ValueError("times must be increasing")
    if np.any(np.diff(v) < -1e-12):
        raise ValueError("table must be nondecreasing")
    if h < 0:
        raise ValueError("h must be nonnegative")
    if h == 0:
        return 0.0
    h = min(h, float(t[-1] - t[0]))
    lo, hi = t[0], t[-1]
    # candidate left endpoints: knots and knots shifted left by h
    starts = np.unique(np.clip(np.concatenate([t, t - h]), lo, hi - h))
    ends = starts + h
    diffs = np.interp(ends, t, v) - np.interp(starts, t, v)
    return float(diffs.max(initial=0.0))

