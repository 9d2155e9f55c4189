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

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

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


_BLOCK_CELLS = 1 << 18  # window cells per block of ``_window_maxima``
_LOOP_WINDOWS = 128  # windows from which ``_reach`` steps through positions
# array calls smaller than this lose more to thread hand-offs than a second
# CPU gains: the measured crossovers are about 30k draws for a row of the gls
# tables and 90k cells for a joint-moment power table
_POOL_CELLS = 1 << 16


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_map(fn, items, cells: int) -> list:
    """[fn(item) for item in items], where ``cells`` is the size of the array
    calls fn makes on an item.  From _POOL_CELLS cells it runs on
    min(_worker_count(), len(items)) threads: the caller and a pool of the
    others take the items in turn.  Below that, or at one thread, it runs in
    the caller alone.  Each pooled call runs in a copy of the caller's
    context, so numpy's errstate holds there too."""
    workers = min(_worker_count(), len(items)) if cells >= _POOL_CELLS else 1
    if workers <= 1:
        return [fn(item) for item in items]
    out = [None] * len(items)
    jobs, lock = iter(enumerate(items)), threading.Lock()

    def drain():
        while True:
            with lock:
                job = next(jobs, None)
            if job is None:
                return
            out[job[0]] = fn(job[1])

    context = contextvars.copy_context()
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(context.copy().run, drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return out


def _in_range(name: str, value, interval: str):
    """Check that ``value``, a number or an array of them, lies in
    ``interval``, written as "(lo, hi]" with either bracket at either end
    and ends that ``float`` reads ("inf" too); return ``value``.

    This is the one range check of the package.  nan lies in no interval,
    and +-inf only in one closed at it, so a range admits an infinite value
    only where the caller returns a number for it.  The error names the
    parameter, its range and the first value outside it.
    """
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    x = np.asarray(value, dtype=float)
    inside = ((x >= lo) if interval[0] == "[" else (x > lo)) & (
        (x <= hi) if interval[-1] == "]" else (x < hi))
    if not np.all(inside):
        got = value if x.ndim == 0 else x[~inside].flat[0]
        raise ValueError(f"{name} must lie in {interval}, got {got}")
    return value


def _table(name: str, grid, interval: str | None, k: int = 1, values=None,
           shape: str = "n", monotone=None, ordered: bool = True):
    """``grid``, a table's first column, as a 1-d float array of at least
    ``k`` entries, each in ``interval`` (``_in_range``; None checks none),
    that increase strictly unless ``ordered`` is false (a sample).  With
    ``values``, a triple (name, array, interval), return (grid, values):
    values has one axis per letter of ``shape``, each "n" as long as the
    grid ("nn" a square, "mn" rows), lies in its interval and, with
    ``monotone`` a pair (direction, tolerance), is "nondecreasing" or
    "nonincreasing", no step going back by more than the tolerance.

    The one shape and order check of the package's tables, as ``_in_range``
    is its one range check; each error names the column.
    """
    g = np.asarray(grid, dtype=float)
    if interval is not None:
        _in_range(name, g, interval)
    if g.ndim != 1 or g.size < k or (ordered and not np.all(g[1:] > g[:-1])):
        kind = ", strictly increasing 1-d grid" if ordered else " 1-d array"
        raise ValueError(f"{name} must be a nonempty{kind}"
                         + (f" of at least {k} points" if k > 1 else ""))
    if values is None:
        return g
    vname, v, v_interval = values
    try:
        v = np.asarray(v, dtype=float)
        fits = v.ndim == len(shape) and all(
            d == g.size for a, d in zip(shape, v.shape) if a == "n")
    except ValueError:  # rows of unequal length
        fits = False
    if not fits:
        dims = " x ".join(str(g.size) if a == "n" else a for a in shape)
        raise ValueError(f"{vname} must have shape {dims} to match {name}")
    if v_interval is not None:
        _in_range(vname, v, v_interval)
    if monotone is not None:
        direction, tol = monotone
        with np.errstate(over="ignore"):  # a step beyond the float range is +-inf
            steps = np.diff(v) if direction == "nondecreasing" else -np.diff(v)
        if np.any(steps < -tol):
            raise ValueError(f"{vname} must be {direction}")
    return g, v


def _unit_grid(times, values, shape: str = "n", monotone=None) -> tuple[np.ndarray, np.ndarray]:
    """``_table`` of ``times``, a grid of at least two points from 0 to 1,
    and ``values``, a triple (name, array, interval)."""
    t, v = _table("times", times, "[0, 1]", 2, values, shape, monotone)
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
        t, v = _unit_grid(self.times, ("values", self.values, "(-inf, inf)"))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def value_at(self, t: float) -> float:
        """Evaluate by the step rule: value at the greatest grid time <= t."""
        i = int(np.searchsorted(self.times, _in_range("t", t, "[0, 1]"), side="right")) - 1
        return float(self.values[i])


@dataclass(frozen=True)
class GFunction:
    """Nondecreasing continuous function on [0,1], piecewise linear between
    grid points, with G(0) = 0.  Used as a deterministic envelope in the
    tail bounds."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t, v = _unit_grid(self.times, ("G", self.values, "(-inf, inf)"),
                          monotone=("nondecreasing", 1e-12))
        if abs(v[0]) > 1e-12:
            raise ValueError("G(0) must be 0")
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
    _in_range("triple", [r, s, t], "[0, 1]")
    if not r <= s <= t:
        raise ValueError(f"triple must satisfy r <= s <= t, got ({r}, {s}, {t})")


def triple_min(path: SampledPath, r: float, s: float, t: float) -> float:
    """min(|f(s)-f(r)|, |f(t)-f(s)|) with f evaluated by the step rule."""
    _check_triple(r, s, t)
    fr, fs, ft = path.value_at(r), path.value_at(s), path.value_at(t)
    return min(abs(fs - fr), abs(ft - fs))


def _arm_maxima(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each position s along axis 0 of an array of windows (one window
    per index of the other axes): max_{r<=s} |x[s]-x[r]| and
    max_{t>=s} |x[t]-x[s]|, as two arrays of its shape."""
    return _reach(windows), _reach(windows[::-1])[::-1]


def _reach(x: np.ndarray) -> np.ndarray:
    """max_{r<=s} |x[s]-x[r]| along axis 0, from running minima and maxima.
    From ``_LOOP_WINDOWS`` windows on, these are taken one position at a
    time over all windows at once, which beats numpy's accumulate there.
    Only min, max and subtraction run, so the values are the brute force's
    bits for any block size or worker count."""
    if x[0].size < _LOOP_WINDOWS:
        below, above = np.minimum.accumulate(x, axis=0), np.maximum.accumulate(x, axis=0)
    else:
        below, above = np.empty_like(x), np.empty_like(x)
        below[0] = above[0] = x[0]
        for s in range(1, len(x)):
            np.minimum(below[s - 1], x[s], out=below[s])
            np.maximum(above[s - 1], x[s], out=above[s])
    np.subtract(x, below, out=below)
    np.subtract(above, x, out=above)
    return np.maximum(below, above, out=below)


def triple_min_sup(path: SampledPath) -> float:
    """Largest triple minimum over all grid triples r <= s <= t.

    Uses the max-min split: for fixed s the maximum over (r, t) of
    min(a_r, b_t) equals min(max_r a_r, max_t b_t).
    """
    return float(triple_min_sup_matrix(path.values[None, :])[0])


def triple_min_sup_matrix(values: np.ndarray) -> np.ndarray:
    """Vectorized ``triple_min_sup`` over rows of a (m, n) value matrix: the
    one window [0, n-1] of ``_window_maxima``."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    return _window_maxima(v, np.full(v.shape[1], v.shape[1] - 1))


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
    [lo, cap(lo)], cap(lo) the last index t with times[t] - times[lo] <=
    delta, so the module is the largest ``triple_min_sup`` over those
    windows (``_window_maxima``).
    """
    _in_range("delta", delta, "[0, 1]")
    t, v = _unit_grid(times, ("values", values, None), "mn")
    # the brute force's difference predicate; subtraction is monotone, so
    # each row's admissible indices form a prefix and caps never decrease
    caps = (t[None, :] - t[:, None] <= delta).sum(axis=1) - 1
    return _window_maxima(v, caps)


def _window_maxima(v: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Per row of ``v``, the largest triple minimum inside any window
    [lo, caps[lo]] (``caps`` nondecreasing, caps[lo] >= lo).

    Windows sharing a cap nest inside the run's first one, and a window of
    under three points holds only zero triple minima, so the first windows
    of at least three points of the runs hold every row's maximum.  A row
    that moves at half its steps or more is read at all of them
    (``_slice_blocks``); any other row only where its jump list says a
    window can hold its maximum (``_jump_blocks``).  The windows go in
    blocks of about ``_BLOCK_CELLS`` cells to a pool with one thread per
    available CPU, and the row maxima are taken with one scatter, so the
    result is the same for any number of workers.
    """
    m, n = v.shape
    run_lo = np.searchsorted(caps, caps)  # first window sharing each cap
    moves = v[:, 1:] != v[:, :-1]
    dense = 2 * np.count_nonzero(moves, axis=1) >= n - 1
    blocks = [*_slice_blocks(v, np.flatnonzero(dense), caps, run_lo),
              *_jump_blocks(v, moves, np.flatnonzero(~dense), caps, run_lo)]
    best = np.zeros(m)
    if not blocks:
        return best
    maxima = _pool_map(_block_maxima, blocks, _BLOCK_CELLS)
    np.maximum.at(best, np.concatenate([b[0] for b in blocks]), np.concatenate(maxima))
    return best


def _block_maxima(block) -> np.ndarray:
    """The largest triple minimum in each window of a block (rows, windows):
    ``windows`` holds the windows along axis 0, or is the function that
    gathers them, and the maxima over all but its last axis are per row."""
    rows, windows = block
    x = windows() if callable(windows) else windows
    left, right = _arm_maxima(x)
    return np.minimum(left, right, out=left).max(axis=0).reshape(-1, rows.size).max(axis=0)


def _slice_blocks(v, ids, caps, run_lo):
    """Blocks reading the rows ``ids`` at every run's first window of at
    least three points.  A stretch of such windows of one width, each next
    one a step on, is a strided view (width, windows, rows) of the rows'
    transpose, cut by windows and then by rows; nothing is gathered."""
    n = v.shape[1]
    lo = np.arange(n)
    lo = lo[(run_lo == lo) & (caps >= lo + 2)]
    if ids.size == 0 or lo.size == 0:
        return
    tv = np.ascontiguousarray(v.T if ids.size == v.shape[0] else v[ids].T)
    k = ids.size
    width = caps[lo] - lo + 1
    cuts = np.flatnonzero((np.diff(lo) != 1) | (np.diff(width) != 0)) + 1
    for a, b in zip([0, *cuts], [*cuts, lo.size]):
        w = int(width[a])
        x = np.lib.stride_tricks.sliding_window_view(tv[lo[a] : lo[b - 1] + w], w, axis=0)
        x = x.transpose(2, 0, 1)  # x[j, i, r] = v[ids[r], lo[a + i] + j]
        step = min(k, max(1, _BLOCK_CELLS // w))  # rows per block
        wins = max(1, _BLOCK_CELLS // (w * step))  # windows per block
        for i in range(0, b - a, wins):
            for r in range(0, k, step):
                yield ids[r : r + step], x[:, i : i + wins, r : r + step]


def _jump_blocks(v, moves, ids, caps, run_lo):
    """Blocks reading the rows ``ids`` from their jump list, at a move lo
    only: if the row does not move at lo (v[lo] == v[lo+1]), a triple from
    lo has the same value from lo+1 (or is 0), and the window at lo+1
    reaches at least as far.  Within a run of windows sharing a cap only the
    row's first move counts, and a window holding fewer than two moves has
    statistic 0.  So a row is visited at its move lo when its previous move
    lies before lo's run and its next move before caps[lo].

    A visit reads the row's run values from lo to caps[lo], padded with the
    last one, which changes no supremum.  The visits, sorted by width, go in
    blocks of about ``_BLOCK_CELLS`` cells, each gathered by its worker into
    one (width, visits) array.
    """
    if ids.size == 0:
        return
    n = v.shape[1]
    rows, cols = np.nonzero(moves if ids.size == v.shape[0] else moves[ids])
    rows = ids[rows]
    # a row's moves are adjacent in the list; -1 and n stand for none
    same = rows[1:] == rows[:-1]
    prev, nxt = np.full(rows.size, -1), np.full(rows.size, n)
    prev[1:] = np.where(same, cols[:-1], -1)
    nxt[:-1] = np.where(same, cols[1:], n)
    first = np.flatnonzero((prev < run_lo[cols]) & (nxt < caps[cols]))
    if first.size == 0:
        return
    # a visit's moves end at the row's first move at or past its cap
    key = rows * n + cols
    count = np.searchsorted(key, rows[first] * n + caps[cols[first]]) - first
    order = np.argsort(count, kind="stable")
    first, count = first[order], count[order]
    flat = v.reshape(-1)
    before, after = flat[key[first]], flat[key + 1]
    ends = np.cumsum(count + 1)
    cuts = np.searchsorted(ends, np.arange(_BLOCK_CELLS, ends[-1], _BLOCK_CELLS))
    edges = np.unique([0, *cuts, first.size])
    for a, b in zip(edges[:-1], edges[1:]):
        yield rows[first[a:b]], partial(_run_values, before[a:b], after, first[a:b], count[a:b])


def _run_values(before, after, first, count):
    """The (width, visits) array of the visits' run values: the value before
    move ``first``, then the value after each of the ``count`` moves from
    it, padded with the last one; ``count`` is sorted."""
    x = np.empty((int(count[-1]) + 1, first.size))
    x[0] = before
    # the gather index, built in place in one array
    idx = np.minimum(np.arange(1, len(x))[:, None], count)
    idx += first
    idx -= 1
    # the indices are in range, and "clip" writes into out without a buffered copy
    np.take(after, idx, out=x[1:], mode="clip")
    return x


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
    _in_range("delta", delta, "[0, 1]")
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
    t, v = _table("times", times, "(-inf, inf)", 2, ("values", values, "(-inf, inf)"),
                  monotone=("nondecreasing", 1e-12))
    if _in_range("h", h, "[0, inf]") == 0:
        return 0.0
    h = min(h, float(t[-1] - t[0]))
    lo, hi = t[0], t[-1]
    # candidate left endpoints: knots and knots shifted left by h
    starts = np.unique(np.clip(np.concatenate([t, t - h]), lo, hi - h))
    ends = starts + h
    diffs = np.interp(ends, t, v) - np.interp(starts, t, v)
    return float(diffs.max(initial=0.0))

