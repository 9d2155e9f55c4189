"""Covering numbers and metric entropy of a grid on [0,1] under a symmetric
nonnegative pair function.

The pair function need not satisfy the triangle inequality (e.g.
q(r,t) = |r-t|^a with a > 1 is allowed).  When every ball is a contiguous
index interval -- which holds whenever q(r,t) is a monotone function of the
gap |r-t| -- a farthest-reach sweep returns the exact minimal cover.  For
arbitrary symmetric q a greedy set cover is used instead; its count is an
upper bound on the minimal one, which keeps every entropy-based tail bound
valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import _in_range, _table

__all__ = [
    "SemiDistanceGrid",
    "CoveringResult",
    "covering_number",
    "metric_entropy",
    "scaled_window_modulus",
]


@dataclass(frozen=True)
class SemiDistanceGrid:
    """Symmetric nonnegative pair function tabulated on a grid of [0,1]."""

    times: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        t, q = _table("times", self.times, "(-inf, inf)", 2, ("q", self.q, "[0, inf]"), "nn")
        if np.max(np.abs(np.diag(q))) > 1e-12:
            raise ValueError("q must vanish on the diagonal")
        with np.errstate(invalid="ignore"):  # inf - inf is nan: a symmetric pair
            if np.any(np.abs(q - q.T) > 1e-12):
                raise ValueError("q must be symmetric")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_gap_function(cls, fn, n: int = 1024) -> "SemiDistanceGrid":
        """Tabulate q(r,t) = fn(|r-t|) on a uniform n-point grid."""
        t = np.linspace(0.0, 1.0, _in_range("n", n, "[2, inf)"))
        gaps = np.abs(t[:, None] - t[None, :])
        return cls(t, np.asarray(fn(gaps), dtype=float))


@dataclass(frozen=True)
class CoveringResult:
    """A certified cover: every grid point is within ``epsilon`` of a center,
    and with ``covers_continuum`` the chosen balls, read as time intervals,
    tile all of [0,1]."""

    epsilon: float
    count: int
    centers: np.ndarray  # grid indices
    # produced by the farthest-reach sweep; minimal whenever the balls chain
    # across the whole interval (covers_continuum)
    exact: bool
    covers_continuum: bool = False

    def verify(self, grid: SemiDistanceGrid) -> bool:
        eps_tol = _tolerant(self.epsilon)
        cov = (grid.q[np.asarray(self.centers), :] <= eps_tol).any(axis=0)
        return bool(cov.all())


def _tolerant(eps: float) -> float:
    # closed balls with a float-roundoff allowance, so radii that land exactly
    # on a grid spacing are kept inside the ball
    return eps * (1 + 1e-12) + 1e-15


def _balls_are_intervals(within: np.ndarray) -> bool:
    # each row's True set must be one contiguous run (it contains the diagonal)
    flips = np.abs(np.diff(within.astype(np.int8), axis=1)).sum(axis=1)
    return bool(np.all(flips <= 2))


def _interval_sweep(times: np.ndarray, within: np.ndarray) -> tuple[list[int], bool]:
    """Farthest-reach sweep covering the whole interval [times[0], times[-1]]
    by the balls read as closed time intervals.  Exact (minimal) for interval
    balls that chain.  Where no ball bridges the continuum past the frontier,
    the sweep jumps to the next grid point and the cover certifies grid points
    only (``continuum`` comes back False).
    """
    n = times.size
    first = np.argmax(within, axis=1)
    last = n - 1 - np.argmax(within[:, ::-1], axis=1)
    left = times[first]
    right = times[last]
    centers: list[int] = []
    continuum = True
    needed = times[0]
    end = times[-1]
    while True:
        # farthest-reaching ball containing the needed point
        cand = np.nonzero((left <= needed + 1e-15) & (right >= needed - 1e-15))[0]
        c = int(cand[np.argmax(right[cand])])
        centers.append(c)
        frontier = right[c]
        if frontier >= end:
            break
        bridges = (left <= frontier + 1e-15) & (right > frontier)
        if bridges.any():
            needed = frontier
        else:
            continuum = False
            nxt = int(np.searchsorted(times, frontier, side="right"))
            if nxt >= n:
                break
            needed = times[nxt]
    return centers, continuum


def _greedy_set_cover(within: np.ndarray) -> list[int]:
    n = within.shape[0]
    uncovered = np.ones(n, dtype=bool)
    centers: list[int] = []
    while uncovered.any():
        gains = (within & uncovered[None, :]).sum(axis=1)
        c = int(np.argmax(gains))
        if gains[c] == 0:  # unreachable: diagonal is 0 <= eps, cannot happen
            raise RuntimeError("greedy cover stalled")
        centers.append(c)
        uncovered &= ~within[c]
    return centers


def covering_number(grid: SemiDistanceGrid, epsilon: float) -> CoveringResult:
    """Certified number of closed eps-balls, centered at grid points, covering
    the interval.

    The farthest-reach interval sweep runs whenever every ball is a
    contiguous index range (true for any monotone gap function),
    covering the continuum [0,1]; on a fine uniform grid under q(r,t) = |r-t|
    this returns exactly ceil(1/(2 eps)).  Other symmetric pair functions fall
    back to greedy set cover over the grid points, an upper bound on the
    minimal grid cover.
    """
    within = grid.q <= _tolerant(_in_range("epsilon", epsilon, "(0, inf]"))
    exact = _balls_are_intervals(within)
    if exact:
        centers, continuum = _interval_sweep(grid.times, within)
    else:
        centers, continuum = _greedy_set_cover(within), False
    res = CoveringResult(
        epsilon=float(epsilon),
        count=len(centers),
        centers=np.asarray(centers, dtype=np.int64),
        exact=exact,
        covers_continuum=continuum,
    )
    if not res.verify(grid):
        raise RuntimeError(f"{res.count} centers fail to cover the grid at epsilon={epsilon}")
    return res


def metric_entropy(grid: SemiDistanceGrid, epsilon: float) -> float:
    """Natural logarithm of the covering number."""
    return float(np.log(covering_number(grid, epsilon).count))


def scaled_window_modulus(grid: SemiDistanceGrid, h: float) -> float:
    """h^{-1} times the largest q(r,t) over grid pairs with |r-t| <= 2h.

    The vanishing of this ratio as h -> 0 is the hypothesis under which the
    entropy-series bound controls the span-constrained module.
    """
    t = grid.times
    gaps = np.abs(t[:, None] - t[None, :])
    mask = gaps <= 2.0 * _in_range("h", h, "(0, 0.5]")
    return float(grid.q[mask].max() / h)
