"""Spans around the public functions of skorotail's layers, and the exact
work counts recorded at the same boundaries.

A traced run replaces every public function of each layer by a wrapper in
every ``skorotail`` namespace that holds it, so that a caller resolving the
name in its own module (``simulate`` calls its imported ``ps_module_matrix``)
reaches the wrapper too.  Nothing under ``src/`` changes; the originals are
put back when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "simulate", "paths", "bounds", "gls", "io")

# io.fmt formats a single number and runs once per value written (over a
# million times on simulate-fine); a span per call would cost more than the
# work it times.  Its time stays in the enclosing io.write_* span.
UNTRACED = frozenset({"io.fmt"})


# ---------------------------------------------------------------------------
# exact counts, computed from a call's arguments and its result's array sizes
# ---------------------------------------------------------------------------


def triple_min_evals(m: int, n_orders: int, k: int) -> int:
    """Elementwise minima taken by ``estimate_triple_moments``: for each
    middle index s of the k-point strided grid, every path, every order and
    every (r <= s, t >= s) pair: m * P * sum_s (s+1)(k-s)."""
    return m * n_orders * sum((s + 1) * (k - s) for s in range(k))


def triple_bytes(m: int, n_orders: int, k: int) -> int:
    """Bytes the triple-moment kernel moves, from its float32 array sizes:
    per middle index s and order p it reads the two arm arrays (m x (s+1) and
    m x (k-s)) and writes their powers, then writes and reads back the
    m x (s+1) x (k-s) minimum tensor.  Cache reuse is ignored."""
    per_s = sum(2 * ((s + 1) + (k - s)) + 2 * (s + 1) * (k - s) for s in range(k))
    return 4 * m * n_orders * per_s


def admissible_pairs(times, delta: float) -> int:
    """(r, s) pairs with r <= s whose span times[s] - times[r] is at most
    delta: the pairs ``ps_module_matrix`` updates its running maximum for."""
    t = np.asarray(times, dtype=float)
    ok = (t[None, :] - t[:, None]) <= delta
    return int(np.triu(ok).sum())


def tail_evals(draws) -> int:
    """Distinct |draw| values at or above e: the thresholds at which
    ``moment_tail_equivalence`` evaluates the empirical tail."""
    xs = np.unique(np.abs(np.asarray(draws, dtype=float)))
    return int((xs >= np.e).sum())


def _triple_counts(call, table) -> dict:
    m = call["bundle"].values.shape[0]
    p, k = table.p_grid.size, table.pair_times.size
    return {"min_evals": triple_min_evals(m, p, k), "bytes_computed": triple_bytes(m, p, k)}


def _module_counts(call, _result) -> dict:
    m = np.atleast_2d(call["values"]).shape[0]
    return {"pair_updates": m * admissible_pairs(call["times"], call["delta"])}


def _tail_counts(call, _result) -> dict:
    return {"tail_evals": tail_evals(call["sample"].draws)}


def _written(call, _result) -> dict:
    return {"bytes_written": os.path.getsize(call["path"])}


# traced function -> (metric prefix, count names, counter)
COUNTERS = {
    "simulate.estimate_triple_moments": (
        "simulate.estimate_triple_moments", ("min_evals", "bytes_computed"), _triple_counts),
    "paths.ps_module_matrix": ("paths.ps_module_matrix", ("pair_updates",), _module_counts),
    "gls.moment_tail_equivalence": (
        "gls.moment_tail_equivalence", ("tail_evals",), _tail_counts),
    "io.write_csv": ("io", ("bytes_written",), _written),
    "io.write_matrix": ("io", ("bytes_written",), _written),
    "io.write_json": ("io", ("bytes_written",), _written),
}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Keeps spans ``[name, start, end, parent index]`` and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.names: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        self.names.add(name)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                prefix, _, count = counter
                call = signature.bind(*args, **kwargs).arguments
                for key, value in count(call, result).items():
                    self.counts[f"{prefix}.{key}"] += value
            return result

        return traced


@contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    namespaces = [mod for key, mod in list(sys.modules.items())
                  if key == "skorotail" or key.startswith("skorotail.")]
    patches = []
    try:
        for layer in LAYERS:
            module = importlib.import_module(f"skorotail.{layer}")
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = tracer.wrap(name, fn)
                for ns in namespaces:
                    for key, obj in list(vars(ns).items()):
                        if obj is fn:
                            patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)
        yield tracer
    finally:
        for ns, key, fn in reversed(patches):
            setattr(ns, key, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Spans of
    one thread nest, so children never overlap and their durations add."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time and calls per traced function and per layer, plus counts."""
    out: dict[str, float] = {}
    for name in tracer.names:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for (name, *_), own in zip(tracer.spans, self_times(tracer.spans)):
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            out[f"{key}.self_s"] += own
            out[f"{key}.calls"] += 1
    for prefix, keys, _ in COUNTERS.values():
        for key in keys:
            out[f"{prefix}.{key}"] = tracer.counts[f"{prefix}.{key}"]
    return out
