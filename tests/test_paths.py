import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skorotail import paths
from skorotail.bounds import TailCurve
from skorotail.gls import PhiFunction
from skorotail.paths import (
    GFunction,
    SampledPath,
    continuity_modulus,
    global_stat_brute,
    ps_module,
    ps_module_brute,
    ps_module_matrix,
    triple_min,
    triple_min_sup,
    triple_min_sup_matrix,
)
from skorotail.simulate import MomentTable

TWO_JUMP = SampledPath(np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 1.0, 2.0, 2.0]))
ONE_JUMP = SampledPath(np.array([0.0, 0.3, 1.0]), np.array([0.0, 1.0, 1.0]))
CONST = SampledPath(np.array([0.0, 1.0]), np.array([2.5, 2.5]))


def random_path(rng, n):
    times = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, n - 2)), [1.0]])
    times = np.unique(times)
    vals = rng.normal(size=times.size).cumsum()
    return SampledPath(times, vals)


@st.composite
def step_paths(draw, max_n=12):
    n = draw(st.integers(3, max_n))
    interior = draw(
        st.lists(st.floats(0.01, 0.99), min_size=n - 2, max_size=n - 2, unique=True)
    )
    times = np.concatenate([[0.0], np.sort(interior), [1.0]])
    vals = draw(
        st.lists(st.floats(-5, 5), min_size=times.size, max_size=times.size)
    )
    return SampledPath(times, np.array(vals))


class TestSampledPath:
    def test_step_rule(self):
        assert TWO_JUMP.value_at(0.0) == 0.0
        assert TWO_JUMP.value_at(0.29) == 0.0
        assert TWO_JUMP.value_at(0.3) == 1.0
        assert TWO_JUMP.value_at(0.45) == 1.0
        assert TWO_JUMP.value_at(1.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledPath(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4))
        with pytest.raises(ValueError):
            SampledPath(np.array([0.1, 1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            SampledPath(np.array([0.0, 0.5]), np.zeros(3))
        with pytest.raises(ValueError):
            TWO_JUMP.value_at(1.5)


class TestTripleMin:
    def test_constant(self):
        assert triple_min(CONST, 0.1, 0.5, 0.9) == 0.0

    def test_single_jump_has_zero_arm(self):
        assert triple_min(ONE_JUMP, 0.1, 0.5, 0.9) == 0.0

    def test_two_jump(self):
        assert triple_min(TWO_JUMP, 0.0, 0.3, 0.6) == 1.0

    def test_ordering_rejected(self):
        with pytest.raises(ValueError):
            triple_min(TWO_JUMP, 0.5, 0.3, 0.9)
        with pytest.raises(ValueError):
            triple_min(TWO_JUMP, 0.1, 0.9, 0.5)


class TestGlobalStat:
    def test_constant(self):
        assert triple_min_sup(CONST) == 0.0

    def test_single_jump(self):
        assert triple_min_sup(ONE_JUMP) == 0.0

    def test_two_jump(self):
        assert triple_min_sup(TWO_JUMP) == 1.0
        assert global_stat_brute(TWO_JUMP) == 1.0

    def test_brute_force_agreement_up_to_64(self):
        rng = np.random.default_rng(2024)
        for n in (4, 9, 17, 33, 64):
            for _ in range(3):
                p = random_path(rng, n)
                assert triple_min_sup(p) == global_stat_brute(p)


class TestPsModule:
    def test_two_jump_examples(self):
        assert ps_module(TWO_JUMP, 0.5) == 0.0
        assert ps_module(TWO_JUMP, 0.6) == 1.0
        assert ps_module(TWO_JUMP, 1.0) == triple_min_sup(TWO_JUMP)

    def test_delta_range_rejected(self):
        with pytest.raises(ValueError):
            ps_module(TWO_JUMP, -0.1)
        with pytest.raises(ValueError):
            ps_module(TWO_JUMP, 1.5)

    @pytest.mark.parametrize("times,values", [
        # unsorted: the window caps assume sorted times (brute force: [0, 1])
        ([0, 0.6, 0.2, 0.8, 1], [[0, 1, 1, 2, 2], [0, 1, 2, 2, 3]]),
        ([0, 0.5, np.nan, 1], np.zeros((2, 4))),
        ([0, 0.5, 1], np.zeros(3)),  # one path, not a (m, n) matrix
    ])
    def test_matrix_grid_validated(self, times, values):
        with pytest.raises(ValueError):
            ps_module_matrix(times, values, 0.3)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(7)
        for n in (5, 16, 33, 64):
            p = random_path(rng, n)
            for d in (0.0, 0.1, 0.37, 0.8, 1.0):
                assert ps_module(p, d) == ps_module_brute(p, d)

    def test_curve_monotone(self):
        vals = [ps_module(TWO_JUMP, d) for d in np.linspace(0.05, 1.0, 20)]
        assert np.all(np.diff(vals) >= 0)


def jumps_at(times, a, b):
    """Path with unit jumps entering at indices a < b: 0, then 1, then 2."""
    idx = np.arange(times.size)
    return SampledPath(times, (idx >= a).astype(float) + (idx >= b))


class TestExactSpanBoundaries:
    """Spans equal to one of the grid's own differences sit exactly on the
    admissibility boundary; times[r] + delta can round to either side of
    times[t], so only the difference predicate agrees with the brute force."""

    T64 = np.linspace(0.0, 1.0, 64)

    def test_boundary_triple_admitted(self):
        # the triple (1, 2, 34) spans exactly t[34] - t[1]
        t = self.T64
        path, delta = jumps_at(t, 2, 34), t[34] - t[1]
        assert ps_module(path, delta) == ps_module_brute(path, delta) == 1.0

    def test_triple_past_the_boundary_excluded(self):
        # the triple (32, 33, 35) spans t[35] - t[32] > t[3] - t[0]
        t = self.T64
        path, delta = jumps_at(t, 33, 35), t[3] - t[0]
        assert ps_module(path, delta) == ps_module_brute(path, delta) == 0.0

    def test_two_jump_paths_on_grid_differences(self):
        # the module of a two-jump path (a < b) is 1 exactly when its
        # tightest triple (a-1, a, b) is admissible, else 0; at delta =
        # t[j] - t[i] the paths whose tightest triple spans j-i or j-i+1
        # steps decide
        t = self.T64
        for i in (0, 1):
            for j in range(i + 1, 63):
                ks = [k for k in (j - i, j - i + 1) if k >= 2]
                ab = [(a, a - 1 + k) for k in ks for a in range(1, 64 - k)]
                values = np.array([jumps_at(t, a, b).values for a, b in ab])
                tight = np.array([t[b] - t[a - 1] for a, b in ab])
                delta = t[j] - t[i]
                got = ps_module_matrix(t, values, delta)
                np.testing.assert_array_equal(got, (tight <= delta).astype(float))

    def test_row_pool_changes_no_output(self, monkeypatch):
        # boundary two-jump paths and random walks; prefixes give m = 0, 1,
        # fewer rows than blocks, and more; blocks of any size go to the pool
        monkeypatch.setattr(paths, "_POOL_CELLS", 0)
        t = self.T64
        rng = np.random.default_rng(3)
        values = np.vstack([[jumps_at(t, a, b).values for a, b in ((2, 34), (33, 35), (1, 3))],
                            rng.normal(size=(10, t.size)).cumsum(axis=1)])
        for delta in (t[34] - t[1], t[3] - t[0], t[9] - t[2]):
            brute = [ps_module_brute(SampledPath(t, row), delta) for row in values]
            for workers in (1, 2, 3, 7):
                monkeypatch.setattr(paths, "_worker_count", lambda: workers)
                for m in (0, 1, 5, values.shape[0]):
                    got = ps_module_matrix(t, values[:m], delta)
                    assert np.array_equal(got, brute[:m]), (delta, workers, m)


class TestPoolMap:
    def test_order_threads_and_the_callers_errstate(self, monkeypatch):
        # a barrier holds each of the first two calls until the other has
        # begun, so they run on two threads
        monkeypatch.setattr(paths, "_POOL_CELLS", 0)
        monkeypatch.setattr(paths, "_worker_count", lambda: 2)
        barrier = threading.Barrier(2, timeout=10)

        def call(item):
            if item < 2:
                barrier.wait()
            return item, threading.get_ident(), np.geterr()["divide"]

        with np.errstate(divide="raise"):
            out = paths._pool_map(call, range(5), 0)
        assert [item for item, _, _ in out] == list(range(5))
        assert len({ident for _, ident, _ in out[:2]}) == 2
        assert all(divide == "raise" for _, _, divide in out)

    def test_each_item_once_under_contention(self, monkeypatch):
        # more threads than CPUs, switching every microsecond: an item taken
        # twice or lost would show in the calls or the results
        monkeypatch.setattr(paths, "_worker_count", lambda: 8)
        calls = []

        def call(item):
            calls.append(item)
            return item * item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = paths._pool_map(call, range(2000), paths._POOL_CELLS)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(2000))
        assert out == [i * i for i in range(2000)]

    @pytest.mark.parametrize("workers, cells", [(1, 1 << 20), (4, 0)])
    def test_in_the_caller_at_one_worker_or_few_cells(self, monkeypatch, workers, cells):
        monkeypatch.setattr(paths, "_POOL_CELLS", 1 << 16)
        monkeypatch.setattr(paths, "_worker_count", lambda: workers)
        assert paths._pool_map(lambda i: threading.get_ident(), range(3), cells) \
            == [threading.get_ident()] * 3

    def test_an_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(paths, "_worker_count", lambda: 2)
        with pytest.raises(ZeroDivisionError):
            paths._pool_map(lambda i: 1 / i, [2, 1, 0, 4], paths._POOL_CELLS)


def mixed_rows(rng, n):
    """A constant row, a single-jump row, three sparse step rows and two
    rows that move at every step, on small integer levels so that values
    and differences tie."""
    idx = np.arange(n)
    rows = [np.full(n, 2.0), (idx >= rng.integers(1, n)).astype(float)]
    for _ in range(3):
        steps = np.zeros(n)
        at = rng.choice(np.arange(1, n), size=int(rng.integers(2, 4)), replace=False)
        steps[at] = rng.choice([-2.0, -1.0, 1.0, 2.0], size=at.size)
        rows.append(steps.cumsum())
    for _ in range(2):
        rows.append(rng.choice([-2.0, -1.0, 1.0, 3.0], size=n).cumsum())
    return np.array(rows)


class TestModuleVisitsOnlyJumps:
    """The module skips every window where a row does not move at the left
    edge, and every window after the row's first move in a run of windows
    sharing a cap; the brute force visits all triples."""

    def test_matches_brute_force_on_lattice_grids(self, monkeypatch):
        # grid times on a coarse lattice: many pair differences coincide,
        # so runs of windows sharing a cap start mid-grid
        rng = np.random.default_rng(11)
        monkeypatch.setattr(paths, "_POOL_CELLS", 0)  # blocks of any size go to the pool
        mid_grid_runs = 0
        for _ in range(40):
            n = int(rng.integers(5, 13))
            inner = rng.choice(np.arange(1, 24), size=n - 2, replace=False)
            t = np.concatenate([[0.0], np.sort(inner) / 24, [1.0]])
            values = mixed_rows(rng, n)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for k in rng.choice(len(pairs), size=6, replace=False):
                i, j = pairs[k]
                delta = t[j] - t[i]
                caps = (t[None, :] - t[:, None] <= delta).sum(axis=1) - 1
                mid_grid_runs += int(np.sum((caps[1:] == caps[:-1]) & (caps[1:] < n - 1)))
                brute = [ps_module_brute(SampledPath(t, row), delta) for row in values]
                for workers in (1, 2, 3):
                    monkeypatch.setattr(paths, "_worker_count", lambda: workers)
                    got = ps_module_matrix(t, values, delta)
                    assert np.array_equal(got, brute), (t, delta, workers)
                    # every row moves at every step: whole windows, no gather
                    assert np.array_equal(ps_module_matrix(t, values[5:], delta), brute[5:])
        assert mid_grid_runs > 100


def mostly_moving_rows(rng, n):
    """Two rows that move at half and at three quarters of their steps, on
    small integer levels: read whole, like rows that move at every step."""
    rows = []
    for still in ((n - 1) // 2, (n - 1) // 4):
        steps = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n)
        steps[rng.choice(np.arange(1, n), size=still, replace=False)] = 0.0
        rows.append(steps.cumsum())
    return np.array(rows)


class TestJumpListKernels:
    """Both statistics read rows that move at under half their steps from
    their jump list and all other rows as slices, in blocks of windows that
    a thread pool shares out; every block size, worker count and bundle
    size gives the brute force's values."""

    def cases(self):
        rng = np.random.default_rng(19)
        for n in (4, 9, 17, 30):
            uniform = np.linspace(0.0, 1.0, n)
            # a coarse lattice: cap runs start mid-grid
            inner = rng.choice(np.arange(1, 36), size=n - 2, replace=False)
            lattice = np.concatenate([[0.0], np.sort(inner) / 36, [1.0]])
            for t in (uniform, lattice):
                values = np.vstack([mixed_rows(rng, n), mostly_moving_rows(rng, n)])
                moved = np.count_nonzero(np.diff(values, axis=1), axis=1)
                assert 2 * moved[-2] >= n - 1 > 2 * moved[1]  # both readings
                gaps = np.diff(t)
                deltas = [0.0, 1.0, 0.5 * gaps.min(), t[2] - t[0], t[-1] - t[n // 2],
                          float(rng.uniform(gaps.min(), 0.5))]
                yield t, values, deltas

    def test_matches_brute_force(self, monkeypatch):
        counted = []
        block_maxima = paths._block_maxima
        monkeypatch.setattr(paths, "_block_maxima", lambda b: counted.append(b) or block_maxima(b))
        monkeypatch.setattr(paths, "_POOL_CELLS", 0)  # blocks of any size go to the pool
        for t, values, deltas in self.cases():
            rows = [SampledPath(t, row) for row in values]
            want = {d: [ps_module_brute(p, d) for p in rows] for d in deltas}
            glob = [global_stat_brute(p) for p in rows]
            assert want[1.0] == glob
            for cells, loop in itertools.product((3, 64, 1 << 18), (1, 128)):
                monkeypatch.setattr(paths, "_BLOCK_CELLS", cells)
                monkeypatch.setattr(paths, "_LOOP_WINDOWS", loop)  # both running extrema
                for workers in (1, 2, 3):
                    monkeypatch.setattr(paths, "_worker_count", lambda: workers)
                    counted.clear()
                    assert np.array_equal(triple_min_sup_matrix(values), glob)
                    if cells == 3:
                        assert len(counted) > 3  # the bundle splits into blocks
                    for d in deltas:
                        got = ps_module_matrix(t, values, d)
                        assert np.array_equal(got, want[d]), (t, d, cells, workers)
                        for i in (0, 1, 5, 7):  # m = 1: each kind of row alone
                            assert ps_module_matrix(t, values[i : i + 1], d) == want[d][i]
                        assert ps_module_matrix(t, values[:0], d).shape == (0,)
            assert triple_min_sup_matrix(values[:0]).shape == (0,)

    def test_two_and_three_point_grids(self):
        for t in (np.array([0.0, 1.0]), np.array([0.0, 0.4, 1.0])):
            values = np.array([[0.0] * t.size, np.arange(t.size) % 2, np.arange(t.size)])
            glob = [global_stat_brute(SampledPath(t, row)) for row in values]
            assert np.array_equal(triple_min_sup_matrix(values), glob)
            for d in (0.0, 0.3, 0.6, 1.0):
                brute = [ps_module_brute(SampledPath(t, row), d) for row in values]
                assert np.array_equal(ps_module_matrix(t, values, d), brute)


@st.composite
def paths_with_pair(draw):
    path = draw(step_paths())
    i = draw(st.integers(0, path.times.size - 1))
    j = draw(st.integers(i, path.times.size - 1))
    return path, i, j


@settings(max_examples=60, deadline=None)
@given(paths_with_pair())
# here times[2] + (times[4] - times[2]) < times[4]
@example((SampledPath(np.array([0.0, 0.125, 0.16477170201079053, 0.25, 0.4262995701550149,
                                0.5, 1.0]), np.zeros(7)), 2, 4))
def test_module_at_own_pair_differences_matches_brute_force(case):
    path, i, j = case
    delta = path.times[j] - path.times[i]
    assert ps_module(path, delta) == ps_module_brute(path, delta)
    if j - i >= 2:
        # a path whose only positive triple spans exactly delta
        two = jumps_at(path.times, i + 1, j)
        assert ps_module(two, delta) == ps_module_brute(two, delta) == 1.0


@settings(max_examples=60, deadline=None)
@given(step_paths())
def test_module_monotone_and_caps_at_global(path):
    deltas = [0.1, 0.3, 0.6, 1.0]
    vals = [ps_module(path, d) for d in deltas]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == triple_min_sup(path)


@settings(max_examples=40, deadline=None)
@given(step_paths(), st.floats(-3, 3), st.floats(-2, 2))
def test_shift_and_scale_invariance(path, shift, scale):
    # exact in real arithmetic; shifting re-rounds the values, so compare
    # up to roundoff
    shifted = SampledPath(path.times, path.values + shift)
    scaled = SampledPath(path.times, path.values * scale)
    base = triple_min_sup(path)
    assert np.isclose(triple_min_sup(shifted), base, rtol=1e-9, atol=1e-12)
    assert np.isclose(triple_min_sup(scaled), abs(scale) * base, rtol=1e-12, atol=1e-12)
    d = 0.4
    assert np.isclose(ps_module(shifted, d), ps_module(path, d), rtol=1e-9, atol=1e-12)
    assert np.isclose(ps_module(scaled, d), abs(scale) * ps_module(path, d), rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(-4, 4))
def test_single_jump_global_stat_vanishes(pos, height):
    times = np.unique(np.array([0.0, pos, 1.0]))
    if times.size < 3:
        return
    p = SampledPath(times, np.array([0.0, height, height]))
    assert triple_min_sup(p) == 0.0


class TestContinuityModulus:
    def test_linear(self):
        assert continuity_modulus([0.0, 1.0], [0.0, 1.0], 0.1) == pytest.approx(0.1)

    def test_constant(self):
        for h in (0.0, 0.2, 1.0):
            assert continuity_modulus([0.0, 1.0], [3.0, 3.0], h) == 0.0

    def test_quadratic_grid(self):
        t = np.linspace(0, 1, 11)
        assert continuity_modulus(t, t**2, 0.1) == pytest.approx(0.19)

    def test_grid_pair_brute_force_when_aligned(self):
        t = np.linspace(0, 1, 21)
        v = np.sqrt(t)
        for h in (0.05, 0.1, 0.25):
            brute = max(
                abs(v[i] - v[j])
                for i in range(t.size)
                for j in range(t.size)
                if abs(t[i] - t[j]) <= h + 1e-12
            )
            assert continuity_modulus(t, v, h) == pytest.approx(brute, abs=1e-12)

    def test_monotone_in_h(self):
        t = np.linspace(0, 1, 13)
        v = np.cumsum(np.abs(np.sin(5 * t)))
        v = (v - v[0]) / (v[-1] - v[0])
        hs = np.linspace(0.01, 1.0, 25)
        vals = [continuity_modulus(t, v, h) for h in hs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_caps_at_total_variation_of_monotone(self):
        t = np.linspace(0, 1, 9)
        v = t**3
        assert continuity_modulus(t, v, 1.0) == pytest.approx(1.0)

    def test_curve_form(self):
        t = np.linspace(0, 1, 11)
        assert continuity_modulus(t, t**2, 0.1) == pytest.approx(0.19)

    @pytest.mark.parametrize("values", [[0.0, 0.5, np.nan], [0.0, 0.5, np.inf],
                                        [-np.inf, 0.5, 1.0]])
    def test_non_finite_values_rejected(self, values):
        # the table's nan or inf gave a nan modulus
        bad = next(v for v in values if not np.isfinite(v))
        with pytest.raises(ValueError, match=rf"values must lie in \(-inf, inf\), got {bad}"):
            continuity_modulus([0.0, 0.5, 1.0], values, 0.5)


class TestGFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GFunction(np.array([0.0, 1.0]), np.array([0.5, 1.0]))  # G(0) != 0
        with pytest.raises(ValueError):
            GFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        # a NaN passed the monotonicity check and gave nan bounds
        with pytest.raises(ValueError, match=rf"G must lie in \(-inf, inf\), got {bad}"):
            GFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, bad, 1.0]))

    def test_total_and_modulus(self):
        g = GFunction.linear(2.0)
        assert g.total == 2.0
        assert g.modulus(0.25) == pytest.approx(0.5)
        assert GFunction.constant().total == 0.0


class TestTableTolerances:
    """Each site of ``paths._table`` keeps the monotonicity tolerance it
    declares: a step back by half of it passes, by twice it raises."""

    @pytest.mark.parametrize("make, tol", [
        (lambda d: GFunction([0.0, 0.5, 1.0], [0.0, 0.5, 0.5 - d]), 1e-12),
        (lambda d: continuity_modulus([0.0, 0.5, 1.0], [0.0, 0.5, 0.5 - d], 0.1), 1e-12),
        (lambda d: TailCurve([1.0, 2.0], [0.5, 0.5 + d]), 1e-9),
        (lambda d: PhiFunction([0.0, 1.0, 2.0], [0.0, 1.0, 2.0 - d]), 1e-9),
        # 1e-6 times the largest value
        (lambda d: MomentTable([2.0, 4.0], np.array([10.0, 10.0 - d]), None, None, None), 1e-5),
    ], ids=["GFunction", "continuity_modulus", "TailCurve", "PhiFunction convexity",
            "MomentTable"])
    def test_each_site_keeps_its_tolerance(self, make, tol):
        make(tol / 2)
        with pytest.raises(ValueError, match="must be nondecreasing|must be nonincreasing"):
            make(2 * tol)
