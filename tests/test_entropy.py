import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorotail import entropy
from skorotail.entropy import (
    SemiDistanceGrid,
    covering_number,
    metric_entropy,
    scaled_window_modulus,
)

EUCLID = SemiDistanceGrid.from_gap_function(lambda g: g, 1001)


class TestSemiDistanceGrid:
    def test_validation(self):
        t = np.linspace(0, 1, 4)
        with pytest.raises(ValueError):
            SemiDistanceGrid(t, np.ones((4, 4)))  # nonzero diagonal
        q = np.abs(t[:, None] - t[None, :])
        q[0, 1] = 9.0
        with pytest.raises(ValueError):
            SemiDistanceGrid(t, q)  # asymmetric
        with pytest.raises(ValueError):
            SemiDistanceGrid(t, -np.abs(t[:, None] - t[None, :]))

    def test_nan_rejected(self):
        # nan passed the sign, diagonal and symmetry tests, and covering_number
        # then raised RuntimeError
        with pytest.raises(ValueError, match=r"q must lie in \[0, inf\], got nan"):
            SemiDistanceGrid.from_gap_function(lambda g: g**np.nan, 8)

    def test_triangle_inequality_not_required(self):
        # a squared gap violates the triangle inequality but is accepted
        SemiDistanceGrid.from_gap_function(lambda g: g**2, 32)


class TestCoveringNumber:
    @pytest.mark.parametrize("eps,expected", [(0.25, 2), (0.1, 5), (0.05, 10), (0.01, 50)])
    def test_euclid_matches_interval_formula(self, eps, expected):
        res = covering_number(EUCLID, eps)
        assert res.count == expected == int(np.ceil(1 / (2 * eps)))
        assert res.exact and res.covers_continuum
        assert res.verify(EUCLID)

    def test_huge_radius_single_ball(self):
        grid = SemiDistanceGrid.from_gap_function(lambda g: 3 * g, 64)
        assert covering_number(grid, 3.0).count == 1
        assert covering_number(grid, 100.0).count == 1

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_power_gap_formula(self, a):
        grid = SemiDistanceGrid.from_gap_function(lambda g: g**a, 2001)
        for eps in (0.3, 0.1, 0.04):
            expected = int(np.ceil(1 / (2 * eps ** (1 / a))))
            assert covering_number(grid, eps).count == expected

    def test_nonincreasing_in_eps(self):
        grid = SemiDistanceGrid.from_gap_function(np.sqrt, 501)
        counts = [covering_number(grid, e).count for e in np.linspace(0.05, 0.9, 18)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_greedy_fallback_certifies(self):
        rng = np.random.default_rng(1)
        n = 40
        m = rng.uniform(0.1, 1.0, (n, n))
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 0.0)
        grid = SemiDistanceGrid(np.linspace(0, 1, n), m)
        res = covering_number(grid, 0.4)
        assert not res.exact
        assert res.verify(grid)
        # still an upper bound for the minimal grid cover: every ball has
        # at most n points, so count >= n / max ball size
        sizes = (m <= 0.4 + 1e-12).sum(axis=1)
        assert res.count >= n / sizes.max()

    def test_radius_below_grid_spacing(self):
        # balls shrink to single points: every grid point becomes its own
        # center and the continuum cannot be tiled
        grid = SemiDistanceGrid.from_gap_function(lambda g: g, 11)
        res = covering_number(grid, 0.04)
        assert res.count == 11
        assert not res.covers_continuum
        assert res.verify(grid)

    def test_partial_chaining_still_covers_grid(self):
        # radius between half-spacing and spacing: pairs chain, gaps remain
        grid = SemiDistanceGrid.from_gap_function(lambda g: g, 11)
        res = covering_number(grid, 0.12)
        assert res.verify(grid)
        assert res.count <= 6

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            covering_number(EUCLID, 0.0)

    def test_failed_cover_raises(self, monkeypatch):
        # an explicit error, so the check survives python -O
        monkeypatch.setattr(entropy, "_interval_sweep", lambda times, within: ([0], True))
        with pytest.raises(RuntimeError, match="fail to cover"):
            covering_number(EUCLID, 0.25)

    def test_method_choices(self):
        # interval balls get the exact sweep; balls that are not intervals
        # (q(r,t) = |sin(4 pi (t - r))| is small again one half apart) get
        # the greedy cover
        assert covering_number(EUCLID, 0.25).exact
        grid = SemiDistanceGrid.from_gap_function(lambda g: np.abs(np.sin(4 * np.pi * g)), 101)
        greedy = covering_number(grid, 0.1)
        assert not greedy.exact and not greedy.covers_continuum
        assert greedy.verify(grid) and greedy.count >= 2

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.02, 0.9), st.floats(1.0, 3.0))
    def test_certificate_property(self, eps, a):
        grid = SemiDistanceGrid.from_gap_function(lambda g: g**a, 201)
        res = covering_number(grid, eps)
        assert res.verify(grid)
        assert res.count == len(res.centers)


class TestMetricEntropy:
    def test_log_of_count(self):
        assert metric_entropy(EUCLID, 0.6) == 0.0  # single ball
        assert metric_entropy(EUCLID, 0.1) == pytest.approx(np.log(5))
        assert metric_entropy(EUCLID, 0.25) == pytest.approx(np.log(2))


class TestScaledWindowModulus:
    def test_squared_gap(self):
        grid = SemiDistanceGrid.from_gap_function(lambda g: g**2, 1001)
        assert scaled_window_modulus(grid, 0.1) == pytest.approx(0.4)

    def test_squared_gap_vanishes(self):
        grid = SemiDistanceGrid.from_gap_function(lambda g: g**2, 2001)
        vals = [scaled_window_modulus(grid, h) for h in (0.2, 0.1, 0.05, 0.01)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(0.04)  # sigma = 4h

    def test_linear_gap_does_not_vanish(self):
        grid = SemiDistanceGrid.from_gap_function(lambda g: g, 1001)
        for h in (0.3, 0.1, 0.02):
            assert scaled_window_modulus(grid, h) == pytest.approx(2.0)

    def test_zero_h_rejected(self):
        grid = SemiDistanceGrid.from_gap_function(lambda g: g, 64)
        with pytest.raises(ValueError):
            scaled_window_modulus(grid, 0.0)
        with pytest.raises(ValueError):
            scaled_window_modulus(grid, 0.6)
