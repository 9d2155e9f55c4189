import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from skorotail.gls import (
    EmpiricalSample,
    PhiFunction,
    PsiFunction,
    conjugate_at,
    double_conjugate,
    gls_norm,
    lower_convex_envelope,
    lp_norm,
    mgf_norm,
    moment_tail_equivalence,
    natural_phi,
    tail_from_phi,
    young_fenchel,
)

RADEMACHER = EmpiricalSample(np.array([-1.0, 1.0]))


def convex_table(rng, n=25, span=3.0):
    xs = np.sort(rng.uniform(-span, span, n))
    xs += np.arange(n) * 1e-9  # enforce strict increase under duplicates
    slopes = np.sort(rng.normal(0, 2, n - 1))
    f = rng.normal() + np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return xs, f


class TestLpNorm:
    def test_simple(self):
        assert lp_norm(np.array([3.0, -4.0]), 2) == pytest.approx(np.sqrt(12.5))

    def test_overflow_safe(self):
        big = np.array([1e200, -2e200])
        assert np.isfinite(lp_norm(big, 64))
        assert lp_norm(big, 64) == pytest.approx(2e200 * (0.5 * (1 + 0.5**64)) ** (1 / 64))

    def test_zero(self):
        assert lp_norm(np.zeros(5), 7.5) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(np.array([]), 2)


class TestGlsNorm:
    def test_rademacher_sqrt_weight(self):
        psi = PsiFunction.from_callable(np.sqrt, p_max=64.0)
        # all absolute moments are 1, so the sup sits at the smallest p
        assert gls_norm(RADEMACHER, psi) == pytest.approx(1.0)

    def test_degenerate_is_plain_norm(self):
        psi2 = PsiFunction.degenerate(2)
        assert gls_norm(RADEMACHER, psi2) == 1.0

    def test_gaussian_band_against_quadrature(self):
        rng = np.random.default_rng(99)
        sample = EmpiricalSample(rng.normal(size=200_000))
        psi = PsiFunction.from_callable(np.sqrt, p_max=64.0)
        val = gls_norm(sample, psi)
        exact = max(
            quad(lambda z: abs(z) ** p * norm.pdf(z), -12, 12, limit=200)[0] ** (1 / p)
            / np.sqrt(p)
            for p in psi.grid[:20]  # the ratio is decreasing in p
        )
        assert val == pytest.approx(exact, abs=0.01)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 10), st.integers(1, 4))
    def test_homogeneous_degree_one(self, scale, l):
        rng = np.random.default_rng(3)
        draws = rng.normal(size=64)
        psi = PsiFunction.degenerate(float(l))
        a = gls_norm(EmpiricalSample(draws * scale), psi)
        b = gls_norm(EmpiricalSample(draws), psi)
        assert a == pytest.approx(scale * b, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40), st.integers(1, 5))
    def test_degenerate_equals_lp(self, draws, l):
        s = EmpiricalSample(np.array(draws))
        assert gls_norm(s, PsiFunction.degenerate(float(l))) == pytest.approx(
            lp_norm(s.draws, float(l)), rel=1e-12, abs=1e-300
        )


class TestMgfNorm:
    def test_all_zero(self):
        assert mgf_norm(EmpiricalSample(np.zeros(8)), PhiFunction.quadratic()) == 0.0

    def test_rademacher_quadratic(self):
        phi = PhiFunction.quadratic(5.0, 201)
        tau = mgf_norm(RADEMACHER, phi)
        assert tau <= 1.0 + 1e-9
        assert tau >= 0.95
        # bisection against the closed-form least scale; agreement is at the
        # level of the piecewise-linear table resolution
        lams = phi.grid[phi.grid > 0]
        oracle = np.sqrt(np.max(2 * np.log(np.cosh(lams)) / lams**2))
        assert tau == pytest.approx(oracle, rel=1e-3)

    def test_shifted_sample_rejected(self):
        shifted = EmpiricalSample(np.ones(100) * 2 + np.linspace(-0.01, 0.01, 100))
        with pytest.raises(ValueError, match="centered"):
            mgf_norm(shifted, PhiFunction.quadratic())

    def test_degenerate_phi_fails_kramer(self):
        # any table with positive final slope is eventually satisfied by
        # scaling, so only a flat table can make the constraint unsatisfiable
        grid = np.linspace(0, 5, 50)
        phi = PhiFunction(grid, np.zeros_like(grid))
        with pytest.raises(ValueError, match="Kramer"):
            mgf_norm(RADEMACHER, phi)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.5, 5.0))
    def test_homogeneous(self, scale):
        # exact in the continuum; the linear table overestimates a quadratic
        # near the origin, so small scales (tiny lam*tau arguments) drift more
        rng = np.random.default_rng(17)
        draws = rng.normal(size=500)
        draws -= draws.mean()
        phi = PhiFunction.quadratic(4.0, 101)
        a = mgf_norm(EmpiricalSample(draws * scale), phi)
        b = mgf_norm(EmpiricalSample(draws), phi)
        assert a == pytest.approx(scale * b, rel=1e-2)


class TestNaturalPhi:
    def test_rademacher_is_log_cosh(self):
        phi = natural_phi(RADEMACHER, lam_max=3.0)
        expected = np.log(np.cosh(phi.grid))
        assert np.allclose(phi.values, expected, atol=1e-12)

    def test_zero_sample(self):
        phi = natural_phi(EmpiricalSample(np.zeros(10)), lam_max=2.0)
        assert np.all(phi.values == 0.0)

    def test_two_gaussian_scales(self):
        rng = np.random.default_rng(4)
        fam = [
            EmpiricalSample(rng.normal(0, 1, 200_000)),
            EmpiricalSample(rng.normal(0, 2, 200_000)),
        ]
        phi = natural_phi(fam, lam_max=0.75, n_grid=40)
        lam = phi.grid[-1]
        assert phi.values[-1] == pytest.approx(2 * lam**2, rel=0.15)

    def test_overflow_truncates_with_warning(self):
        wild = EmpiricalSample(np.array([-300.0, 300.0]))
        with pytest.warns(RuntimeWarning, match="truncated"):
            phi = natural_phi(wild, lam_max=50.0)
        assert phi.grid[-1] < 50.0

    def test_output_is_valid_phi(self):
        rng = np.random.default_rng(8)
        s = EmpiricalSample(rng.laplace(size=5000))
        phi = natural_phi(s, lam_max=1.5)
        assert phi.values[0] == 0.0
        slopes = np.diff(phi.values) / np.diff(phi.grid)
        assert np.all(np.diff(slopes) >= -1e-9)


class TestYoungFenchel:
    def test_quadratic_self_conjugate(self):
        x = np.linspace(-5, 5, 201)
        us, fs = young_fenchel(x, 0.5 * x**2, x)
        assert np.abs(fs - 0.5 * x**2).max() < 1e-8

    def test_absolute_value(self):
        x = np.linspace(-4, 4, 161)
        us = np.linspace(-0.99, 0.99, 21)
        _, fs = young_fenchel(x, np.abs(x), us)
        assert np.abs(fs).max() < 1e-12
        _, beyond = young_fenchel(x, np.abs(x), np.array([2.0]))
        assert beyond[0] == pytest.approx(4.0)  # grows at the grid edge

    def test_log_cosh_closed_form(self):
        lam = np.linspace(-8, 8, 2001)
        us = np.linspace(-0.95, 0.95, 39)
        _, fs = young_fenchel(lam, np.log(np.cosh(lam)), us)
        exact = (1 + us) / 2 * np.log(1 + us) + (1 - us) / 2 * np.log(1 - us)
        assert np.abs(fs - exact).max() < 1e-4

    def test_double_conjugation_exact_on_convex(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            xs, f = convex_table(rng)
            back = double_conjugate(xs, f)
            assert np.abs(back - f).max() < 1e-9 * max(1.0, np.abs(f).max())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-20, 20), min_size=3, max_size=15))
    # chord slopes 0 and 3e-9 (and two near 2.97) once gave noise slopes
    @example(vals=[0, 0, 0, 0, 0, 0.99, 0, 0, 0, 0, 1e-9, 0.99, -10.99])
    def test_conjugate_convex_and_minorizes(self, vals):
        xs = np.linspace(-2, 2, len(vals))
        f = np.array(vals)
        back = double_conjugate(xs, f)
        assert np.all(back <= f + 1e-9)
        us, fs = young_fenchel(xs, f)
        keep = np.concatenate([[True], np.diff(us) > 1e-9])  # well-spaced nodes
        us, fs = us[keep], fs[keep]
        if us.size >= 3:
            slopes = np.diff(fs) / np.diff(us)
            assert np.all(np.diff(slopes) >= -1e-7 * max(1.0, np.abs(slopes).max()))

    def test_lower_convex_envelope(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 5.0, 1.0, 3.0])
        env = lower_convex_envelope(x, y)
        assert np.all(env <= y + 1e-12)
        assert env[0] == 0.0 and env[3] == 3.0


class TestTailFromPhi:
    def test_at_zero(self):
        assert tail_from_phi(PhiFunction.quadratic(), 1.0, 0.0) == 1.0

    def test_quadratic_at_two(self):
        phi = PhiFunction.quadratic(10.0, 2001)
        assert tail_from_phi(phi, 1.0, 2.0) == pytest.approx(np.exp(-2), rel=1e-6)

    def test_monotone_and_vanishing(self):
        phi = PhiFunction.quadratic(20.0, 401)
        xs = np.linspace(0, 15, 40)
        vals = tail_from_phi(phi, 1.0, xs)
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals[-1] < 1e-8

    def test_bad_c(self):
        with pytest.raises(ValueError):
            tail_from_phi(PhiFunction.quadratic(), 0.0, 1.0)


class TestMomentTailEquivalence:
    def test_rademacher(self):
        rep = moment_tail_equivalence(RADEMACHER, m=2.0)
        assert rep.moment_sup == pytest.approx(1.0)
        assert rep.moment_argmax == pytest.approx(1.0)
        assert rep.both_finite
        assert rep.tail_constant == np.inf  # support never reaches e

    def test_bounded_sample(self):
        rng = np.random.default_rng(12)
        rep = moment_tail_equivalence(EmpiricalSample(rng.uniform(-2, 2, 2000)), m=2.0)
        assert rep.both_finite
        assert not rep.moment_sup_at_edge

    def test_heavy_tail_diverges_along_grid(self):
        # survival x^-1.5 on [1, inf): moments beyond order 1.5 are infinite,
        # so the empirical ratio sup keeps growing with the sample instead of
        # stabilizing, and climbs through any moderate p grid to its edge
        rng = np.random.default_rng(10)
        draws = rng.pareto(1.5, 200_000) + 1.0
        small = moment_tail_equivalence(EmpiricalSample(draws[:2_000]), m=1.0)
        full = moment_tail_equivalence(EmpiricalSample(draws), m=1.0)
        assert full.moment_sup > 3.0 * small.moment_sup
        short_grid = moment_tail_equivalence(
            EmpiricalSample(draws), m=1.0, p_grid=np.linspace(2.0, 8.0, 25)
        )
        assert short_grid.moment_sup_at_edge
        assert not short_grid.both_finite
        # the order-1.25 moment still matches the closed form (a/(a-p))^(1/p)
        assert lp_norm(draws, 1.25) == pytest.approx(6.0 ** (1 / 1.25), rel=0.05)

    def test_gaussian_tail_constant(self):
        rng = np.random.default_rng(13)
        rep = moment_tail_equivalence(EmpiricalSample(rng.normal(size=500_000)), m=2.0)
        assert rep.both_finite
        assert 0.1 < rep.tail_constant < 1.0  # near 1/2 up to sampling noise

    @pytest.mark.parametrize("m, s", [(1.0, 0.0), (2.0, 0.0), (1.5, 0.5)])
    def test_tail_constant_against_per_draw_tail(self, m, s):
        # ties, negative atoms, a draw exactly at e and one just below it, and
        # draws exactly at the cut x (1 - 1e-12) below the atoms -5 and 6,
        # each on the side that decides the tail there
        cut = 1 - 1e-12
        draws = np.array([np.e, -np.e, 3.0, 3.0, -3.0, 5.0, -5.0, -5.0, -5.0,
                          -5.0 * cut, 6.0, 6.0, 6.0 * cut, -7.25, 0.5, -0.1, 2.0,
                          np.e * (1 - 1e-13)])
        sample = EmpiricalSample(draws)
        xs = np.unique(np.abs(draws))
        cs = [-np.log(u) * np.log(x) ** (m * s) / x**m
              for x in xs[xs >= np.e] for u in [sample.tail(x * (1 - 1e-12))]]
        rep = moment_tail_equivalence(sample, m=m, s=s, p_grid=np.array([2.0, 4.0]))
        # array and scalar powers may differ in the last bit; a miscounted
        # tie moves the constant by about 1e-12
        assert rep.tail_constant == pytest.approx(min(cs), rel=1e-14, abs=0)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            moment_tail_equivalence(RADEMACHER, m=0.0)


class TestValidation:
    def test_phi_requires_convexity(self):
        g = np.linspace(0, 2, 10)
        with pytest.raises(ValueError):
            PhiFunction(g, np.sqrt(g))

    def test_phi_zero_at_origin(self):
        g = np.linspace(0, 2, 10)
        with pytest.raises(ValueError):
            PhiFunction(g, g + 1.0)

    def test_psi_positive(self):
        with pytest.raises(ValueError):
            PsiFunction(np.array([1.0, 2.0]), np.array([1.0, 0.0]))

    def test_psi_support(self):
        with pytest.raises(ValueError):
            PsiFunction(np.array([1.0, 3.0]), np.array([1.0, 1.0]), b=2.0)

    def test_empirical_sample_nonempty(self):
        with pytest.raises(ValueError):
            EmpiricalSample(np.array([]))
