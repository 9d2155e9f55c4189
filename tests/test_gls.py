import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import norm

from skorotail import gls, paths
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

    def test_zero_draws_add_nothing_and_input_untouched(self):
        draws = np.array([0.0, -2.0, 0.0, 1.0, -0.0])
        keep = draws.copy()
        ps = np.array([1.0, 2.0, 7.5, 64.0])
        want = [np.mean(np.abs(draws) ** p) ** (1 / p) for p in ps]
        assert gls.lp_norms(draws, ps) == pytest.approx(want, rel=1e-14)
        assert np.array_equal(draws, keep)

    @pytest.mark.parametrize("zeros", [0, 7])
    def test_skipped_underflow_against_plain_formula(self, zeros):
        # Pareto(1.5) draws span about 6.6 in log scale, so from order ~113
        # on some p log(r) lie below the exp underflow; zero draws put -inf
        # into every order's row
        rng = np.random.default_rng(4)
        draws = np.concatenate([rng.pareto(1.5, 20_000) + 1.0, np.zeros(zeros)])
        rng.shuffle(draws)
        ps = np.concatenate([np.geomspace(0.5, 256.0, 37), [1.0, 2.0, 113.0, 114.0]])
        c = draws.max()
        with np.errstate(divide="ignore"):
            log_r = np.log(draws / c)
        want = c * np.array([np.mean(np.exp(p * log_r)) ** (1 / p) for p in ps])
        assert np.array_equal(gls.lp_norms(draws, ps), want)
        finite = log_r[np.isfinite(log_r)]
        assert ps.max() * finite.min() < gls._EXP_UNDERFLOW < ps.min() * finite.min()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(np.array([]), 2)

    @pytest.mark.parametrize("p", [0.0, -1.0, np.inf, np.nan])
    def test_order_not_a_norm_rejected(self, p):
        for draws in ([0.0, 2.0], [0.0, 0.0]):
            with pytest.raises(ValueError, match="orders p"):
                lp_norm(np.array(draws), p)
            with pytest.raises(ValueError, match="orders p"):
                gls.lp_norms(np.array(draws), [2.0, p])


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
        # against the closed-form least scale; agreement is at the level of
        # the piecewise-linear table resolution
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

    @staticmethod
    def feasible(draws, phi, tau):
        lams = phi.grid[phi.grid > 0]
        log_mgf = [max(logsumexp(l * draws), logsumexp(-l * draws)) - np.log(draws.size)
                   for l in lams]
        return bool(np.all(log_mgf <= phi(lams * tau) + 1e-12))

    @pytest.mark.parametrize("seed", range(20))
    def test_least_feasible_on_natural_phi(self, seed):
        # phi equals the log-mgf at every grid point, so tau = 1 up to rounding
        # and any shortfall below the inverse of the log-mgf is infeasible
        draws = np.random.default_rng(seed).normal(size=1000)
        draws -= draws.mean()
        phi = natural_phi(EmpiricalSample(draws))
        tau = mgf_norm(EmpiricalSample(draws), phi)
        assert self.feasible(draws, phi, tau)
        assert not self.feasible(draws, phi, tau * (1 - 1e-9))

    @pytest.mark.parametrize("values", [
        [0.0, 0.0, 1.0, 2.0],  # zero on [0, 1], then slope 1
        [0.0, 1e-13, 0.0, 1.0, 2.0],  # a dip of 1e-13 inside the flat start
    ])
    def test_least_feasible_on_flat_start(self, values):
        # phi^-1(y) for y above the flat stretch starts at its last knot,
        # not its first: log cosh 1 = 0.434 needs 1 * tau = g[-3] + 0.434
        phi = PhiFunction(np.arange(len(values), dtype=float), np.array(values))
        tau = mgf_norm(RADEMACHER, phi)
        assert self.feasible(RADEMACHER.draws, phi, tau)
        assert not self.feasible(RADEMACHER.draws, phi, tau * (1 - 1e-9))
        assert tau == pytest.approx(len(values) - 3 + np.log(np.cosh(1.0)), rel=1e-12)

    def test_finite_lambda_max_returns_feasible_scale(self):
        # log cosh 2 > phi(2) = 1.32 while every other grid lam fits below
        # tau = 1, so the binding constraint needs 2 tau strictly past the
        # table, where phi is +inf; tau = 1 itself is infeasible
        grid = np.linspace(0.0, 2.0, 41)
        phi = PhiFunction(grid, 0.66 * grid, lambda_max=2.0)
        tau = mgf_norm(RADEMACHER, phi)
        assert self.feasible(RADEMACHER.draws, phi, tau)
        assert not self.feasible(RADEMACHER.draws, phi, 1.0)
        assert tau == pytest.approx(1.0, rel=1e-14)

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


def log_mgf_reference(draws, lams):
    """max over signs of log mean exp(+-lam xi) per grid lam, shifted by the
    row max and summed in long double: the oracle of the log-mgf table."""
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble has no more precision than float64 here")
    x = np.asarray(draws, dtype=np.longdouble)
    out = []
    for lam in np.asarray(lams, dtype=np.longdouble):
        rows = [a.max() + np.log(np.mean(np.exp(a - a.max()))) for a in (lam * x, -lam * x)]
        out.append(max(rows))
    return np.array(out)


def reference_table(draws, lams):
    """The reference rounded to float64, in place of ``gls._log_mgf_table``."""
    return log_mgf_reference(draws, lams).astype(float)


def assert_log_mgf_accurate(table, draws, lams):
    """Within 2 eps max(1, |lam| max|x|, |value|) of the reference: the
    rounding of lam * x alone is eps |lam| max|x|.  scipy's logsumexp misses
    this bound by up to a factor 2 on these samples."""
    ref = log_mgf_reference(draws, lams)
    scale = np.maximum(1.0, np.maximum(np.abs(lams) * np.abs(draws).max(), np.abs(ref)))
    err = np.abs(table - ref) / (np.finfo(float).eps * scale)
    assert np.all(err <= 2.0), f"{err.max()} eps"


def tied_ends(rng):
    """min and max each drawn three times"""
    draws = rng.normal(size=1000)
    draws[rng.choice(draws.size, 6, replace=False)] = [-4.5, -4.5, -4.5, 3.25, 3.25, 3.25]
    return draws


def ties_after_rounding(rng):
    """each end next to its neighbouring double, which lam * x rounds onto
    the end's own product at some grid lam; the other draws are few and
    small, so the row max weighs in the last bits"""
    draws = rng.uniform(-0.5, 0.5, 10)
    draws[:4] = 1.75, np.nextafter(1.75, -np.inf), -1.3, np.nextafter(-1.3, np.inf)
    return rng.permutation(draws)


def wide_heavy(rng):
    """centered Student t(2) draws scaled to max |x| = 100: lam (max - min)
    passes 746 from lam = 3.73 on, and the underflow floor 708.4 from 3.55
    on, while the log-mgf stays below the cap"""
    t = rng.standard_t(2, size=1000)
    t *= 100.0 / np.abs(t).max()
    return np.concatenate([t, -t])


SAMPLES = {
    "standard_t": lambda rng: rng.standard_t(3, size=2001),
    "tied_ends": tied_ends,
    "ties_after_rounding": ties_after_rounding,
    "one_draw": lambda rng: np.array([-0.75]),
    "laplace": lambda rng: rng.laplace(size=1001),
    "wide_heavy": wide_heavy,
}


class TestLogMgfTable:
    LAMS = np.linspace(0.0, 5.0, 24)[1:]

    def test_ties_at_row_max(self):
        # Rademacher: half of every row sits at its max
        draws = np.repeat([-1.0, 1.0], 500)
        np.random.default_rng(0).shuffle(draws)
        assert_log_mgf_accurate(gls._log_mgf_table(draws, self.LAMS), draws, self.LAMS)

    def test_all_zero_sample(self):
        table = gls._log_mgf_table(np.zeros(10), self.LAMS)
        assert np.all(table == 0.0)

    @pytest.mark.parametrize("draws", [[1e308, -1e308, 5e307, -5e307, 0.0],
                                       [-1e308, -1e308, -5e307]])
    def test_overflowing_rows_match_the_fallback(self, draws):
        # lam * draws overflows from lam = 2 on: the row max is +-inf, and
        # the row gives +inf without a RuntimeWarning
        draws = np.array(draws)
        lams = np.array([0.5, 1.0, 2.0, 10.0])
        table = gls._log_mgf_table(draws, lams)
        assert_log_mgf_accurate(table[:2], draws, lams[:2])
        assert np.all(table[2:] == np.inf)

    # lam grids through 0 and below it: the row ends are lam times the
    # sample's ends, swapped for negative lam
    @pytest.mark.parametrize("case", SAMPLES)
    def test_lam_grids_through_zero_and_tied_ends(self, case):
        draws = SAMPLES[case](np.random.default_rng(8))
        lams = np.concatenate([-self.LAMS[::-2], [0.0, 1e-6, 1e-3], self.LAMS])
        assert_log_mgf_accurate(gls._log_mgf_table(draws, lams), draws, lams)

    def test_ties_only_after_rounding_occur(self):
        draws = ties_after_rounding(np.random.default_rng(8))
        for end in (draws.max(), draws.min()):
            assert np.count_nonzero(draws == end) == 1
            assert any(np.count_nonzero(l * draws == l * end) == 2 for l in self.LAMS)

    def test_skipped_underflow_against_reference(self):
        # terms below the exp underflow are zeroed around exp on the mgf rows
        # as on the lp_norms rows; they occur from lam = 3.55 on
        draws = wide_heavy(np.random.default_rng(8))
        sample = EmpiricalSample(draws)
        phi = natural_phi(sample)
        lams = phi.grid[1:]
        assert lams.max() * np.ptp(draws) > -gls._EXP_UNDERFLOW > lams.min() * np.ptp(draws)
        assert_log_mgf_accurate(gls._log_mgf_table(draws, lams), draws, lams)
        assert_phi_near_reference(phi, [sample])

    def test_natural_phi_family_of_sizes(self):
        rng = np.random.default_rng(3)
        fam = [EmpiricalSample(d - d.mean()) for d in
               (rng.normal(0, 1, 3000), rng.laplace(0, 0.5, 1001), rng.normal(0, 2, 17))]
        phi = natural_phi(fam, lam_max=1.5, n_grid=60)
        assert_phi_near_reference(phi, fam)

    def test_mgf_norm(self, monkeypatch):
        draws = np.random.default_rng(5).normal(size=5000)
        s = EmpiricalSample(draws - draws.mean())
        phi = PhiFunction.quadratic(4.0, 101)
        tau = mgf_norm(s, phi)
        monkeypatch.setattr(gls, "_log_mgf_table", reference_table)
        # a log-mgf error of eps moves phi^-1(log mgf) / lam by about
        # eps / lam^2, 600 eps at the grid's least lam 0.04; a fresh sample,
        # as s keeps the table it built
        assert tau == pytest.approx(mgf_norm(EmpiricalSample(s.draws), phi), rel=1e-12)


def shifted_means_746(v, cs):
    """``gls._shifted_means`` with its floor at -746, in one thread: exp is
    called on every entry whose result is subnormal, and only entries whose
    exp is +0.0 are zeroed.  The oracle of the normal-range floor."""
    with np.errstate(over="ignore"):
        ends = np.multiply.outer(cs, [v.min(), v.max()])
        tops, lows = ends.max(axis=1), ends.min(axis=1)
        means = np.ones_like(tops)
        buf, under = np.empty_like(v), np.empty(v.shape, dtype=bool)
        for k in np.flatnonzero(np.isfinite(tops)):
            np.multiply(cs[k], v, out=buf)
            if tops[k]:
                np.subtract(buf, tops[k], out=buf)
            if lows[k] - tops[k] < -746.0:
                np.less(buf, -746.0, out=under)
                np.copyto(buf, 0.0, where=under)
                np.exp(buf, out=buf)
                np.copyto(buf, 0.0, where=under)
            else:
                np.exp(buf, out=buf)
            means[k] = np.mean(buf)
    return tops, means


# the orders of the benchmark's moment-tail calls
MTE_P_GRID = np.logspace(0.0, np.log10(256.0), 200, endpoint=False)


def subnormal_terms(v, cs):
    """The number of entries c v - top whose exp is subnormal: the terms the
    normal-range floor zeroes and the -746 kernel keeps."""
    count = 0
    for c in cs:
        row = c * v - (c * v).max()
        count += np.count_nonzero((row < gls._EXP_UNDERFLOW) & (np.exp(row) > 0.0))
    return count


class TestUnderflowFloor:
    """Zeroing the terms whose exp is subnormal keeps every mean's bits: each
    row holds exp(0) = 1 at its top, and a term below 2^-1022 stays under
    half an ulp of any partial sum it could change."""

    def assert_same_bits(self, v, cs, least_subnormal):
        assert subnormal_terms(v, cs) >= least_subnormal
        tops, means = gls._shifted_means(v, cs)
        want_tops, want_means = shifted_means_746(v, cs)
        assert np.array_equal(tops, want_tops)
        assert np.array_equal(means, want_means)

    @pytest.mark.parametrize("zeros", [0, 50])
    def test_pareto_moment_rows(self, zeros):
        # the lp_norms rows: p log(x / max x), -inf at a zero draw
        rng = np.random.default_rng(43)
        draws = np.concatenate([rng.pareto(1.5, 100_000) + 1.0, np.zeros(zeros)])
        rng.shuffle(draws)
        with np.errstate(divide="ignore"):
            log_r = np.log(draws / draws.max())
        self.assert_same_bits(log_r, MTE_P_GRID, 180_000)

    def test_wide_heavy_mgf_rows(self):
        # natural_phi's grid reaches only 16 subnormal terms; twice its span, 29k
        draws = wide_heavy(np.random.default_rng(8))
        lams = np.linspace(0.0, 10.0, 200)[1:]
        self.assert_same_bits(draws, np.concatenate([lams, -lams]), 20_000)

    def test_mgf_rows_with_exact_zeros(self):
        rng = np.random.default_rng(9)
        draws = np.where(rng.random(20_000) < 0.25, 0.0, rng.standard_t(2, 20_000))
        draws *= 100.0 / np.abs(draws).max()
        lams = np.linspace(0.0, 10.0, 100)[1:]
        self.assert_same_bits(draws, np.concatenate([lams, -lams]), 100_000)


def log_mgf_cases():
    """Samples for the log-mgf tables: those of ``SAMPLES``, rows whose top
    overflows to +-inf, an all-zero sample and one with zero draws."""
    return {**SAMPLES,
            "overflow": lambda rng: np.array([1e308, -1e308, 5e307, -5e307, 0.0]),
            "all_zero": lambda rng: np.zeros(10),
            "some_zeros": lambda rng: np.where(rng.random(3000) < 0.3, 0.0,
                                               rng.standard_t(2, 3000))}


class TestWorkerCount:
    """Every gls table has the same bits on 1, 2 and 3 workers."""

    @staticmethod
    def each_count(monkeypatch, f, pool_cells=0):
        """f() at 1, 2 and 3 workers; by default the pool takes rows of
        any length."""
        monkeypatch.setattr(paths, "_POOL_CELLS", pool_cells)
        out = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(paths, "_worker_count", lambda: workers)
            out.append(f())
        return out

    def assert_alike(self, monkeypatch, f, pool_cells=0):
        first, *rest = self.each_count(monkeypatch, f, pool_cells)
        for got in rest:
            assert np.array_equal(got, first)

    @pytest.mark.parametrize("case", ["pareto", "zeros", "one_draw", "wide_heavy"])
    def test_lp_norms(self, monkeypatch, case):
        rng = np.random.default_rng(5)
        draws = {"pareto": lambda: rng.pareto(1.5, 5000) + 1.0,
                 "zeros": lambda: np.array([0.0, 3.0, -0.0, 1.0]),
                 "one_draw": lambda: np.array([-2.5]),
                 "wide_heavy": lambda: wide_heavy(rng)}[case]()
        self.assert_alike(monkeypatch, lambda: gls.lp_norms(draws, MTE_P_GRID))

    @pytest.mark.parametrize("case", log_mgf_cases())
    def test_log_mgf(self, monkeypatch, case):
        draws = log_mgf_cases()[case](np.random.default_rng(8))
        lams = np.linspace(0.0, 5.0, 24)[1:]
        # the tops overflow to +-inf at lam 1e306 on every sample wider than 180
        lams = np.concatenate([-lams[::-2], [0.0, 1e-6], lams, [1e3, 1e306]])
        self.assert_alike(monkeypatch, lambda: EmpiricalSample(draws).log_mgf(lams))

    def test_natural_phi_and_mgf_norm(self, monkeypatch):
        rng = np.random.default_rng(3)
        draws = [d - d.mean() for d in (rng.standard_t(3, 3000), wide_heavy(rng),
                                        rng.laplace(0, 0.5, 1001))]

        def phi_and_tau():
            fam = [EmpiricalSample(d) for d in draws]
            phi = natural_phi(fam)
            return np.concatenate([phi.grid, phi.values, [mgf_norm(fam[0], phi)]])

        self.assert_alike(monkeypatch, phi_and_tau)

    def test_pool_at_its_own_size_rule(self, monkeypatch):
        # rows from _POOL_CELLS draws go to the pool without a patched rule
        rng = np.random.default_rng(6)
        draws = rng.pareto(1.5, paths._POOL_CELLS + 5) + 1.0
        draws -= draws.mean()
        lams = np.linspace(0.0, 2.0, 40)[1:]
        self.assert_alike(monkeypatch, lambda: gls.lp_norms(draws, MTE_P_GRID),
                          paths._POOL_CELLS)
        self.assert_alike(monkeypatch, lambda: EmpiricalSample(draws).log_mgf(lams),
                          paths._POOL_CELLS)


def assert_phi_near_reference(phi, samples):
    """phi's values within 4 eps max(1, lam_max max|x|) of natural_phi built on
    the reference table, on the same grid: the tables differ by under 2 eps
    of that scale, and the convex envelope may trade a point for the chord
    through its neighbours."""
    fresh = [EmpiricalSample(s.draws) for s in samples]  # the samples keep their tables
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gls, "_log_mgf_table", reference_table)
        ref = natural_phi(fresh, lam_max=phi.grid[-1], n_grid=phi.grid.size)
    scale = max(1.0, phi.grid[-1] * max(np.abs(s.draws).max() for s in samples))
    assert np.array_equal(phi.grid, ref.grid)
    assert np.all(np.abs(phi.values - ref.values) <= 4 * np.finfo(float).eps * scale)


class TestStoredLogMgf:
    @staticmethod
    def count_builds(monkeypatch):
        """The grid sizes of the log-mgf tables built from here on."""
        build, calls = gls._log_mgf_table, []

        def counted(draws, lams):
            calls.append(lams.size)
            return build(draws, lams)

        monkeypatch.setattr(gls, "_log_mgf_table", counted)
        return calls

    @staticmethod
    def gauss(seed=11, n=20_000):
        draws = np.random.default_rng(seed).normal(size=n)
        return draws - draws.mean()

    def test_natural_phi_then_mgf_norm_builds_once(self, monkeypatch):
        draws = self.gauss()
        fresh_phi = natural_phi(EmpiricalSample(draws))
        fresh_tau = mgf_norm(EmpiricalSample(draws), fresh_phi)
        calls = self.count_builds(monkeypatch)
        s = EmpiricalSample(draws)
        phi = natural_phi(s)
        tau = mgf_norm(s, phi)
        assert calls == [199]
        assert np.array_equal(phi.values, fresh_phi.values)
        assert tau == fresh_tau

    def test_another_grid_replaces_the_table(self, monkeypatch):
        draws = self.gauss()
        a, b = np.linspace(0.1, 2.0, 20), np.linspace(0.1, 3.0, 20)
        calls = self.count_builds(monkeypatch)
        s = EmpiricalSample(draws)
        first = s.log_mgf(a)
        assert s.log_mgf(a.copy()) is first
        assert np.array_equal(s.log_mgf(b), EmpiricalSample(draws).log_mgf(b))
        again = s.log_mgf(a)
        assert again is not first and np.array_equal(again, first)
        assert len(calls) == 4  # a, b, b on the fresh sample, a again

    def test_table_is_read_only(self):
        table = EmpiricalSample(self.gauss()).log_mgf(np.linspace(0.1, 1.0, 5))
        with pytest.raises(ValueError):
            table[0] = 0.0

    def test_writes_to_the_input_change_nothing(self):
        draws = self.gauss()
        keep = draws.copy()
        s = EmpiricalSample(draws)
        draws *= 3.0
        assert not s.draws.flags.writeable
        assert np.array_equal(s.draws, keep)
        phi = natural_phi(s)
        want = natural_phi(EmpiricalSample(keep))
        assert np.array_equal(phi.values, want.values)
        draws[:] = 0.0
        assert mgf_norm(s, phi) == mgf_norm(EmpiricalSample(keep), want)

    def test_equality_and_hash_go_by_identity(self):
        a, b = EmpiricalSample(np.arange(3.0)), EmpiricalSample(np.arange(3.0))
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


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


def test_conjugate_at_scalar_u_is_a_float():
    # np.outer made a 1-entry table of a scalar u
    val = conjugate_at([0.0, 1.0, 2.0], [0.0, 0.5, 2.0], 1.0)
    assert type(val) is float and val == 0.5
    vals = conjugate_at([0.0, 1.0, 2.0], [0.0, 0.5, 2.0], [1.0, 3.0])
    assert np.array_equal(vals, [0.5, 4.0])


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

    @pytest.mark.parametrize("draws", [
        [np.e, -np.e, np.e, 0.0, -0.0, 3.0, -3.0, -4.5, 1.0],  # exactly +-e, ties
        [0.5, -2.7, np.nextafter(np.e, 0), -np.nextafter(np.e, 0)],  # all below e
        [0.0, -0.0, 0.0],  # zeros
        [-np.e],  # one side only
        np.random.default_rng(3).standard_cauchy(5000),  # mixed signs
        np.round(np.random.default_rng(4).normal(0, 3, 5000), 1),  # ties across signs
    ])
    def test_tail_atoms_against_every_draw(self, draws):
        draws = np.asarray(draws, dtype=float)
        want = np.unique(np.abs(draws))
        got = gls._distinct_abs_from_e(np.sort(draws))
        assert got.dtype == want.dtype
        assert got.tobytes() == want[want >= np.e].tobytes()

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            moment_tail_equivalence(RADEMACHER, m=0.0)

    @pytest.mark.parametrize("grid", [[1.0, 2.0, 4.0], [0.5, 2.0, 4.0]])
    def test_log_weight_needs_orders_above_one(self, grid):
        # log(1)^s = 0 divides by zero; log(0.5)^s is nan
        with pytest.raises(ValueError, match=r"orders p \(s != 0\) must lie in \(1, inf\)"):
            moment_tail_equivalence(RADEMACHER, m=2.0, s=0.5, p_grid=np.array(grid))
        moment_tail_equivalence(RADEMACHER, m=2.0, p_grid=np.array(grid))  # s = 0

    @pytest.mark.parametrize("grid", [[4.0, 2.0, 1.0], [1.0, 2.0, 2.0, 4.0], []])
    def test_grid_must_increase_strictly(self, grid):
        # the edge test reads the grid's last order as its largest
        with pytest.raises(ValueError, match="strictly increasing"):
            moment_tail_equivalence(RADEMACHER, m=2.0, p_grid=np.array(grid))


class TestValidation:
    def test_phi_requires_convexity(self):
        g = np.linspace(0, 2, 10)
        with pytest.raises(ValueError):
            PhiFunction(g, np.sqrt(g))

    def test_phi_finite_lambda_max_is_the_last_knot(self):
        g = np.linspace(0, 2, 10)
        with pytest.raises(ValueError, match="lambda_max"):
            PhiFunction(g, g**2, lambda_max=10.0)
        phi = PhiFunction(g, g**2, lambda_max=2.0)
        assert phi(2.0) == 4.0 and phi(2.0 + 1e-9) == np.inf

    def test_phi_zero_at_origin(self):
        g = np.linspace(0, 2, 10)
        with pytest.raises(ValueError):
            PhiFunction(g, g + 1.0)

    def test_psi_positive(self):
        with pytest.raises(ValueError):
            PsiFunction(np.array([1.0, 2.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_phi_values_finite(self, bad):
        g = np.linspace(0, 2, 5)
        with pytest.raises(ValueError, match=rf"phi must lie in \[-1e-12, inf\), got {bad}"):
            PhiFunction(g, np.array([0.0, 0.5, bad, 2.0, 4.0]))

    def test_psi_nan_rejected_inf_kept(self):
        # +inf is an infinite moment, which the bounds skip; NaN is no value
        g = np.array([1.0, 2.0, 4.0])
        with pytest.raises(ValueError, match=r"psi must lie in \(0, inf\], got nan"):
            PsiFunction(g, np.array([1.0, np.nan, 3.0]))
        assert PsiFunction(g, np.array([1.0, 2.0, np.inf])).values[-1] == np.inf

    def test_psi_support(self):
        with pytest.raises(ValueError):
            PsiFunction(np.array([1.0, 3.0]), np.array([1.0, 1.0]), b=2.0)

    def test_empirical_sample_nonempty(self):
        with pytest.raises(ValueError):
            EmpiricalSample(np.array([]))
