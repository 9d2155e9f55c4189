import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from skorotail import bounds, paths
from skorotail.bounds import (
    BoundUnavailable,
    EmpiricalJointMoment,
    SequencePair,
    TailCurve,
    chaining_constant,
    chaining_theta_form,
    clt_exp_envelope,
    entropy_series_bound,
    exp_tail_envelopes,
    factored_module_term,
    geometric_sequences,
    joint_moment,
    min_tail_2d,
    min_tail_fenchel,
    moment_global_bound,
    moment_module_bound,
    pair_pseudo_norm,
    pizier_min_bound,
    polynomial_sequences,
    power_global_bound,
    power_module_bound,
    rosenthal_constant,
    rosenthal_nu,
    validate_sequence_pair,
)
from skorotail.gls import PsiFunction, conjugate_at
from skorotail.paths import GFunction


def kbar_oracle(alpha, beta):
    """Independent evaluation of the closed form via math.pow."""
    num = math.pow(1.0 - math.pow(2.0, (1.0 - alpha) / (4.0 * beta)), -2.0 * beta)
    den = math.pow(2.0, (alpha - 1.0) / 2.0) - 1.0
    return num / den


# K(alpha, beta) to 20 digits, from 80-digit arithmetic (mpmath) on the double
# inputs: the closed form as written, and the theta form at the root of its
# stationarity condition 2 theta - 1 = 2^(1-alpha) theta^(1-2 beta), found by
# 400 bisections in theta.  Optimized K(3000, 900) = 1.6e1083 is left out.
K_TABLE = {
    "closed": {
        (2.0, 1.0): 95.370872487501044369,
        (1 + 2**-52, 1.0): 8.7771378401109276405e48,
        (41.0, 123.0): 1.7748354781152198834e304,
        (1.001, 0.3): 253056.79295283207484,
        (3000.0, 900.0): 5.9353462874879291238e192,
        (1.5, 0.5): 33.21869533179476319,
        (3.0, 2.5): 27510.543804823016342,
        (1.1, 4.0): 2.3256066231565532461e20,
        (300.0, 0.5): 9.908676465903734969e-46,
        (20.0, 60.0): 6.9188000034281026502e149,
    },
    "optimized": {
        (2.0, 1.0): 125.47094994778376879,
        (1 + 2**-52, 1.0): 7.4057100525935959566e48,
        (41.0, 123.0): 3.2231555112521636738e252,
        (1.001, 0.3): 240454.49409409470187,
        (1.5, 0.5): 32.970562748477140586,
        (3.0, 2.5): 30445.752393672071645,
        (1.1, 4.0): 11449305063422857481.0,
        (300.0, 0.5): 3.9272747722381812425e-90,
        (20.0, 60.0): 1.0085506847951412258e125,
    },
}


def theta_star(alpha, beta):
    """The library's minimizer of the theta form, from its s* = log(1/theta*)."""
    return math.exp(-bounds._optimize_theta((alpha - 1) / 2 * math.log(2.0) / beta, beta))


class TestChainingConstant:
    def test_closed_against_independent_formula(self):
        for a, b in [(2.0, 1.0), (1.5, 0.5), (3.0, 2.5), (1.1, 4.0)]:
            assert chaining_constant(a, b) == pytest.approx(kbar_oracle(a, b), rel=1e-12)

    def test_closed_reference_value(self):
        assert chaining_constant(2.0, 1.0) == pytest.approx(95.3709, abs=1e-3)

    @pytest.mark.parametrize("mode, alpha, beta, k", [
        (mode, a, b, k) for mode, table in K_TABLE.items() for (a, b), k in table.items()])
    def test_both_modes_match_high_precision_values(self, mode, alpha, beta, k):
        # log K factor by factor keeps every digit that the double inputs allow,
        # also where 2^((1-alpha)/(4 beta)) rounds to 1 (alpha = 1 + 2^-52) and
        # where a factor of the closed form overflows (41, 123)
        assert chaining_constant(alpha, beta, mode) == pytest.approx(k, rel=2e-13)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            chaining_constant(1.0, 1.0)
        with pytest.raises(ValueError):
            chaining_constant(2.0, 0.0)
        with pytest.raises(ValueError):
            chaining_constant(2.0, 1.0, mode="fancy")
        # each is accepted alone, but K has no limit where both grow
        for mode in ("closed", "optimized"):
            with pytest.raises(ValueError, match="alpha and beta must not both be inf"):
                chaining_constant(np.inf, np.inf, mode)

    def test_optimized_matches_dense_grid_search(self):
        for a, b in [(2.0, 1.0), (1.5, 1.0), (3.0, 0.5), (2.0, 0.25), (1.2, 0.1),
                     (1.01, 1.0), (1.001, 1.0), (1.001, 0.3)]:
            lo = 2 ** ((1 - a) / (2 * b))
            grid = lo + (1 - lo) * np.linspace(1e-7, 1 - 1e-7, 200_001)
            # the theta form, vectorized independently of the library
            dense = np.min(2 ** ((1 - a) / (2 * b)) * (grid * (1 - grid)) ** (-2 * b)
                           / (1 - 2 ** (1 - a) * grid ** (-2 * b)))
            k, th = chaining_constant(a, b, "optimized"), theta_star(a, b)
            assert k == pytest.approx(chaining_theta_form(a, b, th), rel=1e-13)
            assert k == pytest.approx(dense, rel=1e-9)
            assert k <= dense * (1 + 1e-14)
            # stationarity: 2 theta - 1 = 2^(1-alpha) theta^(1-2 beta)
            assert 2 * th - 1 - 2 ** (1 - a) * th ** (1 - 2 * b) == pytest.approx(0.0, abs=1e-14)

    def test_optimized_below_theta_form_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(1.1, 4.0)
            b = rng.uniform(0.5, 4.0)
            opt = chaining_constant(a, b, "optimized")
            lo = 2 ** ((1 - a) / (2 * b))
            for t in lo + (1 - lo) * np.array([0.1, 0.5, 0.9]):
                assert opt <= chaining_theta_form(a, b, t) + 1e-9

    def test_theta_form_next_to_its_left_end_is_inf(self):
        # -log theta rounds above -log lo = (alpha-1)/(2 beta) ln 2 at the float
        # next to lo, where the log of 1 - (lo/theta)^(2 beta) would be nan
        lo = 2 ** ((1 - 1001.0) / 2.0)
        assert chaining_theta_form(1001.0, 1.0, math.nextafter(lo, 1.0)) == np.inf

    def test_theta0_substitution_identity(self):
        # plugging the nominal theta into the theta form reproduces the closed
        # form only up to the factor 2^((alpha-1)(1-1/(2 beta)))
        for a, b in [(2.0, 1.0), (2.5, 0.75), (1.3, 2.0)]:
            th0 = 2 ** ((1 - a) / (4 * b))
            lhs = chaining_theta_form(a, b, th0)
            rhs = 2 ** ((a - 1) * (1 - 1 / (2 * b))) * kbar_oracle(a, b)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_optimizer_theta_approaches_nominal_theta(self):
        ratios = []
        for a in (1.1, 1.01, 1.001):
            th = theta_star(a, 1.0)
            th0 = 2 ** ((1 - a) / 4)
            ratios.append(th / th0)
        assert abs(ratios[-1] - 1) < 0.001
        assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)

    def test_small_alpha_asymptotic(self):
        a, b = 1.001, 1.0
        asym = 2 ** (4 * b + 1) * b ** (2 * b) * math.log(2) ** (-2 * b - 1) * (a - 1) ** (
            -2 * b - 1
        )
        assert chaining_constant(a, b) == pytest.approx(asym, rel=0.05)


class TestPowerBounds:
    def test_constant_envelope_gives_zero(self):
        u = np.logspace(0, 2, 10)
        curve = power_global_bound((2.0, 1.0), GFunction.constant(), u)
        assert np.all(curve.probs == 0.0)

    def test_linear_envelope_value(self):
        curve = power_global_bound((2.0, 1.0), GFunction.linear(), np.array([10.0]))
        assert curve.probs[0] == pytest.approx(kbar_oracle(2, 1) / 100.0, rel=1e-12)

    def test_clamped_then_vanishing(self):
        u = np.logspace(-1, 4, 40)
        curve = power_global_bound((2.0, 1.0), GFunction.linear(), u)
        assert curve.probs[0] == 1.0
        assert curve.probs[-1] < 1e-4
        assert np.all(np.diff(curve.probs) <= 1e-12)

    def test_module_value(self):
        curve = power_module_bound((2.0, 1.0), GFunction.linear(), 0.05, np.array([10.0]))
        expected = 2 * kbar_oracle(2, 1) * 1e-2 * 0.1  # omega(0.1) = 0.1
        assert curve.probs[0] == pytest.approx(expected, rel=1e-12)

    def test_module_vanishes_with_h(self):
        u = np.array([10.0])
        vals = [
            power_module_bound((2.0, 1.0), GFunction.linear(), h, u).probs[0]
            for h in (0.2, 0.05, 0.01, 0.001)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_infimum_below_each_pair(self):
        pairs = [(2.0, 1.0), (1.5, 2.0), (3.0, 0.7)]
        u = np.logspace(0.5, 2, 15)
        g = GFunction.linear(1.3)
        combined = power_global_bound(pairs, g, u)
        for pair in pairs:
            single = power_global_bound(pair, g, u)
            assert np.all(combined.probs <= single.probs + 1e-15)

    @pytest.mark.parametrize("alpha", [1e6, 1e300])
    def test_chaining_constant_below_the_float_range_gives_0(self, alpha):
        # K(alpha, 1) underflows to 0, and math.log(0) raised ValueError
        u, g = np.array([1.0, 10.0]), GFunction.linear()
        assert power_global_bound((alpha, 1.0), g, u).probs.tolist() == [0.0, 0.0]
        assert power_module_bound((alpha, 1.0), g, 0.05, u).probs.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("alpha, beta, k", [
        (3000.0, 900.0, 5.9353462874879291e192), (3000.0, 1e300, np.inf),
        (3000.0, np.inf, np.inf), (41.0, 123.0, 1.7748354781152199e304),
        (2100.0, 1.0, 1.1722481355006685e-316)])
    def test_chaining_constant_where_a_factor_leaves_the_float_range(self, alpha, beta, k):
        # at alpha 3000 both factors (1 - 2^((1-alpha)/(4 beta)))^(-2 beta) and
        # 2^((alpha-1)/2) - 1 are inf, and their quotient was nan; at (41, 123)
        # the first is inf and K is finite; at (2100, 1) K is subnormal.  Each
        # finite K is from 50-digit arithmetic, and a log near 1500 rounds to
        # about 3e-13; a subnormal keeps about 7 digits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rel = 1e-7 if k < sys.float_info.min else 1e-12
            assert chaining_constant(alpha, beta) == pytest.approx(k, rel=rel)

    def test_chaining_constant_below_the_float_range_keeps_its_log(self):
        # K(2100, 1) = 2^-1049.5 / (1 - 2^-1049.5) / (1 - 2^-524.75)^2 underflows, and
        # G(1)^alpha = 2^1050 makes up for it: the bound is 2^(1/2) / u^2, not 0
        curve = power_global_bound((2100.0, 1.0), GFunction.linear(math.sqrt(2.0)),
                                   np.array([10.0]))
        assert curve.probs[0] == pytest.approx(math.sqrt(2.0) / 100.0, rel=1e-10)

    def test_float_range_rule_restores_the_callers_errstate(self):
        # log K(1.0001, 50) = 1497, whose bound overflows to inf in _power_curve,
        # a ruled call that nests the ruled _log_k
        with np.errstate(all="raise"):
            before = np.geterr()
            curve = power_global_bound((1.0001, 50.0), GFunction.linear(), np.array([1.0, 10.0]))
            assert np.geterr() == before
        assert curve.probs.tolist() == [1.0, 1.0]


class TestEntropySeries:
    def geometric_preset_value(self, u):
        return entropy_series_bound(
            lambda e: e**-0.5, lambda x: x**2, geometric_sequences(0.1, 0.6), u
        )

    def test_preset_against_direct_summation(self):
        res = self.geometric_preset_value(1.0)
        s, th = 0.1, 0.6
        direct = sum(
            (s**k) ** -0.5 * s ** (k - 1) / (0.4 * th ** (k - 1)) ** 2
            for k in range(1, res.terms_used + 1)
        )
        assert res.value == pytest.approx(direct, rel=1e-12)
        assert res.remainder < 1e-9

    def test_exact_power_scaling(self):
        v1 = self.geometric_preset_value(1.0).value
        v10 = self.geometric_preset_value(10.0).value
        assert v10 == pytest.approx(v1 / 100.0, rel=1e-9)

    def test_unit_exponent_diverges(self):
        with pytest.raises(BoundUnavailable):
            entropy_series_bound(
                lambda e: e**-1.0, lambda x: x**2, geometric_sequences(0.1, 0.6), 1.0
            )

    def test_polynomial_weights_with_slow_covering_diverge(self):
        # covering eps^-1 |ln eps|^-2 against k^-2 weights: terms grow like k^2
        cov = lambda e: (1 / e) * abs(math.log(e)) ** -2.0
        with pytest.raises(BoundUnavailable):
            entropy_series_bound(cov, lambda x: x**2, polynomial_sequences(2.0), 1.0)

    def test_family_takes_minimum(self):
        cov = lambda e: e**-0.5
        lam = lambda x: x**2
        fam = [geometric_sequences(0.1, 0.6), geometric_sequences(0.5, 0.9)]
        best = entropy_series_bound(cov, lam, fam, 2.0)
        singles = [entropy_series_bound(cov, lam, p, 2.0).value for p in fam]
        assert best.value == pytest.approx(min(singles), rel=1e-12)

    def test_sequence_validation(self):
        bad_eps = SequencePair(lambda k: 0.5**k, lambda k: 0.5**k, "bad")
        with pytest.raises(ValueError, match="eps"):
            validate_sequence_pair(bad_eps)
        heavy = SequencePair(lambda k: 0.5 ** (k - 1), lambda k: 1.0, "heavy")
        with pytest.raises(ValueError, match="sum"):
            validate_sequence_pair(heavy)
        with pytest.raises(ValueError):
            geometric_sequences(s=1.5)
        with pytest.raises(ValueError):
            polynomial_sequences(nu=1.0)


class TestMomentBounds:
    def test_constant_envelope(self):
        u = np.logspace(0, 2, 8)
        assert np.all(moment_global_bound(np.sqrt, GFunction.constant(), u).probs == 0)

    def test_clamp_region(self):
        # u at or below 3 nu(2) G(1): every term is >= 1
        curve = moment_global_bound(np.sqrt, GFunction.linear(), np.array([3.0]))
        assert curve.probs[0] == 1.0

    def test_grid_search_beats_p2_term(self):
        curve = moment_global_bound(np.sqrt, GFunction.linear(), np.array([30.0]))
        p2 = (3 * math.sqrt(2) * 1 / 30) ** 2
        assert curve.probs[0] <= p2 + 1e-15
        assert curve.probs[0] < p2  # a better p exists at this threshold
        assert curve.params[0] > 2.0

    def test_module_term_and_infimum(self):
        h, u = 0.05, 30.0
        curve = moment_module_bound(np.sqrt, GFunction.linear(), h, np.array([u]))
        p2_term = 2 * 9 * u**-2 * 2 * 1 * 0.1  # 2*3^2 nu(2)^2 G(1)^2 omega / u^2
        assert curve.probs[0] <= p2_term + 1e-15

    def test_module_vanishes_with_h(self):
        u = np.array([30.0])
        vals = [
            moment_module_bound(np.sqrt, GFunction.linear(), h, u).probs[0]
            for h in (0.25, 0.05, 0.01)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_table_input(self):
        ps = np.array([2.0, 4.0, 8.0])
        vals = np.sqrt(ps)
        c1 = moment_global_bound((ps, vals), GFunction.linear(), np.array([20.0]))
        c2 = moment_global_bound(np.sqrt, GFunction.linear(), np.array([20.0]), p_grid=ps)
        assert c1.probs[0] == pytest.approx(c2.probs[0], rel=1e-12)

    def test_support_restriction(self):
        curve = moment_global_bound(
            np.sqrt, GFunction.linear(), np.array([50.0]), b=4.0,
            p_grid=np.array([2.0, 3.0, 8.0]),
        )
        assert curve.params[0] <= 3.0  # p = 8 lies outside [2, b)

    def test_no_finite_values_rejected(self):
        with pytest.raises(ValueError):
            moment_global_bound(lambda p: np.full_like(p, np.inf), GFunction.linear(),
                                np.array([10.0]))

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            moment_module_bound(np.sqrt, GFunction.linear(), 0.7, np.array([10.0]))

    def test_raw_and_params_against_stated_formulas(self):
        ps = np.array([2.0, 3.0, 5.0, 8.0])
        g, h = GFunction.linear(2.0), 0.1
        om = g.modulus(2 * h)
        u = np.logspace(0.5, 2.5, 7)  # crosses the clamp at 1
        glob = moment_global_bound((ps, np.sqrt(ps)), g, u)
        mod = moment_module_bound((ps, np.sqrt(ps)), g, h, u)
        for i, uu in enumerate(u):
            terms = [(3 * math.sqrt(p) * 2.0 / uu) ** p for p in ps]
            mterms = [2 * t * om ** (p - 1) for t, p in zip(terms, ps)]
            for curve, vals in ((glob, terms), (mod, mterms)):
                k = int(np.argmin(vals))
                assert curve.raw[i] == pytest.approx(vals[k], rel=1e-12)
                assert curve.params[i] == ps[k]
                assert curve.probs[i] == min(1.0, curve.raw[i])


class TestExpEnvelopes:
    def test_linear_growth_constant(self):
        env = exp_tail_envelopes(1.0, 1.0, GFunction.linear(), 0.05, 100.0)
        # continuum optimum for m=1: C2 = 1/(3 c1 G(1) e)
        assert env.c2 == pytest.approx(1 / (3 * math.e), rel=0.02)
        assert env.delta_in_range

    def test_envelope_dominates_grid_bound(self):
        g = GFunction.linear()
        env_fn = lambda u: exp_tail_envelopes(1.0, 1.0, g, 0.05, u)
        for u in (30.0, 100.0, 500.0):
            env = env_fn(u)
            curve = moment_global_bound(lambda p: p, g, np.array([u]))
            assert env.delta_value >= curve.probs[0] - 1e-12
            mod = moment_module_bound(lambda p: p, g, 0.05, np.array([u]))
            assert env.kappa_value >= mod.probs[0] - 1e-12

    def test_vanishing(self):
        env = exp_tail_envelopes(1.0, 1.0, GFunction.linear(), 0.05, 1e6)
        assert env.delta_value < 1e-10
        assert env.kappa_value < 1e-6

    def test_kappa_range_flag(self):
        g = GFunction.linear()
        om = g.modulus(0.1)
        threshold = (om * abs(math.log(om))) ** -1.0
        below = exp_tail_envelopes(1.0, 1.0, g, 0.05, threshold * 0.5)
        above = exp_tail_envelopes(1.0, 1.0, g, 0.05, threshold * 2.0)
        assert not below.kappa_in_range
        assert above.kappa_in_range


# the calibration orders of ``exp_tail_envelopes``
P_CAL = np.logspace(np.log10(2.0), np.log10(bounds._ENVELOPE_P_MAX / 4.0),
                    bounds._ENVELOPE_CAL_POINTS)


@pytest.mark.parametrize("envelope, u", [
    # 3 c1 G(1) (e p)^m at m = 1 and the eleventh order, on the global grid,
    # and 3 c1 G(1) omega (e p)^m on the module's
    (exp_tail_envelopes, 3.0 * (math.e * P_CAL[10])),
    (exp_tail_envelopes, 3.0 * GFunction.linear().modulus(0.1) * (math.e * P_CAL[10])),
    # the eleventh of the six decades of thresholds from 3 K_R(2) c1 G(1),
    # on the global grid and the module's
    (lambda c1, m, g, h, u: clt_exp_envelope(c1, m, 0.0, g, h, u),
     np.logspace(np.log10(3.0 * rosenthal_constant(2.0)),
                 np.log10(3.0 * rosenthal_constant(2.0)) + 6, 60)[10]),
], ids=["exp-global", "exp-module", "clt"])
def test_a_threshold_on_the_calibration_grid(envelope, u):
    # joining the grid, u repeated a threshold, and TailCurve rejected the grid
    g = GFunction.linear()
    env = envelope(1.0, 1.0, g, 0.05, u)
    nearby = envelope(1.0, 1.0, g, 0.05, u * (1 + 1e-12))
    assert env.delta_value == pytest.approx(nearby.delta_value, rel=1e-9)
    assert env.kappa_value == pytest.approx(nearby.kappa_value, rel=1e-9)


class TestMinTail2D:
    UNIFORM = staticmethod(lambda p1, p2: 1.0 / ((p1 + 1) * (p2 + 1)))

    def test_fixed_unit_orders(self):
        assert self.UNIFORM(1, 1) / (0.5 * 0.5) == pytest.approx(1.0)

    def test_optimized_against_scipy(self):
        res = min_tail_2d(self.UNIFORM, 0.5, 0.5)
        per_axis = minimize_scalar(
            lambda p: 2**p / (p + 1), bounds=(0.05, 10), method="bounded"
        )
        assert res.value == pytest.approx(per_axis.fun**2, rel=1e-3)
        assert 0.25 < res.value < 1.0

    def test_vanishes_at_large_threshold(self):
        assert min_tail_2d(self.UNIFORM, 50.0, 50.0).value < 1e-10

    def test_empirical_matrix_route(self):
        rng = np.random.default_rng(21)
        x, y = rng.uniform(size=50_000), rng.uniform(size=50_000)
        emp = min_tail_2d(EmpiricalJointMoment(x, y), 0.5, 0.5)
        closed = min_tail_2d(self.UNIFORM, 0.5, 0.5)
        assert emp.value == pytest.approx(closed.value, rel=0.02)

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2.5, 0),
                                              (1, bounds._JOINT_SLICE + 1),
                                              (bounds._JOINT_TASKS, bounds._JOINT_SLICE + 1)])
    def test_matrix_blocks_against_per_cell_moments(self, blocks, extra):
        n = int(blocks * bounds._JOINT_BLOCK) + extra
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=n), rng.pareto(1.5, n) + 1.0
        p1s, p2s = np.array([0.1, 0.5, 1.0, 2.5, 16.0]), np.array([0.3, 1.0, 4.0, 9.5])
        want = [[joint_moment(x, y, a, b) for b in p2s] for a in p1s]
        got = EmpiricalJointMoment(x, y).matrix(p1s, p2s)
        assert np.allclose(got, want, rtol=1e-13, atol=0)

    def test_matrix_memory_stays_within_blocks(self, monkeypatch):
        rng = np.random.default_rng(2)
        joint = EmpiricalJointMoment(rng.normal(size=100_000), rng.pareto(1.5, 100_000))
        grid = np.logspace(-1, np.log10(16.0), 60)
        monkeypatch.setattr(paths, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            joint.matrix(grid, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two (100k, 60) power tables would take 92 MiB and two 8192-row
        # tables 7.5 MiB; each worker holds two 512-row tables (0.47 MiB),
        # numpy's buffers for forming them and its part, and the 13 parts
        # wait for the caller: 2.04 MiB measured
        assert peak < 2.5 * 2**20

    @pytest.mark.parametrize("n", [1, 2 * bounds._JOINT_SLICE + 1, 3 * bounds._JOINT_BLOCK // 2,
                                   bounds._JOINT_BLOCK + bounds._JOINT_SLICE + 1,
                                   bounds._JOINT_TASKS * bounds._JOINT_BLOCK + bounds._JOINT_SLICE + 1])
    def test_matrix_alike_on_any_worker_count(self, monkeypatch, n):
        # tasks on the pool from any size, cut into runs of slices or into
        # blocks, over a partial last task and slice, zero draws and orders
        # down to 0
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=n), rng.pareto(1.5, n) + 1.0
        x[::7], y[1::5] = 0.0, 0.0
        grid = np.concatenate([[0.0], np.logspace(-1, np.log10(16.0), 60)])
        monkeypatch.setattr(paths, "_POOL_CELLS", 0)
        mats = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(paths, "_worker_count", lambda: workers)
            mats.append(EmpiricalJointMoment(x, y).matrix(grid, grid[::-1]))
        assert np.array_equal(mats[1], mats[0]) and np.array_equal(mats[2], mats[0])

    def test_matrix_pool_keeps_the_callers_errstate(self, monkeypatch):
        # 0^-1 divides by zero in both tables of every task, formed on
        # either thread
        x, y = np.ones(bounds._JOINT_TASKS * bounds._JOINT_SLICE), np.ones(
            bounds._JOINT_TASKS * bounds._JOINT_SLICE)
        x[:: bounds._JOINT_SLICE], y[1 :: bounds._JOINT_SLICE] = 0.0, 0.0
        grid = np.array([-1.0, 1.0])
        monkeypatch.setattr(paths, "_POOL_CELLS", 0)
        monkeypatch.setattr(paths, "_worker_count", lambda: 2)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            EmpiricalJointMoment(x, y).matrix(grid, grid)
        with warnings.catch_warnings(), np.errstate(divide="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            EmpiricalJointMoment(x, y).matrix(grid, grid)

    @staticmethod
    def joint(seed=4, n=20_000):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=n), rng.pareto(1.5, n) + 1.0
        return x, y

    def test_thresholds_share_one_matrix(self):
        x, y = self.joint()
        grid = np.logspace(-1, np.log10(16.0), 60)
        joint = EmpiricalJointMoment(x, y)
        got = [min_tail_2d(joint, u, u, grid, grid) for u in (2.0, 4.0)]
        want = [min_tail_2d(EmpiricalJointMoment(x, y), u, u, grid, grid) for u in (2.0, 4.0)]
        assert got == want
        assert joint.matrix(grid, grid.copy()) is joint.matrix(grid, grid)

    def test_another_grid_rebuilds_the_matrix(self):
        x, y = self.joint()
        a, b = np.array([0.5, 1.0, 2.0]), np.array([0.5, 1.0, 3.0])
        joint = EmpiricalJointMoment(x, y)
        first = joint.matrix(a, a)
        assert np.array_equal(joint.matrix(a, b), EmpiricalJointMoment(x, y).matrix(a, b))
        again = joint.matrix(a, a)
        assert again is not first and np.array_equal(again, first)

    def test_matrix_is_read_only(self):
        grid = np.array([1.0, 2.0])
        mat = EmpiricalJointMoment(*self.joint()).matrix(grid, grid)
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0

    def test_writes_to_the_input_change_nothing(self):
        x, y = self.joint()
        keep = x.copy(), y.copy()
        joint = EmpiricalJointMoment(x, y)
        x *= 3.0
        y[:] = 0.0
        assert not joint.x.flags.writeable and not joint.y.flags.writeable
        fresh = EmpiricalJointMoment(*keep)
        assert min_tail_2d(joint, 2.0, 2.0) == min_tail_2d(fresh, 2.0, 2.0)

    def test_infinite_moments_warn(self):
        inf_moment = lambda p1, p2: np.inf
        with pytest.warns(RuntimeWarning):
            res = min_tail_2d(inf_moment, 2.0, 2.0)
        assert res.value == 1.0

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            min_tail_2d(self.UNIFORM, 0.0, 1.0)


class TestPairPseudoNorm:
    def test_homogeneous_degree_one(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=100), rng.normal(size=100)
        base = pair_pseudo_norm(x, y, 1.5, 2.5)
        assert pair_pseudo_norm(3 * x, 3 * y, 1.5, 2.5) == pytest.approx(3 * base, rel=1e-12)

    def test_zero_iff_disjoint(self):
        x = np.array([1.0, 0.0, 2.0, 0.0])
        y = np.array([0.0, 3.0, 0.0, 4.0])
        assert pair_pseudo_norm(x, y, 1, 1) == 0.0
        assert pair_pseudo_norm(x, x, 1, 1) > 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1.0, 4.0), st.floats(1.0, 4.0))
    def test_holder_bound(self, seed, p1, p2):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=64), rng.normal(size=64)
        lhs = joint_moment(x, y, p1, p2)
        rhs = (
            np.mean(np.abs(x) ** (2 * p1)) ** 0.5 * np.mean(np.abs(y) ** (2 * p2)) ** 0.5
        )
        assert lhs <= rhs * (1 + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1.0, 3.0), st.floats(1.0, 3.0))
    def test_sum_estimate(self, seed, p1, p2):
        rng = np.random.default_rng(seed)
        x1, x2 = rng.normal(size=64), rng.normal(size=64)
        y1, y2 = rng.normal(size=64), rng.normal(size=64)
        lhs = pair_pseudo_norm(x1 + x2, y1 + y2, p1, p2)
        mx = lambda v, q: np.mean(np.abs(v) ** q) ** (1 / q)
        rhs = 2 ** (1 - 2 / (p1 + p2)) * (
            (mx(x1, 2 * p1) ** p1 + mx(x2, 2 * p1) ** p1)
            * (mx(y1, 2 * p2) ** p2 + mx(y2, 2 * p2) ** p2)
        ) ** (1 / (p1 + p2))
        assert lhs <= rhs * (1 + 1e-9)

    def test_unit_ball_not_convex(self):
        # two disjoint pairs of zero pseudo-norm whose midpoint escapes the ball
        x1, y1 = np.array([4.0, 0.0]), np.array([0.0, 4.0])
        x2, y2 = np.array([0.0, 4.0]), np.array([4.0, 0.0])
        assert pair_pseudo_norm(x1, y1, 1, 1) == 0.0 <= 1.0
        assert pair_pseudo_norm(x2, y2, 1, 1) == 0.0 <= 1.0
        xm, ym = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
        assert pair_pseudo_norm(xm, ym, 1, 1) == pytest.approx(2.0)
        assert pair_pseudo_norm(xm, ym, 1, 1) > 1.0


class TestMinTailFenchel:
    def test_bounded_product_hits_grid_edge(self):
        psi = PsiFunction.from_callable(lambda p: np.ones_like(p), b=np.inf, p_max=64.0)
        res = min_tail_fenchel(psi, 1, 2.0)
        assert res.at_edge
        assert res.value == pytest.approx(2.0 ** -psi.grid[-1], rel=1e-9)

    def test_two_routes_agree(self):
        psi = PsiFunction.from_callable(np.sqrt, b=np.inf, p_max=64.0, n=500)
        res = min_tail_fenchel(psi, 2, math.e)
        direct = min(
            psi.values[i] ** p * math.e ** (-2 * p)
            for i, p in enumerate(psi.grid)
        )
        assert res.value == pytest.approx(direct, rel=1e-10)
        # interior optimum p* = e^3, value exp(-e^3 / 2)
        assert res.value == pytest.approx(math.exp(-0.5 * math.e**3), rel=1e-3)
        assert not res.at_edge

    def test_threshold_above_one_required(self):
        psi = PsiFunction.from_callable(np.sqrt, p_max=16.0)
        with pytest.raises(ValueError):
            min_tail_fenchel(psi, 1, 1.0)

    def test_near_one_threshold(self):
        psi = PsiFunction.from_callable(np.sqrt, p_max=16.0)
        assert min_tail_fenchel(psi, 1, 1.0 + 1e-9).value > 0.9

    @pytest.mark.parametrize("power", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("u", [1.01, 2.0, 7.0, 50.0])
    def test_is_exp_of_minus_the_conjugate(self, power, d, u):
        psi = PsiFunction.from_callable(lambda p: p**power, b=np.inf, p_max=64.0)
        psi1 = psi.grid * np.log(psi.values)
        star = float(conjugate_at(psi.grid, psi1, np.array([d * math.log(u)]))[0])
        res = min_tail_fenchel(psi, d, u)
        # np.exp and math.exp may round apart by an ulp
        assert res.value == pytest.approx(min(1.0, math.exp(-star)), rel=4e-16, abs=0.0)
        k = int(np.argmax(d * math.log(u) * psi.grid - psi1))
        assert res.p_star == psi.grid[k]
        assert res.at_edge == (k == psi.grid.size - 1)


def pizier_loop(d2p, r, s, t, u, p_grid):
    """The former per-order loop of ``pizier_min_bound``, kept as its oracle."""
    best, best_p = np.inf, np.nan
    for p in p_grid:
        d1, d2 = d2p(p, r, s), d2p(p, s, t)
        if not (np.isfinite(d1) and np.isfinite(d2)):
            continue
        if d1 == 0.0 or d2 == 0.0:
            return 0.0, float(p)
        log_term = p * (math.log(d1) + math.log(d2) - 2 * math.log(u))
        if log_term < best:
            best, best_p = log_term, float(p)
    if not np.isfinite(best):
        raise ValueError("increment norms are nowhere finite on the p grid")
    return min(1.0, math.exp(best)), best_p


class TestPizier:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_loop_on_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.uniform(0.1, 32.0, int(rng.integers(1, 150))))
        a, e, c = rng.uniform(0.2, 3.0), rng.uniform(0.2, 1.5), rng.uniform(-0.5, 0.5)
        d = lambda p, x, y: a * abs(y - x) ** e * (1 + p) ** c
        for u in (0.2, 1.0, 3.0, 40.0):
            val, p = pizier_min_bound(d, 0.0, 0.3, 0.7, u, p_grid=grid)
            want, want_p = pizier_loop(d, 0.0, 0.3, 0.7, u, grid)
            # np.log and np.exp may round apart from math's by an ulp
            assert val == pytest.approx(want, rel=1e-13, abs=0.0)
            assert p == want_p

    def test_zero_norm_gives_zero_at_its_first_order(self):
        grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        d = lambda p, x, y: 0.0 if p >= 2.0 else 0.4
        assert pizier_min_bound(d, 0.0, 0.3, 0.7, 1.0, p_grid=grid) == (0.0, 2.0)
        assert pizier_loop(d, 0.0, 0.3, 0.7, 1.0, grid) == (0.0, 2.0)

    def test_rows_with_an_infinite_norm_are_skipped(self):
        grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        # the smallest term would be at p = 8, where the norm is infinite;
        # at p = 1 one norm is 0 and the other infinite
        d = lambda p, x, y: (np.inf if p == 8.0 or (p == 1.0 and x == 0.0)
                             else 0.0 if p == 1.0 else 0.1)
        got = pizier_min_bound(d, 0.0, 0.3, 0.7, 1.0, p_grid=grid)
        assert got == pizier_loop(d, 0.0, 0.3, 0.7, 1.0, grid)
        assert got[1] == 4.0 and got[0] == pytest.approx(0.1**8, rel=1e-13)

    def test_a_grid_without_a_finite_row_raises(self):
        d = lambda p, x, y: np.inf if x == 0.0 else 0.0
        for impl in (pizier_min_bound, pizier_loop):
            with pytest.raises(ValueError, match="nowhere finite"):
                impl(d, 0.0, 0.3, 0.7, 1.0, np.array([1.0, 2.0]))

    def test_degenerate_process(self):
        val, _ = pizier_min_bound(lambda p, a, b: 0.0, 0.0, 0.25, 0.5, 1.0)
        assert val == 0.0

    def test_diffusive_scaling_term(self):
        d = lambda p, a, b: abs(b - a) ** 0.5
        val, _ = pizier_min_bound(d, 0.0, 0.25, 0.5, 1.0, p_grid=np.array([2.0]))
        # single-term oracle: (0.25^0.5)^2 * (0.25^0.5)^2 / 1 = 0.0625
        assert val == pytest.approx(0.0625, rel=1e-12)
        opt, _ = pizier_min_bound(d, 0.0, 0.25, 0.5, 1.0)
        assert opt <= 0.0625 + 1e-15

    def test_vanishes_at_large_threshold(self):
        d = lambda p, a, b: abs(b - a) ** 0.5
        val, _ = pizier_min_bound(d, 0.0, 0.25, 0.5, 100.0)
        assert val < 1e-10


class TestFactoredModule:
    def test_constant_envelope(self):
        assert factored_module_term(lambda p: 1.0, GFunction.constant(), 2.0, 2.0,
                                    0.05, 10.0) == 0.0

    def test_term_composes_chaining_constant(self):
        # Z = 1, V(t) = t, l = 2, p = 2, h = 0.05, u = 10
        val = factored_module_term(lambda p: 1.0, GFunction.linear(), 2.0, 2.0, 0.05, 10.0)
        expected = 2 * kbar_oracle(4.0, 2.0) * 1e-4 * 0.1**3
        assert val == pytest.approx(expected, rel=1e-12)

    def test_term_vanishes_as_h_shrinks(self):
        vals = [
            factored_module_term(lambda p: 1.0, GFunction.linear(), 2.0, 2.0, h, 10.0)
            for h in (0.2, 0.05, 0.01, 0.001)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_needs_chaining_exponent(self):
        with pytest.raises(ValueError, match="l\\*p"):
            factored_module_term(lambda p: 1.0, GFunction.linear(), 0.2, 2.0, 0.05, 10.0)

    @pytest.mark.parametrize("l,p,h,u,zc,slope", [
        (0.7, 3.0, 0.2, 4.0, 2.5, 0.8),
        (1.5, 1.0, 0.5, 30.0, 0.3, 3.0),
        (3.0, 0.5, 0.01, 0.8, 7.0, 2.0),
        (1.2, 4.0, 0.1, 1.0, 0.05, 1.0),  # clamped to 1
    ])
    def test_closed_formula(self, l, p, h, u, zc, slope):
        z = lambda q: zc * q
        v = GFunction.linear(slope)
        om = v.modulus(2 * h)
        want = (2 * kbar_oracle(l * p, p) * z(2 * p) ** (1 / l) * v.total ** (l * p)
                * u ** (-2 * p) * om ** (l * p - 1))
        assert factored_module_term(z, v, l, p, h, u) == pytest.approx(min(1.0, want), rel=1e-12)
        # Z(2p)^(1/l) times the power module bound of (lp, p)
        raw = power_module_bound((l * p, p), v, h, [u]).raw[0]
        assert want == pytest.approx(z(2 * p) ** (1 / l) * raw, rel=1e-12)

    @pytest.mark.parametrize("z,v,want", [
        (0.0, GFunction.linear(), 0.0),
        (np.inf, GFunction.constant(), 0.0),  # no inf * 0
        (np.inf, GFunction.linear(), 1.0),
    ])
    def test_degenerate_factors(self, z, v, want):
        with np.errstate(all="raise"):
            val = factored_module_term(lambda p: z, v, 2.0, 2.0, 0.05, 10.0)
        assert val == want and type(val) is float

    @pytest.mark.parametrize("z, u, want", [
        (1e300, 1e100, 1.0),  # the term is 2.0185243054115808e108
        (1e200, 1e90, 4.3487787862511609239e-19),  # 60-digit arithmetic on the double inputs
    ])
    def test_a_power_term_below_the_float_range_keeps_its_log(self, z, u, want):
        # the power module bound of (lp, p) = (1.2, 2) underflows to 0 at these u,
        # and Z(2p)^(1/l) makes up for it
        assert power_module_bound((1.2, 2.0), GFunction.linear(), 0.05, [u]).raw[0] == 0.0
        val = factored_module_term(lambda p: z, GFunction.linear(), 0.6, 2.0, 0.05, u)
        assert val == pytest.approx(want, rel=1e-13)

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError, match=r"Z\(2p\) must lie in \[0, inf\], got -1.0"):
            factored_module_term(lambda p: -1.0, GFunction.linear(), 2.0, 2.0, 0.05, 10.0)


@pytest.mark.parametrize("h", [0.0, -0.1, 0.6])
def test_every_span_bound_rejects_a_span_outside_the_half_interval(h):
    g = GFunction.linear()
    calls = [
        lambda: power_module_bound((2.0, 1.0), g, h, [10.0]),
        lambda: moment_module_bound(lambda p: p, g, h, [10.0]),
        lambda: factored_module_term(lambda p: 1.0, g, 2.0, 2.0, h, 10.0),
        # the envelopes used to return kappa = 0 at h = 0
        lambda: exp_tail_envelopes(1.0, 1.0, g, h, 100.0),
        lambda: clt_exp_envelope(1.0, 1.0, 0.0, g, h, 100.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"h must lie in \(0, 0.5\], got {h}"):
            call()


class TestRosenthal:
    def test_reference_values(self):
        assert rosenthal_constant(2.0) == pytest.approx(0.6535 * 2 / math.log(2), rel=1e-12)
        assert rosenthal_constant(2.0) == pytest.approx(1.8857, abs=2e-4)
        assert rosenthal_constant(math.e**2) == pytest.approx(0.6535 * math.e**2 / 2, rel=1e-12)
        assert rosenthal_constant(math.e**2) == pytest.approx(2.4143, abs=2e-4)

    def test_monotone_beyond_e(self):
        assert rosenthal_constant(4.0) < rosenthal_constant(8.0)

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            rosenthal_constant(1.5)


def clt_curves(y, g, h, u, **kw):
    """The global and module moment bounds of the Rosenthal-scaled ``y``."""
    nu = rosenthal_nu(y, **kw)
    return moment_global_bound(nu, g, u), moment_module_bound(nu, g, h, u)


class TestCltBounds:
    def test_constant_envelope(self):
        u = np.logspace(0, 2, 6)
        g, m = clt_curves(np.sqrt, GFunction.constant(), 0.05, u)
        assert np.all(g.probs == 0) and np.all(m.probs == 0)

    def test_p2_term_oracle(self):
        u = np.array([100.0])
        g, _ = clt_curves(np.sqrt, GFunction.linear(), 0.05, u, p_grid=np.array([2.0]))
        expected = (3 * rosenthal_constant(2.0) * math.sqrt(2) / 100) ** 2
        assert g.probs[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0064, abs=2e-4)
        g_opt, _ = clt_curves(np.sqrt, GFunction.linear(), 0.05, u)
        assert g_opt.probs[0] <= g.probs[0] + 1e-15

    def test_rosenthal_nu_scales_each_order(self):
        ps, vals = rosenthal_nu((np.array([1.5, 2.0, 8.0, 32.0]), np.array([9.0, 1.0, 2.0, 3.0])),
                                b=32.0)
        assert list(ps) == [2.0, 8.0]  # the orders in [2, b), as the moment bounds keep
        assert list(vals) == [rosenthal_constant(2.0), rosenthal_constant(8.0) * 2.0]


class TestCltEnvelope:
    def test_no_log_factor_when_s_is_one(self):
        env = clt_exp_envelope(1.0, 1.0, 1.0, GFunction.linear(), 0.05, 100.0)
        # exponent rate is sqrt(u): check the scaling between two thresholds
        env2 = clt_exp_envelope(1.0, 1.0, 1.0, GFunction.linear(), 0.05, 400.0)
        assert math.log(env2.delta_value) == pytest.approx(
            2.0 * math.log(env.delta_value), rel=1e-9
        )

    def test_envelope_dominates_bound(self):
        g = GFunction.linear()
        y = lambda p: np.asarray(p, dtype=float)
        for u in (50.0, 200.0, 1000.0):
            env = clt_exp_envelope(1.0, 1.0, 0.0, g, 0.05, u)
            gc, mc = clt_curves(y, g, 0.05, np.array([u]))
            assert env.delta_value >= gc.probs[0] - 1e-12
            if env.kappa_in_range:
                assert env.kappa_value >= mc.probs[0] - 1e-12

    def test_vanishing(self):
        # the envelope decays at its stated rate, much slower than the
        # underlying infimum, but still to zero
        env = clt_exp_envelope(1.0, 1.0, 0.0, GFunction.linear(), 0.05, 1e8)
        assert env.delta_value < 1e-6
        assert env.kappa_value < 1e-4
        env_small = clt_exp_envelope(1.0, 1.0, 0.0, GFunction.linear(), 0.05, 1e4)
        assert env.delta_value < env_small.delta_value


class TestTailCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            TailCurve(np.array([1.0, 2.0]), np.array([0.2, 0.4]))  # increasing probs
        with pytest.raises(ValueError):
            TailCurve(np.array([2.0, 1.0]), np.array([0.4, 0.2]))  # decreasing u
        with pytest.raises(ValueError):
            TailCurve(np.array([1.0, 2.0]), np.array([1.4, 0.2]))  # above 1
