import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from skorotail.bounds import (
    BoundUnavailable,
    EmpiricalJointMoment,
    SequencePair,
    TailCurve,
    chaining_constant,
    chaining_theta_form,
    clt_bounds,
    clt_exp_envelope,
    entropy_module_bound,
    entropy_series_bound,
    exp_tail_envelopes,
    factored_module_bound,
    factored_module_term,
    geometric_sequences,
    joint_moment,
    min_tail_2d,
    min_tail_fenchel,
    moment_global_bound,
    moment_module_bound,
    pair_pseudo_norm,
    pizier_min_bound,
    pizier_sup_bound,
    polynomial_sequences,
    power_global_bound,
    power_module_bound,
    rosenthal_constant,
    validate_sequence_pair,
)
from skorotail.gls import PsiFunction
from skorotail.paths import GFunction


def kbar_oracle(alpha, beta):
    """Independent evaluation of the closed form via math.pow."""
    num = math.pow(1.0 - math.pow(2.0, (1.0 - alpha) / (4.0 * beta)), -2.0 * beta)
    den = math.pow(2.0, (alpha - 1.0) / 2.0) - 1.0
    return num / den


class TestChainingConstant:
    def test_closed_against_independent_formula(self):
        for a, b in [(2.0, 1.0), (1.5, 0.5), (3.0, 2.5), (1.1, 4.0)]:
            assert chaining_constant(a, b) == pytest.approx(kbar_oracle(a, b), rel=1e-12)

    def test_closed_reference_value(self):
        assert chaining_constant(2.0, 1.0) == pytest.approx(95.3709, abs=1e-3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            chaining_constant(1.0, 1.0)
        with pytest.raises(ValueError):
            chaining_constant(2.0, 0.0)
        with pytest.raises(ValueError):
            chaining_constant(2.0, 1.0, mode="fancy")

    def test_optimized_matches_dense_grid_search(self):
        for a, b in [(2.0, 1.0), (1.5, 1.0), (3.0, 0.5)]:
            lo = 2 ** ((1 - a) / (2 * b))
            grid = lo + (1 - lo) * np.linspace(1e-7, 1 - 1e-7, 200_001)
            dense = min(chaining_theta_form(a, b, t) for t in grid)
            assert chaining_constant(a, b, "optimized") == pytest.approx(dense, rel=1e-6)

    def test_optimized_below_theta_form_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(1.1, 4.0)
            b = rng.uniform(0.5, 4.0)
            opt = chaining_constant(a, b, "optimized")
            lo = 2 ** ((1 - a) / (2 * b))
            for t in lo + (1 - lo) * np.array([0.1, 0.5, 0.9]):
                assert opt <= chaining_theta_form(a, b, t) + 1e-9

    def test_theta0_substitution_identity(self):
        # plugging the nominal theta into the theta form reproduces the closed
        # form only up to the factor 2^((alpha-1)(1-1/(2 beta)))
        for a, b in [(2.0, 1.0), (2.5, 0.75), (1.3, 2.0)]:
            th0 = 2 ** ((1 - a) / (4 * b))
            lhs = chaining_theta_form(a, b, th0)
            rhs = 2 ** ((a - 1) * (1 - 1 / (2 * b))) * kbar_oracle(a, b)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_optimizer_theta_approaches_nominal_theta(self):
        from skorotail.bounds import _optimize_theta

        ratios = []
        for a in (1.1, 1.01, 1.001):
            _, th = _optimize_theta(a, 1.0)
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

    def test_default_family_evaluates(self):
        from skorotail.bounds import default_sequence_family

        cov = lambda e: e**-0.5
        lam = lambda x: x**2
        res = entropy_series_bound(cov, lam, default_sequence_family(), 2.0)
        best_geometric = entropy_series_bound(cov, lam, geometric_sequences(0.1, 0.6), 2.0)
        assert res.value <= best_geometric.value + 1e-12

    def test_family_takes_minimum(self):
        cov = lambda e: e**-0.5
        lam = lambda x: x**2
        fam = [geometric_sequences(0.1, 0.6), geometric_sequences(0.5, 0.9)]
        best = entropy_series_bound(cov, lam, fam, 2.0)
        singles = [entropy_series_bound(cov, lam, p, 2.0).value for p in fam]
        assert best.value == pytest.approx(min(singles), rel=1e-12)

    def test_module_factor(self):
        res = self.geometric_preset_value(5.0)
        assert entropy_module_bound(res, 0.01) == pytest.approx(
            min(1.0, res.value * 0.01)
        )

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
        assert glob.label == "moment-global" and mod.label == "moment-module"


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


class TestPizier:
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

    def test_sup_variant_dominates_each_s(self):
        d = lambda p, a, b: abs(b - a) ** 0.5
        s_grid = np.linspace(0.1, 0.4, 7)
        sup = pizier_sup_bound(d, 0.0, 0.5, 1.2, s_grid)
        for s in s_grid:
            assert sup >= pizier_min_bound(d, 0.0, s, 0.5, 1.2)[0] - 1e-15


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

    def test_stated_range_empty_for_large_l(self):
        with pytest.raises(BoundUnavailable, match="empty admissible range"):
            factored_module_bound(lambda p: 1.0, GFunction.linear(), 2.0, 16.0, 0.05, 10.0)

    def test_stated_range_never_satisfies_term_condition(self):
        # for small l the range [2, 1/l) is nonempty but l*p stays below 1
        with pytest.raises(BoundUnavailable, match="l\\*p > 1"):
            factored_module_bound(lambda p: 1.0, GFunction.linear(), 0.25, 16.0,
                                  0.05, 3.0)

    def test_needs_chaining_exponent(self):
        with pytest.raises(ValueError, match="l\\*p"):
            factored_module_term(lambda p: 1.0, GFunction.linear(), 0.2, 2.0, 0.05, 10.0)


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


class TestCltBounds:
    def test_constant_envelope(self):
        u = np.logspace(0, 2, 6)
        g, m = clt_bounds(np.sqrt, GFunction.constant(), 0.05, u)
        assert np.all(g.probs == 0) and np.all(m.probs == 0)

    def test_p2_term_oracle(self):
        u = np.array([100.0])
        g, _ = clt_bounds(np.sqrt, GFunction.linear(), 0.05, u,
                          p_grid=np.array([2.0]))
        expected = (3 * rosenthal_constant(2.0) * math.sqrt(2) / 100) ** 2
        assert g.probs[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0064, abs=2e-4)
        g_opt, _ = clt_bounds(np.sqrt, GFunction.linear(), 0.05, u)
        assert g_opt.probs[0] <= g.probs[0] + 1e-15

    def test_reduces_to_moment_bounds_without_rosenthal(self):
        u = np.logspace(0.5, 2, 9)
        g_env = GFunction.linear(1.7)
        ps = np.logspace(np.log10(2), np.log10(32), 25)
        gc, mc = clt_bounds(np.sqrt, g_env, 0.05, u, p_grid=ps, rosenthal=False)
        assert np.allclose(gc.probs, moment_global_bound(np.sqrt, g_env, u, p_grid=ps).probs)
        assert np.allclose(mc.probs, moment_module_bound(np.sqrt, g_env, 0.05, u, p_grid=ps).probs)


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
            gc, mc = clt_bounds(y, g, 0.05, np.array([u]))
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
