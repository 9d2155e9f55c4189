"""End-to-end acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).  Two documented
sub-claims of criterion 3 are asserted exactly as stated and marked as
expected failures: direct evaluation of the closed-form chaining constant
gives 95.3709 (outside the quoted 95.39 +/- 0.01 band), and the
theta-optimized constant exceeds the closed form on part of the quoted
parameter grid (substituting the nominal theta into the theta form carries
an extra factor 2^((alpha-1)(1-1/(2 beta)))).  See the test bodies.
"""

import itertools
import json
import math

import numpy as np
import pytest

import skorotail.cli as cli
from skorotail import pipeline
from skorotail.bounds import (
    BoundUnavailable,
    EmpiricalJointMoment,
    chaining_constant,
    entropy_series_bound,
    geometric_sequences,
    min_tail_2d,
)
from skorotail.entropy import SemiDistanceGrid, covering_number
from skorotail.gls import double_conjugate, young_fenchel
from skorotail.paths import ps_module_matrix, triple_min_sup_matrix
from skorotail.simulate import ProcessSpec, SimConfig, boundary_functionals, generate_paths


def report(num, name, note=""):
    suffix = f" - {note}" if note else ""
    print(f"\n[acceptance] criterion {num} ({name}): PASS{suffix}")


def report_fail(num, name, note):
    print(f"\n[acceptance] criterion {num} ({name}): FAIL - {note}")


# ---------------------------------------------------------------------------
# criterion 1: exact statistics against brute-force enumeration
# ---------------------------------------------------------------------------


def test_criterion_1_exact_statistic_oracle():
    n = 16
    times = np.linspace(0.0, 1.0, n)
    positions = list(itertools.combinations(range(1, n - 1), 4))
    heights = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=4)))
    n_paths = len(positions) * len(heights)
    values = np.zeros((n_paths, n))
    row = 0
    for pos in positions:
        block = np.zeros((len(heights), n))
        for k, p in enumerate(pos):
            block[:, p] = heights[:, k]
        values[row : row + len(heights)] = np.cumsum(block, axis=1)
        row += len(heights)

    deltas = [0.2, 0.4, 0.6, 1.0]
    brute_global = np.zeros(n_paths)
    brute_mod = {d: np.zeros(n_paths) for d in deltas}
    for s in range(n):
        for r in range(s + 1):
            a = np.abs(values[:, s] - values[:, r])
            for t in range(s, n):
                m = np.minimum(a, np.abs(values[:, t] - values[:, s]))
                np.maximum(brute_global, m, out=brute_global)
                for d in deltas:
                    if times[t] - times[r] <= d:
                        np.maximum(brute_mod[d], m, out=brute_mod[d])

    fast_global = triple_min_sup_matrix(values)
    assert np.array_equal(fast_global, brute_global)
    for d in deltas:
        fast = ps_module_matrix(times, values, d)
        assert np.array_equal(fast, brute_mod[d])
    # the unconstrained statistic is the module at full span, exactly
    assert np.array_equal(ps_module_matrix(times, values, 1.0), fast_global)
    report(1, "exact statistic oracle",
           f"{n_paths} exhaustive paths, brute force matches exactly")


# ---------------------------------------------------------------------------
# criterion 2: convex conjugation round trip
# ---------------------------------------------------------------------------


def test_criterion_2_conjugation():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        k = rng.integers(8, 40)
        xs = np.sort(rng.uniform(-4, 4, k))
        xs += np.arange(k) * 1e-9
        slopes = np.sort(rng.normal(0, 3, k - 1))
        f = rng.normal() + np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
        back = double_conjugate(xs, f)
        worst = max(worst, float(np.abs(back - f).max()))
    assert worst <= 1e-6

    lam = np.linspace(-6, 6, 241)
    us, fs = young_fenchel(lam, 0.5 * lam**2, lam)
    quad_err = float(np.abs(fs - 0.5 * lam**2).max())
    assert quad_err <= 1e-8
    report(2, "conjugation",
           f"double-transform sup error {worst:.2e}, quadratic error {quad_err:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: chaining constants
# ---------------------------------------------------------------------------


def _closed_form_reference(alpha, beta):
    num = math.pow(1.0 - math.pow(2.0, (1.0 - alpha) / (4.0 * beta)), -2.0 * beta)
    return num / (math.pow(2.0, (alpha - 1.0) / 2.0) - 1.0)


def test_criterion_3_closed_matches_independent_evaluation():
    value = chaining_constant(2.0, 1.0, "closed")
    assert value == pytest.approx(_closed_form_reference(2.0, 1.0), rel=1e-12)
    report(3, "constants: closed form vs independent evaluation",
           f"value {value:.4f}")


@pytest.mark.xfail(
    strict=True,
    reason="documented discrepancy: the closed form evaluates to 95.3709, "
    "outside the stated 95.39 +/- 0.01 band (the stated value appears to be "
    "a rounding slip); the formula itself is verified against an independent "
    "evaluation and against its small-alpha asymptotic",
)
def test_criterion_3_stated_band():
    value = chaining_constant(2.0, 1.0, "closed")
    if abs(value - 95.39) > 0.01:
        report_fail(3, "constants: stated numeric band",
                    f"closed(2,1) = {value:.4f}, outside 95.39 +/- 0.01")
    assert value == pytest.approx(95.39, abs=0.01)


@pytest.mark.xfail(
    strict=True,
    reason="documented discrepancy: minimizing the theta form does not fall "
    "below the closed form for beta > 1/2 (the nominal-theta substitution "
    "carries an extra factor 2^((alpha-1)(1-1/(2 beta))), e.g. at (2,1) the "
    "theta-form minimum is 125.47 against the closed 95.37); both modes are "
    "exposed and verified against their own displayed formulas",
)
def test_criterion_3_optimized_below_closed_on_grid():
    bad = []
    for a in np.linspace(1.1, 4.0, 10):
        for b in np.linspace(0.5, 4.0, 10):
            opt = chaining_constant(a, b, "optimized")
            clo = chaining_constant(a, b, "closed")
            if opt > clo + 1e-9:
                bad.append((round(float(a), 3), round(float(b), 3)))
    if bad:
        report_fail(3, "constants: optimized <= closed on 10x10 grid",
                    f"{len(bad)}/100 cells violate, e.g. {bad[0]}")
    assert not bad


def test_criterion_3_small_alpha_asymptotic():
    a, b = 1.001, 1.0
    asym = 2 ** (4 * b + 1) * b ** (2 * b) * math.log(2) ** (-2 * b - 1) * (
        a - 1.0
    ) ** (-2 * b - 1)
    value = chaining_constant(a, b, "closed")
    assert value == pytest.approx(asym, rel=0.05)
    report(3, "constants: small-alpha asymptotic",
           f"ratio {value / asym:.6f} within 5%")


# ---------------------------------------------------------------------------
# criterion 4: covering exactness
# ---------------------------------------------------------------------------


def test_criterion_4_covering_exactness():
    grid = SemiDistanceGrid.from_gap_function(lambda g: g, 1001)
    for eps in (0.25, 0.1, 0.05, 0.01):
        res = covering_number(grid, eps)
        assert res.count == int(np.ceil(1.0 / (2.0 * eps)))
        assert res.verify(grid)
        assert res.covers_continuum
    report(4, "covering exactness", "counts 2/5/10/50 with verified certificates")


# ---------------------------------------------------------------------------
# criterion 5: entropy-series presets
# ---------------------------------------------------------------------------


def test_criterion_5_entropy_series_presets():
    covering = lambda e: e**-0.5
    lam = lambda x: x**2
    pair = geometric_sequences(0.1, 0.6)
    res1 = entropy_series_bound(covering, lam, pair, 1.0)
    res3 = entropy_series_bound(covering, lam, pair, 3.0)
    assert res1.remainder < 1e-9
    constant = res1.value  # bound scales exactly as C / u^2
    assert res3.value == pytest.approx(constant / 9.0, rel=1e-9)
    with pytest.raises(BoundUnavailable):
        entropy_series_bound(lambda e: e**-1.0, lam, pair, 1.0)
    report(5, "entropy-series presets",
           f"C = {constant:.4f}, remainder {res1.remainder:.2e}, "
           "unit exponent correctly signals divergence")


# ---------------------------------------------------------------------------
# criterion 6: minimum-tail domination for independent uniforms
# ---------------------------------------------------------------------------


def test_criterion_6_min_tail_domination():
    rng = np.random.default_rng(628318)
    n = 1_000_000
    x = rng.uniform(size=n)
    y = rng.uniform(size=n)
    emp_tail = float(np.mean((x > 0.5) & (y > 0.5)))
    assert emp_tail == pytest.approx(0.25, abs=0.002)

    closed = lambda p1, p2: 1.0 / ((p1 + 1.0) * (p2 + 1.0))
    assert closed(1.0, 1.0) / (0.5 * 0.5) == 1.0  # unit orders, exact moments

    moment = EmpiricalJointMoment(x, y)
    fixed = min(1.0, moment(1.0, 1.0) / (0.5 * 0.5))
    assert fixed == pytest.approx(1.0, abs=0.005)
    assert fixed >= emp_tail

    optimized = min_tail_2d(moment, 0.5, 0.5)
    assert 0.25 <= optimized.value <= 1.0
    assert optimized.value >= emp_tail
    report(6, "minimum-tail domination",
           f"fixed-order bound {fixed:.4f}, optimized {optimized.value:.4f} "
           f">= empirical {emp_tail:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: full domination pipeline
# ---------------------------------------------------------------------------


def test_criterion_7_full_domination_pipeline():
    spec = ProcessSpec("compound-poisson", rate=5.0, jump_scale=1.0, grid_size=64)
    run = pipeline.verify(spec, SimConfig(n_paths=100_000, seed=20_240_101), strict=True)
    assert [c.label for c in run.checks] == ["global", "module_h=0.05", "module_h=0.1"]
    for check in run.checks:
        assert check.overall_pass, (check.label, check.failures)
    assert run.exit_code == 0
    report(7, "full domination pipeline",
           "; ".join(f"{c.label} ok ({c.thresholds.size} thresholds)" for c in run.checks))


# ---------------------------------------------------------------------------
# criterion 8: central-limit suite
# ---------------------------------------------------------------------------


def test_criterion_8_clt_suite():
    spec = ProcessSpec("compound-poisson", rate=5.0, jump_scale=1.0, grid_size=64)
    config = SimConfig(n_paths=10_000, seed=31_415)
    run = pipeline.clt(spec, config, [1, 4, 64], [0.25, 0.5, 0.75], strict=True)

    # marginal normality of the n = 64 sums at three interior times, level 1%
    assert run.report["normality_n"] == 64
    assert sorted(run.report["normality"]) == ["0.25", "0.5", "0.75"]
    for tm, res in run.report["normality"].items():
        assert not res["rejected_at_1pct"], (tm, res)

    # uniform-in-n domination of the global-statistic and module tails
    assert len(run.checks) == 6
    for check in run.checks:
        assert check.overall_pass, (check.label, check.failures)

    # iid-sum moment inequality for symmetric signs at order 4
    rng = np.random.default_rng(27_182)
    m = 200_000
    measured = []
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        draws = rng.integers(0, 2, (m, n)) * 2.0 - 1.0
        s = draws.sum(axis=1) / np.sqrt(n)
        measured.append(np.mean(s**4) ** 0.25)
        exact = (3.0 - 2.0 / n) ** 0.25
        assert measured[-1] == pytest.approx(exact, rel=0.01)
    worst = max(measured)
    assert worst <= 1.8857  # the order-4 constant times the summand norm
    assert worst <= 3.0**0.25 * 1.01  # and in fact essentially 3^(1/4)
    report(8, "central-limit suite",
           f"normality ok at n=64; strict domination ok for n in (1,4,64); "
           f"order-4 sum norm {worst:.4f} <= 1.8857")


# ---------------------------------------------------------------------------
# criterion 9: boundary functionals
# ---------------------------------------------------------------------------


def test_criterion_9_boundary_functionals():
    spec = ProcessSpec("uniform-jump", grid_size=1001)
    config = SimConfig(n_paths=200_000, seed=999)
    bundle = generate_paths(spec, config)
    betas = np.array([0.01, 0.05, 0.1])
    est = boundary_functionals(bundle, betas)
    for i, beta in enumerate(betas):
        expected = np.pi / 4 * beta
        se = np.pi / 4 * np.sqrt(beta * (1 - beta) / config.n_paths)
        assert abs(est.z0[i] - expected) <= 3 * se, (beta, est.z0[i], expected)
        assert abs(est.z1[i] - expected) <= 3 * se, (beta, est.z1[i], expected)
    report(9, "boundary functionals",
           "both endpoint functionals match (pi/4) beta within 3 standard errors")


# ---------------------------------------------------------------------------
# criterion 10: reproducibility
# ---------------------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    args = [
        "verify", "--process", "compound-poisson", "--rate", "5", "--grid", "32",
        "--paths", "2000", "--seed", "77", "--u-points", "12", "--h", "0.05,0.1",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.run([*args, "--out", str(out1)]) == 0
    assert cli.run([*args, "--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and len(names1) >= 6
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    rep = json.loads((out1 / "report.json").read_text())
    assert rep["overall_pass"] is True
    report(10, "reproducibility",
           f"{len(names1)} output files byte-identical across repeated runs")
