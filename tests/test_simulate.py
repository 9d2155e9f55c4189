import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.stats import beta as beta_dist

from skorotail import simulate
from skorotail.bounds import TailCurve, moment_global_bound
from skorotail.paths import GFunction
from skorotail.simulate import (
    MomentTable,
    PathBundle,
    ProcessSpec,
    SimConfig,
    boundary_functionals,
    domination_report,
    empirical_tail,
    estimate_triple_moments,
    fit_g_envelope,
    generate_paths,
    partial_sum_paths,
    quantile_u_grid,
)

CP_SPEC = ProcessSpec("compound-poisson", rate=5.0, jump_scale=1.0, grid_size=32)


def least_envelope_lp(w, cost):
    """G minimizing ``cost`` over the step increments G(i+1) - G(i) >= 0
    subject to G(b) - G(a) >= w(a, b), by linear programming."""
    k = w.shape[0]
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    A = np.zeros((len(pairs), k - 1))
    rhs = np.zeros(len(pairs))
    for i, (a, b) in enumerate(pairs):
        A[i, a:b] = -1.0
        rhs[i] = -w[a, b]
    res = linprog(cost, A_ub=A, b_ub=rhs, bounds=[(0, None)] * (k - 1), method="highs")
    assert res.status == 0
    return np.concatenate([[0.0], np.cumsum(res.x)])


def enumerated_moments(vals, p_grid, stride):
    """Per-pair sup over s of the order-p norm of min(|x(s)-x(r)|, |x(t)-x(s)|),
    by a float64 loop over every triple of the strided grid."""
    n = vals.shape[1]
    x = vals[:, np.unique(np.r_[np.arange(0, n, stride), n - 1])]
    k = x.shape[1]
    raw = np.zeros((k, k, len(p_grid)))
    for s in range(k):
        for r in range(s + 1):
            for tt in range(s, k):
                d = np.minimum(np.abs(x[:, s] - x[:, r]), np.abs(x[:, tt] - x[:, s]))
                for j, p in enumerate(p_grid):
                    norm = np.mean(d**p) ** (1 / p)
                    raw[r, tt, j] = raw[tt, r, j] = max(raw[r, tt, j], norm)
    return raw


def check_against_enumeration(n, m, p_grid, stride=None, vals=None):
    """The kernel against a float64 loop over every triple of the strided grid
    (Gaussian random walks unless ``vals`` is given); no ``stride`` runs the
    kernel's default, checked against the full grid."""
    if vals is None:
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(m, n)).cumsum(axis=1)
        vals -= vals[:, :1]
    times = np.linspace(0, 1, n)
    kwargs = {} if stride is None else {"stride": stride}
    t = estimate_triple_moments(PathBundle(times, vals), p_grid=np.array(p_grid), **kwargs)
    raw = enumerated_moments(vals, p_grid, stride or 1)
    assert t.pair_times.size == raw.shape[0]
    assert t.raw_moments == pytest.approx(raw, rel=1e-12, abs=1e-300)
    assert t.values == pytest.approx(raw.reshape(-1, len(p_grid)).max(axis=0), rel=1e-12)


def step_family(m, n, seed):
    """Step paths that exercise both kernel branches: ties between jumps,
    jumps at the first and last steps, a constant path, and a step at which
    exactly half the paths move."""
    rng = np.random.default_rng(seed)
    jumps = rng.choice([0.0, 0.0, 0.0, 1.0, -1.0, 0.5], size=(m, n)) * (rng.random((m, n)) < 0.3)
    jumps[:, 0] = 0.0
    jumps[0, :] = 0.0  # a constant path
    jumps[1, 1] = jumps[2, n - 1] = 2.0  # a jump at s = 1 and at the last point
    half = n // 2
    jumps[:, half] = 0.0
    jumps[: m // 2, half] = 1.0  # exactly half the paths move at this step
    return jumps.cumsum(axis=1)


def segment_family(m, n, seed):
    """Step paths that take the segment branch at every step: sparse integer
    jumps that often return a row to an earlier level (equal levels in
    separate segments), and a minority of rows that move at every step, so
    from s = 1 to s = n - 2 (a segment at every left point)."""
    rng = np.random.default_rng(seed)
    jumps = rng.choice([1.0, -1.0, 0.5], size=(m, n)) * (rng.random((m, n)) < 0.1)
    jumps[:, 0] = 0.0
    jumps[0, 1:] = 0.0
    # 0, then 1, then back to 0, moving again at the last middle point
    jumps[0, 1], jumps[0, n // 2], jumps[0, n - 2] = 1.0, -1.0, 0.5
    dense = max(1, m // 4)
    jumps[1 : 1 + dense, 1:] = rng.normal(size=(dense, n - 1))
    return jumps.cumsum(axis=1)


class TestProcessSpec:
    def test_kind_normalization(self):
        assert ProcessSpec("compound-poisson").kind == "compound_poisson"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown process kind"):
            ProcessSpec("levy-flight")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ProcessSpec("compound-poisson", rate=-1.0)
        with pytest.raises(ValueError):
            ProcessSpec("brownian", scale=0.0)
        with pytest.raises(ValueError):
            ProcessSpec("empirical", sample_size=0)
        with pytest.raises(ValueError):
            ProcessSpec("poisson", grid_size=1)

    @pytest.mark.parametrize("kind", ["compound-poisson", "poisson"])
    def test_rate_within_the_poisson_sampler(self, kind):
        # numpy's sampler rejects a larger mean with "lam value too large",
        # which names no parameter; one count is drawn at the limit itself
        spec = ProcessSpec(kind, rate=simulate._RATE_MAX)
        assert np.random.default_rng(0).poisson(spec.rate) >= 0
        with pytest.raises(ValueError, match="rate must lie in"):
            ProcessSpec(kind, rate=np.nextafter(simulate._RATE_MAX, np.inf))

    def test_centered_flags(self):
        assert ProcessSpec("compound-poisson").centered
        assert ProcessSpec("brownian").centered
        assert ProcessSpec("empirical").centered
        assert not ProcessSpec("poisson").centered
        assert not ProcessSpec("uniform-jump").centered


class TestSimConfig:
    @pytest.mark.parametrize("u_points", [0, -1])
    def test_u_points_below_one_rejected(self, u_points):
        with pytest.raises(ValueError, match=rf"u_points must lie in \[1, inf\), got {u_points}"):
            SimConfig(u_points=u_points)

    @pytest.mark.parametrize("h_grid", [(0.1, 0.1), (0.1, 0.1000001), (0.05, 0.2, 0.05)])
    def test_spans_with_one_label_rejected(self, h_grid):
        # two checks were labelled module_h=0.1, and one tail_kappa_0.1.csv
        # overwrote the other
        with pytest.raises(ValueError, match="spans must differ"):
            SimConfig(h_grid=h_grid)
        SimConfig(h_grid=(0.1, 0.100001))  # labels 0.1 and 0.100001


class TestPathBundle:
    @pytest.mark.parametrize("times", [
        [0.0, 0.6, 0.2, 0.8, 1.0],  # unsorted: the module would miss triples
        [0.0, 0.5, 0.5, 1.0],
        [-0.2, 0.5, 1.0],
        [0.0, 0.5, 1.5],
        [0.0, np.nan, 1.0],
        [0.0, 0.5, np.inf],
    ])
    def test_times_must_be_a_grid_of_unit_interval(self, times):
        with pytest.raises(ValueError, match="times"):
            PathBundle(times, np.zeros((2, len(times))))

    def test_shapes(self):
        with pytest.raises(ValueError):
            PathBundle([0.0, 1.0], np.zeros((2, 3)))
        with pytest.raises(ValueError):
            PathBundle([0.0, 1.0], np.zeros(2))
        with pytest.raises(ValueError):
            PathBundle([1.0], np.zeros((2, 1)))


def generate_oracle(spec, m, seed):
    """The expressions ``generate_paths`` used before it summed the paths in
    place: a cumsum copy of the jumps, and a cumsum copy of the Brownian
    increments behind a column of zeros."""
    rng = np.random.default_rng(seed)
    n = spec.grid_size
    times = np.linspace(0.0, 1.0, n)
    if spec.kind in ("compound_poisson", "poisson"):
        counts = rng.poisson(spec.rate, m)
        total = int(counts.sum())
        jt = rng.uniform(0.0, 1.0, total)
        js = (rng.normal(0.0, spec.jump_scale, total) if spec.kind == "compound_poisson"
              else np.ones(total))
        vals = np.zeros((m, n))
        np.add.at(vals, (np.repeat(np.arange(m), counts), np.searchsorted(times, jt)), js)
        return np.cumsum(vals, axis=1)
    if spec.kind == "brownian":
        inc = rng.normal(0.0, 1.0, (m, n - 1)) * (spec.scale * np.sqrt(np.diff(times)))
        return np.concatenate([np.zeros((m, 1)), np.cumsum(inc, axis=1)], axis=1)
    if spec.kind == "empirical":
        u = rng.uniform(0.0, 1.0, (m, spec.sample_size))
        counts = np.stack([np.searchsorted(np.sort(row), times, side="right") for row in u])
        return np.sqrt(spec.sample_size) * (counts / spec.sample_size - times[None, :])
    return (times[None, :] >= rng.uniform(0.0, 1.0, m)[:, None]).astype(float)


class TestGeneratePaths:
    @pytest.mark.parametrize("kind", ["compound-poisson", "poisson", "brownian", "empirical",
                                      "uniform-jump"])
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("m, n", [(30, 9), (400, 130)])
    def test_matches_the_oracle_bit_for_bit(self, kind, seed, m, n):
        spec = ProcessSpec(kind, jump_scale=1.7, scale=0.6, sample_size=5, grid_size=n)
        got = generate_paths(spec, SimConfig(n_paths=m, seed=seed)).values
        assert np.array_equal(got, generate_oracle(spec, m, seed))

    def test_deterministic_given_seed(self):
        cfg = SimConfig(n_paths=50, seed=11)
        a = generate_paths(CP_SPEC, cfg)
        b = generate_paths(CP_SPEC, cfg)
        assert np.array_equal(a.values, b.values)
        c = generate_paths(CP_SPEC, SimConfig(n_paths=50, seed=12))
        assert not np.array_equal(a.values, c.values)

    def test_zero_rate_constant(self):
        spec = ProcessSpec("compound-poisson", rate=0.0, grid_size=16)
        b = generate_paths(spec, SimConfig(n_paths=20, seed=0))
        assert np.all(b.values == 0.0)

    def test_poisson_jump_count_mean(self):
        spec = ProcessSpec("poisson", rate=5.0, grid_size=8)
        b = generate_paths(spec, SimConfig(n_paths=100_000, seed=1))
        # terminal value = number of jumps; mean within 3 standard errors
        term = b.values[:, -1]
        se = np.sqrt(5.0 / term.size)
        assert abs(term.mean() - 5.0) <= 3 * se

    def test_uniform_jump_is_indicator(self):
        spec = ProcessSpec("uniform-jump", grid_size=64)
        b = generate_paths(spec, SimConfig(n_paths=200, seed=2))
        assert set(np.unique(b.values)) <= {0.0, 1.0}
        assert np.all(np.diff(b.values, axis=1) >= 0)
        assert np.all(b.values[:, -1] == 1.0)

    def test_empirical_process_centered(self):
        spec = ProcessSpec("empirical", sample_size=32, grid_size=16)
        b = generate_paths(spec, SimConfig(n_paths=30_000, seed=3))
        mid = b.values[:, 8]
        assert abs(mid.mean()) <= 3 * mid.std() / np.sqrt(mid.size)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("sample_size", [1, 5, 16, 64])
    def test_empirical_counts_match_per_path_search(self, seed, sample_size):
        # the per-path loop the counts replaced: each row's sorted draws
        # searched at every grid time
        def loop(times, u):
            return np.stack([np.searchsorted(np.sort(row), times, side="right") for row in u])

        times = np.linspace(0.0, 1.0, 37)
        spec = ProcessSpec("empirical", sample_size=sample_size, grid_size=times.size)
        got = generate_paths(spec, SimConfig(n_paths=50, seed=seed)).values
        u = np.random.default_rng(seed).uniform(0.0, 1.0, (50, sample_size))
        ss = sample_size
        assert np.array_equal(got, np.sqrt(ss) * (loop(times, u) / ss - times[None, :]))
        # draws at 0 and on grid times count from that time on
        u[0, 0], u[1, :] = 0.0, times[5]
        assert np.array_equal(simulate._draws_up_to(times, u), loop(times, u))

    def test_brownian_increment_variance(self):
        spec = ProcessSpec("brownian", scale=2.0, grid_size=11)
        b = generate_paths(spec, SimConfig(n_paths=50_000, seed=4))
        inc = np.diff(b.values, axis=1)
        assert inc.var() == pytest.approx(4.0 * 0.1, rel=0.05)


class TestEstimateTripleMoments:
    def test_constant_paths(self):
        spec = ProcessSpec("compound-poisson", rate=0.0, grid_size=16)
        b = generate_paths(spec, SimConfig(n_paths=10, seed=0))
        t = estimate_triple_moments(b)
        assert np.all(t.values == 0.0)

    def test_single_jump_paths_vanish(self):
        spec = ProcessSpec("uniform-jump", grid_size=32)
        b = generate_paths(spec, SimConfig(n_paths=500, seed=6))
        t = estimate_triple_moments(b)
        assert np.all(t.values == 0.0)

    def test_lyapunov_monotone(self):
        b = generate_paths(CP_SPEC, SimConfig(n_paths=2000, seed=7))
        t = estimate_triple_moments(b)
        assert np.all(np.diff(t.values) >= 0)

    def test_matches_direct_enumeration_small(self):
        check_against_enumeration(n=6, m=300, p_grid=(2.0, 4.0))  # m below one block

    @pytest.mark.parametrize("n, m, p_grid, stride, block_size", [
        (6, 300, (2.0, 3.0, 5.0, 7.5), None, 128),  # no doubling; 300 = 2*128 + 44
        (8, 200, (2.0, 3.0, 6.0, 12.0), None, 64),  # squaring after a general power
        (96, 60, (2.0, 4.0, 8.0), 4, 16),
    ])
    def test_matches_direct_enumeration_blocked(self, monkeypatch, n, m, p_grid, stride,
                                                 block_size):
        monkeypatch.setattr(simulate, "_TRIPLE_BLOCK", block_size)
        check_against_enumeration(n, m, p_grid, stride)

    @pytest.mark.parametrize("n, m, seed, block_size", [
        (9, 40, 0, 256), (12, 101, 1, 16), (16, 64, 2, 7), (5, 8, 3, 3),
    ])
    def test_step_paths_match_enumeration(self, monkeypatch, n, m, seed, block_size):
        monkeypatch.setattr(simulate, "_TRIPLE_BLOCK", block_size)
        vals = step_family(m, n, seed)
        check_against_enumeration(n, m, (2.0, 3.0, 4.0, 8.0, 32.0), vals=vals)

    def test_step_family_runs_both_branches(self):
        vals = step_family(40, 9, 0)
        moved = [np.count_nonzero(vals[:, s] != vals[:, s - 1]) for s in range(1, 9)]
        assert 2 * max(moved) >= 40 and 2 * min(moved) < 40

    @pytest.mark.parametrize("n, m, p_grid, cells, product", [
        (12, 40, (2.0, 4.0, 8.0, 16.0, 32.0), None, None),
        (10, 33, (2.0, 3.0, 5.0, 7.5), None, None),  # orders that do not double
        (3, 20, (2.0, 4.0), None, None),  # one step: one left and one right point
        (16, 64, (2.0, 3.0, 4.0, 8.0), 300, 40),  # rows and products split
    ])
    def test_segment_branch_matches_enumeration(self, monkeypatch, n, m, p_grid, cells,
                                                product):
        if cells is not None:
            monkeypatch.setattr(simulate, "_TRIPLE_CELLS", cells)
            monkeypatch.setattr(simulate, "_TRIPLE_PRODUCT", product)
        check_against_enumeration(n, m, p_grid, vals=segment_family(m, n, n))

    def test_segment_family_takes_the_segment_branch(self):
        for n, m in ((12, 40), (10, 33), (3, 20), (16, 64)):
            vals = segment_family(m, n, n)
            moved = np.count_nonzero(vals[:, 1:] != vals[:, :-1], axis=0)
            assert np.all(moved > 0) and np.all(2 * moved < m)
            dense = vals[1 : 1 + m // 4]
            assert np.all(dense[:, 1:] != dense[:, :-1])  # a segment at every left point
        row = segment_family(40, 12, 12)[0]
        assert row[0] == row[9] != row[1] and row[10] != row[9]

    @pytest.mark.parametrize("stride", [3, 4])
    def test_strided_compound_poisson_matches_enumeration(self, stride):
        vals = generate_paths(ProcessSpec("compound-poisson", rate=3.0, grid_size=40),
                              SimConfig(n_paths=80, seed=stride)).values
        x = vals[:, np.unique(np.r_[np.arange(0, 40, stride), 39])]
        moved = np.count_nonzero(x[:, 1:] != x[:, :-1], axis=0)
        assert 2 * moved.max() < 80  # every strided step takes the segment branch
        check_against_enumeration(40, 80, (2.0, 4.0, 8.0), stride, vals=vals)

    def test_single_path_matches_enumeration(self):
        check_against_enumeration(9, 1, (2.0, 3.0, 4.0), vals=segment_family(1, 9, 0))

    def test_brownian_and_empirical_match_enumeration(self):
        for kind in ("brownian", "empirical"):
            b = generate_paths(ProcessSpec(kind, grid_size=10), SimConfig(n_paths=300, seed=2))
            check_against_enumeration(10, 300, (2.0, 4.0, 8.0, 16.0, 32.0), vals=b.values)

    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_worker_count_does_not_change_output(self, monkeypatch, workers):
        monkeypatch.setattr(simulate, "_TRIPLE_BLOCK", 256)
        ps = np.array([2.0, 3.0, 6.0])
        # compound Poisson takes the incremental branch, Brownian the full one
        bundles = [generate_paths(CP_SPEC, SimConfig(n_paths=700, seed=14)),
                   generate_paths(ProcessSpec("brownian", grid_size=20),
                                  SimConfig(n_paths=300, seed=14))]
        # the segment branch with its moving rows split into blocks and products
        segments = PathBundle(np.linspace(0, 1, 24), segment_family(400, 24, 14))

        def run(b, count):
            monkeypatch.setattr(simulate, "_worker_count", lambda: count)
            return estimate_triple_moments(b, ps)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
        try:
            for b in bundles + [segments]:
                if b is segments:
                    monkeypatch.setattr(simulate, "_TRIPLE_CELLS", 4000)
                    monkeypatch.setattr(simulate, "_TRIPLE_PRODUCT", 2000)
                one, many = run(b, 1), run(b, workers)
                for field in ("values", "raw_moments", "pair_norms"):
                    assert getattr(one, field).tobytes() == getattr(many, field).tobytes(), field
        finally:
            sys.setswitchinterval(switch)

    def test_nested_monte_carlo_oracle_at_maximizing_triple(self):
        spec = ProcessSpec("compound-poisson", rate=5.0, jump_scale=1.0, grid_size=16)
        b = generate_paths(spec, SimConfig(n_paths=20_000, seed=9))
        t = estimate_triple_moments(b, p_grid=np.array([2.0]))
        # the maximizing pair and the oracle: min of two independent centered
        # compound-Poisson increments over (0, s, 1), simulated at 10x size
        i, j = np.unravel_index(np.argmax(t.raw_moments[:, :, 0]), t.raw_moments.shape[:2])
        r_t, t_t = t.pair_times[i], t.pair_times[j]
        rng = np.random.default_rng(12345)
        m = 200_000

        def cp_increment(length, size):
            counts = rng.poisson(5.0 * length, size)
            total = counts.sum()
            out = np.zeros(size)
            np.add.at(out, np.repeat(np.arange(size), counts), rng.normal(size=total))
            return out

        best = 0.0
        for s_t in t.pair_times[(t.pair_times >= r_t) & (t.pair_times <= t_t)]:
            x = cp_increment(s_t - r_t, m)
            y = cp_increment(t_t - s_t, m)
            best = max(best, np.mean(np.minimum(np.abs(x), np.abs(y)) ** 2))
        assert t.values[0] ** 2 == pytest.approx(best, rel=0.1)

    def test_default_uses_every_grid_point(self):
        spec = ProcessSpec("compound-poisson", rate=5.0, grid_size=96)
        b = generate_paths(spec, SimConfig(n_paths=50, seed=10))
        t = estimate_triple_moments(b)
        assert np.array_equal(t.pair_times, b.times)

    def test_explicit_stride_thins(self):
        spec = ProcessSpec("compound-poisson", rate=5.0, grid_size=96)
        b = generate_paths(spec, SimConfig(n_paths=50, seed=10))
        t = estimate_triple_moments(b, stride=4)
        assert t.pair_times.size == 25  # every 4th point plus the endpoint
        assert t.pair_times[0] == 0.0 and t.pair_times[-1] == 1.0
        with pytest.raises(ValueError, match="stride"):
            estimate_triple_moments(b, stride=0)

    def test_moment_table_validation(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            MomentTable(
                p_grid=np.array([2.0, 4.0]),
                values=np.array([2.0, 1.0]),
                pair_times=np.array([0.0, 1.0]),
                pair_norms=np.zeros((2, 2)),
                raw_moments=np.zeros((2, 2, 2)),
            )


class TestFitGEnvelope:
    def test_zero_distance(self):
        t = np.linspace(0, 1, 9)
        g = fit_g_envelope(t, np.zeros((9, 9)))
        assert g.total == 0.0

    def test_linear_distance_reproduced(self):
        t = np.linspace(0, 1, 9)
        w = np.abs(t[:, None] - t[None, :])
        g = fit_g_envelope(t, w)
        assert np.allclose(g.values, t, atol=1e-12)

    def test_sqrt_distance_certificate_and_lp_factor(self):
        t = np.linspace(0, 1, 8)
        w = np.sqrt(np.abs(t[:, None] - t[None, :]))
        g = fit_g_envelope(t, w)
        iu = np.triu_indices(8, 1)
        have = (g.values[None, :] - g.values[:, None])[iu]
        assert np.all(w[iu] <= have + 1e-9)
        assert g.total == pytest.approx(least_envelope_lp(w, np.ones(7))[-1], rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.floats(0.0, 0.9))
    def test_pointwise_least_against_lp(self, seed, k, sparsity):
        rng = np.random.default_rng(seed)
        w = np.triu(rng.uniform(0, 2, (k, k)) * (rng.uniform(size=(k, k)) >= sparsity), 1)
        w = w + w.T
        g = fit_g_envelope(np.linspace(0, 1, k), w)
        # the pointwise least envelope is the unique minimizer of sum_j G(j)
        lp = least_envelope_lp(w, np.arange(k - 1, 0, -1.0))
        assert g.values == pytest.approx(lp, rel=1e-9, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 12))
    def test_certificate_always_holds(self, seed, k):
        rng = np.random.default_rng(seed)
        t = np.linspace(0, 1, k)
        w = rng.uniform(0, 2, (k, k))
        w = np.triu(w, 1)
        w = w + w.T
        g = fit_g_envelope(t, w)
        iu = np.triu_indices(k, 1)
        have = (g.values[None, :] - g.values[:, None])[iu]
        assert np.all(w[iu] <= have + 1e-9 + 1e-9 * np.abs(have))

    def test_bad_inputs(self):
        t = np.linspace(0, 1, 4)
        with pytest.raises(ValueError):
            fit_g_envelope(t, np.ones((3, 3)))
        w = np.zeros((4, 4))
        w[0, 1] = -1.0
        w[1, 0] = -1.0
        with pytest.raises(ValueError):
            fit_g_envelope(t, w)
        with pytest.raises(ValueError):
            fit_g_envelope(np.array([0.1, 0.5, 0.9]), np.zeros((3, 3)))


class TestEmpiricalTail:
    def test_constant_paths_zero_frequency(self):
        spec = ProcessSpec("compound-poisson", rate=0.0, grid_size=8)
        b = generate_paths(spec, SimConfig(n_paths=64, seed=0))
        est = empirical_tail(b.global_stats(), np.array([0.1, 1.0]), 0.99)
        assert np.all(est.freqs == 0.0)
        assert np.all(est.upper > 0.0)

    def test_two_deterministic_jumps(self):
        times = np.linspace(0, 1, 11)
        vals = np.zeros((40, 11))
        vals[:, 3:] = 1.0
        vals[:, 7:] = 2.0
        b = PathBundle(times, vals)
        est = empirical_tail(b.global_stats(), np.array([0.5, 0.99, 1.0, 1.5]), 0.99)
        assert np.all(est.freqs[:2] == 1.0)
        assert np.all(est.freqs[2:] == 0.0)
        assert np.all(est.upper[:2] == 1.0)  # every path exceeds: the bound is 1

    def test_upper_dominates_frequency(self):
        b = generate_paths(CP_SPEC, SimConfig(n_paths=800, seed=13))
        stats = b.global_stats()
        est = empirical_tail(stats, quantile_u_grid(stats, 10), 0.95)
        assert np.all(est.upper >= est.freqs)

    def test_binomial_upper_exactness(self):
        # the upper bound is the value whose lower tail mass at the count is
        # exactly the complement of the confidence level
        for n, k, conf in [(100, 3, 0.99), (1000, 0, 0.95), (50, 50, 0.99)]:
            ub = empirical_tail(np.arange(n) >= n - k, [0.5], conf).upper[0]
            if k == n:
                assert ub == 1.0
            else:
                assert beta_dist.cdf(ub, k + 1, n - k) == pytest.approx(conf, rel=1e-12)

    @pytest.mark.parametrize("n,counts", [
        (1, [0, 1]), (400, range(401)), (100_000, [0, 1, 7, 500, 99_999, 100_000]),
        # the path counts of simulate-fine and of verify at its defaults
        (5000, [*range(64), *range(64, 5001, 41), 4999]),
        (10_000, [*range(64), *range(64, 10_001, 41), 9999])])
    def test_upper_matches_per_count_bound(self, n, counts):
        # one vectorized betaincinv call gives every count's scalar
        # beta.ppf bound, bit for bit
        counts = np.array(counts)
        u = n - counts - 0.5  # exactly k of the statistics 0, 1, ..., n-1 exceed
        for conf in (0.95, 0.99, 0.999):
            upper = empirical_tail(np.arange(n), u, conf).upper
            scalar = [1.0 if k == n else float(beta_dist.ppf(conf, k + 1, n - k)) for k in counts]
            assert upper.tolist() == scalar

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            empirical_tail(np.arange(100.0), [50.5], confidence)


class TestBoundaryFunctionals:
    def test_constant_paths(self):
        spec = ProcessSpec("compound-poisson", rate=0.0, grid_size=32)
        b = generate_paths(spec, SimConfig(n_paths=16, seed=0))
        est = boundary_functionals(b, np.array([0.05, 0.1, 0.2]))
        assert np.all(est.z0 == 0.0) and np.all(est.z1 == 0.0)
        assert est.z0_vanishing and est.z1_vanishing

    def test_indicator_family_closed_form(self):
        spec = ProcessSpec("uniform-jump", grid_size=1001)
        b = generate_paths(spec, SimConfig(n_paths=100_000, seed=21))
        betas = np.array([0.01, 0.05, 0.1])
        est = boundary_functionals(b, betas)
        for i, beta in enumerate(betas):
            expected = np.pi / 4 * beta
            se = np.pi / 4 * np.sqrt(beta * (1 - beta) / 100_000)
            assert abs(est.z0[i] - expected) <= 3 * se
            assert abs(est.z1[i] - expected) <= 3 * se

    def test_bad_beta_grid(self):
        b = generate_paths(CP_SPEC, SimConfig(n_paths=4, seed=0))
        with pytest.raises(ValueError):
            boundary_functionals(b, np.array([0.0, 0.1]))
        with pytest.raises(ValueError):
            boundary_functionals(b, np.array([0.3, 0.2]))
        with pytest.raises(ValueError, match="nonempty"):  # was an IndexError
            boundary_functionals(b, [])


class TestPartialSums:
    def test_single_term_equals_generation(self):
        cfg = SimConfig(n_paths=64, seed=5)
        a = partial_sum_paths(CP_SPEC, 1, cfg)
        b = generate_paths(CP_SPEC, cfg)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("n_terms", [4, 64])
    def test_variance_preserved(self, n_terms):
        spec = ProcessSpec("compound-poisson", rate=5.0, grid_size=16)
        cfg = SimConfig(n_paths=20_000, seed=6)
        s = partial_sum_paths(spec, n_terms, cfg)
        col = 8
        t_mid = s.times[col]
        expected = 5.0 * t_mid  # rate * t * E(jump^2)
        var = s.values[:, col].var()
        se = expected * np.sqrt(2.0 / s.values.shape[0])
        assert abs(var - expected) <= 4 * se

    def test_non_centered_rejected(self):
        with pytest.raises(ValueError, match="centered"):
            partial_sum_paths(ProcessSpec("poisson"), 4, SimConfig(n_paths=4, seed=0))
        with pytest.raises(ValueError):
            partial_sum_paths(CP_SPEC, 0, SimConfig(n_paths=4, seed=0))


class TestDominationReport:
    def grid(self):
        return np.array([1.0, 2.0, 4.0])

    def test_trivial_bound_passes(self):
        u = self.grid()
        bound = TailCurve(u, np.ones(3))
        b = generate_paths(CP_SPEC, SimConfig(n_paths=200, seed=3))
        est = empirical_tail(b.global_stats(), u, 0.99)
        rep = domination_report(bound, est, strict=True)
        assert rep["overall_pass"] and not rep["failures"]

    def test_zero_bound_fails_with_listed_thresholds(self):
        u = self.grid()
        bound = TailCurve(u, np.zeros(3))
        b = generate_paths(CP_SPEC, SimConfig(n_paths=400, seed=3))
        est = empirical_tail(b.global_stats(), u, 0.99)
        rep = domination_report(bound, est)
        assert not rep["overall_pass"]
        assert rep["failures"] and all(f["margin"] < 0 for f in rep["failures"])
        assert [f["u"] for f in rep["failures"]] == [x for x, ok in zip(u, rep["ok"]) if not ok]

    def test_vacuous_thresholds(self):
        u = self.grid()
        bound = TailCurve(u, np.zeros(3))
        spec = ProcessSpec("compound-poisson", rate=0.0, grid_size=8)
        b = generate_paths(spec, SimConfig(n_paths=100, seed=0))
        est = empirical_tail(b.global_stats(), u, 0.99)
        assert domination_report(bound, est)["overall_pass"]  # nothing observed
        assert domination_report(bound, est)["vacuous"] == [True] * 3
        assert not domination_report(bound, est, strict=True)["overall_pass"]

    def test_grid_mismatch_rejected(self):
        bound = TailCurve(self.grid(), np.ones(3))
        b = generate_paths(CP_SPEC, SimConfig(n_paths=50, seed=3))
        est = empirical_tail(b.global_stats(), np.array([1.0, 2.0, 5.0]), 0.99)
        with pytest.raises(ValueError):
            domination_report(bound, est)

    def test_report_serializes(self):
        u = self.grid()
        bound = TailCurve(u, np.ones(3))
        b = generate_paths(CP_SPEC, SimConfig(n_paths=60, seed=3))
        est = empirical_tail(b.global_stats(), u, 0.99)
        d = domination_report(bound, est, label="demo")
        assert d["label"] == "demo" and d["overall_pass"] is True
        assert json.loads(json.dumps(d)) == d
        assert d["upper_confidence"] == est.upper.tolist() and d["bound"] == [1.0] * 3


class TestEndToEndSmall:
    def test_bound_dominates_at_small_scale(self):
        b = generate_paths(CP_SPEC, SimConfig(n_paths=3000, seed=42))
        table = estimate_triple_moments(b)
        env = fit_g_envelope(table.pair_times, table.pair_norms)
        stats = b.global_stats()
        u = quantile_u_grid(stats, 12)
        est = empirical_tail(stats, u, 0.99)
        bound = moment_global_bound(table, env, u)
        assert domination_report(bound, est, strict=True)["overall_pass"]

    def test_envelope_feeds_modulus(self):
        b = generate_paths(CP_SPEC, SimConfig(n_paths=500, seed=1))
        table = estimate_triple_moments(b)
        env = fit_g_envelope(table.pair_times, table.pair_norms)
        assert isinstance(env, GFunction)
        assert env.modulus(0.1) <= env.total + 1e-12
