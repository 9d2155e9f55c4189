import json

import numpy as np
import pytest

from skorotail import pipeline
from skorotail.bounds import TailCurve, moment_global_bound, moment_module_bound
from skorotail.cli import run as cli_run
from skorotail.io import read_matrix
from skorotail.simulate import (
    ProcessSpec,
    SimConfig,
    domination_report,
    empirical_tail,
    estimate_triple_moments,
    fit_g_envelope,
    generate_paths,
    quantile_u_grid,
)

SPEC = ProcessSpec("compound-poisson", rate=3.0, grid_size=24)
CONFIG = SimConfig(n_paths=400, seed=5, u_points=8, h_grid=(0.1, 0.2))


def explicit_verify_report(spec, config, u_grid, strict):
    """The verify chain written out step by step from the library calls."""
    bundle = generate_paths(spec, config)
    table = estimate_triple_moments(bundle, config.p_grid)
    envelope = fit_g_envelope(table.pair_times, table.pair_norms)
    if u_grid is None:
        u_grid = quantile_u_grid(bundle.global_stats(), config.u_points)
    checks = [domination_report(
        moment_global_bound(table, envelope, u_grid),
        empirical_tail(bundle.global_stats(), u_grid, config.confidence),
        strict=strict, label="global")]
    for h in config.h_grid:
        checks.append(domination_report(
            moment_module_bound(table, envelope, h, u_grid),
            empirical_tail(bundle.module_stats(h), u_grid, config.confidence),
            strict=strict, label=f"module_h={h:g}"))
    return {
        "process": spec.kind,
        "seed": config.seed,
        "n_paths": config.n_paths,
        "triple_grid": {"points": spec.grid_size, "stride": 1},
        "overall_pass": all(c["overall_pass"] for c in checks),
        "checks": checks,
    }


@pytest.mark.parametrize("u_grid", [None, np.logspace(0, 1.5, 6)])
@pytest.mark.parametrize("strict", [False, True])
def test_verify_matches_explicit_chain(u_grid, strict):
    run = pipeline.verify(SPEC, CONFIG, u_grid=u_grid, strict=strict)
    expected = explicit_verify_report(SPEC, CONFIG, u_grid, strict)
    assert run.report == expected
    assert run.exit_code == (0 if expected["overall_pass"] else 1)
    # the module tails differ between spans, so a swapped pairing shows
    kappa = [c["frequency"] for c in expected["checks"][1:]]
    assert kappa[0] != kappa[1]


def test_verify_writes_estimation_bounds_and_report(tmp_path):
    pipeline.verify(SPEC, CONFIG).write(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bound_global.csv", "bound_module_h_0.1.csv", "bound_module_h_0.2.csv",
        "envelope.csv", "moments.csv", "pair_norms.csv", "report.json",
        "tail_delta.csv", "tail_kappa_0.1.csv", "tail_kappa_0.2.csv",
    ]


# SPEC and CONFIG as CLI flags
SIM_FLAGS = ["--rate", "3", "--grid", "24", "--paths", "400", "--seed", "5",
             "--u-points", "8", "--h", "0.1,0.2"]


@pytest.mark.parametrize("beta_grid, write_paths", [
    (None, False), ([0.05, 0.1, 0.3], False), (None, True), ([0.05, 0.3], True)])
def test_simulate_writes_what_the_cli_writes(beta_grid, write_paths, tmp_path, capsys):
    run = pipeline.simulate(SPEC, CONFIG, beta_grid=beta_grid, write_paths=write_paths)
    run.write(tmp_path / "lib")
    flags = [] if beta_grid is None else ["--beta-grid", ",".join(map(str, beta_grid))]
    flags += ["--write-paths"] if write_paths else []
    assert cli_run(["simulate", *SIM_FLAGS, *flags, "--out", str(tmp_path / "cli")]) == 0
    assert run.report == json.loads(capsys.readouterr().out)
    assert run.exit_code == 0
    written = {d: {f.name: f.read_bytes() for f in (tmp_path / d).iterdir()}
               for d in ("lib", "cli")}
    assert written["lib"] == written["cli"]
    names = {"summary.json", "moments.csv", "pair_norms.csv", "envelope.csv",
             "tail_delta.csv", "tail_kappa_0.1.csv", "tail_kappa_0.2.csv"}
    names |= {"boundary.csv"} if beta_grid else set()
    names |= {"paths.csv"} if write_paths else set()
    assert set(written["lib"]) == names
    assert ("boundary" in run.report) == (beta_grid is not None)


def test_pair_norms_csv_is_the_matrix_with_a_time_header(tmp_path):
    est = pipeline.estimate(SPEC, CONFIG)
    pipeline.Run({}, est.tables()).write(tmp_path)
    times, m = read_matrix(tmp_path / "pair_norms.csv")
    assert np.array_equal(times, est.table.pair_times)
    assert np.array_equal(m, est.table.pair_norms)


def test_check_fails_on_a_curve_below_the_tail():
    # power control: half the simulated frequencies lies below the tail's upper
    # confidence envelope at every threshold with an exceedance
    tail = pipeline.estimate(SPEC, CONFIG).tail_delta
    report = domination_report(TailCurve(tail.thresholds, tail.freqs / 2), tail)
    assert report["overall_pass"] is False
    assert [f["u"] for f in report["failures"]] == list(tail.thresholds[tail.freqs > 0])
    assert tail.freqs[0] > 0.1  # the failures include a threshold far from the extreme tail


def test_clt_rejects_at_the_pvalue_floor():
    # one compound-Poisson summand has an atom at 0: far from normal, and the
    # interpolated p-value sits at its floor of exactly 0.01
    run = pipeline.clt(SPEC, CONFIG, [1], [0.5])
    res = run.report["normality"]["0.5"]
    assert res["statistic"] > 10.0
    assert res["pvalue"] == 0.01
    assert res["rejected_at_1pct"] is True
