import json
from pathlib import Path

import numpy as np
import pytest

from skorotail.cli import run
from skorotail.io import read_matrix, read_two_columns, write_csv


def read_out(capsys):
    return capsys.readouterr().out.strip()


SMALL_SIM = [
    "--process", "compound-poisson", "--rate", "3", "--grid", "24",
    "--paths", "400", "--seed", "5", "--u-points", "8", "--h", "0.1",
]


class TestHelp:
    @pytest.mark.parametrize(
        "cmd", ["kappa", "bound", "entropy", "conjugate", "simulate", "verify", "clt"]
    )
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            run([cmd, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


class TestKappa:
    def test_two_jump_fixture_prints_one(self, capsys):
        assert run(["kappa", "--delta", "0.6"]) == 0
        assert read_out(capsys) == "1"

    def test_global_stat_when_no_delta(self, capsys):
        assert run(["kappa"]) == 0
        assert read_out(capsys) == "1"

    def test_delta_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run(["kappa", "--delta-grid", "0.2,0.5,0.6,1.0", "--out", str(out)]) == 0
        d, k = read_two_columns(out)
        assert list(k) == [0.0, 0.0, 1.0, 1.0]

    def test_path_file(self, tmp_path, capsys):
        f = tmp_path / "path.csv"
        write_csv(f, ["time", "value"], [np.array([0.0, 0.5, 1.0]), np.array([0.0, 3.0, 3.0])])
        assert run(["kappa", "--path", str(f), "--delta", "1.0"]) == 0
        assert read_out(capsys) == "0"  # single jump

    def test_missing_file(self, capsys):
        assert run(["kappa", "--path", "/nonexistent.csv", "--delta", "0.5"]) == 2


class TestBound:
    def test_k_constant(self, capsys):
        assert run(["bound", "k-constant", "--alpha", "2", "--beta", "1",
                    "--mode", "closed"]) == 0
        assert float(read_out(capsys)) == pytest.approx(95.3709, abs=1e-3)

    def test_rosenthal(self, capsys):
        assert run(["bound", "rosenthal", "--p", "2"]) == 0
        assert float(read_out(capsys)) == pytest.approx(1.8856, abs=1e-3)

    def test_moment_global_curve(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        rc = run(["bound", "moment-global", "--nu-power", "1,0.5", "--u", "5:100:6",
                  "--out", str(out)])
        assert rc == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "u,bound,param"
        assert len(lines) == 7

    def test_entropy_series_divergent_exit_code(self, capsys):
        rc = run(["bound", "entropy-series", "--gamma", "1.0", "--beta", "1",
                  "--u", "1.0"])
        assert rc == 3

    def test_factored_module_reports_unavailable(self, capsys):
        rc = run(["bound", "factored-module", "--l", "2", "--p", "2", "--b", "16",
                  "--h", "0.05", "--u", "10"])
        assert rc == 3
        assert "term=" in read_out(capsys)  # the single term still evaluates

    def test_invalid_alpha(self, capsys):
        assert run(["bound", "k-constant", "--alpha", "0.5", "--beta", "1"]) == 2

    def test_unknown_name_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            run(["bound", "no-such-bound"])
        assert exc.value.code == 2


class TestEntropyCli:
    def test_counts(self, capsys):
        assert run(["entropy", "--epsilon", "0.25,0.1", "--gap-power", "1",
                    "--grid", "1001"]) == 0
        out = read_out(capsys)
        assert "count=2" in out and "count=5" in out

    def test_matrix_roundtrip(self, tmp_path, capsys):
        from skorotail.io import write_matrix

        t = np.linspace(0, 1, 5)
        q = np.abs(t[:, None] - t[None, :])
        f = tmp_path / "q.csv"
        write_matrix(f, t, q)
        t2, q2 = read_matrix(f)
        assert np.array_equal(t, t2) and np.array_equal(q, q2)
        assert run(["entropy", "--epsilon", "0.5", "--matrix", str(f)]) == 0
        assert "count=1" in read_out(capsys)


class TestConjugateCli:
    def test_quadratic_demo(self, tmp_path):
        out = tmp_path / "conj.csv"
        assert run(["conjugate", "--u-grid", "0.5,1.0,2.0", "--out", str(out)]) == 0
        us, fs = read_two_columns(out)
        assert fs == pytest.approx(0.5 * us**2, abs=1e-3)


class TestSimulateVerify:
    def test_simulate_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["simulate", *SMALL_SIM, "--out", str(out)]) == 0
        for name in ("moments.csv", "pair_norms.csv", "envelope.csv",
                     "tail_delta.csv", "tail_kappa_0.1.csv", "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_paths"] == 400

    def test_verify_passes_and_is_reproducible(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["verify", *SMALL_SIM, "--out", str(out1)]) == 0
        assert run(["verify", *SMALL_SIM, "--out", str(out2)]) == 0
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_verify_zero_rate_trivial_pass(self, tmp_path, capsys):
        rc = run(["verify", "--process", "compound-poisson", "--rate", "0",
                  "--grid", "12", "--paths", "50", "--seed", "1", "--u-points", "5",
                  "--h", "0.1", "--out", str(tmp_path / "z")])
        assert rc == 0
        rep = json.loads((tmp_path / "z" / "report.json").read_text())
        assert rep["overall_pass"] is True

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"paths": 300, "seed": 9, "rate": 2.0,
                                   "grid": 16, "u_points": 6, "h": "0.1"}))
        out = tmp_path / "c"
        assert run(["simulate", "--config", str(cfg), "--process",
                    "compound-poisson", "--paths", "120", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_paths"] == 120  # flag wins
        assert summary["seed"] == 9  # config fills the rest

    def test_boundary_grid_flag(self, tmp_path, capsys):
        out = tmp_path / "bd"
        rc = run(["simulate", "--process", "uniform-jump", "--grid", "101",
                  "--paths", "300", "--seed", "4", "--u-points", "5", "--h", "0.1",
                  "--beta-grid", "0.05,0.1", "--out", str(out)])
        assert rc == 0
        betas, z0 = read_two_columns(out / "boundary.csv")
        assert list(betas) == [0.05, 0.1]
        assert np.all(np.diff(z0) >= 0)
        summary = json.loads((out / "summary.json").read_text())
        assert "boundary" in summary

    def test_explicit_u_grid_flag(self, tmp_path, capsys):
        out = tmp_path / "ug"
        assert run(["verify", *SMALL_SIM, "--u-grid", "1:9:5", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert len(rep["checks"][0]["thresholds"]) == 5
        assert rep["checks"][0]["thresholds"][0] == pytest.approx(1.0)

    def test_psi_table_from_file(self, tmp_path, capsys):
        f = tmp_path / "psi.csv"
        ps = np.logspace(0, np.log10(60), 80, endpoint=False)
        write_csv(f, ["p", "psi"], [ps, np.sqrt(ps)])
        assert run(["bound", "min-tail-fenchel", "--psi-file", str(f), "--d", "2",
                    "--u", "2.7182818"]) == 0
        assert "value=" in read_out(capsys)

    def test_clt_subcommand(self, tmp_path, capsys):
        out = tmp_path / "clt"
        rc = run(["clt", "--process", "compound-poisson", "--rate", "3",
                  "--grid", "16", "--paths", "500", "--seed", "2", "--n", "1,4",
                  "--u-points", "6", "--h", "0.1", "--t-marks", "0.5",
                  "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["overall_pass"] is True
        assert set(rep["normality"]["0.5"]) == {"statistic", "pvalue", "rejected_at_1pct"}
