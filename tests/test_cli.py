import argparse
import csv
import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skorotail import bounds as B
from skorotail import io as tio
from skorotail import pipeline
from skorotail.cli import _process_spec, _sim_config, build_parser, run
from skorotail.entropy import SemiDistanceGrid, scaled_window_modulus
from skorotail.gls import PsiFunction
from skorotail.io import read_matrix, read_two_columns, write_csv
from skorotail.paths import GFunction
from skorotail.simulate import ProcessSpec, SimConfig, generate_paths
from test_ranges import PINNED


def read_out(capsys):
    return capsys.readouterr().out.strip()


def bound_names():
    """The names ``bound`` accepts, each with its own parser, as ``build_parser`` makes them."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices["bound"]._actions if a.dest == "name").choices


def flags_of(parser) -> set[str]:
    return {f for a in parser._actions for f in a.option_strings} - {"-h", "--help"}


def exit_code(argv) -> int:
    """``run``'s return value, or the code of the ``SystemExit`` the parser raises."""
    try:
        return run(argv)
    except SystemExit as e:
        return e.code


# ``--u 2:100:4`` as the CLI parses it
U4 = np.logspace(np.log10(2.0), np.log10(100.0), 4)


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

    def test_help_states_each_default(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--help"])
        assert exc.value.code == 0
        assert "(default: 10000)" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("name", bound_names())
    def test_bound_name_help_states_each_default(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bound", name, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for a in bound_names()[name]._actions:
            if a.dest != "help":
                assert f"{a.help} (default: {a.default})" in text, a.option_strings


class TestDefaults:
    def test_cli_defaults_are_the_library_defaults(self):
        ns = build_parser().parse_args(["verify"])
        for cli_value, lib_value in ((_process_spec(ns), ProcessSpec("compound-poisson")),
                                     (_sim_config(ns), SimConfig())):
            for f in dataclasses.fields(lib_value):
                a, b = getattr(cli_value, f.name), getattr(lib_value, f.name)
                assert type(a) is type(b), f.name
                assert np.array_equal(a, b), f.name


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

    def test_non_numeric_row_after_the_header_is_an_error(self, tmp_path, capsys):
        f = tmp_path / "path.csv"
        f.write_text("# a step path\ntime,value\n0,0\n0.5,x2\n1,3\n")
        assert run(["kappa", "--path", str(f), "--delta", "1.0"]) == 2
        assert "'0.5,x2'" in capsys.readouterr().err


# the flags each bound name reads, besides --config
READS = {
    "k-constant": "--alpha --beta --mode",
    "rosenthal": "--p",
    "power-global": "--alpha --beta --mode --g-slope --g-file --u --out",
    "power-module": "--alpha --beta --mode --g-slope --g-file --h --u --out",
    "moment-global": "--b --g-slope --g-file --nu-power --nu-file --u --out",
    "moment-module": "--b --g-slope --g-file --h --nu-power --nu-file --u --out",
    "entropy-series": "--beta --gamma --preset --seq-s --seq-theta --seq-nu --u",
    "exp-envelope": "--c1 --m --g-slope --g-file --h --u",
    "min-tail-fenchel": "--psi-power --psi-file --d --u",
    "clt": "--b --g-slope --g-file --h --nu-power --nu-file --u --out",
    "clt-envelope": "--c1 --m --s --g-slope --g-file --h --u",
}


class TestBound:
    @pytest.mark.parametrize("name", bound_names())
    def test_every_listed_name_evaluates(self, name, capsys):
        # at its own defaults: min-tail-fenchel needs u > 1
        assert run(["bound", name]) == 0
        assert read_out(capsys)

    def test_each_name_takes_the_flags_it_reads(self):
        parsers = bound_names()
        assert {n: flags_of(p) for n, p in parsers.items()} == {
            n: set(f"{READS[n]} --config".split()) for n in READS}
        assert sum(len(flags_of(p)) for p in parsers.values()) == 77

    @pytest.mark.parametrize("name", bound_names())
    def test_a_flag_the_name_does_not_read_exits_2(self, name, capsys):
        every = set().union(*map(flags_of, bound_names().values()))
        for flag in sorted(every - flags_of(bound_names()[name])):
            assert exit_code(["bound", name, flag, "1"]) == 2, flag
            printed = capsys.readouterr()
            assert printed.out == "" and f"unrecognized arguments: {flag} 1" in printed.err

    @pytest.mark.parametrize("name", ["entropy-series", "exp-envelope", "min-tail-fenchel",
                                      "clt-envelope"])
    def test_scalar_bound_takes_one_threshold(self, name, capsys):
        # a grid used to be cut to its first point
        assert exit_code(["bound", name, "--u", "3,50"]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and "invalid float value: '3,50'" in printed.err

    @pytest.mark.parametrize("name", ["moment-global", "moment-module"])
    def test_moment_bound_reads_nu_and_g_tables(self, name, tmp_path, capsys):
        ps, nus = np.array([2.0, 4.0, 8.0]), np.array([0.5, 0.8, 1.2])
        ts, gs = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.9, 1.5])
        write_csv(tmp_path / "nu.csv", ["p", "nu"], [ps, nus])
        write_csv(tmp_path / "g.csv", ["t", "G"], [ts, gs])
        out, ref = tmp_path / "bound.csv", tmp_path / "ref.csv"
        assert run(["bound", name, "--nu-file", str(tmp_path / "nu.csv"), "--g-file",
                    str(tmp_path / "g.csv"), "--u", "2:100:4", "--out", str(out)]) == 0
        g = GFunction(ts, gs)
        curve = (B.moment_global_bound((ps, nus), g, U4) if name == "moment-global"
                 else B.moment_module_bound((ps, nus), g, 0.05, U4))
        write_csv(ref, *curve.table())
        assert out.read_bytes() == ref.read_bytes()

    def test_clt_reads_nu_file(self, tmp_path, capsys):
        ps, nus = np.array([2.0, 4.0, 8.0]), np.full(3, 100.0)
        write_csv(tmp_path / "nu.csv", ["p", "nu"], [ps, nus])
        out = tmp_path / "clt.csv"
        assert run(["bound", "clt", "--nu-file", str(tmp_path / "nu.csv"),
                    "--u", "2:100:4", "--out", str(out)]) == 0
        nu = B.rosenthal_nu((ps, nus))
        gc = B.moment_global_bound(nu, GFunction.linear(), U4)
        mc = B.moment_module_bound(nu, GFunction.linear(), 0.05, U4)
        rows = [f"{tio.fmt(u)},{tio.fmt(a)},{tio.fmt(b)}" for u, a, b in zip(U4, gc.probs, mc.probs)]
        assert read_out(capsys).splitlines() == rows
        assert out.read_text().splitlines() == ["u,global_bound,module_bound"] + rows

    def test_entropy_series_polynomial_preset(self, capsys):
        assert run(["bound", "entropy-series", "--preset", "polynomial", "--seq-nu", "3",
                    "--u", "2"]) == 0
        res = B.entropy_series_bound(lambda e: e**-0.5, lambda x: x**2,
                                     B.polynomial_sequences(3.0), 2.0)
        assert read_out(capsys) == (f"value={tio.fmt(res.value)} "
                                    f"remainder={tio.fmt(res.remainder)} "
                                    f"terms={res.terms_used} pair=polynomial(nu=3)")

    def test_min_tail_fenchel_psi_power(self, capsys):
        assert run(["bound", "min-tail-fenchel", "--psi-power", "1", "--d", "2",
                    "--u", "3"]) == 0
        psi = PsiFunction.from_callable(lambda p: p, b=np.inf, p_max=64.0)
        res = B.min_tail_fenchel(psi, 2, 3.0)
        assert read_out(capsys) == (f"value={tio.fmt(res.value)} p={tio.fmt(res.p_star)} "
                                    f"at_edge={tio.fmt(res.at_edge)}")

    def test_k_constant(self, capsys):
        assert run(["bound", "k-constant", "--alpha", "2", "--beta", "1",
                    "--mode", "closed"]) == 0
        assert float(read_out(capsys)) == pytest.approx(95.3709, abs=1e-3)

    @pytest.mark.parametrize("mode", ["closed", "optimized"])
    def test_k_constant_beyond_float_range_is_inf(self, mode, capsys):
        # an overflow is inf under the bounds' float-range rule, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["bound", "k-constant", "--alpha", "1.001", "--beta", "200",
                      "--mode", mode])
        assert rc == 0
        assert read_out(capsys) == "inf"

    def test_rosenthal(self, capsys):
        assert run(["bound", "rosenthal", "--p", "2"]) == 0
        assert float(read_out(capsys)) == pytest.approx(1.8856, abs=1e-3)

    @pytest.mark.parametrize("name", ["moment-global", "power-global"])
    def test_raw_bound_beyond_float_range_warns_nothing(self, name, capsys):
        # +inf is the intended raw bound at u = 1e-300; it clamps to 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["bound", name, "--u", "1e-300:1e300:5"]) == 0
        probs = [float(row.split(",")[1]) for row in read_out(capsys).splitlines()]
        assert probs[0] == 1.0 and probs[-1] == 0.0

    def test_moment_global_curve(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        rc = run(["bound", "moment-global", "--nu-power", "1,0.5", "--u", "5:100:6",
                  "--out", str(out)])
        assert rc == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "u,bound,param"
        assert len(lines) == 7

    @pytest.mark.parametrize("name", ["power-global", "power-module"])
    def test_power_curve_csv_has_three_fields_per_row(self, name, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert run(["bound", name, "--u", "1:100:4", "--out", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["u", "bound", "param"]
        assert len(rows) == 5
        assert all(len(r) == 3 for r in rows)
        assert {r[2] for r in rows[1:]} == {"(2.0, 1.0)"}
        printed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert printed == rows[1:]

    def test_write_csv_quotes_text_fields(self, tmp_path):
        out = tmp_path / "t.csv"
        text = np.array(["(2.0, 1.0)", 'say "hi"', "plain"])
        write_csv(out, ["u", "a,b"], [np.array([1.0, 2.5, 3.0]), text])
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows == [["u", "a,b"], ["1", "(2.0, 1.0)"], ["2.5", 'say "hi"'], ["3", "plain"]]
        assert out.read_text().splitlines()[3] == "3,plain"

    def test_entropy_series_divergent_exit_code(self, capsys):
        rc = run(["bound", "entropy-series", "--gamma", "1.0", "--beta", "1",
                  "--u", "1.0"])
        assert rc == 3

    def test_entropy_series_scales_underflowing_exit_code(self, capsys):
        # eps(k) = 0.2^(k-1) reaches 0.0 before the remainder is certified; the
        # covering number e^(-gamma) at scale 0 raised ZeroDivisionError
        rc = run(["bound", "entropy-series", "--gamma", "0.3", "--beta", "0.8",
                  "--seq-s", "0.2", "--seq-theta", "0.5", "--u", "3"])
        assert rc == 3
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith("bound unavailable:")

    @pytest.mark.parametrize("flags", [
        ["--u", "1e-300"],  # lam(u theta(k)) = (u theta(k))^2 underflows to 0: ZeroDivisionError
        ["--u", "1e300", "--beta", "2"],  # (u theta(k))^4 overflows: OverflowError
        ["--gamma", "1e300"],  # the covering number eps^(-gamma) overflows: OverflowError
    ], ids=" ".join)
    def test_entropy_series_growth_beyond_float_range_exit_code(self, flags, capsys):
        # an infinite term, or a term of an infinite growth, is unavailable
        # as in a divergent series; each raised the error named above
        assert run(["bound", "entropy-series", *flags]) == 3
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith("bound unavailable:")

    @pytest.mark.parametrize("args", [
        ["exp-envelope", "--m", "0.01", "--u", "1e4"],  # u^(1/m) = 1e400
        ["clt-envelope", "--m", "1e-3"],  # |ln omega|^(1+1/m) and y(p) = p^1000
        ["exp-envelope", "--m", "130"],  # nu(p) = p^130 overflows beyond p = 235
        # K_R(p) y(p) overflows where y(p) = p^(1/m) is finite, and so do the
        # module's calibration thresholds u / omega
        ["clt-envelope", "--m", "0.0012"],
        ["clt-envelope", "--m", "0.00115"],  # 3 nu(p) G(1) in the moment curve
        ["clt-envelope", "--m", "0.004", "--s", "2"],  # p^(1/m) ln(p)^s, not p^(1/m)
    ], ids=" ".join)
    def test_envelope_rates_beyond_float_range(self, args, capsys):
        # each raised OverflowError from Python float math, or a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["bound", *args]) == 0
        printed = capsys.readouterr()
        assert printed.err == "" and "nan" not in printed.out
        fields = dict(f.split("=") for f in printed.out.split())
        assert 0.0 <= float(fields["delta"]) <= 1.0 and 0.0 <= float(fields["kappa"]) <= 1.0

    @pytest.mark.parametrize("args", [
        ["exp-envelope", "--m", "1000"],  # 3 c1 G(1) (e p)^m at p = 64
        ["clt-envelope", "--m", "0.00119"],  # 1e6 e omega |ln omega|^(1+1/m)
    ], ids=" ".join)
    def test_calibration_thresholds_beyond_float_range_name_m(self, args, capsys):
        # each overflowed with RuntimeWarnings into an error naming no flag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["bound", *args]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(f"error: m={args[-1]} ") and "float range" in printed.err

    @pytest.mark.parametrize("m", ["1e-15", "3e-15", "1e-300"])
    def test_calibration_thresholds_rounding_together_name_m(self, m, capsys):
        # 3 (e p)^m rounds to equal thresholds, which TailCurve rejected with
        # an error naming no flag; m = 1e-14 still calibrates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["bound", "exp-envelope", "--m", m]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(f"error: m={m} ") and "equal values" in printed.err
        assert run(["bound", "exp-envelope", "--m", "1e-14"]) == 0

    def test_module_threshold_beyond_float_range(self, capsys):
        # (omega |ln omega|)^(-m) = 3e366 raised OverflowError from Python float math;
        # no u reaches an infinite threshold
        assert run(["bound", "exp-envelope", "--m", "100", "--h", "0.01",
                    "--g-slope", "0.001"]) == 0
        fields = dict(f.split("=") for f in read_out(capsys).split())
        assert fields["kappa_in_range"] == "false"
        assert 0.0 <= float(fields["delta"]) <= 1.0 and 0.0 <= float(fields["kappa"]) <= 1.0

    @pytest.mark.parametrize("args, out", [pytest.param(a, o, id=" ".join(a))
                                           for a, o in PINNED])
    def test_envelope_overflows_are_silent_under_w_error(self, args, out, tmp_path):
        # the range sweep's pinned rows, of every bound, envelope or not: each
        # printed a RuntimeWarning from a float beyond range and under -W error
        # ended in a traceback.  Here -W error holds from the interpreter's start
        done = skorotail(["bound", *args], tmp_path, flags=["-W", "error"])
        assert (done.returncode, done.stderr, done.stdout) == (0, "", out + "\n")

    @pytest.mark.parametrize("name", ["exp-envelope", "clt-envelope"])
    def test_envelopes_of_a_flat_envelope_are_0(self, name, capsys):
        # G(1) - G(0) = 0 makes both bounds 0, so no finite constant calibrates them
        assert run(["bound", name, "--g-slope", "0"]) == 0
        assert read_out(capsys) == ("delta=0 kappa=0 c2=inf c3=inf delta_in_range=true "
                                    "kappa_in_range=true")

    @pytest.mark.parametrize("name, table, flags, error", [
        ("moment-global", "0,0\n0.5,nan\n1,1\n", ["--g-file", "--u", "1,10"],
         "G must lie in (-inf, inf), got nan"),
        ("min-tail-fenchel", "1,1\n2,nan\n4,3\n", ["--psi-file", "--u", "3"],
         "psi must lie in (0, inf], got nan"),
    ], ids=["g-file", "psi-file"])
    def test_nan_in_a_table_file_exits_2(self, name, table, flags, error, tmp_path, capsys):
        # they printed nan bounds and exited 0
        f = tmp_path / "table.csv"
        f.write_text(table)
        assert run(["bound", name, flags[0], str(f), *flags[1:]]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and f"error: {error}" in printed.err

    def test_clt_envelope_flags_threshold_below_e(self, capsys):
        # the closed forms are stated for u >= e: a value at u = 1 is no bound
        assert run(["bound", "clt-envelope", "--u", "1"]) == 0
        fields = dict(f.split("=") for f in read_out(capsys).split())
        assert fields["delta_in_range"] == "false"
        assert fields["kappa_in_range"] == "false"

    @pytest.mark.parametrize("args", [["--h", "0.5", "--u", "1"], ["--h", "0.25", "--u", "0.5"]])
    def test_clt_envelope_at_u_equal_to_the_modulus_warns_nothing(self, args, capsys):
        # u = omega_G(2h) makes ln(u/omega) = 0, raised to a negative power
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["bound", "clt-envelope", *args]) == 0
        printed = capsys.readouterr()
        assert printed.err == ""
        fields = dict(f.split("=") for f in printed.out.split())
        assert fields["delta_in_range"] == "false"
        assert fields["kappa_in_range"] == "false"

    @pytest.mark.parametrize("name", ["power-module", "moment-module", "clt", "exp-envelope",
                                      "clt-envelope"])
    @pytest.mark.parametrize("h", ["0", "0.6"])
    def test_span_outside_the_half_interval_exits_2(self, name, h, capsys):
        # the envelopes used to print kappa=0 at h = 0
        assert run(["bound", name, "--h", h]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and f"error: h must lie in (0, 0.5], got {h}" in printed.err

    def test_invalid_alpha(self, capsys):
        assert run(["bound", "k-constant", "--alpha", "0.5", "--beta", "1"]) == 2

    def test_unknown_name_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            run(["bound", "no-such-bound"])
        assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["kappa", "--delta", "0.6"], ["kappa"],
    ["bound", "k-constant"], ["bound", "rosenthal"], ["bound", "entropy-series"],
    ["bound", "exp-envelope"], ["bound", "min-tail-fenchel"], ["bound", "clt-envelope"],
], ids=" ".join)
def test_out_that_would_be_ignored_exits_2(args, tmp_path, capsys):
    # these print a value and have no table to write; a bound name's parser has no --out
    out = tmp_path / "f.csv"
    assert exit_code([*args, "--out", str(out)]) == 2
    printed = capsys.readouterr()
    error = ("error: unrecognized arguments: --out" if args[0] == "bound"
             else "error: kappa writes no --out file")
    assert printed.out == "" and error in printed.err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["kappa", "--delta-grid", "1:2:0"], ["conjugate", "--u-grid", "1:2:0"],
], ids=" ".join)
def test_a_grid_spec_of_no_points_exits_2(args, tmp_path, capsys):
    # it used to print nothing, and kappa wrote a header-only --out file
    out = tmp_path / "f.csv"
    assert run([*args, "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and "error: log grid n must lie in [1, inf), got 0" in printed.err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["bound", "power-module", "--g-file", "g.csv", "--g-slope", "2"],
    ["bound", "clt", "--nu-file", "nu.csv", "--nu-power", "1,0.5"],
    ["bound", "min-tail-fenchel", "--psi-file", "psi.csv", "--psi-power", "1"],
    ["kappa", "--delta", "0.6", "--delta-grid", "0.1,0.5"],
], ids=lambda args: f"{args[-4]} {args[-2]}")
def test_a_file_and_the_parameter_it_replaces_exclude_each_other(args, capsys):
    # the parameter used to be dropped without a word
    assert exit_code(args) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and f"argument {args[-2]}: not allowed with" in printed.err


class TestEntropyCli:
    def test_counts(self, capsys):
        assert run(["entropy", "--epsilon", "0.25,0.1", "--gap-power", "1",
                    "--grid", "1001"]) == 0
        out = read_out(capsys)
        assert "count=2" in out and "count=5" in out

    def test_matrix_roundtrip(self, tmp_path, capsys):
        t = np.linspace(0, 1, 5)
        q = np.abs(t[:, None] - t[None, :])
        f = tmp_path / "q.csv"
        write_csv(f, [tio.fmt(x) for x in t], list(q.T))
        t2, q2 = read_matrix(f)
        assert np.array_equal(t, t2) and np.array_equal(q, q2)
        assert run(["entropy", "--epsilon", "0.5", "--matrix", str(f)]) == 0
        assert "count=1" in read_out(capsys)

    @pytest.mark.parametrize("text", ["", "0,0.5,1\n0,0.5,1\n0.5,0\n1,0.5,0\n", "0,1\n0,x\n"],
                             ids=["empty", "ragged", "non-numeric"])
    def test_a_faulty_matrix_file_is_named(self, text, tmp_path):
        # an empty file raised IndexError, and numpy's text for a ragged row
        # or float's for a word named no file
        f = tmp_path / "q.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(f))}: "):
            read_matrix(f)

    def test_sigma_h_and_out(self, tmp_path, capsys):
        out = tmp_path / "entropy.csv"
        assert run(["entropy", "--epsilon", "0.25,0.1", "--gap-power", "1", "--grid", "101",
                    "--sigma-h", "0.1", "--out", str(out)]) == 0
        grid = SemiDistanceGrid.from_gap_function(lambda g: g, 101)
        printed = read_out(capsys).splitlines()
        assert printed[-1] == f"window_modulus={tio.fmt(scaled_window_modulus(grid, 0.1))}"
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows == [["epsilon", "count", "entropy"],
                        [tio.fmt(0.25), "2", tio.fmt(np.log(2))],
                        [tio.fmt(0.1), "5", tio.fmt(np.log(5))]]


class TestConjugateCli:
    def test_table_file(self, tmp_path, capsys):
        x = np.linspace(-2.0, 2.0, 401)
        write_csv(tmp_path / "f.csv", ["x", "f"], [x, x**2])
        args = ["conjugate", "--table", str(tmp_path / "f.csv"), "--u-grid", "0.5,1,2"]
        assert run(args) == 0
        printed = [[float(v) for v in line.split(",")] for line in read_out(capsys).splitlines()]
        # (x^2)*(u) = u^2 / 4, attained at x = u / 2 on this grid
        assert printed == [[0.5, pytest.approx(0.0625)], [1.0, pytest.approx(0.25)],
                           [2.0, pytest.approx(1.0)]]
        out = tmp_path / "conj.csv"
        assert run(args + ["--out", str(out)]) == 0
        assert read_out(capsys) == ""
        us, fs = read_two_columns(out)
        assert np.column_stack([us, fs]).tolist() == printed

    def test_demo_table_beyond_float_range_exits_2_silently(self, tmp_path):
        # 0.5 x^2 overflowed with a RuntimeWarning, under -W error a traceback
        done = skorotail(["conjugate", "--lam-max", "1e300"], tmp_path, flags=["-W", "error"])
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: f must lie in (-inf, inf), got inf\n")

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

    def test_write_paths(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["simulate", *SMALL_SIM, "--write-paths", "--out", str(out)]) == 0
        bundle = generate_paths(ProcessSpec("compound-poisson", rate=3.0, grid_size=24),
                                SimConfig(n_paths=400, seed=5))
        with open(out / "paths.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["path_id"] + [tio.fmt(t) for t in bundle.times]
        assert len(rows) == 401
        row = int(np.argmax(np.abs(np.diff(bundle.values, axis=1)).sum(axis=1)))
        assert [float(x) for x in rows[row + 1]] == [row, *bundle.values[row]]

    @pytest.mark.parametrize("process", ["compound-poisson", "poisson", "brownian", "empirical",
                                         "uniform-jump"])
    def test_paths_csv_parses_back_to_the_bundle_bit_for_bit(self, process, tmp_path, capsys):
        argv = ["simulate", *SMALL_SIM, "--process", process, "--write-paths",
                "--out", str(tmp_path)]
        assert run(argv) == 0
        ns = build_parser().parse_args(argv)
        bundle = generate_paths(_process_spec(ns), _sim_config(ns))
        with open(tmp_path / "paths.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert [int(r[0]) for r in rows] == list(range(len(bundle)))
        values = np.array([[float(x) for x in r[1:]] for r in rows])
        # the 64-bit patterns, so the sign of a zero counts
        assert np.array_equal(values.view(np.int64), bundle.values.view(np.int64))

    @pytest.mark.parametrize("p_grid", ["1024", "2,1024"])
    def test_p_grid_above_512_is_an_error(self, p_grid, capsys):
        assert run(["verify", *SMALL_SIM, "--p-grid", p_grid]) == 2
        assert "p_grid must lie in [2, 512], got 1024" in capsys.readouterr().err

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

    @pytest.mark.parametrize("cmd", ["simulate", "verify"])
    def test_triple_grid_reported(self, cmd, tmp_path, capsys):
        name = "summary.json" if cmd == "simulate" else "report.json"
        grids = {}
        for stride in (None, 5):
            out = tmp_path / f"s{stride}"
            flags = [] if stride is None else ["--stride", str(stride)]
            run([cmd, *SMALL_SIM, *flags, "--out", str(out)])
            grids[stride] = json.loads((out / name).read_text())["triple_grid"]
        assert grids[None] == {"points": 24, "stride": 1}  # full grid by default
        assert grids[5] == {"points": 6, "stride": 5}  # 0, 5, ..., 20 and 23
        assert run([cmd, *SMALL_SIM, "--stride", "0"]) == 2

    @pytest.mark.parametrize("cmd", ["simulate", "verify", "clt"])
    @pytest.mark.parametrize("flag, error", [
        ("--seed=-1", "seed must lie in [0, inf), got -1"),
        ("--stride=0", "triple_stride must lie in [1, inf), got 0"),
    ], ids=["seed", "stride"])
    def test_seed_and_stride_are_checked_before_any_path(self, cmd, flag, error, capsys):
        # --seed -1 reached numpy's "expected non-negative integer", which names
        # no flag, and --stride 0 simulated every path first
        with mock.patch.object(pipeline.sim, "generate_paths", side_effect=AssertionError):
            assert run([cmd, *SMALL_SIM, flag]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

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

    def test_config_u_grid_list_matches_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u_grid": [1, 2, 3]}))
        a, b = tmp_path / "cfg_run", tmp_path / "flag_run"
        assert run(["verify", *SMALL_SIM, "--config", str(cfg), "--out", str(a)]) == 0
        assert run(["verify", *SMALL_SIM, "--u-grid", "1,2,3", "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_config_u_grid_non_numeric_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u_grid": ["a"]}))
        assert run(["verify", *SMALL_SIM, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:")

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

    CLT_SMALL = ["--process", "compound-poisson", "--rate", "3", "--grid", "16",
                 "--paths", "300", "--seed", "2", "--u-points", "5", "--h", "0.1",
                 "--t-marks", "0.5"]

    def test_clt_config_n_list_matches_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": [1, 4]}))
        a, b = tmp_path / "cfg_run", tmp_path / "flag_run"
        assert run(["clt", *self.CLT_SMALL, "--config", str(cfg), "--out", str(a)]) == 0
        assert run(["clt", *self.CLT_SMALL, "--n", "1,4", "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    @pytest.mark.parametrize("n", [[1.5], [0], [4, -1]])
    def test_clt_config_n_must_be_positive_integers(self, n, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": n}))
        assert run(["clt", *self.CLT_SMALL, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("mark, error", [
        ("-0.5", "must lie in [0, 1]"), ("1.5", "must lie in [0, 1]"),
        ("0.5,nan", "must lie in [0, 1]"),
        ("0.01", "same on every path"), ("0", "same on every path"),
    ])
    def test_clt_t_mark_outside_the_grid_or_at_a_constant_marginal_exits_2(self, mark, error,
                                                                         tmp_path, capsys):
        # -0.5 and 1.5 tested the t=1 marginal; 0.01 and 0, before the first grid
        # step, the column of zeros, whose Anderson-Darling statistic is NaN
        out = tmp_path / "clt"
        assert run(["clt", *self.CLT_SMALL, f"--t-marks={mark}", "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith("error:") and error in printed.err
        assert not out.exists()

    def test_clt_report_is_strict_json(self, tmp_path, capsys):
        def no_constant(name):
            raise ValueError(f"{name} in a report")

        out = tmp_path / "clt"
        assert run(["clt", *self.CLT_SMALL, "--t-marks", "0.25,0.5,1", "--out", str(out)]) == 0
        for text in (read_out(capsys), (out / "report.json").read_text()):
            rep = json.loads(text, parse_constant=no_constant)
            assert list(rep["normality"]) == ["0.25", "0.5", "1"]

    @pytest.mark.parametrize("cmd", ["simulate", "verify"])
    def test_u_points_below_one_exits_2(self, cmd, tmp_path, capsys):
        # simulate wrote tail tables with no rows, verify failed with an unrelated message
        out = tmp_path / "run"
        assert run([cmd, *SMALL_SIM, "--u-points", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: u_points must lie in [1, inf), got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, error", [
        (["verify", *SMALL_SIM, "--h", "0.1,0.1000001"], "spans must differ"),
        (["verify", *SMALL_SIM, "--h", "0.1,0.1"], "spans must differ"),
        (["clt", *CLT_SMALL, "--h", "0.1,0.1"], "spans must differ"),
        (["clt", *CLT_SMALL, "--n", "4,4"], "n must not repeat"),
    ], ids=["verify-h-0.1,0.1000001", "verify-h-0.1,0.1", "clt-h-0.1,0.1", "clt-n-4,4"])
    def test_repeated_span_or_summand_count_exits_2(self, args, error, tmp_path, capsys):
        # clt --h 0.1,0.1 wrote a clt_bounds.csv with four header fields and
        # three per row; verify wrote one check or two of one label
        out = tmp_path / "run"
        assert run([*args, "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and error in printed.err
        assert not out.exists()

    def test_clt_checks_every_span(self, tmp_path, capsys):
        # the default --h 0.05,0.1: one global check per n, one module check per (n, h)
        both, alone = tmp_path / "both", tmp_path / "alone"
        small = [a for a in self.CLT_SMALL if a not in ("--h", "0.1")]
        assert run(["clt", *small, "--n", "1,4", "--out", str(both)]) == 0
        assert run(["clt", *small, "--n", "1,4", "--h", "0.1", "--out", str(alone)]) == 0
        checks = json.loads((both / "report.json").read_text())["checks"]
        assert [c["label"] for c in checks] == [
            "global_n=1", "module_n=1_h=0.05", "module_n=1_h=0.1",
            "global_n=4", "module_n=4_h=0.05", "module_n=4_h=0.1"]
        # each span's checks are the ones a run at that span alone makes
        single = {c["label"]: c for c in json.loads((alone / "report.json").read_text())["checks"]}
        assert [c for c in checks if "0.05" not in c["label"]] == list(single.values())
        header = (both / "clt_bounds.csv").read_text().splitlines()[0]
        assert header == "u,global_bound,module_bound,module_bound_h=0.1"

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


def skorotail(args, cwd, flags=()) -> subprocess.CompletedProcess:
    """``python -m skorotail`` in a fresh interpreter, with its ``flags``."""
    src = str(Path(importlib.util.find_spec("skorotail").origin).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-m", "skorotail", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


class TestConfigAsFlags:
    """A config file is read as flags before the command line's own."""

    SIM = ["--rate", "3", "--grid", "24", "--paths", "400", "--u-points", "8", "--h", "0.1"]

    @pytest.mark.parametrize("args, cfg", [
        (["bound", "k-constant"], {"alpha": None}),
        (["verify"], {"paths": [100, 200]}),
        (["verify"], {"paths": 100.7}),
        (["simulate"], {"seed": True}),
    ], ids=["null", "list", "float-for-int", "true-for-int"])
    def test_bad_value_exits_2_without_traceback(self, args, cfg, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = skorotail([*args, "--config", "cfg.json"], tmp_path)
        assert res.returncode == 2
        assert "error:" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("value", [None, {"lo": 1}])
    def test_null_or_object_is_an_error(self, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u_grid": value}))
        assert run(["conjugate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: config key 'u_grid'")

    def test_one_file_serves_verify_and_simulate(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "strict": True}))
        v = tmp_path / "v"
        assert run(["verify", *self.SIM, "--config", str(cfg), "--out", str(v)]) == 0
        rep = json.loads((v / "report.json").read_text())
        assert [c["strict"] for c in rep["checks"]] == [True, True]
        a, b = tmp_path / "cfg_run", tmp_path / "flag_run"
        assert run(["simulate", *self.SIM, "--config", str(cfg), "--out", str(a)]) == 0
        assert run(["simulate", *self.SIM, "--seed", "9", "--out", str(b)]) == 0
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    @pytest.mark.parametrize("cfg", [{"paths": False}, {"u_points": False, "seed": 3}])
    def test_false_on_a_flag_that_takes_a_value_exits_2(self, cfg, tmp_path, capsys):
        # it used to add nothing, so the run went on at the default
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run(["simulate", *self.SIM, "--config", str(tmp_path / "cfg.json")]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("error: config key ") and "takes a value" in printed.err

    def test_false_leaves_an_on_off_flag_to_the_command_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strict": False, "write_paths": False}))
        strict = {}
        for flags in ([], ["--strict"]):
            assert run(["verify", *self.SIM, "--config", str(cfg), *flags]) == 0
            strict[bool(flags)] = [c["strict"] for c in json.loads(read_out(capsys))["checks"]]
        assert strict == {False: [False, False], True: [True, True]}
        out = tmp_path / "s"
        assert run(["simulate", *self.SIM, "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "summary.json").exists() and not (out / "paths.csv").exists()

    def test_bound_config_matches_flags_and_command_line_wins(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 3, "beta": 2, "mode": "optimized"}))
        printed = {}
        for key, args in {
            "config": ["--config", str(cfg)],
            "flags": ["--alpha", "3", "--beta", "2", "--mode", "optimized"],
            "config+alpha": ["--config", str(cfg), "--alpha", "4"],
            "alpha=4 flags": ["--alpha", "4", "--beta", "2", "--mode", "optimized"],
        }.items():
            assert run(["bound", "k-constant", *args]) == 0
            printed[key] = read_out(capsys)
        assert printed["config"] == printed["flags"]
        assert printed["config+alpha"] == printed["alpha=4 flags"] != printed["flags"]


# values that a float-equality or per-column shortcut would get wrong
SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 0.1, 1.0, 1e300]
# quiet NaNs with other payloads: other bits, the same text
NAN_PAYLOADS = np.array([0x7FF8000000000001, -0x0007FFFFFFFFFFFF], dtype=np.int64).view(
    np.float64).tolist()
TEXTS = ["plain", "a,b", 'say "hi"', "(2.0, 1.0)", ""]


def table_columns(columns) -> list:
    """The table columns of ``write_csv``'s entries: a 2-d entry is its columns."""
    return [c for x in map(np.asarray, columns) for c in (x.T if x.ndim == 2 else [x])]


def reference_csv(header, columns) -> str:
    """The CSV ``write_csv`` must produce: every value through ``fmt`` on its own."""
    cols = table_columns(columns)
    lines = [",".join(map(tio._csv_field, header))]
    for i in range(cols[0].shape[0]):
        lines.append(",".join(tio.fmt(c[i]) if c.dtype.kind in "biuf"
                              else tio._csv_field(tio.fmt(c[i])) for c in cols))
    return "\n".join(lines) + "\n"


floats64 = st.one_of(st.sampled_from(SPECIAL), st.floats())
# step values: a run of one of them is a would-be run of its text
step_values = st.one_of(st.sampled_from(SPECIAL + NAN_PAYLOADS), st.floats())


def step_rows(draw, n: int, width: int, elements) -> np.ndarray:
    """``n`` rows of ``width`` values, each row in runs of random length."""
    rows = []
    for _ in range(n):
        row = []
        while len(row) < width:
            row += [draw(elements)] * draw(st.integers(1, width - len(row)))
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(n, width)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 9))

    def col(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    f64 = np.array(col(floats64), dtype=np.float64)
    columns = [
        f64,
        -f64,  # 0.0 next to -0.0, repeats across columns
        np.array(col(st.sampled_from(SPECIAL[:4])), dtype=np.float64),  # repeats within
        np.array(col(st.floats(width=32)), dtype=np.float32),
        np.array(col(st.integers(-(2**62), 2**62)), dtype=np.int64),
        np.array(col(st.booleans()), dtype=bool),
        np.array(col(st.sampled_from(TEXTS)), dtype=str),
        # a 2-d entry of step rows, and a step row split into 1-d columns
        step_rows(draw, n, draw(st.integers(1, 8)), step_values),
        *step_rows(draw, n, 3, st.sampled_from([0.0, -0.0, 1.0])).T,
        # other cells whose text looks like a float's: 0, 1 and true
        np.array(col(st.integers(0, 1)), dtype=np.int64),
        np.array(col(st.sampled_from(["0", "1", "-0", "1.0"])), dtype=str),
        np.ones(n, dtype=bool),
    ]
    order = draw(st.permutations(range(len(columns))))
    columns = [columns[j] for j in order]
    header = [f"c{j}" if j % 3 else f"c,{j}" for j in range(len(table_columns(columns)))]
    return header, columns


def test_write_json_writes_numpy_values_as_plain_json(tmp_path):
    obj = {"a": np.arange(3), "b": np.int64(4), "c": np.bool_(True), "d": np.float64(0.1),
           "e": (np.float32(0.5), np.float64(np.nan)), "f": {"g": np.array([[1.5, np.inf]])}}
    plain = {"a": [0, 1, 2], "b": 4, "c": True, "d": 0.1, "e": [0.5, float("nan")],
             "f": {"g": [[1.5, float("inf")]]}}
    tio.write_json(tmp_path / "r.json", obj)
    assert (tmp_path / "r.json").read_text() == json.dumps(plain, sort_keys=True, indent=2) + "\n"


class TestWriterMatchesPerValueFormat:
    """The writers format each distinct float once, in row blocks; the bytes
    must equal formatting every value separately."""

    @staticmethod
    def written(write, block_cells, *args) -> str:
        with TemporaryDirectory() as d, mock.patch.object(tio, "_BLOCK_CELLS", block_cells):
            out = Path(d) / "out.csv"
            write(out, *args)
            return out.read_text()

    @settings(max_examples=150)
    @given(tables(), st.integers(1, 40))
    # a row's last float and the next row's first cell: one 64-bit pattern
    @example((["a", "b", "c"], [np.zeros(2, dtype=np.int64), np.zeros((2, 2))]), 40)
    def test_write_csv(self, table, block_cells):
        header, columns = table
        got = self.written(write_csv, block_cells, header, columns)
        assert got == reference_csv(header, columns)

    @settings(max_examples=150)
    @given(st.integers(0, 6), st.integers(1, 6), st.booleans(), st.booleans(), st.booleans(),
           st.integers(1, 40), st.data())
    def test_write_matrix(self, rows, cols, single, steps, ids, block_cells, data):
        # a matrix as one 2-d entry, with a time header, alone or after path
        # ids as paths.csv is written; its rows dense or in runs
        elements = st.floats(width=32) if single else floats64
        if steps:
            m = step_rows(data.draw, rows, cols, elements if single else step_values)
        else:
            m = np.array(data.draw(st.lists(elements, min_size=rows * cols,
                                            max_size=rows * cols))).reshape(rows, cols)
        m = m.astype(np.float32 if single else np.float64)
        header = [tio.fmt(t) for t in np.linspace(0.0, 1.0, cols)]
        columns = [m]
        if ids:
            header, columns = ["path_id", *header], [np.arange(rows), m]
        got = self.written(write_csv, block_cells, header, columns)
        assert got == reference_csv(header, columns)
