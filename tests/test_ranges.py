"""One declared sweep of every numeric flag against the exit-code contract.

Each flag of each ``bound`` name and of ``kappa``, ``entropy`` and
``conjugate`` that takes a number, a number list or a grid spec takes each
value of ``VALUES``, one flag at a time from the defaults, through
``cli.run`` in this process with every warning an error.  The contract:
the exit code is 0, 2 or 3; no warning and no traceback; no nan in a
printed bound or value (the achieving-parameter column of an all-zero curve
excepted); and an exit-2 message names the flag or its parameter.  The
names that read the chaining constant's alpha and beta also take every pair
of ``VALUES`` for the two, in both modes.

Each flag that reads a table file reads, under the same contract, each
table of ``TABLE_FAULTS`` made from one it accepts (``GOOD_TABLES``), where
an exit-2 message may also name the file, and a fault of ``REJECTED`` must
exit 2.

The fields of ``ProcessSpec`` and ``SimConfig`` take the same values at
their constructors, through the flags of ``verify``, for each process, and
each accepted process generates zero paths, which reaches every sampler's
parameters: a value such as ``--paths 1e6`` is valid, and simulating it
would allocate gigabytes.
"""

import argparse
import io
import itertools
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest

from skorotail import cli, simulate

VALUES = ["0", "-1", "1e-300", "1e-15", "1e6", "1e300", "inf", "nan"]
# the parameters an error may name for a flag, besides the flag's own name
ALIASES = {"g-slope": "G", "seq-s": "s", "seq-theta": "theta", "seq-nu": "nu",
           "nu-power": "nu", "psi-power": "psi", "gap-power": "q", "sigma-h": "h",
           "delta-grid": "delta", "grid": "n grid_size", "paths": "n_paths",
           "stride": "triple_stride", "lam-max": "lam_max f", "u-grid": "u",
           "path": "times values", "g-file": "times G", "nu-file": "p nu",
           "psi-file": "grid psi", "table": "x f slopes", "matrix": "times q"}
# flags that a name reads only away from its defaults, with the flags that make it read them
CONTEXT = {"seq-nu": ["--preset=polynomial"]}
REQUIRED = {"entropy": ["--epsilon=0.1"]}
PARSER = cli.build_parser()

# Rows whose floats pass beyond the float range, or below its precision, on
# the way to the printed value, each with that value.  Most warned, and under
# -W error ended in a traceback; they run here and, in a fresh interpreter
# under -W error, in test_cli.py.
PINNED = [
    # _calibrate's -log(raw) / rate
    (["exp-envelope", "--m", "0.0016272"], "delta=1 kappa=4.2387974753829718e-129 "
     "c2=3.6392014270886754e-297 c3=2985.8492965506462 delta_in_range=true "
     "kappa_in_range=false"),
    # an infinite c3 at a rate u^(1/m) that underflowed to 0
    (["exp-envelope", "--m", "0.0016272", "--u", "0.001"], "delta=1 kappa=1 "
     "c2=3.6392014270886754e-297 c3=inf delta_in_range=false kappa_in_range=false"),
    # _decay's c * rate * scale
    (["exp-envelope", "--m", "0.0104", "--h", "0.01", "--u", "1000"], "delta=0 kappa=0 "
     "c2=5.0776773262251064e-49 c3=5.8497259467794881e+116 delta_in_range=true "
     "kappa_in_range=true"),
    # the module's calibration rates times omega
    (["exp-envelope", "--m", "0.0205", "--g-slope", "1000", "--h", "0.3", "--u", "0.001"],
     "delta=1 kappa=0.0033333333333333335 c2=1.8270834425298091e-172 c3=0 "
     "delta_in_range=false kappa_in_range=true"),
    # the module's raw bounds times omega
    (["clt-envelope", "--m", "0.001977", "--g-slope", "1000"], "delta=1 kappa=0.02 c2=0 "
     "c3=0 delta_in_range=false kappa_in_range=false"),
    # K(alpha, beta) in both modes, and the power bounds built on it, all from log K
    (["k-constant", "--alpha", "1.0001", "--beta", "50"], "inf"),
    (["k-constant", "--alpha", "1.0001", "--beta", "50", "--mode", "optimized"], "inf"),
    (["power-module", "--alpha", "1.0001", "--beta", "50", "--u", "1,10"],
     '1,1,"(1.0001, 50.0)"\n10,1,"(1.0001, 50.0)"'),
    # both factors of the closed-form K overflow, and inf / inf was nan
    (["k-constant", "--alpha", "3000", "--beta", "1e300"], "inf"),
    (["power-global", "--alpha", "3000", "--beta", "1e300", "--u", "1,10"],
     '1,1,"(3000.0, 1e+300)"\n10,1,"(3000.0, 1e+300)"'),
    # log K = 4859.77; the bound at 3.38 is 8.0127746099519193e-06 in 50 digits
    (["k-constant", "--alpha", "3000", "--beta", "2000"], "inf"),
    (["power-global", "--alpha", "3000", "--beta", "2000", "--u", "3.37,3.38,10"],
     '3.3700000000000001,1,"(3000.0, 2000.0)"\n'
     '3.3799999999999999,8.0127746099531444e-06,"(3000.0, 2000.0)"\n'
     '10,0,"(3000.0, 2000.0)"'),
    # theta^(1 - 2 beta) = theta^-3999 leaves the float range near lo, so the
    # search for theta* runs in log space
    (["k-constant", "--alpha", "3000", "--beta", "2000", "--mode", "optimized"], "inf"),
    (["power-global", "--alpha", "3000", "--beta", "2000", "--mode", "optimized",
      "--u", "3.37,10"], '3.3700000000000001,1,"(3000.0, 2000.0)"\n10,0,"(3000.0, 2000.0)"'),
    # the numerator alone overflows; K is 1.7748354781152199e+304 in 50 digits
    (["k-constant", "--alpha", "41", "--beta", "123"], "1.7748354781152185e+304"),
    # 2^((1-alpha)/(4 beta)) rounds to 1, so log K takes 1 - 2^(...) through
    # expm1; K is 8.7771378401109276e+48 in 50 digits
    (["k-constant", "--alpha", "1.0000000000000002", "--beta", "1"], "8.7771378401109602e+48"),
    # 2^((1-alpha)/(2 beta)) underflows to 0 or rounds to 1, but the optimized
    # mode reads only its log; K(1 + 2^-52, 2) is 3.6184417781839595e+82 in 80 digits
    (["k-constant", "--alpha", "3000", "--beta", "1", "--mode", "optimized"], "0"),
    (["k-constant", "--alpha", "1.0000000000000002", "--beta", "2", "--mode", "optimized"],
     "3.6184417781839581e+82"),
    (["power-global", "--alpha", "3000", "--beta", "1", "--g-slope", "2", "--mode",
      "optimized", "--u", "3,10"], '3,1,"(3000.0, 1.0)"\n10,1,"(3000.0, 1.0)"'),
    # the --nu-power table c p^m
    (["moment-module", "--nu-power", "1,300", "--u", "1,10"], "1,1,2.0\n10,1,2.0"),
    (["clt", "--nu-power", "1,300", "--u", "1,10"], "1,1,1\n10,1,1"),
    # the --psi-power table p^a
    (["min-tail-fenchel", "--psi-power", "1e300"], "value=0.5 p=1 at_edge=false"),
]


def subparsers(parser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def numeric(action) -> bool:
    """Whether a flag takes a number, a number list or a grid spec."""
    if action.type in (int, float):
        return True
    if action.type is not None or action.choices or action.nargs == 0:
        return False
    if any(words in (action.help or "") for words in ("comma list", "grid spec")):
        return True
    try:
        return bool([float(x) for x in action.default.split(",")])
    except (AttributeError, ValueError):
        return False


def values_of(action) -> list[str]:
    """Each value of VALUES as the flag's value, or in each place of a list default."""
    parts = action.default.split(",") if isinstance(action.default, str) else [None]
    if len(parts) < 2:
        return VALUES
    return [",".join(parts[:i] + [v] + parts[i + 1:]) for i in range(len(parts)) for v in VALUES]


def actions(words) -> list:
    parser = PARSER
    for w in words:
        parser = subparsers(parser)[w]
    return [a for a in parser._actions if a.option_strings[0] != "-h"]


def flags(words) -> list:
    return [(words, a) for a in actions(words) if numeric(a)]


COMMANDS = [["bound", name] for name in subparsers(subparsers(PARSER)["bound"])]
COMMANDS += [["kappa"], ["entropy"], ["conjugate"]]
SWEEP = [case for words in COMMANDS for case in flags(words)]


def names_it(message: str, key: str) -> bool:
    """Whether an error message names the flag ``key`` or one of its parameters."""
    names = {key, key.replace("-", "_"), *ALIASES.get(key, "").split()}
    return any(re.search(rf"(?<![\w.]){re.escape(n)}(?!\w)", message) for n in names)


def outcome(argv) -> tuple[int, str, str]:
    """``cli.run``'s exit code, stdout and stderr, with every warning an error.
    The run reuses PARSER: building the parser takes most of a run's time."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err), \
            mock.patch.object(cli, "build_parser", lambda: PARSER):
        warnings.simplefilter("error")
        try:
            code = cli.run(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def breach(argv, *keys):
    """How one run breaks the contract, or None; an exit-2 message must name
    one of ``keys``."""
    try:
        code, out, err = outcome(argv)
    except Exception as e:  # a traceback, a warning among them
        return f"raised {type(e).__name__}: {e}"
    if code not in (0, 2, 3):
        return f"exit {code}"
    zero_curve = all(re.fullmatch(r"[^,]+,0,nan", row) for row in out.splitlines())
    if code == 0 and (err or ("nan" in out and not zero_curve)):
        return f"printed {out!r} {err!r}"
    if code == 2 and not any(names_it(err, key) for key in keys):
        return f"exit 2 naming none of {keys}: {err!r}"
    return None


@pytest.mark.parametrize("words, action", SWEEP,
                         ids=[" ".join([*w, a.option_strings[0]]) for w, a in SWEEP])
def test_every_numeric_flag_keeps_the_contract(words, action):
    key = action.option_strings[0][2:]
    faults = {}
    for value in values_of(action):
        # the swept flag comes last, so it overrides a required one's stand-in
        argv = [*words, *REQUIRED.get(words[0], []), *CONTEXT.get(key, []), f"--{key}={value}"]
        if fault := breach(argv, key):
            faults[" ".join(argv)] = fault
    assert faults == {}


@pytest.mark.parametrize("mode", ["closed", "optimized"])
@pytest.mark.parametrize("name", ["k-constant", "power-global", "power-module"])
def test_every_alpha_beta_pair_keeps_the_contract(name, mode):
    # the one-flag sweep holds the other flag at its default, so it never
    # reaches two extreme values together
    faults = {}
    for alpha, beta in itertools.product(VALUES, VALUES):
        argv = ["bound", name, f"--alpha={alpha}", f"--beta={beta}", f"--mode={mode}"]
        if fault := breach(argv, "alpha", "beta"):
            faults[" ".join(argv)] = fault
    assert faults == {}


def test_alpha_and_beta_both_inf_is_an_error():
    # each is accepted alone (K is 0 at alpha = inf and inf at beta = inf), but
    # K has no limit where both grow
    code, out, err = outcome(["bound", "k-constant", "--alpha", "inf", "--beta", "inf"])
    assert (code, out) == (2, "") and names_it(err, "alpha") and names_it(err, "beta")


def test_the_sweep_covers_every_numeric_flag():
    # the 77 flags of the bound names, less 11 --config, 5 --out, 11 table
    # files and the 3 --mode and 1 --preset choices
    assert len([1 for w, _ in SWEEP if w[0] == "bound"]) == 46
    keys = {a.option_strings[0] for _, a in SWEEP}
    assert {"--u", "--nu-power", "--delta-grid", "--delta", "--epsilon", "--gap-power",
            "--lam-max", "--points", "--g-slope", "--psi-power"} <= keys
    assert not keys & {"--config", "--out", "--mode", "--preset", "--g-file", "--nu-file",
                       "--psi-file", "--path", "--matrix", "--table"}


def reads_a_table(action) -> bool:
    key = action.option_strings[0]
    return key not in ("--config", "--out") and "file" in key + (action.help or "")


TABLE_SWEEP = [(w, a) for w in COMMANDS for a in actions(w) if reads_a_table(a)]
# a table each file flag accepts; a --matrix file's header is its grid
GOOD_TABLES = {
    "path": "time,value\n0,0\n0.3,1\n0.6,2\n1,2\n",
    "g-file": "t,G\n0,0\n0.5,1\n1,2\n",
    "nu-file": "p,nu\n2,1\n4,1.5\n8,2\n",
    "psi-file": "p,psi\n1,1\n2,1.5\n4,2\n",
    "table": "x,f\n-1,1\n0,0\n1,1\n",
    "matrix": "0,0.5,1\n0,0.5,1\n0.5,0,0.5\n1,0.5,0\n",
}
TABLE_FAULTS = ["nan", "inf", "-inf", "1e308", "1.7e308", "repeated", "unsorted", "one row",
                "header only", "empty", "ragged"]
# the faults that leave a value that is no number, a first column that does
# not increase strictly, or no table
REJECTED = {"nan", "repeated", "unsorted", "header only", "empty", "ragged"}


def faulty_tables(key: str) -> dict[str, str]:
    """Each fault of TABLE_FAULTS put into the flag's accepted table, label ->
    text: a value (nan, +-inf) in each column's last row, a column scaled to that
    largest magnitude, a first column with a repeated or a swapped pair,
    one data row, the header alone, no text, and a row short of an entry.
    A --matrix file's columns are its header grid and its entries, which
    take a value in a symmetric pair."""
    good = [line.split(",") for line in GOOD_TABLES[key].splitlines()]
    n = len(good)
    if key == "matrix":
        columns = [[(0, c) for c in range(n - 1)],
                   [(r, c) for r in range(1, n) for c in range(n - 1)]]
        spots = [[(0, n - 2)], [(1, 1), (2, 0)]]
    else:
        columns = [[(r, c) for r in range(1, n)] for c in (0, 1)]
        spots = [[(n - 1, c)] for c in (0, 1)]
    text = lambda rows: "".join(",".join(row) + "\n" for row in rows)
    tables = {"one row": text(good[:2]), "header only": text(good[:1]), "empty": "",
              "ragged": text(row[:-1] if r == 2 else row for r, row in enumerate(good))}

    def put(label, cells, texts):
        table = [row[:] for row in good]
        for (r, c), t in zip(cells, texts):
            table[r][c] = t
        tables[label] = text(table)

    for j, (column, spot) in enumerate(zip(columns, spots)):
        for fault in TABLE_FAULTS[:3]:
            put(f"{fault} in column {j}", spot, [fault] * len(spot))
        top = max(abs(float(good[r][c])) for r, c in column)
        for fault in TABLE_FAULTS[3:5]:
            put(f"{fault} in column {j}, scaled", column,
                [repr(float(good[r][c]) * (float(fault) / top)) for r, c in column])
    (a, b), first = columns[0][:2], [good[r][c] for r, c in columns[0][:2]]
    put("repeated", [b], first[:1])
    put("unsorted", [a, b], first[::-1])
    return tables


@pytest.mark.parametrize("words, action", TABLE_SWEEP,
                         ids=[" ".join([*w, a.option_strings[0]]) for w, a in TABLE_SWEEP])
def test_every_table_flag_keeps_the_contract(words, action, tmp_path):
    key = action.option_strings[0][2:]
    table = tmp_path / "table.csv"
    argv = [*words, *REQUIRED.get(words[0], []), f"--{key}={table}"]
    table.write_text(GOOD_TABLES[key])
    assert breach(argv, key) is None and outcome(argv)[0] == 0
    faults = {}
    for label, text in faulty_tables(key).items():
        table.write_text(text)
        if fault := breach(argv, key, str(table)):
            faults[label] = fault
        elif label.split(" in column")[0] in REJECTED and outcome(argv)[0] != 2:
            faults[label] = "accepted"
    assert faults == {}


def test_the_table_sweep_covers_every_file_flag():
    # the 11 table files that the numeric sweep leaves out of the bound names
    assert len([1 for w, _ in TABLE_SWEEP if w[0] == "bound"]) == 11
    assert {(w[0], a.option_strings[0]) for w, a in TABLE_SWEEP if w[0] != "bound"} == {
        ("kappa", "--path"), ("entropy", "--matrix"), ("conjugate", "--table")}
    assert {a.option_strings[0] for w, a in TABLE_SWEEP if w[0] == "bound"} == {
        "--g-file", "--nu-file", "--psi-file"}


@pytest.mark.parametrize("args, out", [pytest.param(a, o, id=" ".join(a)) for a, o in PINNED])
def test_pinned_rows(args, out):
    assert outcome(["bound", *args]) == (0, out + "\n", "")


SIM_FLAGS = [a for _, a in flags(["verify"])]
PROCESSES = next(a.choices for a in subparsers(PARSER)["verify"]._actions
                 if a.dest == "process")


@pytest.mark.parametrize("process", PROCESSES)
def test_every_process_and_run_field_is_checked_at_its_constructor(process):
    faults = {}
    for action in SIM_FLAGS:
        key = action.option_strings[0][2:]
        for value in values_of(action):
            argv = ["verify", f"--process={process}", f"--{key}={value}"]
            with warnings.catch_warnings(), redirect_stderr(io.StringIO()):
                warnings.simplefilter("error")
                try:
                    spec, config = cli._run_inputs(PARSER.parse_args(argv))[:2]
                    simulate._generate(spec, 0, np.random.default_rng(config.seed))
                except ValueError as e:
                    if not names_it(str(e), key):
                        faults[" ".join(argv)] = str(e)
                except SystemExit:  # argparse names the flag of a value it cannot read
                    pass
    assert faults == {}
