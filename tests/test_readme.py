"""Every example in README.md runs: each ``skorotail ...`` line of a fenced
block through ``cli.run`` and each fenced python block through ``exec``, in a
fresh directory holding the input files the examples read, with every
warning an error."""

import argparse
import io
import re
import shlex
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from skorotail import cli

README = Path(__file__).resolve().parents[1] / "README.md"
# language tag and body of each fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
COMMANDS = [shlex.split(line, comments=True)[1:] for lang, body in BLOCKS if lang != "python"
            for line in body.splitlines() if line.startswith("skorotail ")]
SNIPPETS = [body for lang, body in BLOCKS if lang == "python"]
# the input files the examples name, as a two-jump step path
INPUTS = {"my_path.csv": "time,value\n0,0\n0.3,1\n0.6,2\n1,2\n"}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield tmp_path


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_example_exits_0(argv, workdir):
    with redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0


@pytest.mark.parametrize("snippet", [pytest.param(s, id=f"block {i}")
                                     for i, s in enumerate(SNIPPETS, 1)])
def test_python_example_runs(snippet, workdir):
    exec(compile(snippet, str(README), "exec"), {})


def test_every_command_has_an_example():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) <= {argv[0] for argv in COMMANDS}
    assert SNIPPETS
