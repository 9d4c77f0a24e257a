"""The README's library quickstart and command lines run as written."""

import re
import shlex
import warnings
from pathlib import Path

import pytest

from doublelinear.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_block_runs():
    text = README.read_text()
    section = text[text.index("## Library quickstart") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "monte_carlo_gain_loss" in block and "assert report.certified" in block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, str(README), "exec"), {"__name__": "readme_quickstart"})


def _command_lines():
    text = README.read_text()
    section = text[text.index("## Command line") :]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("doublelinear ")]


def test_every_command_has_an_example():
    assert sorted({line.split()[1] for line in _command_lines()}) == [
        "analyze", "backtest", "simulate", "verify-rpe", "weights",
    ]


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_runs(tmp_path, monkeypatch, capsys, line):
    monkeypatch.delenv("DOUBLELINEAR_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    # a small series, long enough for the ma:20 example
    rows = "".join(f"{k},{100 + k % 5}\n" for k in range(1, 61))
    (tmp_path / "prices.csv").write_text("timestamp,price\n" + rows)
    code = main(shlex.split(line)[1:])
    err = capsys.readouterr().err
    assert code == 0, err
