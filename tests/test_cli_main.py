import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qslice import cli
from qslice.cli import MAX_REPEAT, main

from conftest import FIXTURE_PATH

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("resolution", ["1e-20", "1e-320"])
def test_resolution_finer_than_a_double_is_one_error_line(capsys, resolution):
    # 1e-20 needs 67 comparator bits; 1 / 1e-320 overflows to inf
    code = main([
        "slice", "--input", FIXTURE_PATH, "--resolution", resolution,
        "--return-min", "0.1", "--risk-max", "0.3",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "resolution" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_repeat_is_refused_before_the_input_is_read(capsys, tmp_path):
    code = main(["max-sharpe", "--input", str(tmp_path / "missing.csv"), "--repeat", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --repeat must be >= 1"]


@pytest.mark.parametrize("command", ["slice", "count"])
@pytest.mark.parametrize("flag", ["--return-min", "--risk-max"])
@pytest.mark.parametrize("value", ["1", "-0.01", "nan"])
def test_thresholds_are_refused_before_the_input_is_read(capsys, tmp_path, command, flag, value):
    other = "--risk-max" if flag == "--return-min" else "--return-min"
    code = main([command, "--input", str(tmp_path / "missing.csv"), f"{flag}={value}", other, "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {flag} must lie in [0, 1)"]


@pytest.mark.parametrize("repeat", [str(MAX_REPEAT + 1), "100000000000000000000"])
def test_repeat_above_the_maximum_is_one_error_line(capsys, repeat):
    # refused before the input is read: a run of that many repetitions never ends
    code = main(["max-sharpe", "--input", FIXTURE_PATH, "--repeat", repeat])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --repeat must be <= {MAX_REPEAT}"]


# Counts argparse parsers (subparsers included) built by the import and by
# each of three main calls: a slice, a usage error and a count.
PARSER_PROBE = """
import argparse, contextlib, io, json, sys

built = []
init = argparse.ArgumentParser.__init__


def counting_init(self, *args, **kwargs):
    built.append(type(self).__name__)
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting_init
import qslice.cli

fixture = sys.argv[1]
counts = [len(built)]
for argv in (
    ["slice", "--input", fixture, "--return-min", "0.12", "--risk-max", "0.30"],
    ["slice", "--input", fixture, "--no-such-flag"],
    ["count", "--input", fixture, "--return-min", "0.12"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            qslice.cli.main(argv)
        except SystemExit:
            pass
    counts.append(len(built))
print(json.dumps(counts))
"""


def test_parser_is_built_once_on_the_first_main_call():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", PARSER_PROBE, FIXTURE_PATH],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    after_import, after_slice, after_usage_error, after_count = json.loads(out)
    assert after_import == 0
    assert after_slice > 0
    assert after_usage_error == after_slice
    assert after_count == after_slice


def test_compare_above_the_dense_cap_builds_no_circuit(capsys, monkeypatch):
    def builder(n):
        raise AssertionError("a comparator circuit was built above the dense cap")

    for name in ("gt_circuit", "lt_circuit", "eq_circuit"):
        monkeypatch.setattr(cli, name, builder)
    code = main(["compare", "100000", "0", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: 200001 qubits exceeds the dense cap of 26"]
