import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qslice.cli import main

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
