"""The dense backend against the effective one, at the CLI.

Each example runs one command in this process through ``cli.main`` on both
backends and requires the same exit code and the same stdout, the JSON's
``backend`` key aside. The dense backend simulates every gate of the oracle
circuit, so this checks the effective backend's draws, counts and layouts
against the gate-level reference end to end.

Example counts, the seed and the deadline are fixed: each test draws its
examples from one fixed seed (``derandomize``), with no deadline, and the
three together take 3-4 s, nearly all of it dense simulation of up to 21
qubits. Shrinking is off, so a failing example is reported as drawn.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qslice.cli import main


def frontiers(rows: int):
    """``rows`` distinct ids, each with a return and a risk in thousandths."""
    return st.tuples(
        st.lists(st.integers(0, 10**6), min_size=rows, max_size=rows, unique=True),
        st.lists(st.integers(0, 999), min_size=rows, max_size=rows),
        st.lists(st.integers(1, 999), min_size=rows, max_size=rows),
    )


#: Shrinking a failing example would rerun dense simulations for minutes.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def thousandths(low: int, high: int):
    """Fractions low / 1000 ... high / 1000, as command-line text."""
    return st.integers(low, high).map(lambda v: str(v / 1000))


seeds = st.integers(0, 2**32 - 1).map(str)


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def without_backend(code: int, out: str):
    if code != 0:
        return code, out
    payload = json.loads(out)
    assert payload.pop("backend") in ("dense", "effective")
    return code, payload


def assert_backends_agree(frontier, argv: list[str]) -> None:
    ids, returns, risks = frontier
    rows = "".join(f"{i},{r / 1000},{s / 1000}\n" for i, r, s in zip(ids, returns, risks))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "frontier.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("id,expected_return,std_dev\n" + rows)
        command = [argv[0], "--input", path, *argv[1:]]
        dense = without_backend(*run(command + ["--backend", "dense"]))
        effective = without_backend(*run(command + ["--backend", "effective"]))
    assert dense == effective


@settings(max_examples=6, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(frontiers(8), st.integers(1, 2), st.sampled_from(["0", "0.05", "0.2"]), seeds)
def test_max_sharpe_prints_the_same_on_both_backends(frontier, repeat, rf, seed):
    assert_backends_agree(
        frontier, ["max-sharpe", "--repeat", str(repeat), "--rf", rf, "--seed", seed]
    )


@settings(max_examples=3, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(frontiers(8), st.sampled_from(["--return-min", "--risk-max"]), thousandths(0, 999),
       st.sampled_from(["exact", "detect"]), seeds)
def test_count_prints_the_same_on_both_backends(frontier, flag, threshold, mode, seed):
    # one threshold: the two-list oracle at the default t = 7 exceeds the dense cap
    assert_backends_agree(frontier, ["count", flag, threshold, "--mode", mode, "--seed", seed])


@settings(max_examples=3, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(frontiers(4), st.sampled_from(["0.2", "0.3", "0.5"]), thousandths(0, 499),
       thousandths(500, 999), seeds)
def test_slice_prints_the_same_on_both_backends(frontier, resolution, return_min, risk_max, seed):
    # 4 rows at t <= 3: the two-list oracle takes at most 19 qubits, and 21
    # doubled; a low return and a high risk threshold leave rows to select
    assert_backends_agree(frontier, [
        "slice", "--resolution", resolution, "--return-min", return_min,
        "--risk-max", risk_max, "--seed", seed,
    ])
