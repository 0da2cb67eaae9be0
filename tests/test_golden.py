"""Golden stdout of the effective-backend CLI, which pins its random streams.

Every case runs ``qslice slice | max-sharpe | count`` in process and compares
stdout byte for byte with ``golden_stdout.json``. The cases cover
``fixtures/frontier8.csv`` and a 1000-row frontier generated here from a
fixed seed, each at three CLI seeds. A change that alters which numbers a
search draws, which index it measures or how many oracle calls it charges
fails here; such a change must be deliberate, stated in CHANGES.md, and the
goldens rewritten with ``PYTHONPATH=src python tests/test_golden.py --write``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qslice.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_stdout.json"
FIXTURE = str(HERE.parent / "fixtures" / "frontier8.csv")

SEEDS = (0, 7, 201)
BIG_ROWS = 1000
BIG_SEED = 1000

#: Per frontier and case label: the CLI arguments besides input and seed. The
#: wide cases mark more than half the rows, so their oracles are doubled.
COMMANDS = {
    "frontier8": {
        "slice": ("slice", "--return-min", "0.12", "--risk-max", "0.30"),
        "slice-wide": ("slice", "--return-min", "0.0", "--risk-max", "0.99"),
        "max-sharpe": ("max-sharpe", "--repeat", "3"),
        "count": ("count", "--return-min", "0.10", "--risk-max", "0.25"),
        "count-wide": ("count", "--risk-max", "0.99"),
    },
    "frontier1000": {
        "slice": ("slice", "--return-min", "0.25", "--risk-max", "0.30"),
        "slice-wide": ("slice", "--return-min", "0.05", "--risk-max", "0.55"),
        "max-sharpe": ("max-sharpe", "--repeat", "3", "--rf", "0.01"),
        "count": ("count", "--return-min", "0.20", "--risk-max", "0.40"),
    },
}


def write_big_frontier(path: Path) -> None:
    """A seeded frontier-like CSV: risk uniform, return growing with its square root."""
    rng = np.random.default_rng(BIG_SEED)
    sigma = rng.uniform(0.03, 0.6, BIG_ROWS)
    ret = 0.6 * np.sqrt(sigma) * rng.uniform(0.4, 1.0, BIG_ROWS)
    lines = ["id,expected_return,std_dev"]
    lines += [f"{i},{r:.6f},{s:.6f}" for i, (r, s) in enumerate(zip(ret, sigma))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cases():
    for frontier, commands in COMMANDS.items():
        for label, command in commands.items():
            for seed in SEEDS:
                yield f"{frontier} {label} seed={seed}", frontier, command, seed


def run_case(frontier: str, command: tuple, seed: int, paths: dict) -> str:
    """One CLI run's stdout."""
    argv = [*command, "--input", paths[frontier], "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    big = tmp_path_factory.mktemp("golden") / "frontier1000.csv"
    write_big_frontier(big)
    return {"frontier8": FIXTURE, "frontier1000": str(big)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, *_ in cases())


@pytest.mark.parametrize("name,frontier,command,seed", list(cases()), ids=[c[0] for c in cases()])
def test_effective_stdout_matches_golden(name, frontier, command, seed, paths, golden):
    assert run_case(frontier, command, seed, paths) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        big = Path(tmp) / "frontier1000.csv"
        write_big_frontier(big)
        paths = {"frontier8": FIXTURE, "frontier1000": str(big)}
        result = {name: run_case(f, c, s, paths) for name, f, c, s in cases()}
    GOLDEN_PATH.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(result)} cases to {GOLDEN_PATH}")
