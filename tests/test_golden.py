"""Golden stdout of the CLI on both backends, which pins their random streams.

Every case runs ``qslice slice | max-sharpe | count`` in process and compares
stdout byte for byte with ``golden_stdout.json``. The effective cases cover
``fixtures/frontier8.csv`` and a 1000-row and a 300-row frontier generated
here from fixed seeds, the dense cases the fixture at ``--resolution 0.1``;
each runs at three CLI seeds. The 300 rows pad to 2^9 indices, an odd width,
where the stepped amplitudes of an oracle with no marked entry drift by an
ulp. A change that alters which numbers a search draws, which index it
measures or how many oracle calls it charges fails here; such a change must
be deliberate, stated in CHANGES.md, and the goldens rewritten with
``PYTHONPATH=src python tests/test_golden.py --write``. The writer prints
each case that moved with the dotted JSON fields that changed in it, and
warns on a line of its own when a selection moved: ``selected_ids``, ``id``
or a top-level ``M_rounded``.
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
#: The frontiers generated here, by name: (rows, generator seed).
GENERATED = {"frontier1000": (1000, 1000), "frontier300": (300, 300)}

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
    "frontier300": {
        "max-sharpe": ("max-sharpe", "--repeat", "5"),
    },
}

DENSE = ("--resolution", "0.1", "--backend", "dense")

#: The dense cases, keyed like ``COMMANDS``. Three of the eight rows have
#: risk below 0.2, a count the paper-width register cannot round exactly;
#: all eight have risk below 0.99, so that count is repeated doubled.
DENSE_COMMANDS = {
    "frontier8": {
        "dense max-sharpe": ("max-sharpe", "--repeat", "2", *DENSE),
        "dense count-exact": ("count", "--risk-max", "0.2", "--mode", "exact", *DENSE),
        "dense count-detect": ("count", "--risk-max", "0.2", "--mode", "detect", *DENSE),
        "dense count-wide": ("count", "--risk-max", "0.99", *DENSE),
    },
}


def write_frontier(path: Path, rows: int, seed: int) -> None:
    """A seeded frontier-like CSV: risk uniform, return growing with its square root."""
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.03, 0.6, rows)
    ret = 0.6 * np.sqrt(sigma) * rng.uniform(0.4, 1.0, rows)
    lines = ["id,expected_return,std_dev"]
    lines += [f"{i},{r:.6f},{s:.6f}" for i, (r, s) in enumerate(zip(ret, sigma))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cases(tables=(COMMANDS, DENSE_COMMANDS)):
    for table in tables:
        for frontier, commands in table.items():
            for label, command in commands.items():
                for seed in SEEDS:
                    yield f"{frontier} {label} seed={seed}", frontier, command, seed


EFFECTIVE_CASES = list(cases((COMMANDS,)))
DENSE_CASES = list(cases((DENSE_COMMANDS,)))


def run_case(frontier: str, command: tuple, seed: int, paths: dict) -> str:
    """One CLI run's stdout."""
    argv = [*command, "--input", paths[frontier], "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def generated_paths(directory: Path) -> dict:
    """Every frontier by name, the generated ones written into ``directory``."""
    paths = {"frontier8": FIXTURE}
    for name, (rows, seed) in GENERATED.items():
        write_frontier(directory / f"{name}.csv", rows, seed)
        paths[name] = str(directory / f"{name}.csv")
    return paths


#: Fields whose move changes what a command selects or counts, not only how.
SELECTION_FIELDS = ("selected_ids", "id", "M_rounded")

#: Stands for the value of a key that one payload lacks.
ABSENT = object()


def moved_fields(old, new, prefix: str = "") -> list[str]:
    """The dotted names of the fields in which two parsed JSON payloads differ.

    Objects are compared key by key; a list or a scalar is one field, and a
    key present on one side only is a field that moved.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        return [
            name
            for key in sorted(old.keys() | new.keys())
            for name in moved_fields(old.get(key, ABSENT), new.get(key, ABSENT), f"{prefix}{key}.")
        ]
    return [prefix[:-1] or "stdout"] if old != new else []


def report_moves(old: dict, new: dict) -> list[str]:
    """One line per case added, removed or moved from ``old`` to ``new``
    (stdout by case name), and a warning line after each moved selection."""
    lines = [f"removed: {name}" for name in sorted(old.keys() - new.keys())]
    lines += [f"added: {name}" for name in sorted(new.keys() - old.keys())]
    for name in sorted(old.keys() & new.keys()):
        try:
            fields = moved_fields(json.loads(old[name]), json.loads(new[name]))
        except ValueError:  # not one JSON object
            fields = ["stdout"] if old[name] != new[name] else []
        if fields:
            lines.append(f"moved: {name}: {', '.join(fields)}")
        selections = [field for field in fields if field in SELECTION_FIELDS]
        if selections:
            lines.append(f"WARNING: {name}: selection moved: {', '.join(selections)}")
    return lines


def test_the_writer_names_each_moved_field():
    old = {
        "a": '{"count_estimate": {"b": 1, "m": 5}, "oracle_calls": 9, "selected_ids": [1]}\n',
        "b": '{"M_rounded": 2, "id": 4}\n',
        "c": "text\n",
        "gone": "{}\n",
    }
    new = {
        "a": '{"count_estimate": {"b": 2, "m": 5}, "oracle_calls": 8, "selected_ids": [1], "x": 0}\n',
        "b": '{"M_rounded": 3, "id": 4}\n',
        "c": "other\n",
        "new": "{}\n",
    }
    assert report_moves(old, new) == [
        "removed: gone",
        "added: new",
        "moved: a: count_estimate.b, oracle_calls, x",
        "moved: b: M_rounded",
        "WARNING: b: selection moved: M_rounded",
        "moved: c: stdout",
    ]
    # a nested M_rounded is slice's estimate, not what slice selects
    estimates = ({"s": '{"count_estimate": {"M_rounded": 1}}'}, {"s": '{"count_estimate": {"M_rounded": 2}}'})
    assert report_moves(*estimates) == ["moved: s: count_estimate.M_rounded"]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return generated_paths(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, *_ in cases())


@pytest.mark.parametrize(
    "name,frontier,command,seed", EFFECTIVE_CASES, ids=[c[0] for c in EFFECTIVE_CASES]
)
def test_effective_stdout_matches_golden(name, frontier, command, seed, paths, golden):
    assert run_case(frontier, command, seed, paths) == golden[name]


@pytest.mark.parametrize(
    "name,frontier,command,seed", DENSE_CASES, ids=[c[0] for c in DENSE_CASES]
)
def test_dense_stdout_matches_golden(name, frontier, command, seed, paths, golden):
    assert run_case(frontier, command, seed, paths) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = generated_paths(Path(tmp))
        result = {name: run_case(f, c, s, paths) for name, f, c, s in cases()}
    previous = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
    for line in report_moves(previous, result):
        print(line)
    GOLDEN_PATH.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(result)} cases to {GOLDEN_PATH}")
