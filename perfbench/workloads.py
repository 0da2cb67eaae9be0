"""The benchmark's workloads: seeded decks of qslice CLI operations.

A deck is a list of operations drawn from the workload seed. Each operation
carries its argv for ``qslice.cli.main`` and everything needed to judge its
output, worked out beforehand by ``reference``. A deck is made of rounds;
every round holds one operation of each class of the workload. The sizes and
target selectivities inside a class are the midpoints of equal strata of the
class's ranges, one per round in an order the seed draws, so every seed gives
the same mix of sizes and only the data, the thresholds, the risk-free rates
and the search seeds change. That keeps one seed's figures close to another's.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from frontier import frontier_csv

FIXTURE = os.path.join("fixtures", "frontier8.csv")


@dataclass
class Operation:
    label: str
    argv: list[str]
    #: True when the command's stdout is the right answer.
    check: Callable[[str], bool]
    #: Oracle calls the command reports in its stdout.
    oracle_calls: Callable[[str], int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: latency_tail_s is this percentile of operation wall time.
    tail_percentile: int
    rounds: int
    build: Callable


class Inputs:
    """Writes each operation's frontier CSV into the run's work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.files = 0

    def write(self, text: str) -> str:
        path = os.path.join(self.workdir, f"frontier{self.files:04d}.csv")
        self.files += 1
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return path


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _num(value: float) -> str:
    return repr(float(value))


def strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """The midpoints of n equal strata of [0, 1), in random order."""
    return (rng.permutation(n) + 0.5) / n


# ---------------------------------------------------------------------------
# slice-effective
# ---------------------------------------------------------------------------

#: (label, row range, resolution, match range as a share of the padded size).
#: The cost of a slice grows steeply with the match count M, so the high
#: selectivities sit on the small tables. "over-half" is above N/2 and makes
#: enumeration double the oracle; "empty" has no match at all.
SLICE_CLASSES = (
    ("empty", (2049, 4096), 0.001, (0.0, 0.0)),
    ("sparse", (2049, 4096), 0.001, (0.002, 0.009)),
    ("moderate-1k", (513, 1024), 0.005, (0.05, 0.25)),
    ("moderate-512", (257, 512), 0.01, (0.15, 0.45)),
    ("over-half", (232, 256), 0.01, (0.52, 0.9)),
)


def slice_thresholds(f: ref.Frontier, t: int, target: int, rng: np.random.Generator) -> tuple[float, float]:
    """Thresholds whose selection is the band of rows closest to ``target`` matches.

    Risk and return both rise along the frontier, so a return floor and a
    risk cap cut out a contiguous band of rows. The band starts at a random
    row; the cap is the quantized level whose match count is nearest.
    """
    qr = ref.quantize(f.returns, t)
    qs = ref.quantize(f.risks, t)
    top = (1 << t) - 1
    if target == 0:
        if rng.random() < 0.5:
            return qr.max() / (1 << t), int(rng.integers(1, top + 1)) / (1 << t)
        return int(rng.integers(0, qr.max())) / (1 << t), qs.min() / (1 << t)
    start = int(rng.integers(0, len(f) - target + 1))
    s1 = max(int(qr[start]) - 1, 0)
    counts = np.concatenate(([0], np.cumsum(np.bincount(qs[qr > s1], minlength=top + 1))))
    s2 = int(np.argmin(np.abs(counts[: top + 1] - target)))
    return s1 / (1 << t), s2 / (1 << t)


def slice_deck(rng: np.random.Generator, rounds: int, inputs: Inputs, effective) -> list[Operation]:
    draws = [(strata(rng, rounds), strata(rng, rounds)) for _ in SLICE_CLASSES]
    ops = []
    for r in range(rounds):
        for (label, (lo, hi), resolution, (share_lo, share_hi)), (u_rows, u_share) in zip(SLICE_CLASSES, draws):
            rows = lo + int(u_rows[r] * (hi - lo + 1))
            text = frontier_csv(rows, _seed(rng))
            f = ref.Frontier(text)
            t = ref.bits_for_resolution(resolution)
            padded = 1 << ref.index_bits(rows)
            target = min(rows, round((share_lo + (share_hi - share_lo) * u_share[r]) * padded))
            return_min, risk_max = slice_thresholds(f, t, target, rng)
            want = ref.slice_ids(f, t, return_min, risk_max)
            argv = [
                "slice", "--input", inputs.write(text), "--resolution", _num(resolution),
                "--return-min", _num(return_min), "--risk-max", _num(risk_max), "--seed", str(_seed(rng)),
            ]
            ops.append(Operation(
                f"slice {label} rows={rows} M={len(want)}",
                argv,
                lambda out, want=want: json.loads(out)["selected_ids"] == want,
                lambda out: json.loads(out)["oracle_calls"],
            ))
    return ops


# ---------------------------------------------------------------------------
# max-sharpe-effective
# ---------------------------------------------------------------------------

#: Rows of the max-Sharpe frontiers run log-uniformly over 2**8 .. 2**13.
MAX_SHARPE_LOG2_ROWS = (8.0, 13.0)

#: Operations per max-Sharpe round.
MAX_SHARPE_PER_ROUND = 4

MAX_SHARPE_REPEAT = 5


def max_sharpe_op(text: str, path: str, resolution: float, repeat: int, rf: float,
                  seed: str, backend: str, label: str) -> Operation:
    want = ref.max_sharpe_ids(ref.Frontier(text), ref.bits_for_resolution(resolution), rf)
    argv = [
        "max-sharpe", "--input", path, "--resolution", _num(resolution), "--repeat", str(repeat),
        "--rf", _num(rf), "--seed", seed, "--backend", backend,
    ]
    return Operation(
        label,
        argv,
        lambda out: json.loads(out)["id"] in want,
        lambda out: json.loads(out)["oracle_calls_total"],
    )


def _risk_free_rate(text: str, rng: np.random.Generator) -> float:
    # below the smallest return, so no Sharpe ratio is negative
    return round(float(rng.uniform(0.0, 0.8)) * float(ref.Frontier(text).returns.min()), 4)


def max_sharpe_deck(rng: np.random.Generator, rounds: int, inputs: Inputs, effective) -> list[Operation]:
    lo, hi = MAX_SHARPE_LOG2_ROWS
    ops = []
    for u in strata(rng, rounds * MAX_SHARPE_PER_ROUND):
        rows = int(2 ** (lo + (hi - lo) * u))
        text = frontier_csv(rows, _seed(rng))
        rf = _risk_free_rate(text, rng)
        ops.append(max_sharpe_op(
            text, inputs.write(text), 0.01, MAX_SHARPE_REPEAT, rf, str(_seed(rng)), "effective",
            f"max-sharpe rows={rows} rf={rf}",
        ))
    return ops


# ---------------------------------------------------------------------------
# dense-small
# ---------------------------------------------------------------------------

def count_threshold(f: ref.Frontier, t: int, rng: np.random.Generator) -> tuple[str, float, int]:
    """A single threshold that matches 0 or 4 of the 8 rows.

    Those counts have exact counting phases at 8 rows, so the count never
    takes the doubled path, whose 18- and 20-qubit counting would dwarf the
    rest of the deck. Returns the flag, its value and the match count.
    """
    qr = ref.quantize(f.returns, t)
    qs = ref.quantize(f.risks, t)
    flags = ["--return-min", "--risk-max"]
    rng.shuffle(flags)
    if rng.random() < 0.5:
        for flag in flags:
            if flag == "--return-min" and qr[3] < qr[4]:
                return flag, qr[3] / (1 << t), 4
            if flag == "--risk-max" and qs[3] < qs[4]:
                return flag, qs[4] / (1 << t), 4
    if flags[0] == "--return-min":
        return flags[0], qr.max() / (1 << t), 0
    return flags[0], qs.min() / (1 << t), 0


#: One dense round: (command, resolution, repeat or counting mode).
#: Resolutions 0.1 and 0.05 give 4 and 5 value bits: 12 and 14 qubits for
#: max-sharpe, 16 and 18 with counting's register. The 14-qubit max-sharpe at
#: --repeat 1 appears twice so that the median operation falls inside one
#: kind of operation, not between two.
DENSE_ROUND = (
    ("count", 0.1, "exact"),
    ("count", 0.1, "detect"),
    ("max-sharpe", 0.1, 1),
    ("max-sharpe", 0.1, 2),
    ("max-sharpe", 0.05, 1),
    ("max-sharpe", 0.05, 1),
    ("max-sharpe", 0.05, 2),
    ("count", 0.05, "exact"),
    ("count", 0.05, "detect"),
)


def dense_deck(rng: np.random.Generator, rounds: int, inputs: Inputs,
               effective: Callable[[list[str]], str]) -> list[Operation]:
    """Dense operations, each checked against the reference and the effective backend.

    A dense max-Sharpe id must hold the largest quantized Sharpe value and a
    dense count must report the match count of the reference. ``effective``
    runs an argv through the CLI and returns its stdout; a dense operation is
    right only when its output also equals that of the same command on the
    effective backend, ``backend`` key aside.
    """
    with open(FIXTURE, encoding="utf-8") as handle:
        fixture = handle.read()
    ops = []
    for _ in range(rounds):
        for command, resolution, variant in DENSE_ROUND:
            if rng.random() < 0.5:
                text, path, source = fixture, FIXTURE, "fixture"
            else:
                text = frontier_csv(8, _seed(rng))
                path, source = inputs.write(text), "seeded"
            seed = str(_seed(rng))
            if command == "max-sharpe":
                op = max_sharpe_op(
                    text, path, resolution, variant, _risk_free_rate(text, rng), seed, "dense",
                    f"dense max-sharpe {source} res={resolution} repeat={variant}",
                )
            else:
                flag, value, matches = count_threshold(
                    ref.Frontier(text), ref.bits_for_resolution(resolution), rng
                )
                op = Operation(
                    f"dense count {source} res={resolution} {variant} M={matches}",
                    ["count", "--input", path, "--resolution", _num(resolution), flag, _num(value),
                     "--mode", variant, "--seed", seed, "--backend", "dense"],
                    lambda out, matches=matches: ref.count_is(json.loads(out), matches),
                    lambda out: ref.count_oracle_calls(json.loads(out)),
                )
            try:
                want = ref.without_backend(effective(op.argv[:-1] + ["effective"]))
            except ValueError:  # no JSON: the effective run failed, so no answer is right
                want = None
            op.check = lambda out, inner=op.check, want=want: (
                ref.without_backend(out) == want and inner(out)
            )
            ops.append(op)
    return ops


WORKLOADS = {
    "slice-effective": Workload(
        "slice-effective",
        "qslice slice, effective backend, 2^8-2^12 rows, empty/sparse/moderate/over-N/2 "
        "matches: enumeration, Grover steps, counting, CSV ingestion; tail=p95",
        95, 20, slice_deck,
    ),
    "max-sharpe-effective": Workload(
        "max-sharpe-effective",
        "qslice max-sharpe --repeat 5, effective backend, 2^8-2^13 rows, varied --rf: "
        "hundreds of short-lived single-list oracles per query; tail=p90",
        90, 10, max_sharpe_deck,
    ),
    "dense-small": Workload(
        "dense-small",
        "dense max-sharpe and count on 8-row frontiers at 12-18 qubits, outputs equal to "
        "the effective backend: gate kernel and circuit building; tail=p75",
        75, 2, dense_deck,
    ),
}


def build_deck(workload: Workload, seed: int, inputs: Inputs, effective: Callable[[list[str]], str]) -> list[Operation]:
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload.name)])
    return workload.build(rng, workload.rounds, inputs, effective)
