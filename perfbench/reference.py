"""Independent reference answers for the benchmark's qslice commands.

Written in numpy from qslice's documented rules; it calls no qslice code.
Values are quantized by ``min(floor(v * 2**t + 0.5), 2**t - 1)`` with
``t = ceil(log2(1 / d))``, slicing keeps rows with quantized return above
and quantized risk below the quantized thresholds, and the maximum-Sharpe
answer may be any row holding the largest quantized Sharpe value.
"""

from __future__ import annotations

import json
import math

import numpy as np


class Frontier:
    """Parsed frontier CSV: ids, returns and risks as float arrays."""

    def __init__(self, text: str):
        rows = [line.split(",") for line in text.splitlines()[1:] if line.strip()]
        self.ids = np.array([int(r[0]) for r in rows], dtype=np.int64)
        self.returns = np.array([float(r[1]) for r in rows])
        self.risks = np.array([float(r[2]) for r in rows])

    def __len__(self) -> int:
        return int(self.ids.size)


def bits_for_resolution(d: float) -> int:
    return math.ceil(math.log2(1.0 / d))


def quantize(values, t: int) -> np.ndarray:
    return np.minimum(np.floor(np.asarray(values, dtype=float) * (1 << t) + 0.5), (1 << t) - 1).astype(np.int64)


def index_bits(rows: int) -> int:
    """Index-register width of a table padded to a power of two."""
    return max(1, math.ceil(math.log2(rows)))


def slice_ids(f: Frontier, t: int, return_min: float, risk_max: float) -> list[int]:
    """Ids whose quantized return exceeds and quantized risk stays below the thresholds."""
    keep = (quantize(f.returns, t) > quantize(return_min, t)) & (
        quantize(f.risks, t) < quantize(risk_max, t)
    )
    return sorted(f.ids[keep].tolist())


def max_sharpe_ids(f: Frontier, t: int, rf: float) -> set[int]:
    """Ids holding the largest quantized Sharpe value.

    Sharpe ratios are clamped at zero and divided by ``B * (1 + 2**-t)``,
    with ``B = (max r - rf) / min sigma``, before they are quantized: the
    rescaling ``qslice.portfolio.sharpe_values`` documents.
    """
    raw = np.maximum((f.returns - rf) / f.risks, 0.0)
    bound = (f.returns.max() - rf) / f.risks.min()
    if bound <= 0.0:
        q = np.zeros(len(f), dtype=np.int64)
    else:
        q = quantize(raw / (bound * (1.0 + 2.0**-t)), t)
    return set(f.ids[q == q.max()].tolist())


def m_exact(n_bits: int) -> int:
    return math.ceil(n_bits + 0.5)


def m_detect(n_bits: int) -> int:
    return math.ceil(n_bits / 2.0 + 1.583)


def count_oracle_calls(payload: dict) -> int:
    """Oracle calls of one ``qslice count``: 2**m - 1 per counting run.

    A doubled oracle was counted twice, first on the original index
    register (one bit narrower) and then on the doubled one.
    """
    calls = (1 << payload["m_used"]) - 1
    if payload["doubled"]:
        n_bits = len(payload["qubit_layout"]["registers"]["index"]) - 1
        pick = m_exact if payload["mode"] == "exact" else m_detect
        calls += (1 << pick(n_bits)) - 1
    return calls


def count_is(payload: dict, matches: int) -> bool:
    """True when a ``qslice count`` payload reports ``matches`` undoubled matches.

    The benchmark counts only 0 or 4 matches of 8 rows, whose counting phases
    are exact, so the rounded estimate must equal the true count.
    """
    want_class = "none" if matches == 0 else "single" if matches == 1 else "multiple"
    return (
        payload["M_rounded"] == matches
        and payload["class"] == want_class
        and payload["doubled"] is False
    )


def without_backend(text: str) -> dict:
    payload = json.loads(text)
    payload.pop("backend", None)
    return payload
