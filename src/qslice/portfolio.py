"""Efficient-frontier ingestion, quantization and the selection drivers.

The frontier arrives as CSV rows of (id, expected_return, std_dev), all
values fractions in [0, 1). Rows are padded to a power of two with sentinel
entries built never to satisfy any condition (return 0, risk 2**t - 1), then
quantized to the search resolution t. Slicing runs the two-list oracle
through counting + fixed-iteration Grover; the maximum Sharpe ratio runs the
single-list oracle through adaptive search; counting runs the two-list or a
single-list oracle, depending on which thresholds are given, through
quantum counting.
"""

from __future__ import annotations

import csv
import math
import operator
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, TextIO

import numpy as np

from .oracles import ValueTable, single_list_oracle, two_list_oracle
from .search import (
    CountEstimate,
    EnumerationResult,
    GasResult,
    enumerate_solutions,
    gas,
    m_detect,
    m_exact,
    quantum_counting,
)


class FrontierFormatError(ValueError):
    """Malformed or out-of-domain frontier input."""


@dataclass(frozen=True)
class PortfolioRecord:
    id: int
    expected_return: float
    std_dev: float
    sharpe: float  # at zero risk-free rate


@dataclass(frozen=True)
class FrontierTable:
    """Validated frontier columns plus their quantized value tables."""

    ids: tuple[int, ...]
    expected_returns: tuple[float, ...]
    std_devs: tuple[float, ...]
    t: int
    padded_n: int
    returns: ValueTable
    sigmas: ValueTable

    @cached_property
    def records(self) -> tuple[PortfolioRecord, ...]:
        """One record per real row, built on first use."""
        sharpes = map(operator.truediv, self.expected_returns, self.std_devs)
        return tuple(
            map(PortfolioRecord, self.ids, self.expected_returns, self.std_devs, sharpes)
        )

    @property
    def size(self) -> int:
        return 1 << self.padded_n

    @property
    def sentinel_count(self) -> int:
        return self.size - len(self.ids)

    def is_sentinel(self, index: int) -> bool:
        return index >= len(self.ids)


def quantize(value: float, t: int) -> int:
    """round(value * 2**t) with half-up rounding, clamped to t bits.

    Quantized values are exact t-bit fractions, which is what makes the
    oracle's phase estimation exact.
    """
    return quantize_array([value], t)[0]


def quantize_array(values: Sequence[float] | np.ndarray, t: int) -> list[int]:
    """``quantize`` of every value, in one numpy pass."""
    values = np.asarray(values, dtype=float)
    outside = values[~((values >= 0.0) & (values < 1.0))]
    if outside.size:
        raise ValueError(f"value {outside[0]} outside [0, 1)")
    # the int64 cast below is exact up to a double's 53 significand bits
    if not 1 <= t <= sys.float_info.mant_dig:
        raise ValueError(f"t must lie in [1, {sys.float_info.mant_dig}]")
    scale = float(1 << t)
    return np.minimum(np.floor(values * scale + 0.5), scale - 1.0).astype(np.int64).tolist()


_HEADER = ("id", "expected_return", "std_dev")


def _parsed(cells: Sequence[str], convert) -> list:
    """``convert`` of each cell, up to the first one it rejects."""
    try:
        return list(map(convert, cells))
    except ValueError:
        pass
    values = []
    for cell in cells:
        try:
            values.append(convert(cell))
        except ValueError:
            break
    return values


def _first(bad: np.ndarray) -> int:
    """The position of the first true entry, or the length if there is none."""
    return int(bad.argmax()) if bad.any() else bad.size


def load_frontier(source: TextIO, t: int) -> FrontierTable:
    """Parse and validate frontier CSV, pad to a power of two, quantize.

    Each column is converted in one pass. A failed check raises the error
    a row-by-row reading would meet first: the earliest bad row, and on
    it the first of field count, id, return, risk, ranges and duplicates.
    """
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise FrontierFormatError("empty input") from None
    if tuple(col.strip() for col in header) != _HEADER:
        raise FrontierFormatError(
            f"line 1: expected header {','.join(_HEADER)!r}, got {','.join(header)!r}"
        )
    rows = list(reader)
    # blank rows are skipped, but still count as lines
    filled = np.fromiter(map(bool, map(str.strip, map("".join, rows))), bool, len(rows))
    lines = np.flatnonzero(filled) + 2
    if lines.size < len(rows):
        rows = [rows[line - 2] for line in lines]
    width_ok = _first(np.fromiter(map(len, rows), int, len(rows)) != 3)
    id_cells, ret_cells, std_cells = tuple(zip(*rows[:width_ok])) or ((), (), ())
    ids = _parsed(id_cells, int)
    ret_list, std_list = _parsed(ret_cells, float), _parsed(std_cells, float)
    rets, stds = np.array(ret_list, dtype=float), np.array(std_list, dtype=float)
    duplicate = len(ids)
    if len(set(ids)) < len(ids):
        seen: set[int] = set()  # set.add returns None, so the first repeat stops next()
        duplicate = next(k for k, i in enumerate(ids) if i in seen or seen.add(i))
    bad_ret = _first(~((rets >= 0.0) & (rets < 1.0)))
    bad_std = _first(~((stds > 0.0) & (stds < 1.0)))
    # (first failing row, message) per check, in the order a row is checked;
    # a check that never fails names the row where its column stopped parsing
    checks = [
        (width_ok, lambda k: f"expected 3 fields, got {len(rows[k])}"),
        (len(ids), lambda k: "field 'id' is not an integer"),
        (rets.size, lambda k: "field 'expected_return' is not a number"),
        (stds.size, lambda k: "field 'std_dev' is not a number"),
        (bad_ret, lambda k: f"field 'expected_return' must lie in [0, 1), got {ret_list[k]}"),
        (bad_std, lambda k: f"field 'std_dev' must lie in (0, 1), got {std_list[k]}"),
        (duplicate, lambda k: f"duplicate id {ids[k]}"),
    ]
    row, message = min(checks, key=lambda check: check[0])
    if row < len(rows):
        raise FrontierFormatError(f"line {lines[row]}: {message(row)}")
    if not rows:
        raise FrontierFormatError("no data rows")
    if t < 1:
        raise ValueError("t must be >= 1")

    padded_n = max(1, math.ceil(math.log2(len(rows))))
    size = 1 << padded_n
    sentinel_sigma = (1 << t) - 1
    ret_vals = quantize_array(rets, t) + [0] * (size - len(rows))
    sig_vals = quantize_array(stds, t) + [sentinel_sigma] * (size - len(rows))
    return FrontierTable(
        ids=tuple(ids),
        expected_returns=tuple(ret_list),
        std_devs=tuple(std_list),
        t=t,
        padded_n=padded_n,
        returns=ValueTable(t, ret_vals),
        sigmas=ValueTable(t, sig_vals),
    )


def sharpe_values(table: FrontierTable, risk_free_rate: float) -> ValueTable:
    """Quantized Sharpe ratios (r - rf) / sigma, rescaled into [0, 1).

    The rescaling divisor B * (1 + 2**-t), with B = (max r - rf) / min sigma
    over real rows, is computable from column extrema alone and preserves the
    argmax. Negative Sharpe ratios clamp to zero with a warning; sentinel
    rows map to zero.
    """
    if not 0.0 <= risk_free_rate < 1.0:
        raise ValueError("risk_free_rate must lie in [0, 1)")
    t = table.t
    returns = np.array(table.expected_returns)
    sigmas = np.array(table.std_devs)
    bound = (returns.max() - risk_free_rate) / sigmas.min()
    raw = (returns - risk_free_rate) / sigmas
    clamped = int(np.count_nonzero(raw < 0.0))
    if bound <= 0.0:
        values = [0] * len(raw)
    else:
        values = quantize_array(np.maximum(raw, 0.0) / (bound * (1.0 + 2.0**-t)), t)
    if clamped:
        warnings.warn(
            f"{clamped} portfolio(s) had negative Sharpe ratio and were clamped to 0",
            stacklevel=2,
        )
    values += [0] * table.sentinel_count
    return ValueTable(t, values)


@dataclass
class SliceResult:
    ids: frozenset[int]
    enumeration: EnumerationResult
    layout: dict


def slice_portfolios(
    table: FrontierTable,
    return_min: float,
    risk_max: float,
    rng: np.random.Generator,
    backend: str = "effective",
) -> SliceResult:
    """Ids with return strictly above and risk strictly below the thresholds.

    Thresholds are quantized to the table resolution, so the selection is
    exact on the quantized values; raw values within the resolving power of
    a threshold may land on either side.
    """
    s1 = quantize(return_min, table.t)
    s2 = quantize(risk_max, table.t)
    oracle = two_list_oracle(table.returns, table.sigmas, s1, s2)
    result = enumerate_solutions(oracle, rng, backend)
    ids = frozenset(table.ids[k] for k in result.indices if not table.is_sentinel(k))
    return SliceResult(ids, result, oracle.layout.to_dict())


@dataclass
class MaxSharpeResult:
    id: int
    sharpe_raw: float
    index: int
    gas: GasResult
    layout: dict


def max_sharpe(
    table: FrontierTable,
    risk_free_rate: float,
    rng: np.random.Generator,
    repetitions: int,
    backend: str = "effective",
) -> MaxSharpeResult:
    """Id of the portfolio with the largest Sharpe ratio, via adaptive search."""
    if not table.ids:
        raise ValueError("table has no real rows")
    values = sharpe_values(table, risk_free_rate)
    result = gas(values, "max", rng, repetitions, backend)
    index = result.index
    if table.is_sentinel(index):
        # sentinels share the quantized value 0; prefer a real row on ties
        index = next(
            (k for k in range(len(table.ids)) if values[k] == result.value), None
        )
        if index is None:
            raise RuntimeError(
                "adaptive search ended on a padding row that no real row ties; "
                "rerun with a larger --repeat"
            )
    layout = single_list_oracle(values, values[index]).layout.to_dict()
    return MaxSharpeResult(
        id=table.ids[index],
        sharpe_raw=(table.expected_returns[index] - risk_free_rate) / table.std_devs[index],
        index=index,
        gas=result,
        layout=layout,
    )


@dataclass
class CountResult:
    estimate: CountEstimate
    doubled: bool
    layout: dict


def count_portfolios(
    table: FrontierTable,
    return_min: float | None,
    risk_max: float | None,
    rng: np.random.Generator,
    mode: str = "exact",
    backend: str = "effective",
) -> CountResult:
    """Count the rows with return above and/or risk below the given thresholds.

    Both thresholds run the two-list oracle, one of them the single-list
    oracle. ``mode`` picks the counting width: ``exact`` (m_exact) or
    ``detect`` (m_detect), run as the register itself. Those formulas count
    accuracy bits of theta in radians, so the register falls ANGLE_BITS
    short of the accuracy they were derived for (``counting_register``), and
    the rounded count is not guaranteed to be the true one; the estimate's
    ``bound`` is that of the register. A count above half the index space is
    repeated on the doubled oracle, of which at most half is marked.
    """
    if return_min is None and risk_max is None:
        raise ValueError("counting needs a return and/or a risk threshold")
    if risk_max is None:
        oracle = single_list_oracle(table.returns, quantize(return_min, table.t), "gt")
    elif return_min is None:
        oracle = single_list_oracle(table.sigmas, quantize(risk_max, table.t), "lt")
    else:
        s1, s2 = quantize(return_min, table.t), quantize(risk_max, table.t)
        oracle = two_list_oracle(table.returns, table.sigmas, s1, s2)
    pick_m = m_exact if mode == "exact" else m_detect
    est = quantum_counting(oracle, pick_m(oracle.index_size), rng, backend)
    doubled = False
    if est.m_rounded > oracle.index_size / 2:
        oracle = oracle.doubled()
        doubled = True
        est = quantum_counting(oracle, pick_m(oracle.index_size), rng, backend)
    return CountResult(est, doubled, oracle.layout.to_dict())
