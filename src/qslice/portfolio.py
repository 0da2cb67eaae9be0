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
import warnings
from dataclasses import dataclass
from typing import TextIO

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
    """Validated frontier rows plus their quantized value tables."""

    records: tuple[PortfolioRecord, ...]
    t: int
    padded_n: int
    returns: ValueTable
    sigmas: ValueTable

    @property
    def size(self) -> int:
        return 1 << self.padded_n

    @property
    def sentinel_count(self) -> int:
        return self.size - len(self.records)

    def is_sentinel(self, index: int) -> bool:
        return index >= len(self.records)


def quantize(value: float, t: int) -> int:
    """round(value * 2**t) with half-up rounding, clamped to t bits.

    Quantized values are exact t-bit fractions, which is what makes the
    oracle's phase estimation exact.
    """
    if not 0.0 <= value < 1.0:
        raise ValueError(f"value {value} outside [0, 1)")
    if t < 1:
        raise ValueError("t must be >= 1")
    return min(int(math.floor(value * (1 << t) + 0.5)), (1 << t) - 1)


_HEADER = ("id", "expected_return", "std_dev")


def load_frontier(source: TextIO, t: int) -> FrontierTable:
    """Parse and validate frontier CSV, pad to a power of two, quantize."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise FrontierFormatError("empty input") from None
    if tuple(col.strip() for col in header) != _HEADER:
        raise FrontierFormatError(
            f"line 1: expected header {','.join(_HEADER)!r}, got {','.join(header)!r}"
        )
    records: list[PortfolioRecord] = []
    seen_ids: set[int] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise FrontierFormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
        try:
            row_id = int(row[0])
        except ValueError:
            raise FrontierFormatError(f"line {lineno}: field 'id' is not an integer") from None
        try:
            ret = float(row[1])
        except ValueError:
            raise FrontierFormatError(
                f"line {lineno}: field 'expected_return' is not a number"
            ) from None
        try:
            std = float(row[2])
        except ValueError:
            raise FrontierFormatError(
                f"line {lineno}: field 'std_dev' is not a number"
            ) from None
        if not 0.0 <= ret < 1.0:
            raise FrontierFormatError(
                f"line {lineno}: field 'expected_return' must lie in [0, 1), got {ret}"
            )
        if not 0.0 < std < 1.0:
            raise FrontierFormatError(
                f"line {lineno}: field 'std_dev' must lie in (0, 1), got {std}"
            )
        if row_id in seen_ids:
            raise FrontierFormatError(f"line {lineno}: duplicate id {row_id}")
        seen_ids.add(row_id)
        records.append(PortfolioRecord(row_id, ret, std, ret / std))
    if not records:
        raise FrontierFormatError("no data rows")
    if t < 1:
        raise ValueError("t must be >= 1")

    padded_n = max(1, math.ceil(math.log2(len(records))))
    size = 1 << padded_n
    sentinel_sigma = (1 << t) - 1
    ret_vals = [quantize(r.expected_return, t) for r in records]
    sig_vals = [quantize(r.std_dev, t) for r in records]
    ret_vals += [0] * (size - len(records))
    sig_vals += [sentinel_sigma] * (size - len(records))
    return FrontierTable(
        records=tuple(records),
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
    records = table.records
    bound = (max(r.expected_return for r in records) - risk_free_rate) / min(
        r.std_dev for r in records
    )
    values: list[int] = []
    clamped = 0
    for rec in records:
        raw = (rec.expected_return - risk_free_rate) / rec.std_dev
        if raw < 0.0:
            clamped += 1
            raw = 0.0
        if bound <= 0.0:
            values.append(0)
        else:
            values.append(quantize(raw / (bound * (1.0 + 2.0**-t)), t))
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
    ids = frozenset(
        table.records[k].id for k in result.indices if not table.is_sentinel(k)
    )
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
    if not table.records:
        raise ValueError("table has no real rows")
    values = sharpe_values(table, risk_free_rate)
    result = gas(values, "max", rng, repetitions, backend)
    index = result.index
    if table.is_sentinel(index):
        # sentinels share the quantized value 0; prefer a real row on ties
        index = next(
            k for k in range(len(table.records)) if values[k] == result.value
        )
    rec = table.records[index]
    layout = single_list_oracle(values, values[index]).layout.to_dict()
    return MaxSharpeResult(
        id=rec.id,
        sharpe_raw=(rec.expected_return - risk_free_rate) / rec.std_dev,
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
    ``detect`` (m_detect). A count above half the index space is repeated on
    the doubled oracle, of which at most half is marked.
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
