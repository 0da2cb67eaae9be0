"""Efficient-frontier ingestion, quantization and the selection drivers.

The frontier arrives as CSV rows of (id, expected_return, std_dev), all
values fractions in [0, 1). Rows are padded to a power of two with sentinel
entries built never to satisfy any condition (return 0, risk 2**t - 1), then
quantized to the search resolution t. Slicing runs the two-list oracle
through counting + fixed-iteration Grover; the maximum Sharpe ratio runs the
single-list oracle through adaptive search; counting runs the two-list or a
single-list oracle, depending on which thresholds are given, through
quantum counting. Slicing and counting share one counting routine,
``search.count_solutions``, and differ only in its width and sample count.
"""

from __future__ import annotations

import csv
import io
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
    count_solutions,
    enumerate_solutions,
    gas,
    m_detect,
    m_exact,
)


class FrontierFormatError(ValueError):
    """Malformed or out-of-domain frontier input."""


@dataclass(frozen=True)
class PortfolioRecord:
    id: int
    expected_return: float
    std_dev: float
    sharpe: float  # at zero risk-free rate


@dataclass(frozen=True, eq=False)
class FrontierTable:
    """Validated frontier columns as read-only arrays, plus their quantized value tables."""

    ids: np.ndarray  # int64, or an object column of Python ints if one lies outside int64
    expected_returns: np.ndarray
    std_devs: np.ndarray
    t: int
    padded_n: int
    returns: ValueTable
    sigmas: ValueTable

    @cached_property
    def records(self) -> tuple[PortfolioRecord, ...]:
        """One record per real row, built on first use."""
        rets, stds = self.expected_returns.tolist(), self.std_devs.tolist()
        sharpes = map(operator.truediv, rets, stds)
        return tuple(map(PortfolioRecord, self.ids.tolist(), rets, stds, sharpes))

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
    return _quantized(values, t).tolist()


def _quantized(values: Sequence[float] | np.ndarray, t: int) -> np.ndarray:
    """``quantize_array`` as an int64 array."""
    values = np.asarray(values, dtype=float)
    outside = values[~((values >= 0.0) & (values < 1.0))]
    if outside.size:
        raise ValueError(f"value {outside[0]} outside [0, 1)")
    _check_t(t)
    scale = float(1 << t)
    return np.minimum(np.floor(values * scale + 0.5), scale - 1.0).astype(np.int64)


def _padded(values: np.ndarray, size: int, fill: int = 0) -> np.ndarray:
    """``values`` followed by ``fill`` up to ``size`` entries, as ``np.pad`` pads them."""
    padded = np.full(size, fill, dtype=values.dtype)
    padded[: values.size] = values
    return padded


def _check_t(t: int) -> None:
    # a quantized value's int64 cast is exact up to a double's 53 significand bits
    if not 1 <= t <= sys.float_info.mant_dig:
        raise ValueError(f"t must lie in [1, {sys.float_info.mant_dig}]")


_HEADER = ("id", "expected_return", "std_dev")


def _is_header(cells: Sequence[str]) -> bool:
    return tuple(map(str.strip, cells)) == _HEADER


def load_frontier(source: TextIO, t: int) -> FrontierTable:
    """Check t, then parse and validate frontier CSV, pad to a power of two, quantize.

    Well-formed input is parsed in one pass by numpy's text reader. Any
    input that reader declines is read row by row, with the same result or
    the error that reading meets first.
    """
    _check_t(t)
    text = source.read()
    ids, rets, stds = columns = _read_fast(text) or _read_rows(text)
    for column in columns:
        column.flags.writeable = False
    padded_n = max(1, math.ceil(math.log2(len(ids))))
    return FrontierTable(
        ids=ids,
        expected_returns=rets,
        std_devs=stds,
        t=t,
        padded_n=padded_n,
        returns=ValueTable(t, _padded(_quantized(rets, t), 1 << padded_n)),
        sigmas=ValueTable(t, _padded(_quantized(stds, t), 1 << padded_n, (1 << t) - 1)),
    )


_ROW = np.dtype([("id", np.int64), ("expected_return", np.float64), ("std_dev", np.float64)])


def _read_fast(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The columns of a well-formed frontier, or None to leave the text to ``_read_rows``.

    numpy's C reader converts each float with the routine ``float()`` uses
    and reads a subset of the ids ``int()`` reads. It raises on what ``csv``
    and ``int()`` read differently: whitespace-only lines, quoted fields,
    ids with ``_``, non-ASCII digits or beyond int64. Those texts are
    declined, and so are texts that fail a range or duplicate check, so that
    the row-by-row reader names the row at fault. Lines end where ``csv``
    ends them outside quotes, at ``\r\n``, ``\r`` or ``\n``.
    """
    if '"' in text:
        return None
    lines = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    body = lines.split("\n")
    if not _is_header(body.pop(0).split(",")):  # pop: no copy of a million-line list
        return None
    if not any(map(str.strip, body)):  # numpy warns on input with no data
        return None
    # numpy strips these around a number, like other whitespace; int() and float() refuse them
    if any(char in text for char in "\x1c\x1d\x1e\x1f"):
        return None
    if _has_long_line(lines, body, csv.field_size_limit()):  # csv refuses such a field
        return None
    try:
        rows = np.loadtxt(body, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
    except ValueError:
        return None
    ids, rets, stds = rows["id"], rows["expected_return"], rows["std_dev"]
    in_range = (rets >= 0.0) & (rets < 1.0) & (stds > 0.0) & (stds < 1.0)
    ordered = np.sort(ids)  # faster than np.unique on int64
    if not in_range.all() or (ordered[1:] == ordered[:-1]).any():
        return None
    return ids, rets, stds


def _has_long_line(lines: str, body: list[str], limit: int) -> bool:
    """Whether a line of ``body``, the lines of ``lines`` after the first, is
    longer than ``limit`` characters.

    A line of more than ``limit`` characters covers a whole aligned window
    of ceil(limit / 2) characters, so if every such window of ``lines``
    holds a line end, none is; otherwise each line of ``body`` is measured.
    """
    if len(lines) <= limit:
        return False
    window = -(-limit // 2)
    if window > 0 and all(
        lines.find("\n", start, start + window) >= 0
        for start in range(0, len(lines) - window + 1, window)
    ):
        return False
    return max(map(len, body)) > limit


def _read_rows(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of a frontier read row by row, or the error met first.

    Blank rows are skipped, but still count as lines. Each row is checked
    in turn for field count, id, return, risk, ranges and a repeated id,
    and the first failure is raised.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    ids: list[int] = []
    rets: list[float] = []
    stds: list[float] = []
    seen: set[int] = set()
    try:
        header = next(reader, None)
        if header is None:
            raise FrontierFormatError("empty input")
        if not _is_header(header):
            raise FrontierFormatError(
                f"line 1: expected header {','.join(_HEADER)!r}, got {','.join(header)!r}"
            )
        # record numbers, which differ from reader.line_num after a quoted newline
        for line, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != 3:
                raise FrontierFormatError(f"line {line}: expected 3 fields, got {len(row)}")
            try:
                row_id = int(row[0])
            except ValueError:
                raise FrontierFormatError(f"line {line}: field 'id' is not an integer") from None
            try:
                ret = float(row[1])
            except ValueError:
                raise FrontierFormatError(
                    f"line {line}: field 'expected_return' is not a number"
                ) from None
            try:
                std = float(row[2])
            except ValueError:
                raise FrontierFormatError(f"line {line}: field 'std_dev' is not a number") from None
            if not 0.0 <= ret < 1.0:
                raise FrontierFormatError(
                    f"line {line}: field 'expected_return' must lie in [0, 1), got {ret}"
                )
            if not 0.0 < std < 1.0:
                raise FrontierFormatError(
                    f"line {line}: field 'std_dev' must lie in (0, 1), got {std}"
                )
            if row_id in seen:
                raise FrontierFormatError(f"line {line}: duplicate id {row_id}")
            seen.add(row_id)
            ids.append(row_id)
            rets.append(ret)
            stds.append(std)
    except csv.Error as exc:
        raise FrontierFormatError(f"line {reader.line_num}: {exc}") from None
    if not ids:
        raise FrontierFormatError("no data rows")
    # an object column keeps ids outside int64, which numpy would otherwise round to float64
    id_type = np.int64 if -(2**63) <= min(ids) and max(ids) < 2**63 else object
    return np.array(ids, dtype=id_type), np.array(rets), np.array(stds)


def sharpe_values(table: FrontierTable, risk_free_rate: float) -> ValueTable:
    """Quantized Sharpe ratios (r - rf) / sigma, rescaled into [0, 1).

    The rescaling divisor B * (1 + 2**-t), with B = (max r - rf) / min sigma
    over real rows, is computable from column extrema alone and preserves the
    argmax. Negative Sharpe ratios clamp to zero with a warning; sentinel
    rows map to zero.
    """
    _check_rate(risk_free_rate)
    t = table.t
    bound = (table.expected_returns.max() - risk_free_rate) / table.std_devs.min()
    raw = (table.expected_returns - risk_free_rate) / table.std_devs
    clamped = int(np.count_nonzero(raw < 0.0))
    if bound <= 0.0:
        values = np.zeros(raw.size, dtype=np.int64)
    else:
        values = _quantized(np.maximum(raw, 0.0) / (bound * (1.0 + 2.0**-t)), t)
    if clamped:
        warnings.warn(
            f"{clamped} portfolio(s) had negative Sharpe ratio and were clamped to 0",
            stacklevel=2,
        )
    return ValueTable(t, _padded(values, table.size))


def _check_rate(risk_free_rate: float) -> None:
    if not 0.0 <= risk_free_rate < 1.0:
        raise ValueError("risk_free_rate must lie in [0, 1)")


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
    found = np.fromiter(result.indices, dtype=np.int64, count=len(result.indices))
    ids = frozenset(table.ids[found[found < len(table.ids)]].tolist())
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
    """Id of the portfolio with the largest Sharpe ratio, via adaptive search.

    Refused when no return is above the risk-free rate: every ratio would
    clamp to 0, and the search would return an arbitrary id among the ties.
    """
    if len(table.ids) == 0:
        raise ValueError("table has no real rows")
    _check_rate(risk_free_rate)
    if not (table.expected_returns > risk_free_rate).any():
        raise ValueError(
            f"no expected return is above the risk-free rate {risk_free_rate}, "
            "so every Sharpe ratio is at most 0"
        )
    values = sharpe_values(table, risk_free_rate)
    result = gas(values, "max", rng, repetitions, backend)
    index = result.index
    if table.is_sentinel(index):
        # sentinels share the quantized value 0; prefer a real row on ties
        ties = np.flatnonzero(values.array[: len(table.ids)] == result.value)
        if not ties.size:
            raise RuntimeError(
                "adaptive search ended on a padding row that no real row ties; "
                "rerun with a larger --repeat"
            )
        index = int(ties[0])
    return MaxSharpeResult(
        id=int(table.ids[index]),
        sharpe_raw=float((table.expected_returns[index] - risk_free_rate) / table.std_devs[index]),
        index=index,
        gas=result,
        layout=result.layout.to_dict(),
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
    ``bound`` is that of the register. It is one outcome of
    ``search.count_solutions``, the count-then-double rule that ``slice``
    shares: a count above half the index space is repeated on the doubled
    oracle, of which at most half is marked, at that oracle's width.
    """
    if return_min is None and risk_max is None:
        raise ValueError("counting needs a return and/or a risk threshold")
    if mode not in ("exact", "detect"):
        raise ValueError(f"mode must be 'exact' or 'detect', got {mode!r}")
    if risk_max is None:
        oracle = single_list_oracle(table.returns, quantize(return_min, table.t), "gt")
    elif return_min is None:
        oracle = single_list_oracle(table.sigmas, quantize(risk_max, table.t), "lt")
    else:
        s1, s2 = quantize(return_min, table.t), quantize(risk_max, table.t)
        oracle = two_list_oracle(table.returns, table.sigmas, s1, s2)
    bits = m_exact if mode == "exact" else m_detect
    oracle, _, est, _, doubled = count_solutions(oracle, bits, 0, 1, rng, backend)
    return CountResult(est, doubled, oracle.layout.to_dict())
