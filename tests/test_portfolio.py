import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslice import (
    FrontierFormatError,
    load_frontier,
    max_sharpe,
    quantize,
    sharpe_values,
    slice_portfolios,
)
from qslice import portfolio
from qslice.portfolio import count_portfolios, quantize_array
from qslice.search import GasResult, counting_distribution

from conftest import FIXTURE_PATH, classical_slice_ids

FIXTURE = FIXTURE_PATH


def fixture_table(t=7):
    with open(FIXTURE) as handle:
        return load_frontier(handle, t)


def make_csv(rows):
    out = ["id,expected_return,std_dev"]
    out.extend(f"{i},{r},{s}" for i, r, s in rows)
    return io.StringIO("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------


def test_quantize_examples():
    assert quantize(0.99, 7) == 127
    assert quantize(0.0, 5) == 0
    assert quantize(0.375, 3) == 3
    with pytest.raises(ValueError):
        quantize(1.0, 3)
    with pytest.raises(ValueError):
        quantize(-0.1, 3)


def test_quantize_monotone():
    rng = np.random.default_rng(0)
    for t in (2, 4, 7):
        values = np.sort(rng.random(100) * 0.999)
        quantized = [quantize(float(v), t) for v in values]
        assert all(a <= b for a, b in zip(quantized, quantized[1:]))


def _quantize_edges(t):
    """Values where floor(v 2^t + 1/2) or the clamp changes, and one ulp either side."""
    scale = 1 << t
    points = [0.0, 1.0 - 2.0**-(t + 1), 1.0 - 2.0**-(t + 2)]
    points += [(k + 0.5) / scale for k in range(scale)]
    points += [(k - 0.5) / scale for k in range(1, scale)]
    below_one = np.nextafter(1.0, 0.0)
    out = []
    for p in points:
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)]
    out.append(below_one)
    return [v for v in out if 0.0 <= v < 1.0]


@pytest.mark.parametrize("t", range(1, 13))
def test_quantize_array_equals_scalar_quantize(t):
    rng = np.random.default_rng(t)
    values = np.concatenate([rng.random(500), _quantize_edges(t)])
    assert quantize_array(values, t) == [quantize(float(v), t) for v in values]


def test_quantize_array_validates_like_quantize():
    with pytest.raises(ValueError):
        quantize_array([0.5, 1.0], 3)
    with pytest.raises(ValueError):
        quantize_array([-0.1], 3)
    with pytest.raises(ValueError):
        quantize_array([0.5], 0)
    with pytest.raises(ValueError):
        quantize(0.5, 54)  # more bits than a double's significand


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def test_load_fixture():
    table = fixture_table()
    assert len(table.records) == 8
    assert table.padded_n == 3
    assert table.sentinel_count == 0
    assert table.returns.size == 8


def test_load_pads_to_power_of_two():
    table = load_frontier(make_csv([(i, 0.1 * (i + 1), 0.2) for i in range(5)]), 4)
    assert table.padded_n == 3
    assert table.sentinel_count == 3
    assert table.returns.values[5:] == (0, 0, 0)
    assert table.sigmas.values[5:] == (15, 15, 15)
    assert all(table.is_sentinel(k) for k in range(5, 8))


def test_load_errors():
    with pytest.raises(FrontierFormatError, match="header"):
        load_frontier(io.StringIO("a,b,c\n1,2,3\n"), 4)
    with pytest.raises(FrontierFormatError, match="std_dev"):
        load_frontier(make_csv([(0, 0.5, 0.0)]), 4)
    with pytest.raises(FrontierFormatError, match="line 3"):
        load_frontier(make_csv([(0, 0.5, 0.2), (1, "oops", 0.2)]), 4)
    with pytest.raises(FrontierFormatError, match="duplicate"):
        load_frontier(make_csv([(0, 0.5, 0.2), (0, 0.4, 0.2)]), 4)
    with pytest.raises(FrontierFormatError, match="expected_return"):
        load_frontier(make_csv([(0, 1.5, 0.2)]), 4)
    with pytest.raises(FrontierFormatError):
        load_frontier(io.StringIO(""), 4)


def row_by_row_rows(text):
    """Reference reader: each row checked in turn, the first failure raised."""
    reader = csv.reader(io.StringIO(text))
    next(reader)  # header
    rows, seen = [], set()
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            return f"line {lineno}: expected 3 fields, got {len(row)}"
        try:
            row_id = int(row[0])
        except ValueError:
            return f"line {lineno}: field 'id' is not an integer"
        try:
            ret = float(row[1])
        except ValueError:
            return f"line {lineno}: field 'expected_return' is not a number"
        try:
            std = float(row[2])
        except ValueError:
            return f"line {lineno}: field 'std_dev' is not a number"
        if not 0.0 <= ret < 1.0:
            return f"line {lineno}: field 'expected_return' must lie in [0, 1), got {ret}"
        if not 0.0 < std < 1.0:
            return f"line {lineno}: field 'std_dev' must lie in (0, 1), got {std}"
        if row_id in seen:
            return f"line {lineno}: duplicate id {row_id}"
        seen.add(row_id)
        rows.append((row_id, ret, std, ret / std))
    return rows if rows else "no data rows"


CELLS = ["0", "1", "7", " 2", "x", "", "1.5", "-0.0", "0.25", "0.999", "nan", "inf", "-0.1", "1e-3"]

csv_rows = st.one_of(
    st.lists(st.sampled_from(CELLS), min_size=3, max_size=3).map(",".join),
    st.lists(st.sampled_from(CELLS), min_size=0, max_size=4).map(",".join),
    st.tuples(st.integers(0, 6), st.floats(0, 1), st.floats(0, 1)).map(
        lambda r: f"{r[0]},{r[1]:.3f},{r[2]:.3f}"
    ),
    st.just(" , , "),
)


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(csv_rows, max_size=10))
@example(rows=["0,0.5,0.5", "", "1,1.5,x", "1,0.5"])  # parse before range, blank lines count
@example(rows=["0,0.5,0.5", "0,x,0.5", "1,0.5,0"])
def test_load_reports_what_a_row_by_row_reading_reports(rows):
    text = "\n".join(["id,expected_return,std_dev", *rows]) + "\n"
    want = row_by_row_rows(text)
    try:
        table = load_frontier(io.StringIO(text), 4)
    except FrontierFormatError as exc:
        assert str(exc) == want
    else:
        assert [(r.id, r.expected_return, r.std_dev, r.sharpe) for r in table.records] == want
        assert table.returns.values[: len(want)] == tuple(quantize(r[1], 4) for r in want)
        assert table.sigmas.values[: len(want)] == tuple(quantize(r[2], 4) for r in want)


# ---------------------------------------------------------------------------
# Sharpe values
# ---------------------------------------------------------------------------


def test_sharpe_two_records_argmax_preserved():
    table = load_frontier(make_csv([(0, 0.10, 0.10), (1, 0.20, 0.40)]), 7)
    values = sharpe_values(table, 0.0)
    # raw Sharpe ratios are (1.0, 0.5); index 0 must stay the argmax
    assert values[0] > values[1]


def test_sharpe_identical_records():
    table = load_frontier(make_csv([(i, 0.2, 0.25) for i in range(4)]), 6)
    values = sharpe_values(table, 0.0)
    assert len(set(values.values[:4])) == 1


def test_sharpe_single_record_fits_resolution():
    for t in (3, 5, 7):
        table = load_frontier(make_csv([(0, 0.3, 0.2)]), t)
        values = sharpe_values(table, 0.0)
        assert values[0] < (1 << t)


def test_sharpe_negative_clamped_with_warning():
    table = load_frontier(make_csv([(0, 0.05, 0.2), (1, 0.4, 0.2)]), 6)
    with pytest.warns(UserWarning, match="clamped"):
        values = sharpe_values(table, 0.2)
    assert values[0] == 0


def test_sharpe_rescaling_keeps_argmax_when_separated():
    rng = np.random.default_rng(7)
    for _ in range(30):
        rows = [
            (i, float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.5)))
            for i in range(8)
        ]
        table = load_frontier(make_csv(rows), 7)
        raw = [r / s for _, r, s in rows]
        order = np.argsort(raw)
        bound = max(r for _, r, _ in rows) / min(s for _, _, s in rows)
        separation = (raw[order[-1]] - raw[order[-2]]) / (bound * (1 + 2.0**-7))
        if separation < 2.0**-7:
            continue  # below the resolving power, no guarantee
        values = sharpe_values(table, 0.0)
        assert int(np.argmax(values.values[:8])) == int(order[-1])


# ---------------------------------------------------------------------------
# Slicing
# ---------------------------------------------------------------------------


def test_slice_fixture_matches_classical_filter():
    table = fixture_table()
    rng = np.random.default_rng(5)
    result = slice_portfolios(table, 0.12, 0.30, rng)
    assert result.ids == classical_slice_ids(table, 0.12, 0.30)
    assert result.layout["num_qubits"] == 37


def test_slice_vacuous_risk_threshold():
    table = fixture_table()
    result = slice_portfolios(table, 0.0, 1 - 2.0**-7, np.random.default_rng(6))
    # risk condition never binds; every return is > 0
    assert result.ids == frozenset(r.id for r in table.records)


def test_slice_impossible_return_threshold():
    table = fixture_table()
    result = slice_portfolios(table, 127 / 128 - 1e-12, 0.5, np.random.default_rng(7))
    assert result.ids == frozenset()


def test_slice_filter_equivalence_100_random_tables():
    rng = np.random.default_rng(200)
    for _ in range(100):
        count = int(rng.integers(3, 17))
        t = int(rng.integers(2, 5))
        rows = [
            (i, float(rng.uniform(0.0, 0.95)), float(rng.uniform(0.05, 0.95)))
            for i in range(count)
        ]
        table = load_frontier(make_csv(rows), t)
        rmin = float(rng.uniform(0.0, 0.95))
        rmax = float(rng.uniform(0.0, 0.95))
        got = slice_portfolios(table, rmin, rmax, rng).ids
        assert got == classical_slice_ids(table, rmin, rmax)


def test_sentinel_opacity():
    rng = np.random.default_rng(3)
    table = load_frontier(make_csv([(i, 0.3 + 0.05 * i, 0.2) for i in range(5)]), 6)
    result = slice_portfolios(table, 0.0, 0.9, rng)
    assert result.ids == {0, 1, 2, 3, 4}  # sentinels never selected
    values = sharpe_values(table, 0.0)
    assert all(values[k] == 0 for k in range(5, 8))


# ---------------------------------------------------------------------------
# Maximum Sharpe
# ---------------------------------------------------------------------------


def test_max_sharpe_fixture():
    table = fixture_table()
    raw = [r.sharpe for r in table.records]
    want = table.records[int(np.argmax(raw))].id
    result = max_sharpe(table, 0.0, np.random.default_rng(1), 5)
    assert result.id == want == 2
    assert result.layout["num_qubits"] == 18
    assert abs(result.sharpe_raw - 0.11 / 0.12) < 1e-12


def test_max_sharpe_single_portfolio():
    table = load_frontier(make_csv([(5, 0.3, 0.2)]), 7)
    result = max_sharpe(table, 0.0, np.random.default_rng(0), 2)
    assert result.id == 5


def test_max_sharpe_tie_stable():
    table = load_frontier(make_csv([(0, 0.2, 0.25), (1, 0.2, 0.25)]), 6)
    ids = {max_sharpe(table, 0.0, np.random.default_rng(9), 3).id for _ in range(3)}
    assert len(ids) == 1  # same seed, same winner
    assert ids.pop() in (0, 1)


def test_max_sharpe_padding_row_without_a_tie_is_an_error(monkeypatch):
    # five rows pad to eight; no real row quantizes to the padding value 0
    table = load_frontier(make_csv([(i, 0.1 + 0.05 * i, 0.2) for i in range(5)]), 7)
    values = sharpe_values(table, 0.0)
    assert min(values[k] for k in range(5)) > 0

    def ends_on_padding(values, *args, **kwargs):
        return GasResult(7, values[7], 0, [])

    monkeypatch.setattr(portfolio, "gas", ends_on_padding)
    with pytest.raises(RuntimeError, match="padding row"):
        max_sharpe(table, 0.0, np.random.default_rng(0), 1)


def test_max_sharpe_rf_validation():
    table = fixture_table()
    with pytest.raises(ValueError):
        max_sharpe(table, 1.0, np.random.default_rng(0), 1)


def test_slice_full_selection_collects_every_row_on_every_seed():
    # A full selection of a power-of-two table is doubled to M = N/2 with no
    # Grover iterations, so each search succeeds with probability 1/2 only;
    # the enumeration run cap must allow for that on every search seed.
    gen = np.random.default_rng(11)
    rows = [
        (i, float(gen.uniform(0.05, 0.5)), float(gen.uniform(0.05, 0.9)))
        for i in range(256)
    ]
    table = load_frontier(make_csv(rows), 7)
    for seed in range(20):
        result = slice_portfolios(table, 0.0, 0.99, np.random.default_rng(seed))
        assert result.ids == frozenset(range(256)), seed
        assert result.enumeration.doubled


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "return_min, risk_max, qubits",
    [(0.12, 0.30, 37), (0.20, None, 18), (None, 0.15, 18)],
)
def test_count_portfolios_picks_the_oracle_for_the_thresholds(return_min, risk_max, qubits):
    table = fixture_table()
    t = table.t
    want = sum(
        (return_min is None or table.returns[k] > quantize(return_min, t))
        and (risk_max is None or table.sigmas[k] < quantize(risk_max, t))
        for k in range(table.size)
    )
    result = count_portfolios(table, return_min, risk_max, np.random.default_rng(4))
    assert result.layout["num_qubits"] == qubits
    assert not result.doubled
    assert np.allclose(result.estimate.distribution, counting_distribution(8, want, 4))


def test_count_portfolios_needs_a_threshold():
    with pytest.raises(ValueError):
        count_portfolios(fixture_table(), None, None, np.random.default_rng(3))
