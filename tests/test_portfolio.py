import io

import numpy as np
import pytest

from qslice import (
    FrontierFormatError,
    load_frontier,
    max_sharpe,
    quantize,
    sharpe_values,
    slice_portfolios,
)
from qslice.portfolio import count_portfolios
from qslice.search import counting_distribution

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
