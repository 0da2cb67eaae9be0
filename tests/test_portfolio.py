import csv
import io
import json
import warnings

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
from qslice import oracles, portfolio
from qslice.cli import main
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


@pytest.mark.parametrize("rows", [1, 8, 5])  # padded to 2, not padded, ragged
def test_padded_tables_are_np_pad_bit_for_bit(rows):
    t = 5
    gen = np.random.default_rng(rows)
    rets, stds = gen.uniform(0.01, 0.9, rows), gen.uniform(0.01, 0.9, rows)
    table = load_frontier(make_csv(zip(range(rows), rets.tolist(), stds.tolist())), t)
    pad = (0, table.size - rows)
    want_returns = np.pad(portfolio._quantized(table.expected_returns, t), pad)
    want_sigmas = np.pad(
        portfolio._quantized(table.std_devs, t), pad, constant_values=(1 << t) - 1
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a clamped Sharpe ratio warns
        sharpe = sharpe_values(table, 0.05)
    want_sharpe = np.pad(sharpe.array[:rows], pad)
    for got, want in [(table.returns, want_returns), (table.sigmas, want_sigmas),
                      (sharpe, want_sharpe)]:
        assert got.array.dtype == want.dtype and got.array.tobytes() == want.tobytes()


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


class Unreadable:
    def read(self):
        raise AssertionError("the source was read")


@pytest.mark.parametrize("t", [-1, 0, 54])
def test_load_checks_t_before_reading_the_source(t):
    with pytest.raises(ValueError, match=r"^t must lie in \[1, 53\]$"):
        load_frontier(Unreadable(), t)


# ids that int() reads but int64 does not hold. Without the 2**70, numpy's
# default dtype for these ids is float64, which would round 2**63.
WIDE_IDS = [[-1, 2**63, 2**70], [-1, 2**63]]


def wide_id_csv(ids, best):
    """A row per id, the row at ``best`` of the highest Sharpe ratio."""
    rows = [(i, 0.3 if k == best else 0.1, 0.4) for k, i in enumerate(ids)]
    return "id,expected_return,std_dev\n" + "".join(f"{i},{r},{s}\n" for i, r, s in rows)


@pytest.mark.parametrize("ids", WIDE_IDS)
def test_ids_outside_int64_load_row_by_row_and_keep_their_values(ids):
    text = wide_id_csv(ids, 0)
    assert portfolio._read_fast(text) is None
    loaded = load_frontier(io.StringIO(text), 7).ids.tolist()
    assert loaded == ids
    assert all(type(i) is int for i in loaded)


@pytest.mark.parametrize("ids, best", [(ids, k) for ids in WIDE_IDS for k in range(len(ids))])
def test_ids_outside_int64_are_printed_exactly(tmp_path, capsys, ids, best):
    path = tmp_path / "frontier.csv"
    path.write_text(wide_id_csv(ids, best))
    assert main(["slice", "--input", str(path), "--return-min", "0", "--risk-max", "0.99"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["selected_ids"] == ids
    assert f'"selected_ids": [{", ".join(map(str, ids))}]' in out
    assert main(["max-sharpe", "--input", str(path), "--output", "text"]) == 0
    assert f"\nid: {ids[best]}\n" in capsys.readouterr().out


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
# where numpy's text reader and int()/float()/csv may read a cell differently
CELLS += ["+5", "007", "1_000", "\u0663", "5\x0c", " 5", '"5"', "#5", "9223372036854775808"]
CELLS += ["3.0", "1e400", "Infinity", "-nan"]
# a quoted newline: `line N` counts records, not physical lines
CELLS += ['"a\nb"']

csv_rows = st.one_of(
    st.lists(st.sampled_from(CELLS), min_size=3, max_size=3).map(",".join),
    st.lists(st.sampled_from(CELLS), min_size=0, max_size=4).map(",".join),
    st.tuples(st.integers(0, 6), st.floats(0, 1), st.floats(0, 1)).map(
        lambda r: f"{r[0]},{r[1]:.3f},{r[2]:.3f}"
    ),
    st.just(" , , "),
)


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(csv_rows, max_size=10), newline=st.sampled_from(["\n", "\r\n", "\r"]))
@example(rows=["0,0.5,0.5", "", "1,1.5,x", "1,0.5"], newline="\n")  # parse before range, blank lines count
@example(rows=["0,0.5,0.5", "0,x,0.5", "1,0.5,0"], newline="\n")
@example(rows=[], newline="\n")
@example(rows=["", " , , ", ""], newline="\r\n")  # only blank lines
@example(rows=['0,0.5,"a\nb"'], newline="\r")  # line 2, though csv ends the record on line 3
def test_load_reports_what_a_row_by_row_reading_reports(rows, newline):
    text = newline.join(["id,expected_return,std_dev", *rows]) + newline
    # the reference splits lines at "\n" alone, so it reads the same rows "\n"-joined
    want = row_by_row_rows("\n".join(["id,expected_return,std_dev", *rows]) + "\n")
    try:
        table = load_frontier(io.StringIO(text), 4)
    except FrontierFormatError as exc:
        assert str(exc) == want
    else:
        assert [(r.id, r.expected_return, r.std_dev, r.sharpe) for r in table.records] == want
        assert table.returns.values[: len(want)] == tuple(quantize(r[1], 4) for r in want)
        assert table.sigmas.values[: len(want)] == tuple(quantize(r[2], 4) for r in want)


def test_load_reports_a_bad_row_before_a_later_csv_error():
    huge = "9" * (csv.field_size_limit() + 5)
    text = f"id,expected_return,std_dev\n0,0.5,0.5\nx,0.5,0.5\n1,0.5,{huge}\n"
    with pytest.raises(FrontierFormatError) as info:
        load_frontier(io.StringIO(text), 4)
    assert str(info.value) == "line 3: field 'id' is not an integer"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_well_formed_input_is_not_read_row_by_row(monkeypatch, newline):
    def row_by_row(text):
        raise AssertionError("well-formed input was read row by row")

    monkeypatch.setattr(portfolio, "_read_rows", row_by_row)
    rng = np.random.default_rng(4096)
    rets, stds = rng.uniform(0.0, 0.9, 4096), rng.uniform(0.01, 0.9, 4096)
    lines = ["id,expected_return,std_dev"]
    lines += [f"{k},{r:.6f},{s:.6f}" for k, (r, s) in enumerate(zip(rets, stds))]
    table = load_frontier(io.StringIO(newline.join(lines) + newline, newline=""), 10)
    assert table.ids.tolist() == list(range(4096))
    assert table.expected_returns.tolist() == [float(f"{r:.6f}") for r in rets]
    assert table.sigmas.values == tuple(quantize(float(f"{s:.6f}"), 10) for s in stds)


def test_lone_carriage_returns_are_read_in_one_pass_as_newlines():
    rows = ["id,expected_return,std_dev", "3,0.25,0.5", "", "1,0.125,0.75", "2,0.5,0.25"]
    want = portfolio._read_fast("\n".join(rows) + "\n")
    for text in ("\r".join(rows) + "\r", "\r".join(rows), "\r\n".join(rows) + "\r"):
        got = portfolio._read_fast(text)
        assert got is not None, repr(text)
        for column, expected in zip(got, want):
            assert column.tobytes() == expected.tobytes() and column.dtype == expected.dtype


LINE_ENDINGS = {"lf": ("\n",), "crlf": ("\r\n",), "cr": ("\r",), "mixed": ("\r\n", "\n", "\r", "\n")}


@pytest.mark.parametrize("endings", LINE_ENDINGS.values(), ids=LINE_ENDINGS)
def test_line_endings_give_equal_columns(endings):
    # the one-pass reader, which skips its line-ending rewrite on text with no
    # "\r", reads what the csv module reads row by row
    rows = ["id,expected_return,std_dev", "3,0.25,0.5", "", "1,0.125,0.75", "2,0.5,0.25", "7,0,0.5"]
    text = "".join(row + endings[k % len(endings)] for k, row in enumerate(rows))
    got = portfolio._read_fast(text)
    assert got is not None
    for column, expected in zip(got, portfolio._read_rows(text), strict=True):
        assert column.tobytes() == expected.tobytes() and column.dtype == expected.dtype


def measured_long_line(text: str, limit: int) -> bool:
    """The guard as every line measured: a body line of ``_read_fast`` longer than ``limit``."""
    body = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")[1:]
    return len(text) > limit and max(map(len, body)) > limit


def long_line_text(length: int, offset: int, ending: str, limit: int) -> str:
    """A frontier whose third line has ``length`` characters, starting ``offset``
    characters past where it would start with no padding before it."""
    header = "id,expected_return,std_dev"
    rows = ["0,0.125,0.5" + " " * offset, "1," + " " * (length - 10) + "0.5,0.25", "2,0.25,0.5"]
    padding = [f"{k},0.375,0.5" for k in range(3, 3 + limit // 8)]  # longer than the limit in all
    return ending.join([header, *rows, *padding]) + ending


LONG_LINE_ENDINGS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


@pytest.mark.parametrize("ending", LONG_LINE_ENDINGS.values(), ids=LONG_LINE_ENDINGS)
def test_the_long_line_guard_declines_what_measuring_every_line_declines(ending):
    limit = csv.field_size_limit()
    window = -(-limit // 2)
    for length in (limit - 1, limit, limit + 1):
        for offset in (0, 1, 7, window // 2, window - 1, window, window + 3):
            text = long_line_text(length, offset, ending, limit)
            lines = text.replace("\r\n", "\n").replace("\r", "\n")
            body = lines.split("\n")[1:]
            want = measured_long_line(text, limit)
            assert want == (length > limit)
            assert portfolio._has_long_line(lines, body, limit) == want, (length, offset)
        # through the reader: csv refuses the field, so the text is read row by row
        text = long_line_text(length, 5, ending, limit)
        assert (portfolio._read_fast(text) is None) == (length > limit)


def test_the_long_line_guard_on_short_limits_and_random_texts():
    # every split of short texts into lines, against every small limit,
    # a long header line among them
    gen = np.random.default_rng(90)
    for _ in range(3000):
        chars = gen.choice(["a", "a", "a", "\n"], size=int(gen.integers(0, 40)))
        text = "".join(chars)
        body = text.split("\n")[1:]
        for limit in range(0, 14):
            want = measured_long_line(text, limit) if body else False
            got = bool(body) and portfolio._has_long_line(text, body, limit)
            assert got == want, (text, limit)


def test_max_sharpe_compiles_only_the_oracles_gas_compiles(monkeypatch):
    compiled, at_return = [], []
    compile_, gas = oracles._compile, portfolio.gas
    monkeypatch.setattr(oracles, "_compile", lambda *a, **k: compiled.append(1) or compile_(*a, **k))

    def counted_gas(*args, **kwargs):
        result = gas(*args, **kwargs)
        at_return.append(len(compiled))
        return result

    monkeypatch.setattr(portfolio, "gas", counted_gas)
    for backend in ("effective", "dense"):
        compiled.clear()
        result = max_sharpe(fixture_table(4), 0.0, np.random.default_rng(2), 2, backend)
        assert compiled and at_return[-1] == len(compiled)
        layout = oracles.single_list_oracle(sharpe_values(fixture_table(4), 0.0), 0).layout
        assert result.layout == layout.to_dict()


def test_a_quoted_carriage_return_is_read_row_by_row():
    text = 'id,expected_return,std_dev\r0,"0.5\r",0.25\r1,0.125,0.5\r'
    assert portfolio._read_fast(text) is None
    table = load_frontier(io.StringIO(text, newline=""), 4)
    assert table.ids.tolist() == [0, 1]
    assert table.expected_returns.tolist() == [0.5, 0.125]


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


def test_count_portfolios_refuses_an_unknown_mode_before_building_an_oracle(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("an oracle was built")

    monkeypatch.setattr(portfolio, "single_list_oracle", no_oracle)
    monkeypatch.setattr(portfolio, "two_list_oracle", no_oracle)
    for return_min, risk_max in [(0.1, 0.3), (0.1, None), (None, 0.3)]:
        with pytest.raises(ValueError, match="'exact' or 'detect'"):
            count_portfolios(fixture_table(), return_min, risk_max, np.random.default_rng(0), "exakt")
