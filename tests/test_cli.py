import json
import math
import tracemalloc

import pytest

from qslice.cli import main

from conftest import FIXTURE_PATH, classical_slice_ids

FIXTURE = FIXTURE_PATH


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_slice_matches_classical_filter(capsys):
    code, out, _ = run_cli(
        capsys, "slice", "--input", FIXTURE,
        "--return-min", "0.12", "--risk-max", "0.30", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    from qslice import load_frontier

    with open(FIXTURE) as handle:
        table = load_frontier(handle, 7)
    want = sorted(classical_slice_ids(table, 0.12, 0.30))
    assert payload["selected_ids"] == want
    assert payload["qubit_layout"]["num_qubits"] == 37
    assert payload["seed"] == 7
    assert payload["count_estimate"]["M_rounded"] == len(want)
    assert payload["oracle_calls"] > 0


def test_slice_empty_selection_is_success(capsys):
    code, out, _ = run_cli(
        capsys, "slice", "--input", FIXTURE,
        "--return-min", "0.99", "--risk-max", "0.5", "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)["selected_ids"] == []


def test_slice_unreadable_input(capsys):
    code, out, err = run_cli(
        capsys, "slice", "--input", "missing.csv",
        "--return-min", "0.1", "--risk-max", "0.5",
    )
    assert code == 1
    assert out == ""
    assert "error" in err


def test_oversized_field_exits_1_with_one_error_line(capsys, tmp_path):
    # a number numpy would read, but longer than csv's field size limit
    path = tmp_path / "wide.csv"
    path.write_text("id,expected_return,std_dev\n0,0.5,0.2\n1,0." + "5" * 200_000 + ",0.2\n")
    code, out, err = run_cli(
        capsys, "slice", "--input", str(path), "--return-min", "0.1", "--risk-max", "0.5",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 3: ")
    assert len(err.splitlines()) == 1


def test_max_sharpe_fixture_and_determinism(capsys):
    args = ("max-sharpe", "--input", FIXTURE, "--seed", "1", "--repeat", "5")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second  # byte-identical for identical config and seed
    payload = json.loads(first)
    assert payload["id"] == 2
    assert payload["repetitions"] == 5
    assert payload["qubit_layout"]["num_qubits"] == 18


def test_max_sharpe_single_repetition_flagged(capsys):
    code, out, _ = run_cli(
        capsys, "max-sharpe", "--input", FIXTURE, "--seed", "4", "--repeat", "1",
    )
    assert code == 0
    assert json.loads(out)["repetitions"] == 1


def test_max_sharpe_states_clamped_ratios_in_one_plain_line(capsys):
    # rf 0.1 is above the returns of ids 0 and 1; each run warns again
    args = ("max-sharpe", "--input", FIXTURE, "--rf", "0.1", "--seed", "1")
    for _ in range(2):
        code, out, err = run_cli(capsys, *args)
        assert code == 0 and json.loads(out)["id"] == 6
        assert err == "warning: 2 portfolio(s) had negative Sharpe ratio and were clamped to 0\n"


@pytest.mark.parametrize("rf", ["0.3", "0.26"])  # above every return, and equal to the largest
def test_max_sharpe_with_no_return_above_rf_exits_1_before_searching(capsys, monkeypatch, rf):
    import qslice.portfolio

    def no_search(*args, **kwargs):
        raise AssertionError("adaptive search ran")

    monkeypatch.setattr(qslice.portfolio, "gas", no_search)
    code, out, err = run_cli(capsys, "max-sharpe", "--input", FIXTURE, "--rf", rf)
    assert (code, out) == (1, "")
    assert err == (
        f"error: no expected return is above the risk-free rate {rf}, "
        "so every Sharpe ratio is at most 0\n"
    )


def test_count_vacuous_condition_doubles(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--input", FIXTURE,
        "--return-min", "0.0", "--risk-max", "0.99", "--mode", "exact", "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["M_rounded"] == 8
    assert payload["doubled"] is True
    assert payload["mode"] == "exact"


def test_count_impossible_condition(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--input", FIXTURE,
        "--risk-max", "0.05", "--mode", "exact", "--seed", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["M_rounded"] == 0
    assert payload["class"] == "none"


def test_count_detect_single_solution(capsys):
    # only id 7 has return above 0.24 on the fixture
    code, out, _ = run_cli(
        capsys, "count", "--input", FIXTURE,
        "--return-min", "0.24", "--mode", "detect", "--seed", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "single"
    assert payload["m_used"] == 4


def test_count_bound_covers_a_misrounded_count(capsys):
    # ids 5, 6 and 7 have return above 0.18; at the paper's width (4 qubits
    # at N=8) these seeds round the count to 2, and the reported bound of the
    # register, 2pi/16 sqrt(8*2) + pi^2 8/256, still reaches the true 3
    for seed in ("2", "3", "4", "6"):
        code, out, _ = run_cli(
            capsys, "count", "--input", FIXTURE,
            "--return-min", "0.18", "--mode", "exact", "--seed", seed,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m_used"] == 4
        assert payload["M_rounded"] == 2
        assert payload["delta_m_bound"] == pytest.approx(
            math.pi / 2 + math.pi**2 / 32, rel=1e-12
        )
        assert abs(payload["M_est"] - 3) <= payload["delta_m_bound"]


def test_count_needs_a_condition(capsys):
    code, _, err = run_cli(capsys, "count", "--input", FIXTURE)
    assert code == 1
    assert "return-min" in err


def test_bad_resolution_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "max-sharpe", "--input", FIXTURE, "--resolution", "2.0",
    )
    assert code == 1
    assert "resolution" in err


@pytest.mark.parametrize(
    "n,a,b,want",
    [(3, 5, 3, {"gt": 1, "lt": 0, "eq": 0}),
     (3, 4, 4, {"gt": 0, "lt": 0, "eq": 1}),
     (2, 0, 3, {"gt": 0, "lt": 1, "eq": 0})],
)
def test_compare(capsys, n, a, b, want):
    code, out, _ = run_cli(capsys, "compare", str(n), str(a), str(b))
    assert code == 0
    payload = json.loads(out)
    assert payload["simulated"] == want
    assert payload["classical"] == want
    assert payload["agree"] is True
    assert payload["qubit_layout"]["num_qubits"] == 2 * n + 1


def test_compare_range_check(capsys):
    code, _, err = run_cli(capsys, "compare", "2", "9", "1")
    assert code == 1
    assert "fit" in err


def test_text_output_mode(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "3", "5", "3", "--output", "text",
    )
    assert code == 0
    assert "agree: True" in out


@pytest.mark.parametrize("command", ["slice", "count"])
def test_dense_capacity_error_exits_1_with_one_error_line(capsys, command):
    # the 37-qubit slicing oracle plus a counting register exceeds the dense
    # cap; that is a capacity error, not a search/counting disagreement
    code, out, err = run_cli(
        capsys, command, "--input", FIXTURE, "--return-min", "0.12",
        "--risk-max", "0.30", "--backend", "dense",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "dense cap" in err
    assert len(err.splitlines()) == 1


def test_only_a_search_disagreement_exits_2(capsys, monkeypatch):
    import qslice.portfolio
    from qslice.search import SearchDisagreement

    def disagree(*args, **kwargs):
        raise SearchDisagreement("collected 1 of a counted 2 solutions")

    monkeypatch.setattr(qslice.portfolio, "enumerate_solutions", disagree)
    code, out, err = run_cli(
        capsys, "slice", "--input", FIXTURE, "--return-min", "0.12", "--risk-max", "0.30",
    )
    assert code == 2
    assert out == ""
    assert err == "error: collected 1 of a counted 2 solutions\n"


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slice", "--input", FIXTURE])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: the following arguments are required: --return-min, --risk-max"
    ]


def test_max_sharpe_ending_on_an_untied_padding_row_exits_1(capsys, monkeypatch, tmp_path):
    import qslice.portfolio
    from qslice.search import GasResult

    path = tmp_path / "five.csv"
    path.write_text(
        "id,expected_return,std_dev\n"
        + "".join(f"{i},{0.1 + 0.05 * i},0.2\n" for i in range(5))
    )

    def ends_on_padding(values, *args, **kwargs):
        return GasResult(7, values[7], 0, [])

    monkeypatch.setattr(qslice.portfolio, "gas", ends_on_padding)
    code, out, err = run_cli(capsys, "max-sharpe", "--input", str(path), "--repeat", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: adaptive search ended on a padding row")
    assert len(err.splitlines()) == 1


def test_max_sharpe_ending_on_a_tied_padding_row_prints_a_real_id(capsys, monkeypatch, tmp_path):
    import qslice.portfolio

    # the rescaling divisor is (0.5 - 0.01) / 0.01 = 49, so every Sharpe ratio
    # quantizes to 0 at this resolution and ties the padding row, index 3
    path = tmp_path / "tied.csv"
    path.write_text("id,expected_return,std_dev\n10,0.5,0.99\n11,0.011,0.01\n12,0.02,0.5\n")
    gas, ended = qslice.portfolio.gas, []

    def recording(*args, **kwargs):
        result = gas(*args, **kwargs)
        ended.append(result.index)
        return result

    monkeypatch.setattr(qslice.portfolio, "gas", recording)
    for seed in range(12):
        code, out, err = run_cli(
            capsys, "max-sharpe", "--input", str(path), "--resolution", "0.05",
            "--rf", "0.01", "--repeat", "1", "--seed", str(seed),
        )
        assert (code, err) == (0, "")
        # a search ending on the padding row reports the first real row of the tie
        assert json.loads(out)["id"] == (10, 11, 12, 10)[ended[-1]]
    assert 3 in ended  # the padding branch ran


def test_dense_slice_holds_only_the_workspace(capsys, tmp_path):
    # 4 rows at t = 2: a 15-qubit two-list oracle and a 7-qubit counting
    # register, whose joint state would be 2^22 amplitudes (64 MiB)
    frontier = tmp_path / "frontier4.csv"
    frontier.write_text(
        "id,expected_return,std_dev\n"
        "10,0.05,0.10\n11,0.30,0.20\n12,0.55,0.45\n13,0.70,0.70\n"
    )
    args = ("slice", "--input", str(frontier), "--resolution", "0.3",
            "--return-min", "0.2", "--risk-max", "0.7", "--seed", "3")
    code, out, _ = run_cli(capsys, *args, "--backend", "effective")
    assert code == 0
    effective = json.loads(out)
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *args, "--backend", "dense")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    dense = json.loads(out)
    from qslice import load_frontier

    with open(frontier) as handle:
        want = sorted(classical_slice_ids(load_frontier(handle, 2), 0.2, 0.7))
    assert want == [12]
    assert dense["selected_ids"] == effective["selected_ids"] == want
    assert dense["qubit_layout"]["num_qubits"] == 15
    assert dense["count_estimate"]["m"] == 7
    assert peak < 16 << 20


def test_dense_slice_at_three_value_bits_matches_classical_filter(capsys):
    # t = 3: a 21-qubit two-list oracle, stepped on its 14-qubit sector
    args = ("slice", "--input", FIXTURE, "--resolution", "0.125",
            "--return-min", "0.0", "--risk-max", "0.3", "--seed", "7")
    code, out, _ = run_cli(capsys, *args, "--backend", "dense")
    assert code == 0
    dense = json.loads(out)
    from qslice import load_frontier

    with open(FIXTURE) as handle:
        want = sorted(classical_slice_ids(load_frontier(handle, 3), 0.0, 0.3))
    assert want == [1, 2, 3]
    assert dense["selected_ids"] == want
    assert dense["qubit_layout"]["num_qubits"] == 21
    code, out, _ = run_cli(capsys, *args, "--backend", "effective")
    assert code == 0
    effective = json.loads(out)
    assert {**dense, "backend": "effective"} == effective
