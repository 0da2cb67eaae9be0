"""Tests of the benchmark itself: generator, reference checker, tracer, workloads."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import qslice  # noqa: E402
import qslice.cli  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from frontier import frontier_csv  # noqa: E402
from run import Client, Tally, end_to_end  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture
def client():
    return Client(qslice.cli)


def test_generator_is_deterministic():
    assert frontier_csv(300, 7) == frontier_csv(300, 7)
    assert frontier_csv(300, 7) != frontier_csv(300, 8)


@pytest.mark.parametrize("rows,seed", [(8, 0), (8, 5), (64, 1), (409, 2), (3000, 3)])
def test_generator_draws_a_concave_frontier(rows, seed):
    text = frontier_csv(rows, seed)
    assert text.splitlines()[0] == "id,expected_return,std_dev"
    f = ref.Frontier(text)
    assert f.ids.tolist() == list(range(rows))
    assert np.all(np.diff(f.risks) >= 0) and 0 < f.risks[0] and f.risks[-1] < 0.95
    assert np.all((0 <= f.returns) & (f.returns < 1)) and np.all(np.diff(f.returns) >= 0)
    # slopes between rows 0.02 apart in risk, so that 6-digit rounding stays below 1e-4
    picked = [0]
    for k in range(1, rows):
        if f.risks[k] - f.risks[picked[-1]] >= 0.02:
            picked.append(k)
    slopes = np.diff(f.returns[picked]) / np.diff(f.risks[picked])
    assert np.all(np.diff(slopes) <= 1e-3)
    best = int(np.argmax(f.returns / f.risks))
    assert 0 < best < rows - 1


def test_reference_quantizes_by_the_readme_rule():
    # half-up rounding, clamped to t bits
    assert ref.quantize([0.0, 1 / 16, 1 / 32, 0.99], 4).tolist() == [0, 1, 1, 15]


def test_reference_matches_the_fixture_by_hand(at_root):
    with open(workloads.FIXTURE, encoding="utf-8") as handle:
        f = ref.Frontier(handle.read())
    # quantized at t=7: returns above 0.12 and risks below 0.30 are rows 3, 4 and 5
    assert ref.slice_ids(f, 7, 0.12, 0.30) == [3, 4, 5]
    assert ref.max_sharpe_ids(f, 7, 0.0) == {2}


def _small_deck(name, at, client):
    workload = workloads.WORKLOADS[name]
    return workloads.build_deck(
        workloads.Workload(workload.name, workload.why, workload.tail_percentile, 1, workload.build),
        3, workloads.Inputs(str(at)), client.stdout,
    )


def test_deck_depends_only_on_the_seed(tmp_path, client, at_root):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _small_deck("slice-effective", tmp_path / "a", client)
    second = _small_deck("slice-effective", tmp_path / "b", client)
    assert [op.label for op in first] == [op.label for op in second]
    for a, b in zip(first, second):
        assert Path(a.argv[2]).read_bytes() == Path(b.argv[2]).read_bytes()
        assert a.argv[3:] == b.argv[3:]


def test_checker_flags_a_planted_wrong_answer(tmp_path, client, at_root):
    deck = _small_deck("slice-effective", tmp_path, client)
    op = next(op for op in deck if op.label.startswith("slice sparse"))
    code, out = client.run(op.argv)
    assert code == 0 and op.check(out)
    payload = json.loads(out)
    payload["selected_ids"] = payload["selected_ids"][1:]
    assert not op.check(json.dumps(payload))

    class Planted:
        def run(self, argv):
            return 0, json.dumps(payload)

    tally = Tally()
    tally.play(Planted(), [op])
    assert (tally.attempted, tally.failed, tally.wrong, tally.ok) == (1, 1, 1, 0)


def test_checker_flags_a_non_zero_exit(tmp_path, client, at_root):
    deck = _small_deck("max-sharpe-effective", tmp_path, client)
    op = deck[0]
    (tmp_path / "bad.csv").write_text("id,expected_return,std_dev\n0,1.5,0.1\n")
    op.argv[op.argv.index("--input") + 1] = str(tmp_path / "bad.csv")
    tally = Tally()
    tally.play(client, [op])
    assert (tally.attempted, tally.failed, tally.wrong, tally.ok) == (1, 1, 0, 0)
    assert tally.failures == {op.label: "exit 1"}


def test_checker_flags_a_wrong_count_both_backends_share(tmp_path, client, at_root):
    def shared_fault(stdout):
        payload = json.loads(stdout)
        if "M_rounded" not in payload:
            return stdout
        payload["M_rounded"] = 4 - payload["M_rounded"]  # 0 <-> 4
        payload["class"] = "none" if payload["M_rounded"] == 0 else "multiple"
        return json.dumps(payload)

    rng = np.random.default_rng(3)
    deck = workloads.dense_deck(rng, 1, workloads.Inputs(str(tmp_path)),
                                lambda argv: shared_fault(client.stdout(argv)))
    op = next(op for op in deck if op.argv[0] == "count")
    code, out = client.run(op.argv)
    assert code == 0
    assert not op.check(out)  # right, but unlike the faulty effective output
    dense_fault = shared_fault(out).replace('"effective"', '"dense"')
    assert not op.check(dense_fault)  # both backends agree, the reference does not


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_passes_a_one_operation_smoke_run(name, tmp_path, client, at_root):
    deck = _small_deck(name, tmp_path, client)
    tally = Tally()
    tally.play(client, deck[:1])
    assert (tally.attempted, tally.ok, tally.failed) == (1, 1, 0)
    assert tally.calls > 0


def test_tracer_wraps_caller_bindings_and_restores_them(tmp_path, client, at_root):
    original = qslice.search.effective_grover_step
    tracer = Tracer()
    tracer.install(qslice)
    try:
        assert qslice.search.effective_grover_step is qslice.oracles.effective_grover_step
        assert qslice.search.effective_grover_step is not original
        deck = _small_deck("slice-effective", tmp_path, client)
        op = next(op for op in deck if op.label.startswith("slice sparse"))
        tally = Tally()
        tally.play(client, [op])
    finally:
        tracer.uninstall()
    assert qslice.search.effective_grover_step is original
    assert tally.ok == 1
    layer = tracer.layer_metrics(1, tally.calls)
    assert layer["cli.calls"] == 1
    assert layer["oracles.marked_set_builds"] == 1
    assert layer["search.grover_runs"] >= 1 and layer["oracles.effective_steps"] >= 1
    assert layer["search.oracle_calls_counting"] + layer["search.oracle_calls_grover"] == tally.calls
    assert layer["sim.apply_calls"] == 0
    own = sum(layer[f"{name}.layer_self_s"] for name in ("cli", "portfolio", "oracles", "comparators", "search", "sim"))
    assert own == pytest.approx(tally.latencies[0], rel=0.2)
    harness = {"bench.op_s", "bench.unattributed_s", "bench.tracing_overhead", "bench.tracing_overhead_computed"}
    assert set(layer) | harness == {
        name for name, _, _ in PER_LAYER
    }


def test_benchmark_json_matches_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    for w in workloads.WORKLOADS.values():
        assert w.why.endswith(f"tail=p{w.tail_percentile}")
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    tally = Tally()
    tally.latencies, tally.attempted, tally.ok, tally.wall = [0.5], 1, 1, 0.5
    printed = end_to_end(tally, [0.2], 50)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in printed.items()
    ]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
