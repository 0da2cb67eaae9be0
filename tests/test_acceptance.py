"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 7 and 8 state counting-resolution guarantees for the widths
m_exact and m_detect, which count accuracy bits of theta in radians; they
are checked against the exact outcome distribution of a register of
``counting_register`` of those widths (the docstrings of those two tests
carry the numbers that show why the conversion is needed).
"""

import json
import math
import time

import numpy as np

from qslice import (
    ValueTable,
    apply,
    counting_distribution,
    counting_register,
    delta_m_bound,
    direct_marking_oracle,
    effective_grover_step,
    effective_state_new,
    eq_circuit,
    grover_operator,
    gt_circuit,
    index_amplitudes,
    iteration_count,
    load_frontier,
    lt_circuit,
    m_detect,
    m_exact,
    max_sharpe,
    new_basis_state,
    quantum_counting,
    single_list_oracle,
    slice_portfolios,
    subregister_distribution,
    t_for_resolution,
    two_list_oracle,
)
from qslice.cli import main as cli_main
from qslice.search import (
    default_qes_budget,
    estimate_from_outcome,
    gas_budget,
    marked_probability_after,
    qes,
)

from conftest import FIXTURE_PATH, classical_slice_ids

FIXTURE = FIXTURE_PATH


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


def fixture_table():
    with open(FIXTURE) as handle:
        return load_frontier(handle, 7)


def test_criterion_01_comparator_truth_tables():
    """gt/lt/eq match the classical predicates on every basis input, n <= 4."""
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3, 4):
        circuits = {
            gt_circuit(n): lambda a, b: a > b,
            lt_circuit(n): lambda a, b: a < b,
            eq_circuit(n): lambda a, b: a == b,
        }
        for circ, pred in circuits.items():
            for basis in range(1 << (2 * n + 1)):
                a = basis & ((1 << n) - 1)
                b = (basis >> n) & ((1 << n) - 1)
                c = basis >> (2 * n)
                want = a | (b << n) | ((c ^ pred(a, b)) << (2 * n))
                out = apply(new_basis_state(circ.num_qubits, basis), circ)
                if abs(abs(out.amplitudes[want]) - 1.0) > 1e-9:
                    ok = False
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 30, f"comparator truth tables, {elapsed:.1f}s")
    assert ok
    assert elapsed < 30


def test_criterion_02_qubit_counts():
    """The flagship layouts: 18 and 37 qubits at n=3, t=7; d=0.01 gives t=7."""
    vt = ValueTable(7, tuple(range(8)))
    single = single_list_oracle(vt, 5)
    two = two_list_oracle(vt, ValueTable(7, tuple(range(8))), 3, 5)
    t = t_for_resolution(0.01)
    ok = (
        single.num_qubits == 18
        and two.num_qubits == 37
        and t == 7
        and gt_circuit(t).num_qubits == 15
    )
    report(2, ok, f"single={single.num_qubits} two={two.num_qubits} t={t} cmp={gt_circuit(t).num_qubits}")
    assert single.num_qubits == 18
    assert two.num_qubits == 37
    assert t == 7
    assert gt_circuit(t).num_qubits == 2 * t + 1 == 15


def test_criterion_03_grover_exact_case():
    """N=4, M=1: one iteration reaches the marked index with probability 1."""
    oracle = direct_marking_oracle(2, {3})
    iters = iteration_count(4, 1)
    dense = apply(new_basis_state(oracle.num_qubits, 0), oracle.prep_circuit)
    dense = apply(dense, grover_operator(oracle))
    p_dense = subregister_distribution(dense, [0, 1])[3]
    p_eff = marked_probability_after(oracle, iters)
    ok = iters == 1 and abs(p_dense - 1) < 1e-9 and abs(p_eff - 1) < 1e-9
    report(3, ok, f"iterations={iters} dense={p_dense:.12f} effective={p_eff:.12f}")
    assert iters == 1
    assert abs(p_dense - 1) < 1e-9
    assert abs(p_eff - 1) < 1e-9


def test_criterion_04_success_probability_floor():
    """Marked mass after the planned iterations is at least one half."""
    start = time.perf_counter()
    worst = 1.0
    for n in (2, 3, 4, 5, 6):
        size = 1 << n
        for m_count in range(1, size // 2 + 1):
            oracle = direct_marking_oracle(n, set(range(m_count)))
            mass = marked_probability_after(oracle, iteration_count(size, m_count))
            worst = min(worst, mass)
    elapsed = time.perf_counter() - start
    ok = worst >= 0.5 - 1e-9 and elapsed < 10
    report(4, ok, f"worst marked mass {worst:.9f}, {elapsed:.1f}s")
    assert worst >= 0.5 - 1e-9
    assert elapsed < 10


def _equivalence_instances():
    rng = np.random.default_rng(20240805)
    instances = []
    for _ in range(40):  # single-list across the whole n, t <= 3 range
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, 4))
        vt = ValueTable(t, rng.integers(0, 1 << t, size=1 << n))
        op = str(rng.choice(["gt", "lt", "eq"]))
        instances.append(single_list_oracle(vt, int(rng.integers(0, 1 << t)), op))
    small = [(1, 1), (2, 1), (1, 2), (2, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3)]
    for n, t in small + [(3, 3)]:
        r = ValueTable(t, rng.integers(0, 1 << t, size=1 << n))
        s = ValueTable(t, rng.integers(0, 1 << t, size=1 << n))
        instances.append(
            two_list_oracle(r, s, int(rng.integers(0, 1 << t)), int(rng.integers(0, 1 << t)))
        )
    return instances


def test_criterion_05_backend_equivalence():
    """Dense and effective index amplitudes agree to 1e-9 over 5 Grover steps.

    The full-scale two-list circuit (37 qubits) is far beyond dense reach
    (about 2 TiB of amplitudes), so the effective backend plus this
    cross-validation at n <= 3, t <= 3 is the substitute evidence.
    """
    start = time.perf_counter()
    instances = _equivalence_instances()
    assert len(instances) == 50
    worst = 0.0
    for oracle in instances:
        dense = apply(new_basis_state(oracle.num_qubits, 0), oracle.prep_circuit)
        eff = effective_state_new(oracle.index_bits)
        op = grover_operator(oracle)
        for _ in range(5):
            dense = apply(dense, op)
            eff = effective_grover_step(eff, oracle.marked_set)
            diff = float(np.max(np.abs(index_amplitudes(dense, oracle) - eff.amplitudes)))
            worst = max(worst, diff)
            assert diff < 1e-9
    elapsed = time.perf_counter() - start
    report(5, True, f"50 instances, worst amplitude gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_qes_envelope():
    """N=64: success >= 0.99 in budget, mean calls <= 8 sqrt(N/M); M=0 times out."""
    budget = default_qes_budget(64)
    stats = {}
    ok = True
    for m_count, marked in ((1, {17}), (2, {3, 40}), (4, {1, 9, 33, 60})):
        oracle = direct_marking_oracle(6, marked)
        successes = 0
        calls = []
        for seed in range(500):
            out = qes(oracle, np.random.default_rng(seed))
            if out.found_index is not None:
                assert out.found_index in marked
                successes += 1
            calls.append(out.oracle_calls)
        rate = successes / 500
        mean_calls = float(np.mean(calls))
        limit = 8 * math.sqrt(64 / m_count)
        stats[m_count] = (rate, mean_calls, limit)
        ok = ok and rate >= 0.99 and mean_calls <= limit
    empty = direct_marking_oracle(6, set())
    for seed in range(100):
        out = qes(empty, np.random.default_rng(seed))
        ok = ok and out.found_index is None and out.oracle_calls >= budget
    report(6, ok, " ".join(
        f"M={m}: rate={r:.3f} mean={c:.2f}<={l:.1f}" for m, (r, c, l) in stats.items()
    ))
    for m_count, (rate, mean_calls, limit) in stats.items():
        assert rate >= 0.99, (m_count, rate)
        assert mean_calls <= limit, (m_count, mean_calls, limit)


def test_criterion_07_counting_exact_width():
    """Exact-count width: every M <= N/2 rounds correctly with mass >= 0.8.

    m_exact(N) counts accuracy bits of theta in radians, for which the
    analytic error bound stays below 1/2. An m-qubit register resolves only
    theta / 2pi, so the register is counting_register(m_exact(N)). Run as
    the register itself, m_exact cannot meet the guarantee: the estimate
    N sin^2(pi b / 2^m) lives on a fixed grid, and at N=8, m=4 the reachable
    rounded values are {0,1,2,4,6,7,8}, so M=3 gets correct-rounding mass 0
    (as does N=16, M=3 at m=5). The distribution here is the exact one,
    cross-validated against dense simulation in test_search.py.
    """
    failures = []
    table = {}
    for size in (8, 16):
        m = counting_register(m_exact(size))
        for m_count in range(0, size // 2 + 1):
            assert delta_m_bound(size, m_count, m_exact(size)) < 0.5  # analytic clause
            dist = counting_distribution(size, m_count, m)
            mass = float(sum(
                p for b, p in enumerate(dist)
                if estimate_from_outcome(b, m, size)[2] == m_count
            ))
            table[(size, m_count)] = mass
            if mass < 0.8:
                failures.append((size, m, m_count, round(mass, 6)))
    report(7, not failures, f"correct-rounding masses: { {k: round(v, 3) for k, v in table.items()} }")
    assert not failures, (
        "counting at m = counting_register(m_exact(N)) cannot round every M correctly; "
        f"(N, m, M, correct mass): {failures}"
    )


def test_criterion_08_counting_detect_width():
    """Detection width: every outcome with p > 0.05 classifies {0},{1},{>=2}.

    m_detect(N) counts accuracy bits of theta in radians, so the register is
    counting_register(m_detect(N)). Run as the register itself, m_detect
    misclassifies: N=8, M=2 puts mass 0.0883 on b in {2, 14}, whose estimate
    1.17 rounds to one solution, and N=16, M=1 puts mass 0.0650 on b in
    {2, 14}, whose estimate 2.34 rounds to multiple. The distribution is
    exact (dense-validated).
    """

    def classify(m_rounded: int) -> str:
        if m_rounded <= 0:
            return "none"
        if m_rounded == 1:
            return "single"
        return "multiple"

    failures = []
    for size in (8, 16):
        m = counting_register(m_detect(size))
        for m_count in range(0, size // 2 + 1):
            want = classify(m_count)
            dist = counting_distribution(size, m_count, m)
            for b, p in enumerate(dist):
                if p <= 0.05:
                    continue
                got = classify(estimate_from_outcome(b, m, size)[2])
                if got != want:
                    failures.append((size, m, m_count, b, round(float(p), 6), got))
    report(8, not failures, f"violations: {failures or 'none'}")
    assert not failures, (
        "solution-class detection misclassifies high-probability outcomes: "
        f"(N, m, M, b, p, class): {failures}"
    )


def test_criterion_09_dense_counting_smoke():
    """N=4, two marked, m=2: outcomes {1,3} with probability 1, estimate 2."""
    oracle = direct_marking_oracle(2, {0, 2})
    est = quantum_counting(oracle, 2, np.random.default_rng(1), backend="dense")
    mass_13 = est.distribution[1] + est.distribution[3]
    est_1 = estimate_from_outcome(1, 2, 4)[1]
    est_3 = estimate_from_outcome(3, 2, 4)[1]
    ok = (
        abs(mass_13 - 1.0) < 1e-9
        and abs(est.distribution[1] - 0.5) < 1e-9
        and abs(est_1 - 2.0) < 1e-9
        and abs(est_3 - 2.0) < 1e-9
    )
    report(9, ok, f"p(1)+p(3)={mass_13:.12f}, M_est={est_1:.12f}")
    assert abs(mass_13 - 1.0) < 1e-9
    assert abs(est.distribution[1] - 0.5) < 1e-9
    assert abs(est.distribution[3] - 0.5) < 1e-9
    assert abs(est_1 - 2.0) < 1e-9
    assert abs(est_3 - 2.0) < 1e-9


def test_criterion_10_max_sharpe_end_to_end():
    """200 seeded runs at c=5 recover the true argmax in at least 195.

    Budget check: the round loop stops once cumulative calls exceed
    22.5 sqrt(N) + 1.4 log2(N)^2; detection happens after the crossing
    round, so a run may overshoot by at most one capped search,
    bounded by ceil(sqrt(N)).
    """
    table = fixture_table()
    budget = gas_budget(8) + math.ceil(math.sqrt(8))
    raw = [r.sharpe for r in table.records]
    want = table.records[int(np.argmax(raw))].id
    correct = 0
    worst_calls = 0
    for seed in range(200):
        result = max_sharpe(table, 0.0, np.random.default_rng(seed), 5)
        if result.id == want:
            correct += 1
        worst_calls = max(
            worst_calls, max(rep.oracle_calls for rep in result.gas.repetitions)
        )
        assert all(rep.oracle_calls <= budget for rep in result.gas.repetitions)
    ok = correct >= 195
    report(10, ok, f"{correct}/200 correct, worst repetition calls {worst_calls} <= {budget:.2f}")
    assert correct >= 195


def test_criterion_11_slicing_end_to_end():
    """20 random threshold pairs slice exactly like the classical filter."""
    table = fixture_table()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(20):
        rmin = float(rng.uniform(0.0, 0.5))
        rmax = float(rng.uniform(0.0, 0.9))
        got = slice_portfolios(table, rmin, rmax, rng).ids
        want = classical_slice_ids(table, rmin, rmax)
        assert got == want, (rmin, rmax, sorted(got), sorted(want))
        checked += 1
    report(11, True, f"{checked}/20 threshold pairs match the classical filter")


def test_criterion_12_cli_determinism(capsys):
    """Same command and seed twice gives byte-identical JSON."""
    argv = ["max-sharpe", "--input", FIXTURE, "--seed", "123", "--repeat", "5"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    ok = first == second and first.endswith("\n")
    report(12, ok, f"{len(first.encode())} bytes, identical={first == second}")
    assert first == second
    payload = json.loads(first)
    assert payload["id"] == 2
