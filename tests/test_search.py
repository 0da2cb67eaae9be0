import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qslice import (
    ANGLE_BITS,
    ValueTable,
    counting_distribution,
    counting_register,
    delta_m_bound,
    direct_marking_oracle,
    effective_grover_step,
    effective_state_new,
    enumerate_solutions,
    gas,
    grover_angle,
    grover_plan,
    grover_search,
    iteration_count,
    m_detect,
    m_exact,
    quantum_counting,
    single_list_oracle,
    t_for_resolution,
    two_list_oracle,
)
from qslice import search
from qslice.search import (
    SearchDisagreement,
    closest_integer,
    default_qes_budget,
    estimate_from_outcome,
    gas_budget,
    marked_probability_after,
    qes,
    qpe_distribution,
    register_error_bound,
)


# ---------------------------------------------------------------------------
# Angles and iteration planning
# ---------------------------------------------------------------------------


def test_grover_angle_examples():
    assert abs(grover_angle(4, 1) - math.pi / 3) < 1e-12
    assert abs(grover_angle(8, 8) - math.pi) < 1e-12
    assert abs(grover_angle(8, 1) - 0.7227342478134157) < 1e-12
    with pytest.raises(ValueError):
        grover_angle(8, 0)
    with pytest.raises(ValueError):
        grover_angle(8, 9)


def test_closest_integer_half_down():
    assert closest_integer(1.5) == 1
    assert closest_integer(2.5) == 2
    assert closest_integer(1.49) == 1
    assert closest_integer(1.51) == 2
    assert closest_integer(0.5) == 0


def test_iteration_count_examples():
    assert iteration_count(4, 1) == 1
    assert iteration_count(8, 1) == 2  # 2.1733 - 0.5 = 1.6733 -> 2
    assert iteration_count(8, 4) == 0  # exactly 0.5 rounds down
    with pytest.raises(ValueError):
        iteration_count(8, 0)
    with pytest.raises(ValueError):
        iteration_count(8, 5)


def test_grover_plan_invariant():
    plan = grover_plan(16, 2)
    assert plan.theta == grover_angle(16, 2)
    assert plan.iterations == iteration_count(16, 2)


# ---------------------------------------------------------------------------
# Grover search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["dense", "effective"])
def test_grover_exact_case_both_backends(backend):
    oracle = direct_marking_oracle(2, {3})
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert grover_search(oracle, 1, rng, backend) == 3


def test_grover_zero_iterations_uniform():
    oracle = direct_marking_oracle(3, {1})
    seen = {grover_search(oracle, 0, np.random.default_rng(s)) for s in range(64)}
    assert len(seen) >= 6  # essentially uniform sampling


def test_grover_two_steps_probability():
    # exact arithmetic from the mean reflections: 121/128 after two steps
    oracle = direct_marking_oracle(3, {5})
    assert abs(marked_probability_after(oracle, 2) - 121 / 128) < 1e-12


def test_success_floor_small():
    for n in (2, 3, 4):
        size = 1 << n
        for marked_count in range(1, size // 2 + 1):
            oracle = direct_marking_oracle(n, set(range(marked_count)))
            steps = iteration_count(size, marked_count)
            assert marked_probability_after(oracle, steps) >= 0.5 - 1e-9


# ---------------------------------------------------------------------------
# Exponential search
# ---------------------------------------------------------------------------


def test_qes_all_marked_returns_immediately():
    oracle = direct_marking_oracle(3, set(range(8)))
    out = qes(oracle, np.random.default_rng(5))
    assert out.found_index is not None
    assert out.oracle_calls == 0  # the first round draws j = 0


def test_qes_regression_fixture():
    # frozen seeded run: N=64, marked {17}
    oracle = direct_marking_oracle(6, {17})
    out = qes(oracle, np.random.default_rng(11))
    assert out.found_index == 17
    assert out.oracle_calls == 4
    assert out.oracle_calls <= default_qes_budget(64) == 40


def test_qes_no_solution_times_out_at_budget():
    oracle = direct_marking_oracle(4, set())
    out = qes(oracle, np.random.default_rng(3))
    assert out.found_index is None
    assert out.oracle_calls >= default_qes_budget(16)


@pytest.mark.parametrize("seed", range(30))
def test_qes_returned_index_satisfies_predicate(seed):
    rng = np.random.default_rng(seed)
    marked = {int(k) for k in rng.choice(32, size=3, replace=False)}
    oracle = direct_marking_oracle(5, marked)
    out = qes(oracle, rng)
    assert out.found_index in marked
    for entry in out.rounds:
        assert entry.accepted == (entry.measured in marked)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def test_m_formulas():
    assert m_exact(8) == 4
    assert m_exact(16) == 5
    assert m_exact(1024) == 11
    assert m_detect(8) == 4
    assert m_detect(16) == 4
    assert m_detect(1024) == 7
    with pytest.raises(ValueError):
        m_exact(12)


def test_delta_m_bound_values():
    assert abs(delta_m_bound(16, 4, 5) - 0.25390625) < 1e-15
    assert delta_m_bound(32, 0, 3) == 32 / 4 * 2.0**-6
    assert abs(delta_m_bound(8, 4, m_exact(8)) - 0.3613658905932738) < 1e-12
    assert delta_m_bound(8, 4, 4) < 0.5


def test_counting_register_adds_the_angle_bits():
    # an m-qubit register resolves theta / 2pi, so it needs ceil(log2 2pi) more
    assert ANGLE_BITS == 3
    assert counting_register(m_exact(8)) == 7
    assert counting_register(m_detect(16)) == 7
    assert search.ENUMERATION_EXTRA_BITS == 4


def test_register_error_bound_covers_the_true_count():
    # Brassard, Hoyer, Mosca & Tapp 2002, Thm 12: an m-qubit register puts
    # mass >= 8/pi^2 within the bound of the true count
    for size in (8, 16):
        for m in range(2, 9):
            for marked_count in range(size // 2 + 1):
                bound = register_error_bound(size, marked_count, m)
                assert abs(
                    bound
                    - (2 * math.pi * 2.0**-m * math.sqrt(size * marked_count)
                       + math.pi**2 * size * 4.0**-m)
                ) < 1e-12
                dist = counting_distribution(size, marked_count, m)
                mass = sum(
                    p
                    for b, p in enumerate(dist)
                    if abs(estimate_from_outcome(b, m, size)[1] - marked_count) <= bound
                )
                assert mass >= 8 / math.pi**2, (size, m, marked_count, mass)


def test_t_for_resolution():
    assert t_for_resolution(0.01) == 7
    assert t_for_resolution(0.5) == 1
    assert t_for_resolution(1 / 256) == 8
    with pytest.raises(ValueError):
        t_for_resolution(0.0)
    with pytest.raises(ValueError):
        t_for_resolution(1.5)


def test_counting_zero_solutions():
    oracle = direct_marking_oracle(3, set())
    est = quantum_counting(oracle, 4, np.random.default_rng(0))
    assert est.b == 0 and est.m_est == 0 and est.classify() == "none"


def test_counting_exact_quarter_turn():
    # N=4, M=2: theta = pi/2, so phases +-1/4 are exact at m=2
    oracle = direct_marking_oracle(2, {0, 2})
    est = quantum_counting(oracle, 2, np.random.default_rng(1))
    assert est.b in (1, 3)
    assert abs(est.distribution[1] - 0.5) < 1e-9
    assert abs(est.distribution[3] - 0.5) < 1e-9
    assert abs(est.m_est - 2.0) < 1e-9


def test_counting_dense_matches_effective():
    vt = ValueTable(2, (1, 3, 0, 2))
    oracle = single_list_oracle(vt, 1)
    rng = np.random.default_rng(2)
    dense = quantum_counting(oracle, 3, rng, backend="dense")
    effective = quantum_counting(oracle, 3, rng, backend="effective")
    assert np.allclose(dense.distribution, effective.distribution, atol=1e-9)


def test_counting_dense_matches_effective_direct_marking():
    for marked in (set(), {1}, {1, 5}, {0, 2, 3, 6}):
        oracle = direct_marking_oracle(3, marked)
        rng = np.random.default_rng(7)
        dense = quantum_counting(oracle, 4, rng, backend="dense")
        eff = counting_distribution(8, len(marked), 4)
        assert np.allclose(dense.distribution, eff, atol=1e-9), marked


def test_qpe_distribution_normalised():
    for phi in (0.0, 0.11, 1 / 3, 0.5, 0.93):
        for m in (2, 3, 5):
            dist = qpe_distribution(phi, m)
            assert abs(dist.sum() - 1.0) < 1e-9


def test_counting_recovers_clean_cases():
    # the subset of exact-count claims that the register width can support
    for size, n in ((8, 3), (16, 4)):
        m = m_exact(size)
        for marked_count in (0, 1, size // 2):
            dist = counting_distribution(size, marked_count, m)
            mass = sum(
                p
                for b, p in enumerate(dist)
                if estimate_from_outcome(b, m, size)[2] == marked_count
            )
            assert mass >= 0.8, (size, marked_count, mass)
        for marked_count in range(size // 2 + 1):
            assert delta_m_bound(size, marked_count, m) < 0.5


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_no_solutions():
    result = enumerate_solutions(direct_marking_oracle(3, set()), np.random.default_rng(0))
    assert result.indices == frozenset()
    assert result.grover_runs == 0


def test_enumerate_two_of_eight():
    result = enumerate_solutions(direct_marking_oracle(3, {1, 3}), np.random.default_rng(42))
    assert result.indices == frozenset({1, 3})
    assert not result.doubled


def test_enumerate_half_marked_no_doubling():
    result = enumerate_solutions(
        direct_marking_oracle(3, set(range(4))), np.random.default_rng(9)
    )
    assert result.indices == frozenset(range(4))
    assert not result.doubled


def test_enumerate_all_marked_triggers_doubling():
    result = enumerate_solutions(
        direct_marking_oracle(3, set(range(8))), np.random.default_rng(10)
    )
    assert result.indices == frozenset(range(8))
    assert result.doubled


@pytest.mark.parametrize("seed", range(10))
def test_enumerate_resolution_critical_counts(seed):
    # M = 3 of 8 needs the widened counting register to round correctly
    result = enumerate_solutions(
        direct_marking_oracle(3, {0, 5, 6}), np.random.default_rng(seed)
    )
    assert result.indices == frozenset({0, 5, 6})


def test_enumerate_overcount_raises_search_disagreement(monkeypatch):
    # counting reports 3 solutions where 2 exist: the searches stop at the
    # run cap with the one error the CLI maps to exit code 2
    real = search._median_count
    monkeypatch.setattr(search, "_median_count", lambda *a: (3, real(*a)[1]))
    with pytest.raises(SearchDisagreement, match="collected 2 of a counted 3") as exc:
        enumerate_solutions(direct_marking_oracle(3, {2, 5}), np.random.default_rng(0))
    assert isinstance(exc.value, RuntimeError)


@st.composite
def tables_and_thresholds(draw):
    """A random single-list table with a gt or lt threshold, up to 64 entries."""
    n = draw(st.integers(1, 6))
    t = draw(st.integers(1, 4))
    value = st.integers(0, (1 << t) - 1)
    table = ValueTable(t, draw(st.lists(value, min_size=1 << n, max_size=1 << n)))
    return table, draw(st.sampled_from(["gt", "lt"])), draw(value)


def classical_ids(table, op, threshold):
    compare = np.greater if op == "gt" else np.less
    return frozenset(np.flatnonzero(compare(np.asarray(table.values), threshold)).tolist())


@settings(max_examples=100, deadline=None)
@given(tables_and_thresholds(), st.integers(0, 2**32 - 1))
def test_enumerate_without_solutions_property(case, seed):
    table, op, _ = case
    # a threshold at the table's extreme marks nothing
    threshold = max(table.values) if op == "gt" else min(table.values)
    result = enumerate_solutions(
        single_list_oracle(table, threshold, op), np.random.default_rng(seed)
    )
    assert result.indices == classical_ids(table, op, threshold) == frozenset()
    assert result.grover_runs == 0


@settings(max_examples=100, deadline=None)
@given(tables_and_thresholds(), st.integers(0, 2**32 - 1))
def test_enumerate_over_half_marked_property(case, seed):
    table, op, threshold = case
    want = classical_ids(table, op, threshold)
    assume(len(want) > table.size / 2)
    result = enumerate_solutions(
        single_list_oracle(table, threshold, op), np.random.default_rng(seed)
    )
    assert result.indices == want
    assert result.doubled


@st.composite
def two_lists_over_half_marked(draw):
    """Return and risk tables with thresholds that more than half the rows pass."""
    n = draw(st.integers(1, 6))
    t = draw(st.integers(1, 4))
    top = (1 << t) - 1
    s1 = draw(st.integers(0, top - 1))
    s2 = draw(st.integers(1, top))
    size = 1 << n
    passing = set(draw(st.permutations(range(size)))[: draw(st.integers(size // 2 + 1, size))])
    returns, sigmas = [], []
    for k in range(size):
        if k in passing:
            returns.append(draw(st.integers(s1 + 1, top)))
            sigmas.append(draw(st.integers(0, s2 - 1)))
        elif draw(st.booleans()):  # fails on return
            returns.append(draw(st.integers(0, s1)))
            sigmas.append(draw(st.integers(0, top)))
        else:  # fails on risk
            returns.append(draw(st.integers(0, top)))
            sigmas.append(draw(st.integers(s2, top)))
    return ValueTable(t, returns), ValueTable(t, sigmas), s1, s2


@settings(max_examples=50, deadline=None)
@given(two_lists_over_half_marked(), st.integers(0, 2**32 - 1))
def test_enumerate_two_list_over_half_marked_property(case, seed):
    returns, sigmas, s1, s2 = case
    want = classical_ids(returns, "gt", s1) & classical_ids(sigmas, "lt", s2)
    assert len(want) > returns.size / 2
    result = enumerate_solutions(
        two_list_oracle(returns, sigmas, s1, s2), np.random.default_rng(seed)
    )
    assert result.indices == want
    assert result.doubled


# ---------------------------------------------------------------------------
# The effective evolution cache against the full-vector reference
# ---------------------------------------------------------------------------

#: Iteration counts that rise, repeat and fall.
STREAM_ITERATIONS = (0, 1, 1, 3, 2, 6, 6, 6, 0, 9, 4, 9, 12, 5, 5)


def reference_probabilities(oracle, iterations):
    """Index probabilities from stepping the whole vector from |psi>, every time."""
    state = effective_state_new(oracle.index_bits)
    for _ in range(iterations):
        state = effective_grover_step(state, oracle.marked_set)
    return state.probabilities()


def stream_oracles():
    gen = np.random.default_rng(2024)
    table = ValueTable(4, gen.integers(0, 16, 32).tolist())
    other = ValueTable(4, gen.integers(0, 16, 32).tolist())
    low = int(np.sort(table.values)[8])
    return {
        "random": lambda: single_list_oracle(table, 9, "gt"),
        "none marked": lambda: single_list_oracle(table, 15, "gt"),
        "all marked": lambda: direct_marking_oracle(4, range(16)),
        "over half": lambda: single_list_oracle(table, low, "gt"),
        "two-list": lambda: two_list_oracle(table, other, 4, 12),
        "random doubled": lambda: single_list_oracle(table, 9, "gt").doubled(),
        "over half doubled": lambda: single_list_oracle(table, low, "gt").doubled(),
        "all marked doubled": lambda: direct_marking_oracle(4, range(16)).doubled(),
    }


@pytest.mark.parametrize("name", list(stream_oracles()))
def test_grover_search_draws_what_choice_draws_on_the_reference(name):
    oracle = stream_oracles()[name]()
    ours, theirs = np.random.default_rng(77), np.random.default_rng(77)
    for _ in range(3):  # rising, repeated and falling counts, several passes
        for j in STREAM_ITERATIONS:
            probs = reference_probabilities(oracle, j)
            want = int(theirs.choice(probs.size, p=probs / probs.sum()))
            assert grover_search(oracle, j, ours) == want, (name, j)
            assert np.array_equal(oracle.evolution.probabilities(j), probs)  # bit for bit
            assert ours.bit_generator.state == theirs.bit_generator.state
            p_marked = float(sum(probs[k] for k in oracle.marked_set))
            assert abs(marked_probability_after(oracle, j) - p_marked) < 1e-12


def test_effective_steps_per_oracle_stop_at_the_largest_count(monkeypatch):
    steps = []

    def counting_step(state, marked):
        steps.append(state.size)
        return effective_grover_step(state, marked)

    monkeypatch.setattr(search, "effective_grover_step", counting_step)
    oracle = single_list_oracle(ValueTable(3, (1, 5, 3, 7, 0, 2, 6, 4)), 5, "gt")
    rng = np.random.default_rng(3)
    for j in STREAM_ITERATIONS:
        grover_search(oracle, j, rng)
    marked_probability_after(oracle, 7)
    assert len(steps) == max(STREAM_ITERATIONS)


def test_evolution_cache_holds_no_reference_to_its_oracle():
    oracle = single_list_oracle(ValueTable(3, (1, 5, 3, 7, 0, 2, 6, 4)), 5, "gt")
    grover_search(oracle, 2, np.random.default_rng(0))
    assert oracle.evolution is not None
    alive = weakref.ref(oracle)
    gc.disable()
    try:
        del oracle
        assert alive() is None  # freed by reference counting alone: no cycle
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Adaptive search
# ---------------------------------------------------------------------------


def test_gas_examples():
    vt = ValueTable(3, (1, 5, 3, 7))
    assert gas(vt, "max", np.random.default_rng(1), 3).index == 3
    assert gas(vt, "min", np.random.default_rng(2), 3).index == 0


def test_gas_ties_stable_per_seed():
    vt = ValueTable(2, (2, 2, 2, 2))
    first = gas(vt, "max", np.random.default_rng(3), 2).index
    second = gas(vt, "max", np.random.default_rng(3), 2).index
    assert first == second


def test_gas_budget_respected():
    vt = ValueTable(4, tuple(range(16)))
    limit = gas_budget(16) + math.ceil(math.sqrt(16))
    for seed in range(10):
        result = gas(vt, "max", np.random.default_rng(seed), 2)
        for rep in result.repetitions:
            assert rep.oracle_calls <= limit


def test_gas_counting_termination_mode():
    vt = ValueTable(3, (1, 5, 3, 7))
    result = gas(
        vt, "max", np.random.default_rng(4), 2, counting_termination=True
    )
    assert result.index == 3


def test_gas_validation():
    vt = ValueTable(2, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        gas(vt, "sideways", np.random.default_rng(0), 1)
    with pytest.raises(ValueError):
        gas(vt, "max", np.random.default_rng(0), 0)


@pytest.mark.parametrize("repetitions", [1, 2, 3])
def test_gas_success_frequency_random_tables(repetitions):
    # frequency of hitting the true extremum over 200 seeded runs stays
    # above 1 - 1/2^c minus sampling slack; every run respects the budget
    limit = gas_budget(8) + math.ceil(math.sqrt(8))
    hits = 0
    runs = 200
    for seed in range(runs):
        rng = np.random.default_rng(3000 + seed)
        vt = ValueTable(4, rng.integers(0, 16, size=8))
        best = max(vt.values)
        result = gas(vt, "max", rng, repetitions)
        if vt[result.index] == best:
            hits += 1
        for rep in result.repetitions:
            assert rep.oracle_calls <= limit
    assert hits / runs >= 1 - 1 / 2**repetitions - 0.05
