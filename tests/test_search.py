import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
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
    grover_operator,
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
from qslice import search, sim
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
    assert t_for_resolution(2.0**-53) == 53
    for d in (0.0, 1.0, 1.5, 1e-20, 1e-320):
        # 1e-20 needs 67 bits and 1/1e-320 overflows to inf
        with pytest.raises(ValueError, match="resolution"):
            t_for_resolution(d)


def test_counting_register_above_the_cap_is_refused_before_allocating():
    oracle = direct_marking_oracle(3, {1})
    oracle.marked_set  # built outside the traced window
    tracemalloc.start()
    try:
        with pytest.raises(sim.CapacityError):
            quantum_counting(oracle, sim.DENSE_QUBIT_CAP + 1, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def longdouble_kernel(phase_turns, m):
    """``qpe_distribution``'s law from the same float phase, in long double."""
    size = 1 << m
    pi = 4 * np.arctan(np.longdouble(1))
    phi = np.longdouble(phase_turns) % 1
    x = phi * size
    nearest = np.rint(x)
    if abs(x - nearest) < 1e-12:
        dist = np.zeros(size, dtype=np.longdouble)
        dist[int(nearest) % size] = 1
        return dist
    b = np.arange(size, dtype=np.longdouble)
    return np.sin(pi * (x - b)) ** 2 / (size * np.sin(pi * (phi - b / size))) ** 2


def counting_cases(max_bits):
    """(N, M) at every N up to 2^max_bits: M = 0, 1, 2, 3, N/4, N/2 +- 1, N - 1, N."""
    for n in range(1, max_bits + 1):
        size = 1 << n
        marked = {0, 1, 2, 3, size // 4, size // 2 - 1, size // 2, size // 2 + 1, size - 1, size}
        yield from ((size, k) for k in sorted(marked) if 0 <= k <= size)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double here",
)
def test_counting_distribution_is_within_an_ulp_of_the_long_double_law():
    for size, marked_count in counting_cases(12):
        m = m_exact(size) + search.ENUMERATION_EXTRA_BITS
        if marked_count == 0:
            want = np.zeros(1 << m)
            want[0] = 1.0
        else:
            phi = grover_angle(size, marked_count) / (2 * math.pi)
            want = 0.5 * longdouble_kernel(phi, m) + 0.5 * longdouble_kernel(-np.longdouble(phi), m)
        got = counting_distribution(size, marked_count, m)
        error = float(np.max(np.abs(got - want)))
        assert error <= 1e-15, (size, marked_count, m, error)


def test_counting_distribution_is_mirror_symmetric_and_normalised():
    cases = [(size, k, m_exact(size) + search.ENUMERATION_EXTRA_BITS) for size, k in counting_cases(12)]
    for size, marked_count, m in cases + [(4096, 2048, 17), (8, 3, 3), (2, 1, 1)]:
        dist = counting_distribution(size, marked_count, m)
        mirrored = dist[-np.arange(dist.size) % dist.size]
        assert dist.tobytes() == mirrored.tobytes(), (size, marked_count, m)
        assert abs(dist.sum() - 1.0) < 1e-12, (size, marked_count, m)


@pytest.mark.parametrize("backend, n, m", [("dense", 3, 5), ("effective", 6, 11)])
def test_counting_draws_are_what_choice_draws(backend, n, m, monkeypatch):
    size = 1 << n
    drawn = []
    real = search.estimate_from_outcome

    def recording(b, *args):
        drawn.append(int(b))
        return real(b, *args)

    monkeypatch.setattr(search, "estimate_from_outcome", recording)
    samples = search.ENUMERATION_SAMPLES
    for marked_count in (0, 1, size // 4, size // 2, 3 * size // 4 - 1):
        marked = np.random.default_rng(marked_count).choice(size, marked_count, replace=False)
        oracle = direct_marking_oracle(n, marked.tolist())
        for seed in range(8):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn.clear()
            _, est = search._median_count(oracle, m, ours, backend, samples)
            p = est.distribution / est.distribution.sum()
            want_b = int(theirs.choice(p.size, p=p))
            want = theirs.choice(p.size, size=samples, p=p).tolist()
            assert est.b == want_b, (marked_count, seed)
            assert drawn == [want_b] + want, (marked_count, seed)
            assert ours.bit_generator.state == theirs.bit_generator.state


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


@st.composite
def tables_over_half_marked(draw):
    """A single-list table with a gt or lt threshold that more than half the entries pass."""
    n = draw(st.integers(1, 6))
    t = draw(st.integers(1, 4))
    top = (1 << t) - 1
    op = draw(st.sampled_from(["gt", "lt"]))
    if op == "gt":
        threshold = draw(st.integers(0, top - 1))
        passes, fails = st.integers(threshold + 1, top), st.integers(0, threshold)
    else:
        threshold = draw(st.integers(1, top))
        passes, fails = st.integers(0, threshold - 1), st.integers(threshold, top)
    size = 1 << n
    passing = set(draw(st.permutations(range(size)))[: draw(st.integers(size // 2 + 1, size))])
    values = [draw(passes if k in passing else fails) for k in range(size)]
    return ValueTable(t, values), op, threshold


@settings(max_examples=100, deadline=None)
@given(tables_over_half_marked(), st.integers(0, 2**32 - 1))
def test_enumerate_over_half_marked_property(case, seed):
    table, op, threshold = case
    want = classical_ids(table, op, threshold)
    assert len(want) > table.size / 2
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


@pytest.mark.parametrize("backend", ["dense", "effective"])
def test_evolution_cache_holds_no_reference_to_its_oracle(backend):
    oracle = single_list_oracle(ValueTable(3, (1, 5, 3, 7, 0, 2, 6, 4)), 5, "gt")
    grover_search(oracle, 2, np.random.default_rng(0), backend)
    assert (oracle.dense_evolution if backend == "dense" else oracle.evolution) is not None
    alive = weakref.ref(oracle)
    gc.disable()
    try:
        del oracle
        assert alive() is None  # freed by reference counting alone: no cycle
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The effective backend's closed-form draw against the CDF it replaces
# ---------------------------------------------------------------------------


def stepped_probabilities(oracle, iterations):
    """Index probabilities for each j in ``iterations``, stepped once from |psi>."""
    marked = sorted(oracle.marked_set)
    state = effective_state_new(oracle.index_bits)
    table = {0: state.probabilities()}
    for j in range(1, max(iterations) + 1):
        state = effective_grover_step(state, marked)
        table[j] = state.probabilities()
    return table


@st.composite
def random_masks(draw):
    n = draw(st.integers(1, 12))
    size = 1 << n
    count = draw(st.one_of(st.sampled_from([0, 1, size // 4, size - 1, size]), st.integers(0, size)))
    marked = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(
        size, size=count, replace=False
    )
    top = int(2 * math.sqrt(size)) + 2
    iterations = draw(st.lists(st.integers(0, top), min_size=1, max_size=6))
    return n, marked.tolist(), iterations


@settings(max_examples=60, deadline=None)
@given(case=random_masks(), seed=st.integers(0, 2**32 - 1))
def test_effective_draw_is_choice_on_random_masks(case, seed):
    n, marked, iterations = case
    oracle = direct_marking_oracle(n, marked)
    probs = stepped_probabilities(oracle, iterations)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for j in iterations:
        for _ in range(25):
            want = int(theirs.choice(probs[j].size, p=probs[j] / probs[j].sum()))
            assert grover_search(oracle, j, ours) == want, (j, len(marked))
            assert ours.bit_generator.state == theirs.bit_generator.state


class StubGenerator:
    """Returns the given uniforms in order, as ``Generator.random`` would."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return float(next(self.values))


@pytest.mark.parametrize(
    "n, marked",
    [
        (6, (3, 4, 17, 18, 19, 40, 63)),
        (6, tuple(k for k in range(64) if k % 7)),  # the unmarked class is the smaller
        (5, ()),
        (5, tuple(range(32))),
        (4, (0, 5, 10, 15)),  # M = N/4: no unmarked mass at j = 1
    ],
)
def test_effective_draw_on_every_cdf_boundary_is_searchsorted(n, marked, monkeypatch):
    fallbacks = []
    reference_locate = search._Evolution.locate

    def counted(self, iterations, v):
        fallbacks.append(v)
        return reference_locate(self, iterations, v)

    monkeypatch.setattr(search._Evolution, "locate", counted)
    oracle = direct_marking_oracle(n, marked)
    iterations = list(range(int(2 * math.sqrt(1 << n)) + 3))
    for j, probs in stepped_probabilities(oracle, iterations).items():
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        values = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
        values = values[values < 1.0]
        rng = StubGenerator(values)
        for v in values:
            assert grover_search(oracle, j, rng) == int(cdf.searchsorted(v, side="right")), (j, v)
    assert fallbacks  # the CDF path really ran on values at the boundaries


def test_effective_draw_builds_no_cdf_away_from_the_boundaries(monkeypatch):
    def no_cdf(self, iterations, v):
        raise AssertionError(f"the CDF path ran at j={iterations}, v={v}")

    monkeypatch.setattr(search._Evolution, "locate", no_cdf)
    gen = np.random.default_rng(11)
    for n, count in ((1, 1), (4, 0), (6, 16), (9, 100), (9, 500), (12, 4096), (12, 1500)):
        marked = gen.choice(1 << n, size=count, replace=False)
        oracle = direct_marking_oracle(n, marked.tolist())
        rng = np.random.default_rng(n)
        for j in (0, 1, 2, 5, int(2 * math.sqrt(1 << n)) + 2):
            for _ in range(300):
                grover_search(oracle, j, rng)


def test_effective_draw_with_no_unmarked_mass():
    # M = N/4: one iteration rotates all the amplitude onto the marked class
    oracle = direct_marking_oracle(6, range(0, 64, 4))
    assert search._evolution(oracle).record(1)[1] == 0.0
    probs = stepped_probabilities(oracle, [1])[1]
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        want = int(theirs.choice(probs.size, p=probs / probs.sum()))
        got = grover_search(oracle, 1, ours)
        assert got == want and got % 4 == 0
    assert ours.bit_generator.state == theirs.bit_generator.state


# ---------------------------------------------------------------------------
# The dense evolution cache against simulating from |0> every run
# ---------------------------------------------------------------------------


def dense_search_from_scratch(oracle, iterations, rng):
    """Prepare from |0>, apply a freshly built Grover operator j times, measure."""
    state = sim.apply(sim.new_basis_state(oracle.num_qubits, 0), oracle.prep_circuit)
    op = grover_operator(oracle)
    for _ in range(iterations):
        state = sim.apply(state, op)
    outcome, _ = sim.measure_subregister(state, oracle.layout.index, rng)
    return outcome


def dense_stream_oracles():
    table = ValueTable(2, (1, 3, 0, 2, 3, 1, 2, 0))
    return {
        "single-list": lambda: single_list_oracle(table, 1, "gt"),
        "over half": lambda: single_list_oracle(table, 0, "gt"),
        "direct marking": lambda: direct_marking_oracle(3, (2, 5, 6)),
        "single-list doubled": lambda: single_list_oracle(table, 1, "gt").doubled(),
        "direct marking doubled": lambda: direct_marking_oracle(3, (2, 5, 6)).doubled(),
    }


@pytest.mark.parametrize("name", list(dense_stream_oracles()))
def test_dense_grover_search_draws_what_simulating_from_scratch_draws(name):
    oracle = dense_stream_oracles()[name]()
    ours, theirs = np.random.default_rng(78), np.random.default_rng(78)
    for _ in range(2):  # rising, repeated and falling counts, several passes
        for j in STREAM_ITERATIONS:
            want = dense_search_from_scratch(oracle, j, theirs)
            assert grover_search(oracle, j, ours, "dense") == want, (name, j)
            assert ours.bit_generator.state == theirs.bit_generator.state


def test_dense_search_builds_one_operator_and_steps_to_the_largest_count(monkeypatch):
    builds, applied = [], []
    build, apply = search.grover_operator, sim.apply
    monkeypatch.setattr(search, "grover_operator", lambda o: builds.append(1) or build(o))
    monkeypatch.setattr(
        sim, "apply", lambda state, c, **kw: applied.append(c) or apply(state, c, **kw)
    )
    oracle = single_list_oracle(ValueTable(3, (1, 5, 3, 7, 0, 2, 6, 4)), 5, "gt")
    rng = np.random.default_rng(3)
    for j in STREAM_ITERATIONS:
        grover_search(oracle, j, rng, "dense")
    assert len(builds) == 1
    op = oracle.dense_evolution.operator
    assert sum(c is op for c in applied) == max(STREAM_ITERATIONS)
    assert len(applied) == max(STREAM_ITERATIONS) + 1  # and one preparation


def lifted_counting_distribution(oracle, m):
    """Counting as one circuit: controlled(G)^(2^j) per register qubit over all w + m qubits."""
    work = oracle.num_qubits
    nq = work + m
    counting = list(range(work, nq))
    gates = list(sim.remap(oracle.prep_circuit, {}, nq).gates)
    gates.extend(sim.h(c) for c in counting)
    op = grover_operator(oracle)
    for j, cq in enumerate(counting):
        lifted = sim.remap(sim.controlled(op, {cq}), {}, nq)
        for _ in range(1 << j):
            gates.extend(lifted.gates)
    gates.extend(sim.inverse_qft_circuit(counting, nq).gates)
    state = sim.apply(sim.new_basis_state(nq, 0), sim.Circuit(nq, tuple(gates)))
    return sim.subregister_distribution(state, counting)


def counting_oracles(seed):
    gen = np.random.default_rng(seed)
    table = ValueTable(2, gen.integers(0, 4, 4).tolist())
    single = single_list_oracle(table, int(gen.integers(0, 4)), "gt")
    marked = gen.choice(8, size=int(gen.integers(0, 9)), replace=False).tolist()
    return {
        "single-list": single,
        "direct marking": direct_marking_oracle(3, marked),
        "single-list doubled": single.doubled(),
        "direct marking doubled": direct_marking_oracle(3, marked).doubled(),
    }


@pytest.mark.parametrize("m", range(1, 6))
def test_dense_counting_matches_the_lifted_circuit(m, monkeypatch):
    applied = []
    apply = sim.apply
    monkeypatch.setattr(
        sim, "apply", lambda state, c, **kw: applied.append(c) or apply(state, c, **kw)
    )
    for seed in range(3):
        for name, oracle in counting_oracles(seed).items():
            applied.clear()
            got = quantum_counting(oracle, m, np.random.default_rng(0), "dense").distribution
            op = oracle.dense_evolution.operator
            assert sum(c is op for c in applied) == (1 << m) - 1, name
            want = lifted_counting_distribution(oracle, m)
            assert np.max(np.abs(got - want)) < 1e-12, (name, seed)


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
