import gc
import itertools
import math
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laws import counting_law, two_kernel_law

from qslice import (
    ANGLE_BITS,
    ValueTable,
    any_of,
    condition_oracle,
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
    greater_than,
    iteration_count,
    less_than,
    m_detect,
    m_exact,
    quantum_counting,
    single_list_oracle,
    t_for_resolution,
    two_list_oracle,
)
from qslice import oracles, search, sim
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
    # frozen seeded run: N=64, marked {17}, drawn in class order (17 first)
    oracle = direct_marking_oracle(6, {17})
    out = qes(oracle, np.random.default_rng(11))
    assert out.found_index == 17
    assert out.oracle_calls == 5
    assert [r.iterations for r in out.rounds] == [0, 0, 0, 1, 0, 1, 1, 2]
    assert [r.measured for r in out.rounds] == [37, 14, 51, 54, 7, 25, 10, 17]
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


@pytest.mark.parametrize("backend", ["dense", "effective"])
def test_counting_register_above_the_cap_is_refused_before_allocating(backend):
    # a dense count is refused; an effective count draws with no 2^m array,
    # and reading its law is refused
    oracle = direct_marking_oracle(3, {1})
    oracle.marked_set  # built outside the traced window
    tracemalloc.start()
    try:
        if backend == "dense":
            with pytest.raises(sim.CapacityError, match="dense cap"):
                quantum_counting(oracle, sim.DENSE_QUBIT_CAP + 1, np.random.default_rng(0), backend)
        else:
            est = quantum_counting(oracle, sim.DENSE_QUBIT_CAP + 1, np.random.default_rng(0), backend)
            assert est.m_rounded == 1
            for read in ("distribution", "cdf"):
                with pytest.raises(sim.CapacityError, match="dense cap"):
                    getattr(est, read)
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


def sampler_cases():
    """(x, m, want) for the counting sampler off a point mass.

    Every N from 2 to 64 and m from 1 to 10 at M = 1, 2, N/4, N/2 - 1 and
    N - 1, with ``counting_law`` as the law; M = N/2 at m = 1, where
    delta = +1/2; and x = 1.5, 2.5 and 2^m - 2.5, where delta = -1/2, +1/2
    and -1/2, with ``two_kernel_law``.
    """
    cases = []
    for n, m in itertools.product(range(1, 7), range(1, 11)):
        size = 1 << n
        for marked in sorted({1, 2, size // 4, size // 2 - 1, size - 1} & set(range(1, size + 1))):
            cases.append((size, marked, m))
        if m == 1:
            cases.append((size, size // 2, m))
    for size, marked, m in cases:
        x = grover_angle(size, marked) / (2 * math.pi) * (1 << m)
        if abs(x - round(x)) >= 1e-12:
            yield x, m, counting_law(size, marked, m)
    for m in (2, 3, 5, 9):
        for x in (1.5, 2.5, (1 << m) - 2.5):
            yield x, m, two_kernel_law(x, m)


def sampler_law(x, m, dist=None):
    """The exact law of ``_CountSampler(x, 2^m).draw``, and the share of proposals it accepts.

    Each window offset k is proposed with probability g(k) / total from
    either peak, each taken with probability 1/2, and its outcome is then
    accepted with probability P(b) / bound(b).
    """
    size = 1 << m
    sampler = search._CountSampler(x, size)
    k = np.arange(sampler.first, sampler.first + size)
    law = np.zeros(size)
    for sign in (0.0, 0.5):  # the +phi peak, then the -phi peak
        b, bound, target = sampler.outcomes(k, np.full(size, sign), dist)
        assert (target < bound).all(), (x, m)
        np.add.at(law, b, 0.5 * sampler.envelope(k) / sampler.total * target / bound)
    return law / law.sum(), law.sum()


def test_count_sampler_law_is_the_counting_law():
    # accepted by the closed form, and as the dense backend accepts, by a
    # law array's entries
    cases = 0
    for x, m, want in sampler_cases():
        law, accepted = sampler_law(x, m)
        error = float(np.abs(law - want).max())
        assert error <= 1e-12, (x, m, error)
        assert 0.4 - 1e-12 <= accepted <= 4.0 / math.pi**2 + 1e-12, (x, m, accepted)
        assert float(np.abs(sampler_law(x, m, want)[0] - want).max()) <= 1e-12, (x, m)
        cases += 1
    assert cases >= 200


@pytest.mark.parametrize("x, m", [(0.5, 1), (1.5, 3), (2.5, 4), (7.8, 6), (1000.3, 12), (3.05, 9)])
def test_count_proposals_take_each_offset_with_its_envelope_weight(x, m):
    # the class a pick uniform selects, and the tail distance a tail uniform
    # rounds to, change exactly where the envelope's weights put them
    sampler = search._CountSampler(x, 1 << m)
    low, total = sampler.low, sampler.total
    edges = np.concatenate(([0.0], sampler.cuts / total, [1.0]))
    central = sampler.envelope(np.array([low, low + 1])) / total
    np.testing.assert_allclose(np.diff(edges[:3]), central, rtol=1e-12)
    for c, k in enumerate((low, low + 1)):
        inside = np.array([edges[c] + 1e-12, edges[c + 1] - 1e-12])
        assert sampler.offsets(inside, np.zeros(2)).tolist() == [k, k]
    j = np.arange(1, 400)
    for which, d, offset in ((2, sampler.far, low + 1 + j), (3, sampler.near, low - j)):
        pick = np.full(j.size, (edges[which] + edges[which + 1]) / 2)
        # a tail uniform from 1 - (d + 1/2) / (d + j - 1/2) on proposes j or more past the pair
        start = 1.0 - (d + 0.5) / (d + j - 0.5)
        assert (sampler.offsets(pick, start + 1e-12) == offset).all()
        assert (sampler.offsets(pick[1:], start[1:] - 1e-12) == offset[:-1]).all()
        share = (edges[which + 1] - edges[which]) * np.diff(np.append(start, 1.0 - (d + 0.5) / (d + j[-1] + 0.5)))
        np.testing.assert_allclose(share, sampler.envelope(offset) / total, rtol=1e-9)


@st.composite
def counting_oracles(draw):
    n = draw(st.integers(1, 4))
    size = 1 << n
    count = draw(st.one_of(st.sampled_from([0, 1, size // 2, size]), st.integers(0, size)))
    marked = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(size, size=count, replace=False)
    return n, marked.tolist(), draw(st.integers(1, 7))


@given(counting_oracles(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dense_and_effective_counts_draw_alike(case, seed):
    # the same proposals from the same uniforms, each accepted by its own
    # backend's law: equal draws but for a uniform within rounding of an edge
    n, marked, m = case
    oracle = direct_marking_oracle(n, marked)
    drawn = {}
    for backend in ("dense", "effective"):
        rng = np.random.default_rng(seed)
        median, est = search._median_count(oracle, m, rng, backend, search.ENUMERATION_SAMPLES)
        _, more = search._count(oracle, m, rng, backend, 16)
        drawn[backend] = (median, est.b, more.tolist(), rng.bit_generator.state)
    assert drawn["dense"] == drawn["effective"], (n, marked, m)


@pytest.mark.parametrize(
    "size, marked_count", [(8, 3), (64, 0), (64, 64), (256, 5), (4096, 40), (4096, 4093)]
)
def test_effective_count_law_is_the_full_law_bit_for_bit(size, marked_count):
    m = m_exact(size) + search.ENUMERATION_EXTRA_BITS
    oracle = direct_marking_oracle(size.bit_length() - 1, list(range(marked_count)))
    est = quantum_counting(oracle, m, np.random.default_rng(0))
    want = counting_distribution(size, marked_count, m)
    assert est.distribution.tobytes() == want.tobytes()
    assert est.cdf.tobytes() == search._measurement_cdf(want).tobytes()
    assert est.distribution is est.distribution and est.cdf is est.cdf  # built once


def test_counts_placed_in_the_peak_windows_build_no_full_law(monkeypatch):
    def no_full_law(*args):
        raise AssertionError(f"the full counting law was built for {args}")

    monkeypatch.setattr(search, "counting_distribution", no_full_law)
    m = m_exact(4096) + search.ENUMERATION_EXTRA_BITS
    samples = search.ENUMERATION_SAMPLES
    for marked_count in (0, 1, 40, 1000, 2048, 4096):
        oracle = direct_marking_oracle(12, list(range(marked_count)))
        for seed in range(10):
            rng = np.random.default_rng([4096, marked_count, seed])
            median, est = search._median_count(oracle, m, rng, "effective", samples)
            assert median == marked_count == est.m_rounded
    with pytest.raises(AssertionError, match="full counting law"):
        est.distribution


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


@pytest.mark.parametrize("backend", ["effective", "dense"])
@pytest.mark.parametrize("marked, doubled", [({1, 4, 6}, False), (set(range(7)), True)])
def test_enumeration_charges_every_count_draw(backend, marked, doubled, monkeypatch):
    # every outcome a count draws costs 2^m - 1 oracle calls, and every
    # fixed-iteration run its j: the reported calls are those and no others
    tally = []
    real = search._count

    def tallied(oracle, m, rng, backend, draws):
        tally.append(draws * ((1 << m) - 1))
        return real(oracle, m, rng, backend, draws)

    monkeypatch.setattr(search, "_count", tallied)
    for seed in range(3):
        tally.clear()
        result = enumerate_solutions(direct_marking_oracle(3, marked), np.random.default_rng(seed), backend)
        assert result.indices == frozenset(marked)
        assert (result.doubled, len(tally)) == (doubled, 1 + doubled)
        iterations = iteration_count(result.count_estimate.n_space, len(marked))
        assert result.oracle_calls == sum(tally) + iterations * result.grover_runs


@pytest.mark.parametrize("seed", range(10))
def test_enumerate_resolution_critical_counts(seed):
    # M = 3 of 8 needs the widened counting register to round correctly
    result = enumerate_solutions(
        direct_marking_oracle(3, {0, 5, 6}), np.random.default_rng(seed)
    )
    assert result.indices == frozenset({0, 5, 6})


def test_enumeration_above_the_dense_register_cap_collects_the_mask():
    # 22 index bits count on m_exact + 4 = 27 register qubits, one above the
    # dense cap: the effective count draws with no law array, so it runs
    values = np.random.default_rng(22).integers(0, 1 << 12, size=1 << 22)
    oracle = single_list_oracle(ValueTable(12, values), (1 << 12) - 65)  # about 1 in 64
    start = time.perf_counter()
    result = enumerate_solutions(oracle, np.random.default_rng(3))
    elapsed = time.perf_counter() - start
    assert result.count_estimate.m == sim.DENSE_QUBIT_CAP + 1
    assert result.indices == frozenset(np.flatnonzero(oracle.mask).tolist())
    assert elapsed <= 3.0


def test_enumerate_overcount_raises_search_disagreement(monkeypatch):
    # counting reports 3 solutions where 2 exist: the searches stop at the
    # run cap with the one error the CLI maps to exit code 2
    real = search._median_count
    monkeypatch.setattr(search, "_median_count", lambda *a: (3, real(*a)[1]))
    rng = np.random.default_rng(0)
    with pytest.raises(SearchDisagreement, match="collected 2 of a counted 3") as exc:
        enumerate_solutions(direct_marking_oracle(3, {2, 5}), rng)
    assert isinstance(exc.value, RuntimeError)
    reference = np.random.default_rng(0)
    with pytest.raises(SearchDisagreement) as want:
        scalar_enumeration(direct_marking_oracle(3, {2, 5}), reference)
    assert str(exc.value) == str(want.value)  # the same number of runs
    assert rng.bit_generator.state == reference.bit_generator.state


def scalar_enumeration(oracle, rng, backend="effective"):
    """``enumerate_solutions`` as it ran one ``grover_search`` call per run: the reference."""
    calls = 0
    doubled = False
    while True:
        m = m_exact(oracle.index_size) + search.ENUMERATION_EXTRA_BITS
        m_hat, estimate = search._median_count(
            oracle, m, rng, backend, search.ENUMERATION_SAMPLES
        )
        calls += search.ENUMERATION_SAMPLES * ((1 << m) - 1)
        if m_hat == 0:
            return search.EnumerationResult(frozenset(), estimate, calls, 0, doubled)
        if doubled or m_hat <= oracle.index_size / 2:
            break
        oracle = oracle.doubled()
        doubled = True

    iterations = iteration_count(oracle.index_size, m_hat)
    found: set[int] = set()
    runs = 0
    p = math.sin((2 * iterations + 1) * grover_angle(oracle.index_size, m_hat) / 2.0) ** 2
    max_attempts = max(64, math.ceil(m_hat * (math.log(m_hat) + 21) / p))
    while len(found) < m_hat:
        if runs >= max_attempts:
            raise SearchDisagreement(
                f"collected {len(found)} of a counted {m_hat} solutions after "
                f"{runs} searches; counting and search disagree"
            )
        measured = grover_search(oracle, iterations, rng, backend)
        calls += iterations
        runs += 1
        if oracle.predicate(measured):
            found.add(measured)
    return search.EnumerationResult(frozenset(found), estimate, calls, runs, doubled)


def enumeration_outcome(enumerate_, n, marked, backend, seed):
    """Every field of an enumeration (or its error) and the generator's final state."""
    rng = np.random.default_rng(seed)
    try:
        r = enumerate_(direct_marking_oracle(n, marked), rng, backend)
        est = r.count_estimate
        count = (est.m, est.b, est.n_space, est.theta_est, est.m_est, est.m_rounded, est.bound)
        fields = (r.indices, r.oracle_calls, r.grover_runs, r.doubled, count)
    except SearchDisagreement as exc:
        fields = str(exc)
    return fields, rng.bit_generator.state


@st.composite
def enumeration_masks(draw):
    backend = draw(st.sampled_from(["effective", "dense"]))
    n = draw(st.integers(1, 4 if backend == "dense" else 10))
    size = 1 << n
    favoured = st.sampled_from([0, 1, size // 2, size // 2 + 1, size])
    count = draw(st.one_of(favoured, st.integers(0, size)))
    marked = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(
        size, size=count, replace=False
    )
    # the module's block cap, and caps that split the runs across blocks
    block = draw(st.sampled_from([search.ENUMERATION_BLOCK, 1, 7, 100]))
    return backend, n, marked.tolist(), block


@settings(max_examples=150, deadline=None)
@given(case=enumeration_masks(), seed=st.integers(0, 2**32 - 1))
def test_block_enumeration_is_the_scalar_loop_on_random_masks(case, seed):
    backend, n, marked, block = case
    want = enumeration_outcome(scalar_enumeration, n, marked, backend, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "ENUMERATION_BLOCK", block)
        got = enumeration_outcome(enumerate_solutions, n, marked, backend, seed)
    assert got == want


@pytest.mark.parametrize("block", [search.ENUMERATION_BLOCK, 1, 7, 100])
def test_block_enumeration_is_the_scalar_loop_on_an_undercount(block, monkeypatch):
    # Counting reports half the solutions: the set completes before every
    # solution is drawn, and a block may hold new ones past that run.
    real = search._median_count

    def halved(*args):
        m_hat, estimate = real(*args)
        return max(1, m_hat // 2), estimate

    monkeypatch.setattr(search, "_median_count", halved)
    monkeypatch.setattr(search, "ENUMERATION_BLOCK", block)
    gen = np.random.default_rng(block)
    for n in (3, 6, 9):
        for count in (2, 3, (1 << n) // 4):
            marked = gen.choice(1 << n, size=count, replace=False).tolist()
            seed = int(gen.integers(2**32))
            want = enumeration_outcome(scalar_enumeration, n, marked, "effective", seed)
            assert enumeration_outcome(enumerate_solutions, n, marked, "effective", seed) == want


#: Block sizings for ``enumerate_solutions``: fixed sizes, and each block
#: holding every run up to the cap (``ENUMERATION_BLOCK`` still bounds it).
BLOCK_SIZINGS = {
    "1": lambda m_hat, missing, p, runs_left: min(1, runs_left),
    "7": lambda m_hat, missing, p, runs_left: min(7, runs_left),
    "64": lambda m_hat, missing, p, runs_left: min(64, runs_left),
    "to the cap": lambda m_hat, missing, p, runs_left: min(runs_left, search.ENUMERATION_BLOCK),
}


#: Counts as ``_median_count`` reports them: true, one over, halved.
MISCOUNTS = {"exact": lambda m_hat: m_hat, "over": lambda m_hat: m_hat + 1,
             "under": lambda m_hat: (m_hat + 1) // 2}


@pytest.mark.parametrize("sizing", BLOCK_SIZINGS)
@pytest.mark.parametrize("miscount", MISCOUNTS)
@pytest.mark.parametrize(
    "backend, n, count",
    [("effective", 10, 0), ("effective", 10, 5), ("effective", 10, 100),
     ("effective", 8, 200), ("dense", 3, 2), ("dense", 3, 7)],
)
def test_enumeration_is_the_same_whatever_its_block_sizes(
    backend, n, count, miscount, sizing, monkeypatch
):
    # M = 0, sparse M, and M > N/2 (a doubled oracle). An overcount ends the
    # runs at the cap in a SearchDisagreement, whose message is compared; an
    # undercount completes the set before every solution is drawn.
    real = search._median_count

    def reported(*args):
        m_hat, estimate = real(*args)
        return MISCOUNTS[miscount](m_hat), estimate

    monkeypatch.setattr(search, "_median_count", reported)
    marked = np.random.default_rng([n, count]).choice(1 << n, size=count, replace=False).tolist()
    outcomes = []
    for block in (search._enumeration_block, BLOCK_SIZINGS[sizing]):
        monkeypatch.setattr(search, "_enumeration_block", block)
        outcomes.append(enumeration_outcome(enumerate_solutions, n, marked, backend, count))
    assert outcomes[0] == outcomes[1]
    if miscount != "under":  # halving M > N/2 skips the doubling, and may end at the cap
        assert isinstance(outcomes[0][0], str) == (miscount == "over")


def test_enumeration_draws_its_runs_in_a_few_blocks(monkeypatch):
    shots = []
    real = search.grover_search

    def counted(*args, **kwargs):
        shots.append(kwargs.get("shots"))
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "grover_search", counted)
    marked = np.random.default_rng(6).choice(1024, size=100, replace=False).tolist()
    result = enumerate_solutions(direct_marking_oracle(10, marked), np.random.default_rng(6))
    assert result.indices == frozenset(marked)
    assert result.grover_runs > 100
    assert 1 <= len(shots) <= 4
    assert all(k is not None and 1 <= k <= search.ENUMERATION_BLOCK for k in shots)


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


def class_order(oracle):
    """The indices in the order a draw lays them out: marked ascending, then unmarked ascending."""
    return np.argsort(~oracle.mask, kind="stable")


def choice_in_class_order(rng, probs, order):
    """The index ``rng.choice`` draws from ``probs`` laid out in ``order``."""
    laid_out = probs[order]
    return int(order[rng.choice(laid_out.size, p=laid_out / laid_out.sum())])


def record_probabilities(evolution, iterations):
    """Index probabilities rebuilt from the effective record's amplitude pair."""
    a_marked, a_unmarked = evolution.record(iterations)
    return np.where(evolution.mask, a_marked, a_unmarked) ** 2


@pytest.mark.parametrize("name", list(stream_oracles()))
def test_grover_search_draws_what_choice_draws_on_the_reference(name):
    oracle = stream_oracles()[name]()
    order = class_order(oracle)
    ours, theirs = np.random.default_rng(77), np.random.default_rng(77)
    for _ in range(3):  # rising, repeated and falling counts, several passes
        for j in STREAM_ITERATIONS:
            probs = reference_probabilities(oracle, j)
            want = choice_in_class_order(theirs, probs, order)
            assert grover_search(oracle, j, ours) == want, (name, j)
            assert np.array_equal(record_probabilities(oracle.evolution, j), probs)  # bit for bit
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
# The effective backend's draws against the class-ordered CDF of the stepped state
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


#: Distance from an interval's edge within which float rounding may move a
#: draw to the neighbouring index: the class-ordered CDF is a float sum of up
#: to 2^12 terms, the effective draw a product and a quotient.
EDGE = 1e-12


def class_ordered_cdf(probs, order):
    """The float CDF of ``probs`` laid out in ``order``, normalised to end at 1."""
    cdf = np.cumsum(probs[order])
    return cdf / cdf[-1]


def near(cdf, order, v):
    """The indices whose intervals of ``cdf`` come within ``EDGE`` of ``v``:
    the one whose interval holds ``v``, and its neighbour for a ``v`` near an edge."""
    low, high = cdf.searchsorted([v - EDGE, v + EDGE], side="right")
    return set(order[low : high + 1].tolist())


@settings(max_examples=60, deadline=None)
@given(case=random_masks(), seed=st.integers(0, 2**32 - 1))
def test_effective_draw_is_choice_on_random_masks(case, seed):
    # the draw rng.choice makes on the class-ordered probabilities, unless
    # the uniform is within EDGE of an edge of its interval
    n, marked, iterations = case
    oracle = direct_marking_oracle(n, marked)
    order = class_order(oracle)
    probs = stepped_probabilities(oracle, iterations)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for j in iterations:
        cdf = class_ordered_cdf(probs[j], order)
        for _ in range(25):
            want = near(cdf, order, theirs.random())
            assert grover_search(oracle, j, ours) in want, (j, len(marked))
            assert ours.bit_generator.state == theirs.bit_generator.state


class StubGenerator:
    """Returns the given uniforms in order, as ``Generator.random`` would."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self, size=None):
        if size is None:
            return float(next(self.values))
        return np.array([next(self.values) for _ in range(size)], dtype=float)


@pytest.mark.parametrize(
    "n, marked",
    [
        (6, (3, 4, 17, 18, 19, 40, 63)),
        (6, tuple(k for k in range(64) if k % 7)),  # the unmarked class is the smaller
        (5, ()),
        (5, tuple(range(32))),
        (4, (0, 5, 10, 15)),  # M = N/4: no unmarked mass at j = 1
        # odd widths with one class empty: the state stays uniform, but its
        # stepped amplitudes drift by an ulp from j = 1 on
        (7, ()),
        (7, tuple(range(128))),
        (9, ()),
        (9, tuple(range(512))),
        (7, (2, 3, 5, 7, 11, 64, 100)),  # j = 0 is uniform on a mask neither empty nor full
    ],
)
def test_effective_draw_on_every_cdf_boundary_is_searchsorted(n, marked):
    # Just inside each interval of the class-ordered CDF the draw is its
    # index; on an edge, float rounding may give the index on either side.
    # A uniform state is located exactly, as floor(v N) in class order.
    oracle = direct_marking_oracle(n, marked)
    order, size = class_order(oracle), 1 << n
    iterations = list(range(int(2 * math.sqrt(size)) + 3))
    for j, probs in stepped_probabilities(oracle, iterations).items():
        cdf = class_ordered_cdf(probs, order)
        edges = [cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), cdf - 2 * EDGE, cdf + 2 * EDGE]
        values = np.concatenate([[0.0], *edges])
        for v in values[(0.0 <= values) & (values < 1.0)]:
            assert grover_search(oracle, j, StubGenerator([v])) in near(cdf, order, v), (j, v)
        if j == 0 or len(marked) in (0, size):
            edges = np.arange(size) / size
            for v in np.concatenate([edges, np.nextafter(edges[1:], 0.0)]):
                assert grover_search(oracle, j, StubGenerator([v])) == order[int(v * size)], (j, v)


@pytest.mark.parametrize("backend", ["dense", "effective"])
def test_shots_on_every_cdf_boundary_are_the_scalar_draws(backend):
    oracle = direct_marking_oracle(3, (1, 4, 6))
    evolution = search._evolution(oracle, backend)
    for j in range(4):
        if backend == "dense":
            probs = evolution.record(j)[0]
        else:
            probs = record_probabilities(evolution, j)
        cdf = class_ordered_cdf(probs, class_order(oracle))
        values = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
        values = values[values < 1.0]
        want = [grover_search(oracle, j, StubGenerator([v]), backend) for v in values]
        got = grover_search(oracle, j, StubGenerator(values), backend, shots=values.size)
        assert got.tolist() == want, j


def test_effective_draw_builds_no_cdf_away_from_the_boundaries(monkeypatch):
    # no draw builds a CDF, near an edge or not, and a uniform state (j = 0,
    # or one class empty) is drawn with no step
    def no_cdf(probs):
        raise AssertionError("a CDF was built")

    monkeypatch.setattr(search, "_measurement_cdf", no_cdf)
    gen = np.random.default_rng(11)
    cases = ((1, 1), (4, 0), (6, 16), (9, 100), (9, 500), (12, 4096), (12, 1500), (7, 0), (9, 512))
    for n, count in cases:
        marked = gen.choice(1 << n, size=count, replace=False)
        oracle = direct_marking_oracle(n, marked.tolist())
        rng = np.random.default_rng(n)
        uniform = count in (0, 1 << n)
        for j in (0, 1, 2, 5, int(2 * math.sqrt(1 << n)) + 2):
            for _ in range(300):
                grover_search(oracle, j, rng)
            grover_search(oracle, j, StubGenerator(np.linspace(0.0, 1.0, 64, endpoint=False)), shots=64)
            if uniform:
                assert len(oracle.evolution.records) == 1


def test_qes_on_an_empty_oracle_steps_nothing():
    # With no marked index the state is uniform at every j, so a round draws
    # floor(v N) with no step, even when its log is read.
    for seed in range(50):
        oracle = direct_marking_oracle(12, ())
        outcome = qes(oracle, np.random.default_rng(seed))
        assert outcome.timed_out and max(r.iterations for r in outcome.rounds) > 1
        assert len(oracle.evolution.records) == 1, seed


@st.composite
def small_oracles(draw):
    n = draw(st.integers(1, 6))
    size = 1 << n
    count = draw(st.one_of(st.sampled_from([0, 1, size // 4, size // 2 + 1, size]), st.integers(0, size)))
    marked = draw(st.permutations(range(size)))[:count]
    return n, marked, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(small_oracles())
def test_dense_and_effective_draw_alike_in_class_order(case):
    # at every j <= 2 sqrt(N), both backends draw the same indices from one
    # seed, and each effective draw is the class-ordered inversion of the
    # stepped probabilities unless its uniform is within EDGE of an edge
    n, marked, seed = case
    oracle = direct_marking_oracle(n, marked)
    order = class_order(oracle)
    iterations = list(range(int(2 * math.sqrt(1 << n)) + 1))
    for j, probs in stepped_probabilities(oracle, iterations).items():
        v = np.random.default_rng(seed).random(16)
        drawn = {
            backend: grover_search(oracle, j, np.random.default_rng(seed), backend, shots=16)
            for backend in search.BACKENDS
        }
        assert drawn["dense"].tolist() == drawn["effective"].tolist(), j
        cdf = class_ordered_cdf(probs, order)
        assert all(k in near(cdf, order, u) for k, u in zip(drawn["effective"].tolist(), v)), j


@pytest.mark.parametrize(
    "n, marked, j, first, last",
    [
        (5, (), 3, 0, 31),  # M = 0: uniform
        (5, tuple(range(32)), 3, 0, 31),  # M = N: uniform
        (6, tuple(range(3, 64, 4)), 1, 3, 63),  # M = N/4 at j = 1: no unmarked mass
        (6, (9, 40, 41), 2, 9, 63),
        (6, (9, 40, 41), 0, 9, 63),
    ],
)
def test_effective_draw_at_the_ends_of_the_unit_interval(n, marked, j, first, last):
    # v = 0 draws the first index of positive mass in class order and
    # v = 1 - 2^-53 the last, singly or as a block, with no numpy warning
    oracle = direct_marking_oracle(n, marked)
    ends = [0.0, 1.0 - 2.0**-53]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = [grover_search(oracle, j, StubGenerator([v])) for v in ends]
        block = grover_search(oracle, j, StubGenerator(ends), shots=2)
    assert single == block.tolist() == [first, last]


def test_effective_draws_allocate_under_one_float_per_index_once_recorded():
    n = 20
    oracle = direct_marking_oracle(n, range(0, 1 << n, 97))
    search._evolution(oracle).record(3)
    rng = np.random.default_rng(20)
    tracemalloc.start()
    try:
        for _ in range(1000):
            grover_search(oracle, 3, rng)
        grover_search(oracle, 3, rng, shots=2**16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << n) * 8, peak


class Spawner:
    """A master generator that keeps the children it spawns."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.children = []

    def spawn(self, count):
        children = self.rng.spawn(count)
        self.children += children
        return children


def reference_gas(table, direction, master, repetitions):
    """``gas`` on the effective backend, each round drawn by ``searchsorted``
    in the class-ordered CDF of probabilities stepped from |psi>, as
    ``rng.choice`` draws from them laid out in class order.

    Exponential search draws its rounds in blocks: the j of a block's rounds
    first, then their uniforms. The first block holds twice the rounds of the
    bound's growth plus 16, and each later block twice the one before."""
    values = np.asarray(table.values)
    n_space = values.size
    budget, per_qes = gas_budget(n_space), default_qes_budget(n_space)
    better = np.greater if direction == "max" else np.less
    bound, ceilings = 1.0, [1]  # ceil(bound) per round while the bound grows
    while bound < math.sqrt(n_space):
        bound = min(8.0 / 7.0 * bound, math.sqrt(n_space))
        ceilings.append(math.ceil(bound))
    best, total, logs = None, 0, []
    for child in master.spawn(repetitions):
        j = start = int(child.integers(0, n_space))
        calls = improvements = 0
        cdfs = None
        while calls <= budget:
            if cdfs is None:
                oracle = direct_marking_oracle(table.n, np.flatnonzero(better(values, values[j])))
                order = class_order(oracle)
                probs = stepped_probabilities(oracle, [math.ceil(math.sqrt(n_space))])
                cdfs = {k: class_ordered_cdf(p, order) for k, p in probs.items()}
            sub_budget = max(1, min(per_qes, math.ceil(budget - calls)))
            used, found, first, size = 0, None, 0, 2 * len(ceilings) + 16
            while found is None and used <= sub_budget:
                rounds = range(first, first + size)
                ks = child.integers(0, [ceilings[min(r, len(ceilings) - 1)] for r in rounds])
                for k, v in zip(ks.tolist(), child.random(size).tolist()):
                    if used > sub_budget:  # this round would start over budget
                        break
                    measured = int(order[cdfs[k].searchsorted(v, side="right")])
                    used += k
                    if better(values[measured], values[j]):
                        found = measured
                        break
                first, size = first + size, 2 * size
            calls += used
            if found is not None:
                j, improvements, cdfs = found, improvements + 1, None
        logs.append(search.RepetitionLog(start, j, calls, improvements))
        total += calls
        if best is None or better(values[j], values[best]):
            best = j
    return best, int(values[best]), total, logs


@pytest.mark.parametrize("n", range(5, 12))
def test_effective_gas_is_the_stepped_choice_loop(n):
    gen = np.random.default_rng(100 + n)
    for bits, direction in ((6, "max"), (3, "min"), (9, "max")):
        table = ValueTable(bits, gen.integers(0, 1 << bits, 1 << n).tolist())
        seed = int(gen.integers(2**32))
        ours, theirs = Spawner(seed), Spawner(seed)
        result = gas(table, direction, ours, 4)
        got = (result.index, result.value, result.oracle_calls, result.repetitions)
        assert got == reference_gas(table, direction, theirs, 4), (bits, direction)
        assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state
        for mine, reference in zip(ours.children, theirs.children, strict=True):
            assert mine.bit_generator.state == reference.bit_generator.state


class SpawnOne(np.random.Generator):
    """A generator that refuses to spawn more than one child at a time."""

    def spawn(self, n_children):
        assert n_children == 1
        return super().spawn(n_children)


def test_gas_spawns_each_child_as_its_repetition_starts():
    gen = np.random.default_rng(12)
    table = ValueTable(6, gen.integers(0, 64, 1 << 9).tolist())
    # results of ``rng.spawn(4)`` up front, with ``default_rng(seed)``, from ``reference_gas``
    want = {
        0: (421, 63, 2505, [(410, 421, 630, 3), (338, 152, 624, 1), (336, 421, 625, 6), (456, 152, 626, 3)]),
        5: (395, 63, 2501, [(112, 395, 628, 3), (275, 291, 624, 3), (411, 228, 625, 2), (113, 421, 624, 3)]),
    }
    for seed, (index, value, calls, logs) in want.items():
        rng = SpawnOne(np.random.PCG64(seed))
        result = gas(table, "max", rng, 4)
        assert (result.index, result.value, result.oracle_calls) == (index, value, calls)
        assert result.repetitions == [search.RepetitionLog(*log) for log in logs]
        # the parent draws nothing and has spawned what ``rng.spawn(4)`` spawns
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
        assert rng.bit_generator.seed_seq.n_children_spawned == 4


def watched_gas(monkeypatch):
    """Patch the oracle builder and the exponential search that ``gas`` calls.

    Returns the threshold and a weak reference of each oracle built, in
    order, and for each ``qes`` call the threshold of its oracle and the
    number of built oracles still alive.
    """
    built, visited, alive = [], [], []
    make, search_once = search.single_list_oracle, search.qes

    def build(*args):  # positional, as gas calls it
        oracle = make(*args)
        built.append((args[1], weakref.ref(oracle)))
        return oracle

    def searched(oracle, *args):
        visited.append(oracle.reference_basis >> oracle.layout["threshold"][0])
        alive.append(sum(ref() is not None for _, ref in built))
        return search_once(oracle, *args)

    monkeypatch.setattr(search, "single_list_oracle", build)
    monkeypatch.setattr(search, "qes", searched)
    return built, visited, alive


@pytest.mark.parametrize("backend", ["dense", "effective"])
def test_gas_builds_one_oracle_per_threshold_it_visits(monkeypatch, backend):
    # four distinct values, padded with 0: a start on padding searches
    # threshold 0, and each repetition that finds the maximum ends on its own
    table = ValueTable(2, (1, 3, 2, 1, 0, 0, 0, 0))
    built, visited, _ = watched_gas(monkeypatch)
    result = gas(table, "max", np.random.default_rng(3), 6, backend)
    assert result.value == 3
    assert sorted(threshold for threshold, _ in built) == sorted(set(visited))
    # rebuilt at each repetition's start and improvement, they would number more
    assert len(built) < sum(1 + r.improvements for r in result.repetitions)


@pytest.mark.parametrize("backend", ["dense", "effective"])
def test_gas_keeps_at_most_four_oracles_alive(monkeypatch, backend):
    table = ValueTable(5, np.random.default_rng(13).permutation(32))
    built, _, alive = watched_gas(monkeypatch)
    gc.disable()  # an evicted oracle is freed by reference counting alone
    try:
        gas(table, "max", np.random.default_rng(4), 8, backend)
    finally:
        gc.enable()
    assert len(built) > 4 and max(alive) == 4


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
    """Prepare from |0>, apply a freshly built Grover operator j times, and
    draw from the index marginal in class order as ``rng.choice`` draws."""
    state = sim.apply(sim.new_basis_state(oracle.num_qubits, 0), oracle.prep_circuit)
    op = grover_operator(oracle)
    for _ in range(iterations):
        state = sim.apply(state, op)
    marginal = sim.subregister_distribution(state, oracle.layout.index)
    return choice_in_class_order(rng, marginal, class_order(oracle))


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


def block_cases():
    effective = [(name, "effective", make) for name, make in stream_oracles().items()]
    dense = [(name, "dense", make) for name, make in dense_stream_oracles().items()]
    return {f"{backend} {name}": (backend, make) for name, backend, make in effective + dense}


@pytest.mark.parametrize("case", list(block_cases()))
def test_grover_search_shots_are_successive_scalar_draws(case):
    backend, make = block_cases()[case]
    block_oracle, scalar_oracle = make(), make()
    ours, theirs = np.random.default_rng(79), np.random.default_rng(79)
    for shots in (1, 2, 37):
        for j in STREAM_ITERATIONS:
            got = grover_search(block_oracle, j, ours, backend, shots=shots)
            want = [grover_search(scalar_oracle, j, theirs, backend) for _ in range(shots)]
            assert got.dtype.kind == "i" and got.tolist() == want, (j, shots)
            assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("shots", [0, -1])
def test_grover_search_refuses_fewer_than_one_shot(shots):
    with pytest.raises(ValueError, match="shots"):
        grover_search(direct_marking_oracle(2, {1}), 1, np.random.default_rng(0), shots=shots)


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


def sector_oracles():
    gen = np.random.default_rng(81)

    def table(t):
        return ValueTable(t, gen.integers(0, 1 << t, 8))

    oracles = {
        f"single-list {op} t={t}": single_list_oracle(table(t), int(gen.integers(0, 1 << t)), op)
        for t in (4, 5)
        for op in ("gt", "lt", "eq")
    }
    oracles["two-list t=2"] = two_list_oracle(table(2), table(2), 1, 2)
    oracles["or tree"] = condition_oracle(any_of(greater_than(table(2), 2), less_than(table(2), 1)))
    oracles["direct marking"] = direct_marking_oracle(3, (2, 5, 6))
    return oracles


@pytest.mark.parametrize("name", list(sector_oracles()))
def test_dense_sector_records_match_the_full_width_statevector(name):
    oracle = sector_oracles()[name]
    evolution = search._evolution(oracle, "dense")
    psi = sim.apply(sim.new_basis_state(oracle.num_qubits, 0), oracle.prep_circuit)
    op = grover_operator(oracle)
    state = psi
    for j in range(13):
        marginal, overlap = evolution.record(j)
        want = sim.subregister_distribution(state, oracle.layout.index)
        assert np.max(np.abs(marginal - want)) < 1e-12, (name, j)
        assert abs(overlap - np.vdot(psi.amplitudes, state.amplitudes)) < 1e-12, (name, j)
        state = sim.apply(state, op)


def test_dense_sector_widths():
    oracles = sector_oracles()
    width = {name: search._evolution(o, "dense").operator.num_qubits for name, o in oracles.items()}
    # 14 qubits: index 3 and estimate 5 and the oracle qubit; the threshold
    # register, restored by the comparator's fused X chain, drops out
    assert oracles["single-list gt t=5"].num_qubits == 14
    assert width["single-list gt t=5"] == 9
    assert oracles["single-list gt t=5"].dense_evolution.state.amplitudes.size == 1 << 9
    # two lists: the fan-out's CX stage moves the index copy, which stays;
    # both flags, written and restored inside one fused monomial, drop out
    assert (oracles["two-list t=2"].num_qubits, width["two-list t=2"]) == (17, 11)
    assert width["or tree"] == 8
    assert width["direct marking"] == 3  # nothing to drop


def test_dense_sector_keeps_what_a_stage_moves():
    gen = np.random.default_rng(82)
    # t = 4: the IQFT block over the estimate register absorbs the
    # comparator's first CX, so threshold bit 0 stays and bits 1-3 drop
    oracle = single_list_oracle(ValueTable(4, gen.integers(0, 16, 8)), 6, "gt")
    threshold = oracle.layout["threshold"]
    assert any(
        isinstance(stage, sim._Block) and stage.lo <= threshold[0] < stage.lo + stage.span
        for stage in grover_operator(oracle).stages
    )
    sector = search._evolution(oracle, "dense").operator
    assert threshold[0] in sector.kept and not set(threshold[1:]) & set(sector.kept)
    assert sector.num_qubits == 9
    # t = 3 two-list: a phase estimation's controlled PHASE runs alone
    oracle = two_list_oracle(
        ValueTable(3, gen.integers(0, 8, 8)), ValueTable(3, gen.integers(0, 8, 8)), 3, 4
    )
    sector = search._evolution(oracle, "dense").operator
    singles = [stage for stage in sector.stages if isinstance(stage, sim._Single)]
    assert singles and all(
        sector.kept[q] in oracle.layout["index_copy"] + oracle.layout["risk_estimate"]
        for stage in singles
        for q in stage.gate.qubits
    )
    assert (oracle.num_qubits, sector.num_qubits) == (21, 14)


def test_oracles_differing_only_in_threshold_share_compiled_stages():
    # the threshold lives in the prepared state, not in the Grover operator
    table = ValueTable(4, (1, 9, 3, 15, 0, 7, 12, 5))
    low, high = (single_list_oracle(table, s, "gt") for s in (3, 9))
    assert grover_operator(low).gates == grover_operator(high).gates
    shared = zip(grover_operator(low).stages, grover_operator(high).stages, strict=True)
    assert all(a is b for a, b in shared)
    sectors = [search._evolution(o, "dense").operator for o in (low, high)]
    assert sectors[0].kept == sectors[1].kept and sectors[0].values != sectors[1].values


def two_list_t3_oracle():
    """The 21-qubit t = 3 two-list oracle, on tables of its own."""
    gen = np.random.default_rng(84)
    return two_list_oracle(
        ValueTable(3, gen.integers(0, 8, 8)), ValueTable(3, gen.integers(0, 8, 8)), 3, 4
    )


@pytest.mark.parametrize("name", [*sector_oracles(), "two-list t=3"])
def test_dense_psi_is_prepared_on_the_sector(name):
    oracle = two_list_t3_oracle() if name == "two-list t=3" else sector_oracles()[name]
    evolution = search._evolution(oracle, "dense")
    sector = evolution.operator
    # the full-width preparation, cut down to the sector
    full = sim.apply(sim.new_basis_state(oracle.num_qubits, 0), oracle.prep_circuit)
    want = sector.restrict(full).amplitudes
    assert np.max(np.abs(evolution.state.amplitudes - want)) <= 1e-15
    # the sector read off the layout is the one read off that state
    by_state = sim.Sector(grover_operator(oracle), full)
    assert (sector.kept, sector.fixed, sector.values) == (
        by_state.kept, by_state.fixed, by_state.values
    )


def test_dense_evolution_of_the_21_qubit_oracle_never_holds_the_workspace():
    oracle = two_list_t3_oracle()  # fresh tables: its operator is built in the window
    tracemalloc.start()
    try:
        search._evolution(oracle, "dense")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 2^21 amplitudes would take 32 MiB; the 14-qubit sector takes 256 KiB
    assert oracle.num_qubits == 21 and peak < 4 << 20


def counted_operator_builds(monkeypatch) -> list:
    builds, build = [], search.grover_operator
    monkeypatch.setattr(search, "grover_operator", lambda o: builds.append(1) or build(o))
    return builds


def test_dense_gas_builds_one_operator_per_table_and_comparison(monkeypatch):
    builds = counted_operator_builds(monkeypatch)
    thresholds, make = [], search.single_list_oracle
    monkeypatch.setattr(
        search, "single_list_oracle", lambda *a: thresholds.append(a[1]) or make(*a)
    )
    gen = np.random.default_rng(85)
    tables = [ValueTable(4, gen.permutation(16)) for _ in range(2)]
    gas(tables[0], "max", np.random.default_rng(5), 3, "dense")
    assert len(set(thresholds)) >= 3 and len(builds) == 1
    gas(tables[0], "min", np.random.default_rng(5), 3, "dense")
    assert len(builds) == 2  # a new comparison
    gas(tables[1], "max", np.random.default_rng(5), 3, "dense")
    assert len(builds) == 3  # a new table


def test_two_list_oracles_differing_only_in_thresholds_share_one_operator(monkeypatch):
    builds = counted_operator_builds(monkeypatch)
    returns, sigmas = ValueTable(2, (1, 3, 0, 2)), ValueTable(2, (2, 0, 3, 1))
    a, b = two_list_oracle(returns, sigmas, 1, 2), two_list_oracle(returns, sigmas, 3, 0)
    sectors = [search._evolution(o, "dense").operator for o in (a, b)]
    assert len(builds) == 1 and sectors[0].gates is sectors[1].gates
    # a table with equal values is another table: the memo never reads values
    search._evolution(two_list_oracle(ValueTable(2, returns.values), sigmas, 1, 2), "dense")
    assert len(builds) == 2


def test_a_new_table_of_a_seen_shape_fuses_only_its_phase_estimations(monkeypatch):
    gen = np.random.default_rng(86)

    def fresh_oracle():
        return single_list_oracle(ValueTable(5, gen.integers(0, 32, 8)), 9, "gt")

    search._evolution(fresh_oracle(), "dense")  # the shape, seen
    oracle = fresh_oracle()
    fused, compiled = [], []
    fuse, compile_ = sim._fuse, sim._compile

    def counted_fuse(*args):
        misses = fuse.cache_info().misses
        stage = fuse(*args)
        if fuse.cache_info().misses > misses:
            fused.append(args[1])
        return stage

    monkeypatch.setattr(sim, "_fuse", counted_fuse)
    monkeypatch.setattr(sim, "_compile", lambda c: compiled.append(c) or compile_(c))
    preparations = oracles._preparation.cache_info().misses
    evolution = search._evolution(oracle, "dense")
    # one compile, the Grover operator's; its only new stages are the phase
    # estimation and its inverse, which hold the table's phases
    assert len(compiled) == 1 and compiled[0].gates is evolution.operator.gates
    index = oracle.layout.index
    assert len(fused) == 2 and all(
        any(g.kind == sim.KIND_PHASE and g.targets == index for g in run) for run in fused
    )
    assert oracles._preparation.cache_info().misses == preparations


def test_equal_gates_hash_equal_and_a_loaded_gate_is_rehashed():
    oracle = single_list_oracle(ValueTable(3, (1, 5, 3, 7, 0, 2, 6, 4)), 5, "gt")
    gates = grover_operator(oracle).gates
    for g in gates:
        rebuilt = sim.Gate(g.kind, g.targets, g.controls, g.matrix, g.turns)
        loaded = pickle.loads(pickle.dumps(g))
        assert rebuilt == g == loaded and hash(rebuilt) == hash(g) == hash(loaded)
        assert (loaded.lo, loaded.hi, loaded.qubits) == (g.lo, g.hi, g.qubits)
    # a process that hashes str differently loads the gates with its own hashes
    script = (
        "import pickle, sys; from qslice import sim; "
        "gates = pickle.loads(sys.stdin.buffer.read()); "
        "print(all(hash(g) == hash(sim.Gate(g.kind, g.targets, g.controls, g.matrix, g.turns)) "
        "and hash(g) != h for g, h in gates))"
    )
    payload = pickle.dumps([(g, hash(g)) for g in gates[:3]])
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], input=payload, env=env,
                          capture_output=True, timeout=120, check=True)
    assert done.stdout.decode().strip() == "True"


def test_every_build_memo_is_bounded():
    memos = (sim._fuse, sim._inverse_qft, oracles._comparator, oracles._diffusion,
             search._operator_slot, oracles._preparation)
    assert all(memo.cache_info().maxsize for memo in memos)


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
            # the count stepped the memo a search shares
            applied.clear()
            grover_search(oracle, (1 << m) - 1, np.random.default_rng(0), "dense")
            assert sum(c is op for c in applied) == 0, name


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
