"""Grover draws, exponential search, counting's median and enumeration's runs
on the effective backend against their exact laws (``laws.py``)."""

import itertools
import math

import numpy as np
import pytest

from laws import (
    ENUMERATION_EXTRA_BITS,
    ENUMERATION_SAMPLES,
    QES_BUDGET_FACTOR,
    QES_GROWTH,
    chi_square_sf,
    counting_law,
    default_qes_budget,
    enumeration_law,
    enumeration_runs,
    grover_index_law,
    median_count_law,
    qes_law,
    success_probabilities,
)
from qslice import (
    ValueTable,
    direct_marking_oracle,
    enumerate_solutions,
    grover_search,
    m_exact,
    qes,
    search,
    single_list_oracle,
)


def test_restated_constants_are_qslices():
    assert QES_GROWTH == search._QES_GROWTH
    assert QES_BUDGET_FACTOR == search.DEFAULT_QES_BUDGET_FACTOR
    for n_space in (2, 16, 1000, 4096):
        assert default_qes_budget(n_space) == search.default_qes_budget(n_space)
    assert ENUMERATION_SAMPLES == search.ENUMERATION_SAMPLES
    assert ENUMERATION_EXTRA_BITS == search.ENUMERATION_EXTRA_BITS


@pytest.mark.parametrize(
    "statistic, dof, want",
    [(0.0, 1, 1.0), (0.0, 6, 1.0), (2.0, 2, math.exp(-1.0)), (1.0, 1, math.erfc(math.sqrt(0.5)))],
)
def test_chi_square_tail_closed_forms(statistic, dof, want):
    assert chi_square_sf(statistic, dof) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize(
    "dof, critical",
    [(1, 6.634896601021217), (2, 9.210340371976182), (5, 15.086272469388991),
     (10, 23.20925115895436), (21, 38.93217268351607)],
)
def test_chi_square_tail_at_the_one_percent_points(dof, critical):
    assert chi_square_sf(critical, dof) == pytest.approx(0.01, rel=1e-9)


@pytest.mark.parametrize("n_space", [2, 16, 256, 4096])
def test_qes_law_sums_to_one(n_space):
    for marked, budget in itertools.product(
        sorted({0, 1, n_space // 4, n_space // 2 + 1, n_space}), (1, 7, default_qes_budget(n_space))
    ):
        law = qes_law(n_space, marked, budget)
        assert (law >= 0.0).all()
        assert abs(law.sum() - 1.0) < 1e-12, (n_space, marked, budget)
        if marked == 0:
            assert not law[1].any()
        if marked == n_space:
            assert not law[0].any()


def qes_law_by_enumeration(n_space, marked, budget, floor):
    """The law of ``qes`` from every sequence of j, and the mass of the paths cut below ``floor``.

    A path whose probability falls below ``floor`` before it ends is not
    followed; with no cut, sequences of j = 0 misses would never end.
    """
    root = math.sqrt(n_space)
    law = np.zeros((2, budget + math.ceil(root)))
    cut = 0.0

    def walk(calls, bound, mass):
        nonlocal cut
        if mass < floor:
            cut += mass
            return
        runs = math.ceil(bound)
        for j, success in enumerate(success_probabilities(n_space, marked, runs).tolist()):
            law[1, calls + j] += mass / runs * success
            if calls + j > budget:
                law[0, calls + j] += mass / runs * (1.0 - success)
            else:
                walk(calls + j, min(QES_GROWTH * bound, root), mass / runs * (1.0 - success))

    walk(0, 1.0, 1.0)
    return law, cut


@pytest.mark.parametrize(
    "n_space, marked", [(2, 0), (2, 1), (4, 1), (4, 3), (8, 2), (16, 0), (16, 1), (16, 4), (16, 9)]
)
@pytest.mark.parametrize("budget", [1, 2])
def test_qes_law_equals_enumeration(n_space, marked, budget):
    want, cut = qes_law_by_enumeration(n_space, marked, budget, floor=1e-13)
    assert cut < 1e-10
    np.testing.assert_allclose(qes_law(n_space, marked, budget), want, rtol=0, atol=cut + 1e-12)


# Fixed before the first run: N, the number of runs, the seed of each M (the
# same for every bit generator), and the binning (every (found, calls) cell
# expecting at least 5 runs is a bin, the other cells pool into one, which
# joins the smallest bin if it expects fewer than 5). A failing seed is a
# finding to report, not one to replace.
CHI_N = 256
CHI_RUNS = 500


def binned(expected, observed):
    keep = expected >= 5.0
    exp, obs = expected[keep].tolist(), observed[keep].tolist()
    rest_exp, rest_obs = expected[~keep].sum(), observed[~keep].sum()
    if rest_exp >= 5.0:
        exp.append(rest_exp)
        obs.append(rest_obs)
    else:
        smallest = int(np.argmin(exp))
        exp[smallest] += rest_exp
        obs[smallest] += rest_obs
    return np.array(exp), np.array(obs)


@pytest.mark.parametrize(
    "bit_generator, marked",
    [  # PCG64, numpy's default, keeps the bare ids of M
        pytest.param(bits, marked, id=str(marked) if bits is np.random.PCG64 else f"{bits.__name__}-{marked}")
        for bits in (np.random.PCG64, np.random.MT19937, np.random.Philox)
        for marked in (0, 1, CHI_N // 4, 160)
    ],
)
def test_seeded_qes_follows_its_law(bit_generator, marked):
    table = ValueTable(1, [1] * marked + [0] * (CHI_N - marked))
    oracle = single_list_oracle(table, 0)
    rng = np.random.Generator(bit_generator([1998, marked]))
    law = qes_law(CHI_N, marked, default_qes_budget(CHI_N))
    observed = np.zeros_like(law)
    for _ in range(CHI_RUNS):
        outcome = qes(oracle, rng)
        observed[int(not outcome.timed_out), outcome.oracle_calls] += 1
    assert not observed[law == 0.0].any()
    expected, counts = binned(CHI_RUNS * law.ravel(), observed.ravel())
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert chi_square_sf(statistic, expected.size - 1) >= 0.01, (marked, statistic, expected.size)


@pytest.mark.parametrize("marked", [0, 1, 64, 160, 256])
def test_grover_index_law_sums_to_one(marked):
    mask = np.zeros(CHI_N, dtype=bool)
    mask[:marked] = True
    for j in range(20):
        law = grover_index_law(mask, j)
        assert (law >= 0.0).all() and abs(law.sum() - 1.0) < 1e-12, (marked, j)


# Fixed before the first run: N = CHI_N; the marked sets, scattered by a
# seed of their own; the iteration counts, which include j = 1 at M = N/4,
# where the unmarked class holds no mass; GROVER_DRAWS draws per count, one
# ``shots`` block each; the seed of each M (the same for every bit
# generator); and the binning of ``binned`` over the (j, index) cells.
GROVER_ITERATIONS = (0, 1, 2, 5, 12)
GROVER_DRAWS = 2000


@pytest.mark.parametrize(
    "bit_generator, marked",
    [  # PCG64, numpy's default, keeps the bare ids of M
        pytest.param(bits, marked, id=str(marked) if bits is np.random.PCG64 else f"{bits.__name__}-{marked}")
        for bits in (np.random.PCG64, np.random.MT19937, np.random.Philox)
        for marked in (0, 1, CHI_N // 4, 160)
    ],
)
def test_seeded_grover_draws_follow_their_law(bit_generator, marked):
    indices = np.random.default_rng([1996, marked]).choice(CHI_N, size=marked, replace=False)
    oracle = direct_marking_oracle(CHI_N.bit_length() - 1, indices.tolist())
    rng = np.random.Generator(bit_generator([1996, marked]))
    law = np.concatenate([grover_index_law(oracle.mask, j) for j in GROVER_ITERATIONS])
    observed = np.concatenate([
        np.bincount(grover_search(oracle, j, rng, shots=GROVER_DRAWS), minlength=CHI_N)
        for j in GROVER_ITERATIONS
    ])
    assert not observed[law == 0.0].any()
    expected, counts = binned(GROVER_DRAWS * law, observed)
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert chi_square_sf(statistic, expected.size - 1) >= 0.01, (marked, statistic, expected.size)


@pytest.mark.parametrize("n_space", [2, 16, 256, 4096])
def test_median_count_law_sums_to_one(n_space):
    widths = (2, m_exact(n_space) + ENUMERATION_EXTRA_BITS)
    for marked, m in itertools.product(
        sorted({0, 1, n_space // 4, n_space // 2 + 1, n_space}), widths
    ):
        law = median_count_law(n_space, marked, m)
        assert law.size == n_space + 1
        assert (law >= 0.0).all()
        assert abs(law.sum() - 1.0) < 1e-12, (n_space, marked, m)
        if m > 2:  # enumeration's width: the median is the true count
            assert law[marked] > 1.0 - 1e-9, (n_space, marked, m)


@pytest.mark.parametrize(
    "n_space, marked, m", [(16, 3, 3), (256, 5, 12), (256, 200, 12), (4096, 40, 9)]
)
def test_counting_law_is_qslices(n_space, marked, m):
    want = search.counting_distribution(n_space, marked, m)
    np.testing.assert_allclose(counting_law(n_space, marked, m), want, rtol=0, atol=1e-15)


# Fixed before the first run: the (N, M, m) cases, among them (2, 1, 1), whose
# peak lies half way between two outcomes; COUNT_DRAWS ``quantum_counting``
# calls per case and bit generator; each case's seed (the same for every bit
# generator); and the binning of ``binned``.
COUNT_CASES = [(2, 1, 1), (16, 3, 6), (64, 5, 8), (256, 100, 9)]
COUNT_DRAWS = 2000


@pytest.mark.parametrize(
    "bit_generator, n_space, marked, m",
    [
        pytest.param(bits, *case, id=f"{bits.__name__}-{'-'.join(map(str, case))}")
        for bits in (np.random.PCG64, np.random.MT19937, np.random.Philox)
        for case in COUNT_CASES
    ],
)
def test_seeded_counts_follow_the_counting_law(bit_generator, n_space, marked, m):
    oracle = direct_marking_oracle(n_space.bit_length() - 1, list(range(marked)))
    rng = np.random.Generator(bit_generator([2002, n_space, marked, m]))
    law = counting_law(n_space, marked, m)
    drawn = [search.quantum_counting(oracle, m, rng).b for _ in range(COUNT_DRAWS)]
    observed = np.bincount(drawn, minlength=law.size)
    assert not observed[law == 0.0].any()
    expected, counts = binned(COUNT_DRAWS * law, observed)
    assert expected.size >= 2
    statistic = float(((counts - expected) ** 2 / expected).sum())
    p_value = chi_square_sf(statistic, expected.size - 1)
    assert p_value >= 0.01, (n_space, marked, m, statistic, expected.size)


# Fixed before the first run: the (N, M, m) cases, chosen so that the median
# takes two values each expecting at least 5 runs; the runs per case; each
# case's seed; and the binning of ``binned``.
MEDIAN_CASES = [(16, 3, 5), (64, 7, 2), (64, 20, 3)]
MEDIAN_RUNS = 2000


@pytest.mark.parametrize("n_space, marked, m", MEDIAN_CASES)
def test_seeded_median_count_follows_its_law(n_space, marked, m, monkeypatch):
    oracle = direct_marking_oracle(n_space.bit_length() - 1, list(range(marked)))
    rng = np.random.default_rng([2002, n_space, marked, m])
    law = median_count_law(n_space, marked, m)
    observed = np.zeros(n_space + 1)
    real, drawn = search._count, []

    def recorded(*args):
        builder, outcomes = real(*args)
        drawn.append(outcomes.tolist())
        return builder, outcomes

    monkeypatch.setattr(search, "_count", recorded)
    for _ in range(MEDIAN_RUNS):
        median, estimate = search._median_count(oracle, m, rng, "effective", ENUMERATION_SAMPLES)
        # the estimate printed is that of a draw at the median
        assert estimate.m_rounded == median and estimate.b in drawn.pop()
        observed[median] += 1
    assert not observed[law == 0.0].any()
    expected, counts = binned(MEDIAN_RUNS * law, observed)
    assert expected.size >= 2
    statistic = float(((counts - expected) ** 2 / expected).sum())
    p_value = chi_square_sf(statistic, expected.size - 1)
    assert p_value >= 0.01, (n_space, marked, m, statistic, expected.size)


def test_restated_enumeration_plan_is_qslices(monkeypatch):
    for n_space in (2, 16, 256, 4096):
        for marked in sorted({1, 2, n_space // 4, n_space // 2} & set(range(1, n_space // 2 + 1))):
            assert enumeration_runs(n_space, marked)[0] == search.iteration_count(n_space, marked)
    # a count one over the true 3 runs to the cap, which the disagreement names
    real = search._median_count
    monkeypatch.setattr(search, "_median_count", lambda *args: (4, real(*args)[1]))
    cap = enumeration_runs(16, 4)[2]
    with pytest.raises(search.SearchDisagreement, match=f"after {cap} searches"):
        enumerate_solutions(direct_marking_oracle(4, [0, 1, 2]), np.random.default_rng(0))


def subset_chain_law(n_space: int, marked: int) -> np.ndarray:
    """``enumeration_law`` by brute force: a Markov chain over the sets of
    solutions seen, each run measuring every index by ``grover_index_law``."""
    iterations, _, cap = enumeration_runs(n_space, marked)
    per_index = grover_index_law(np.arange(n_space) < marked, iterations)[:marked]
    sets = np.arange(1 << marked)
    chain = np.zeros(1 << marked)
    chain[0] = 1.0
    law = np.zeros(cap + 2)
    for runs in range(1, cap + 1):
        stepped = chain * (1.0 - per_index.sum())
        for i, weight in enumerate(per_index):
            np.add.at(stepped, sets | (1 << i), chain * weight)
        law[runs], stepped[-1] = stepped[-1], 0.0
        chain = stepped
    law[-1] = chain.sum()
    return law


@pytest.mark.parametrize("n_space", [2, 4, 8, 16, 256])
def test_enumeration_law_sums_to_one(n_space):
    for marked in sorted({1, 2, 3, n_space // 4, n_space // 2} & set(range(1, n_space // 2 + 1))):
        law = enumeration_law(n_space, marked)
        assert (law >= 0.0).all() and not law[:marked].any()
        assert abs(law.sum() - 1.0) < 1e-12, (n_space, marked)
        assert law[-1] <= math.exp(-21), (n_space, marked)  # enumeration's stated cap miss


def test_enumeration_law_is_the_subset_chain():
    for n_space in (2, 4, 8, 16):
        for marked in range(1, n_space // 2 + 1):
            want = subset_chain_law(n_space, marked)
            np.testing.assert_allclose(enumeration_law(n_space, marked), want, rtol=1e-9, atol=1e-15)


# Fixed before the first run: the (N, M) case, the enumerations per case,
# each case's seed, and the binning of ``binned``.
ENUMERATION_CASES = [(16, 3)]
ENUMERATION_RUNS = 3000


@pytest.mark.parametrize("n_space, marked", ENUMERATION_CASES)
def test_seeded_enumeration_runs_follow_their_law(n_space, marked):
    oracle = direct_marking_oracle(n_space.bit_length() - 1, list(range(marked)))
    rng = np.random.default_rng([1998, n_space, marked])
    law = enumeration_law(n_space, marked)
    observed = np.zeros(law.size)
    for _ in range(ENUMERATION_RUNS):
        observed[enumerate_solutions(oracle, rng).grover_runs] += 1
    assert not observed[law == 0.0].any()
    expected, counts = binned(ENUMERATION_RUNS * law, observed)
    assert expected.size >= 2
    statistic = float(((counts - expected) ** 2 / expected).sum())
    p_value = chi_square_sf(statistic, expected.size - 1)
    assert p_value >= 0.01, (n_space, marked, statistic, expected.size)
