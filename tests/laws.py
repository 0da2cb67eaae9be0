"""Exact laws of qslice's search algorithms on the effective backend.

On the effective backend a Grover run of j iterations over N indices, M of
them marked, measures a marked index with probability sin^2((2j+1) theta/2),
where sin^2(theta/2) = M/N (Boyer, Brassard, Hoyer and Tapp 1998). Every
other draw an algorithm makes is a uniform integer, so its law is a function
of (N, M) and its budget alone, and is computed here with no sampling. A
count's outcome follows the phase-estimation law of the two eigenphases
+-theta / 2pi (Brassard, Hoyer, Mosca and Tapp 2002).

The constants below restate those of ``qslice.search``; a test asserts that
they agree, so a change there fails loudly here.
"""

from __future__ import annotations

import math

import numpy as np

#: Factor by which exponential search grows its iteration bound after a miss.
QES_GROWTH = 8.0 / 7.0
#: Exponential search's default budget, as a multiple of ceil(sqrt(N)).
QES_BUDGET_FACTOR = 5
#: Counting samples whose median is enumeration's working count.
ENUMERATION_SAMPLES = 15
#: Counting qubits enumeration adds to m_exact(N).
ENUMERATION_EXTRA_BITS = 4


def default_qes_budget(n_space: int) -> int:
    return QES_BUDGET_FACTOR * math.ceil(math.sqrt(n_space))


def success_probabilities(n_space: int, marked: int, runs: int) -> np.ndarray:
    """P(measure a marked index) after j = 0 .. runs - 1 Grover iterations."""
    theta = 2.0 * math.asin(math.sqrt(marked / n_space))
    return np.sin((2 * np.arange(runs) + 1) * theta / 2) ** 2


def grover_index_law(mask: np.ndarray, iterations: int) -> np.ndarray:
    """P(measure each index) after ``iterations`` Grover iterations.

    The marked class holds sin^2((2j+1) theta/2) and the unmarked class the
    rest, each spread evenly over its indices. With no marked index, or no
    unmarked one, the state stays uniform.
    """
    n_space, marked = mask.size, int(mask.sum())
    if marked in (0, n_space):
        return np.full(n_space, 1.0 / n_space)
    success = success_probabilities(n_space, marked, iterations + 1)[-1]
    return np.where(mask, success / marked, (1.0 - success) / (n_space - marked))


def qes_law(n_space: int, marked: int, budget: int) -> np.ndarray:
    """The joint law of (found, oracle calls) of ``qes`` with this budget.

    ``law[found, calls]`` is the probability that ``qes`` ends with
    ``found`` (1 for a marked index, 0 for a timeout) after ``calls``
    Grover iterations. A round starts while the calls spent are within the
    budget and draws j uniformly from [0, ceil(bound)); the bound grows by
    the factor 8/7 after each miss, up to sqrt(N), independently of the
    draws. Before the bound reaches sqrt(N) the law is stepped round by
    round. From then on every round has the same law, so the rounds
    started at a call count c are summed in closed form, a geometric series
    in the j = 0 miss that leaves c unchanged, in increasing order of c.
    """
    root = math.sqrt(n_space)
    law = np.zeros((2, budget + math.ceil(root)))
    live = np.zeros(budget + 1)  # the chance that a round starts with c calls spent
    live[0] = 1.0
    bound = 1.0
    while bound != root:
        runs = math.ceil(bound)
        success = success_probabilities(n_space, marked, runs)
        started, live = live / runs, np.zeros(budget + 1)
        for j in range(runs):
            law[1, j : j + budget + 1] += started * success[j]
            missed = started * (1.0 - success[j])
            within = max(budget + 1 - j, 0)  # misses that leave calls within budget
            live[j : j + within] += missed[:within]
            law[0, j + within : j + budget + 1] += missed[within:]
        bound = min(QES_GROWTH * bound, root)
    runs = math.ceil(root)
    success = success_probabilities(n_space, marked, runs)
    stay = (1.0 - success[0]) / runs
    for calls in range(budget + 1):
        started = live[calls] / (1.0 - stay) / runs
        law[1, calls : calls + runs] += started * success
        missed = started * (1.0 - success[1:])
        within = min(runs - 1, budget - calls)
        live[calls + 1 : calls + 1 + within] += missed[:within]
        law[0, calls + 1 + within : calls + runs] += missed[within:]
    return law


def counting_law(n_space: int, marked: int, m: int) -> np.ndarray:
    """P(b) of an m-qubit count: the even mixture of the kernels at +-phi.

    With x = 2^m phi, the +phi kernel is
    sin^2(pi (x - b)) / (2^m sin(pi (x - b) / 2^m))^2, and sin^2(pi (x - b))
    is taken as sin^2(pi (x - round x)), equal for every integer b. Within
    1e-12 of an integer, x is a point mass.
    """
    size = 1 << m
    phi = math.asin(math.sqrt(marked / n_space)) / math.pi
    x = phi * size
    b = np.arange(size)
    if abs(x - round(x)) < 1e-12:
        law = np.zeros(size)
        law[round(x) % size] += 0.5
        law[-round(x) % size] += 0.5
        return law
    kernel = math.sin(math.pi * (x - round(x))) ** 2 / (size * np.sin(np.pi * (x - b) / size)) ** 2
    return (kernel + kernel[-b % size]) / 2.0


def median_count_law(n_space: int, marked: int, m: int) -> np.ndarray:
    """The law of the rounded median ``_median_count`` returns, over 0..N.

    Each of ENUMERATION_SAMPLES counts draws b from ``counting_law`` and
    rounds N sin^2(pi b / 2^m) half to even. The median is at most k when
    at least ENUMERATION_SAMPLES // 2 + 1 samples are, and at least k when
    that many are at least k. Each probability is taken as a difference of
    whichever of those two tails is the smaller, so that the tails keep
    their precision far below 1e-16.
    """
    size = 1 << m
    theta = 2.0 * np.pi * np.arange(size) / size
    rounded = np.rint(n_space * np.sin(theta / 2.0) ** 2).astype(int)
    per_count = np.bincount(rounded, counting_law(n_space, marked, m), minlength=n_space + 1)
    need = ENUMERATION_SAMPLES // 2 + 1

    def most_samples(p):
        return sum(
            math.comb(ENUMERATION_SAMPLES, i) * p**i * (1.0 - p) ** (ENUMERATION_SAMPLES - i)
            for i in range(need, ENUMERATION_SAMPLES + 1)
        )

    at_most = most_samples(np.minimum(np.cumsum(per_count), 1.0))
    at_least = most_samples(np.minimum(np.cumsum(per_count[::-1])[::-1], 1.0))
    from_below = np.diff(at_most, prepend=0.0)
    from_above = at_least - np.append(at_least[1:], 0.0)
    return np.where(at_most <= 0.5, from_below, from_above)


def chi_square_sf(statistic: float, dof: int) -> float:
    """P(X >= statistic) for X chi-square distributed with ``dof`` degrees of freedom."""
    half = statistic / 2.0
    if dof % 2 == 0:
        terms = [1.0]
        for i in range(1, dof // 2):
            terms.append(terms[-1] * half / i)
        return math.exp(-half) * math.fsum(terms)
    terms = []
    term = math.sqrt(statistic)
    for i in range(1, (dof + 1) // 2):
        terms.append(term)
        term *= statistic / (2 * i + 1)
    density = math.exp(-half) / math.sqrt(2.0 * math.pi)
    return math.erfc(math.sqrt(half)) + 2.0 * density * math.fsum(terms)
