"""Exact laws of qslice's search algorithms on the effective backend.

On the effective backend a Grover run of j iterations over N indices, M of
them marked, measures a marked index with probability sin^2((2j+1) theta/2),
where sin^2(theta/2) = M/N (Boyer, Brassard, Hoyer and Tapp 1998). Every
other draw an algorithm makes is a uniform integer, so its law is a function
of (N, M) and its budget alone, and is computed here with no sampling.

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


def default_qes_budget(n_space: int) -> int:
    return QES_BUDGET_FACTOR * math.ceil(math.sqrt(n_space))


def success_probabilities(n_space: int, marked: int, runs: int) -> np.ndarray:
    """P(measure a marked index) after j = 0 .. runs - 1 Grover iterations."""
    theta = 2.0 * math.asin(math.sqrt(marked / n_space))
    return np.sin((2 * np.arange(runs) + 1) * theta / 2) ** 2


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
