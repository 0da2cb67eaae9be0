"""Grover iteration planning, exponential search, adaptive search and counting.

The searches run on either backend:

* ``dense`` prepares the oracle's full workspace and simulates every gate;
* ``effective`` evolves index amplitudes only (exact for these oracles) and
  scales to list sizes far beyond dense reach.

Sampling is deterministic for a given ``numpy.random.Generator``; independent
repetitions derive child generators by spawning, so runs are reproducible
from a single master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sim
from .oracles import (
    OracleCircuit,
    ValueTable,
    effective_grover_step,
    effective_state_new,
    grover_operator,
    single_list_oracle,
)

BACKENDS = ("dense", "effective")

#: Cumulative Grover iterations allowed per exponential-search invocation,
#: as a multiple of ceil(sqrt(N)).
DEFAULT_QES_BUDGET_FACTOR = 5

_QES_GROWTH = 8.0 / 7.0


def closest_integer(value: float) -> int:
    """Closest integer with halves rounded down."""
    return math.ceil(value - 0.5)


def grover_angle(n_space: int, n_marked: int) -> float:
    """Rotation angle per Grover iteration, 2*arcsin(sqrt(M/N))."""
    if n_marked < 1:
        raise ValueError("the rotation angle is undefined for M = 0")
    if n_marked > n_space:
        raise ValueError("M cannot exceed N")
    return 2.0 * math.asin(math.sqrt(n_marked / n_space))


@dataclass(frozen=True)
class GroverPlan:
    """Search-space size, solution count, angle and optimal iteration count."""

    n_space: int
    n_marked: int
    theta: float
    iterations: int


def iteration_count(n_space: int, n_marked: int) -> int:
    """Iterations maximising success probability: CI(pi/(2 theta) - 1/2)."""
    if not 1 <= n_marked <= n_space / 2:
        raise ValueError("iteration_count requires 1 <= M <= N/2")
    theta = grover_angle(n_space, n_marked)
    return max(0, closest_integer(math.pi / (2.0 * theta) - 0.5))


def grover_plan(n_space: int, n_marked: int) -> GroverPlan:
    return GroverPlan(
        n_space,
        n_marked,
        grover_angle(n_space, n_marked),
        iteration_count(n_space, n_marked),
    )


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}")


# ---------------------------------------------------------------------------
# Plain Grover search
# ---------------------------------------------------------------------------


class _Evolution:
    """One oracle's effective Grover evolution from |psi>, stepped once, sampled often.

    After j iterations every marked amplitude is the same number, and so is
    every unmarked one (Boyer, Brassard, Hoyer & Tapp 1998). The furthest
    state reached is stepped with ``effective_grover_step`` only when a later
    j is asked for, and each j's (marked, unmarked) pair is recorded, so the
    probabilities of any j reached rebuild bit for bit what stepping from
    |psi> gives. The measurement CDF of the last j sampled is kept, so
    repeated runs at one j cost one binary search each. Everything held is
    O(N); nothing refers back to the oracle.
    """

    def __init__(self, mask: np.ndarray, index_bits: int):
        self.mask = mask
        self.marked = np.flatnonzero(mask)
        first_unmarked = int(np.argmin(mask))
        # one index of each class, None where the class is empty
        self._probes = (
            int(self.marked[0]) if self.marked.size else None,
            None if mask[first_unmarked] else first_unmarked,
        )
        self.state = effective_state_new(index_bits)
        self.pairs: list[tuple[float, float]] = []
        self._record()
        self._cdf_iterations = -1
        self._cdf = np.empty(0)

    def _record(self) -> None:
        amps = self.state.amplitudes
        self.pairs.append(tuple(0.0 if k is None else amps[k] for k in self._probes))

    def amplitudes(self, iterations: int) -> tuple[float, float]:
        """(marked, unmarked) amplitude after ``iterations`` Grover iterations."""
        while len(self.pairs) <= iterations:
            self.state = effective_grover_step(self.state, self.marked)
            self._record()
        return self.pairs[iterations]

    def probabilities(self, iterations: int) -> np.ndarray:
        """Index-register probabilities after ``iterations`` Grover iterations."""
        a_marked, a_unmarked = self.amplitudes(iterations)
        return np.where(self.mask, a_marked, a_unmarked) ** 2

    def sample(self, iterations: int, rng: np.random.Generator) -> int:
        """Measure the index register: the draw ``rng.choice(N, p=probs)`` makes."""
        if iterations != self._cdf_iterations:
            probs = self.probabilities(iterations)
            cdf = (probs / probs.sum()).cumsum()
            cdf /= cdf[-1]
            self._cdf_iterations, self._cdf = iterations, cdf
        return int(self._cdf.searchsorted(rng.random(), side="right"))


def _evolution(oracle: OracleCircuit) -> _Evolution:
    if oracle.evolution is None:
        oracle.evolution = _Evolution(oracle.mask, oracle.index_bits)
    return oracle.evolution


def marked_probability_after(oracle: OracleCircuit, iterations: int) -> float:
    """Effective-backend marked mass after a fixed number of iterations."""
    evolution = _evolution(oracle)
    a_marked, _ = evolution.amplitudes(iterations)
    return float(evolution.marked.size * a_marked**2)


def grover_search(
    oracle: OracleCircuit,
    iterations: int,
    rng: np.random.Generator,
    backend: str = "effective",
) -> int:
    """Apply the Grover operator ``iterations`` times to |psi> and measure."""
    _check_backend(backend)
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if backend == "dense":
        state = sim.apply(
            sim.new_basis_state(oracle.num_qubits, 0), oracle.prep_circuit
        )
        op = grover_operator(oracle)
        for _ in range(iterations):
            state = sim.apply(state, op)
        outcome, _ = sim.measure_subregister(state, oracle.layout.index, rng)
        return outcome
    return _evolution(oracle).sample(iterations, rng)


# ---------------------------------------------------------------------------
# Quantum exponential search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundLog:
    iterations: int
    measured: int
    accepted: bool


@dataclass
class SearchOutcome:
    """Result of one exponential-search run; found_index is None on timeout."""

    found_index: int | None
    oracle_calls: int
    rounds: list[RoundLog] = field(default_factory=list)

    @property
    def timed_out(self) -> bool:
        return self.found_index is None


def default_qes_budget(n_space: int) -> int:
    return DEFAULT_QES_BUDGET_FACTOR * math.ceil(math.sqrt(n_space))


def qes(
    oracle: OracleCircuit,
    rng: np.random.Generator,
    budget: int | None = None,
    backend: str = "effective",
) -> SearchOutcome:
    """Exponential search: Grover with a randomised, growing iteration bound.

    Each round draws j uniformly from [0, m), applies j Grover iterations and
    measures; on failure the bound grows by the factor 8/7 up to sqrt(N).
    Rounds start while the cumulative iteration count is within budget, so a
    timeout reports at least the budget. Works without knowing the number of
    solutions; expected cost is O(sqrt(N/M)) oracle calls.
    """
    _check_backend(backend)
    n_space = oracle.index_size
    if budget is None:
        budget = default_qes_budget(n_space)
    if budget <= 0:
        raise ValueError("budget must be positive")

    bound = 1.0
    calls = 0
    rounds: list[RoundLog] = []
    while calls <= budget:
        j = int(rng.integers(0, math.ceil(bound)))
        measured = grover_search(oracle, j, rng, backend)
        calls += j
        accepted = bool(oracle.predicate(measured))
        rounds.append(RoundLog(j, measured, accepted))
        if accepted:
            return SearchOutcome(measured, calls, rounds)
        bound = min(_QES_GROWTH * bound, math.sqrt(n_space))
    return SearchOutcome(None, calls, rounds)


# ---------------------------------------------------------------------------
# Quantum counting
# ---------------------------------------------------------------------------


@dataclass
class CountEstimate:
    """A counting outcome b, the solution-count estimate and its error bound.

    ``m`` is the register width; ``bound`` is ``register_error_bound`` at the
    rounded estimate.
    """

    m: int
    b: int
    n_space: int
    theta_est: float
    m_est: float
    m_rounded: int
    bound: float
    distribution: np.ndarray

    def classify(self) -> str:
        """Three-way class used by solution detection: none, single, multiple."""
        if self.m_rounded <= 0:
            return "none"
        if self.m_rounded == 1:
            return "single"
        return "multiple"


#: Register qubits beyond an accuracy in bits of theta in radians: an m-qubit
#: register resolves theta / 2pi, that is theta to 2pi 2^-m radians, so it
#: takes ceil(log2 2pi) = 3 more qubits to reach 2^-m radians.
ANGLE_BITS = math.ceil(math.log2(2.0 * math.pi))


def m_exact(n_space: int) -> int:
    """Accuracy bits of theta (in radians) for exact counting: ceil(log2 N + 1/2).

    These are accuracy bits, not register qubits; ``counting_register``
    converts them.
    """
    _check_power_of_two(n_space)
    return math.ceil(math.log2(n_space) + 0.5)


def m_detect(n_space: int) -> int:
    """Accuracy bits of theta (in radians) to separate no/single/multiple solutions.

    These are accuracy bits, not register qubits; ``counting_register``
    converts them.
    """
    _check_power_of_two(n_space)
    return math.ceil(math.log2(n_space) / 2.0 + 1.583)


def counting_register(accuracy_bits: int) -> int:
    """Counting-register qubits that estimate theta to 2^-accuracy_bits radians."""
    return accuracy_bits + ANGLE_BITS


def _check_power_of_two(n_space: int) -> None:
    if n_space < 2 or n_space & (n_space - 1):
        raise ValueError("N must be a power of two, >= 2")


def delta_m_bound(n_space: int, n_marked: int, m: int) -> float:
    """Analytic counting-error bound 2^-m (sqrt(NM) + N/4 * 2^-m).

    The bound of Nielsen & Chuang (section 6.3): m counts accuracy bits of
    theta in radians, not register qubits. For the bound of an m-qubit
    register see ``register_error_bound``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _error_bound(n_space, n_marked, 2.0**-m)


def register_error_bound(n_space: int, n_marked: int, m: int) -> float:
    """Counting-error bound of an m-qubit register: 2pi 2^-m sqrt(NM) + pi^2 N 4^-m.

    This is ``delta_m_bound`` at the register's accuracy of m - log2(2pi)
    bits. The estimate lies within it of the true count with probability at
    least 8/pi^2 (Brassard, Hoyer, Mosca & Tapp 2002, Thm 12).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _error_bound(n_space, n_marked, 2.0 * math.pi * 2.0**-m)


def _error_bound(n_space: int, n_marked: int, scale: float) -> float:
    # scale is the angular accuracy of the estimate of theta, in radians
    return scale * (math.sqrt(n_space * n_marked) + n_space / 4.0 * scale)


def t_for_resolution(d: float) -> int:
    """Comparator resolution bits for resolving power d: ceil(log2(1/d))."""
    if not 0.0 < d <= 1.0:
        raise ValueError("resolving power must lie in (0, 1]")
    return math.ceil(math.log2(1.0 / d))


def qpe_distribution(phase_turns: float, m: int) -> np.ndarray:
    """Exact m-bit phase-estimation outcome distribution for one eigenphase."""
    size = 1 << m
    phi = phase_turns % 1.0
    x = phi * size
    nearest = round(x)
    if abs(x - nearest) < 1e-12:
        dist = np.zeros(size)
        dist[nearest % size] = 1.0
        return dist
    b = np.arange(size)
    delta = phi - b / size
    num = np.sin(np.pi * (x - b)) ** 2
    den = (size * np.sin(np.pi * delta)) ** 2
    return num / den


def counting_distribution(n_space: int, n_marked: int, m: int) -> np.ndarray:
    """Counting-register distribution for M marked of N, exactly.

    The uniform start state overlaps each Grover eigenvector (eigenphases
    +-theta/2pi) with weight 1/2, so the outcome law is the even mixture of
    the two phase-estimation kernels.
    """
    if n_marked == 0:
        dist = np.zeros(1 << m)
        dist[0] = 1.0
        return dist
    phi = grover_angle(n_space, n_marked) / (2.0 * math.pi)
    return 0.5 * qpe_distribution(phi, m) + 0.5 * qpe_distribution(-phi, m)


def estimate_from_outcome(b: int, m: int, n_space: int) -> tuple[float, float, int]:
    """Map a counting outcome to (theta_est, M_est, rounded M)."""
    theta_est = 2.0 * math.pi * b / (1 << m)
    m_est = n_space * math.sin(theta_est / 2.0) ** 2
    return theta_est, m_est, round(m_est)


def quantum_counting(
    oracle: OracleCircuit,
    m: int,
    rng: np.random.Generator,
    backend: str = "effective",
) -> CountEstimate:
    """Phase-estimate the Grover operator to count solutions.

    Returns the exact outcome distribution together with one seeded sample.
    On the dense backend the controlled Grover operator is lifted over the
    whole oracle workspace; on the effective backend the distribution follows
    from the two eigenphases directly.
    """
    _check_backend(backend)
    if m < 1:
        raise ValueError("m must be >= 1")
    n_space = oracle.index_size
    if backend == "dense":
        dist = _dense_counting_distribution(oracle, m)
    else:
        dist = counting_distribution(n_space, len(oracle.marked_set), m)
    b = int(rng.choice(dist.size, p=dist / dist.sum()))
    theta_est, m_est, m_rounded = estimate_from_outcome(b, m, n_space)
    return CountEstimate(
        m=m,
        b=b,
        n_space=n_space,
        theta_est=theta_est,
        m_est=m_est,
        m_rounded=m_rounded,
        bound=register_error_bound(n_space, max(m_rounded, 0), m),
        distribution=dist,
    )


def _dense_counting_distribution(oracle: OracleCircuit, m: int) -> np.ndarray:
    work = oracle.num_qubits
    nq = work + m
    if nq > sim.DENSE_QUBIT_CAP:
        raise sim.CapacityError(
            f"counting needs {nq} qubits, above the dense cap {sim.DENSE_QUBIT_CAP}"
        )
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


# ---------------------------------------------------------------------------
# Solution enumeration (counting + fixed-iteration Grover)
# ---------------------------------------------------------------------------

#: Extra counting qubits over m_exact used when a count feeds search plans:
#: ANGLE_BITS turn m_exact's accuracy bits into register qubits (see
#: ``counting_register``), and one more bit adds margin for the median of
#: ENUMERATION_SAMPLES samples; the cost stays O(N).
ENUMERATION_EXTRA_BITS = ANGLE_BITS + 1

#: Independent counting samples whose median becomes the working estimate.
ENUMERATION_SAMPLES = 15


class SearchDisagreement(RuntimeError):
    """Fixed-iteration searches could not collect the solutions counting reported."""


@dataclass
class EnumerationResult:
    indices: frozenset[int]
    count_estimate: CountEstimate
    oracle_calls: int
    grover_runs: int
    doubled: bool


def _median_count(
    oracle: OracleCircuit,
    m: int,
    rng: np.random.Generator,
    backend: str,
    samples: int,
) -> tuple[int, CountEstimate]:
    est = quantum_counting(oracle, m, rng, backend)
    dist = est.distribution / est.distribution.sum()
    draws = rng.choice(dist.size, size=samples, p=dist)
    rounded = sorted(
        estimate_from_outcome(int(b), m, est.n_space)[2] for b in draws
    )
    median = rounded[len(rounded) // 2]
    return median, est


def enumerate_solutions(
    oracle: OracleCircuit,
    rng: np.random.Generator,
    backend: str = "effective",
) -> EnumerationResult:
    """Count the solutions, then collect them with fixed-iteration Grover runs.

    The count uses a register wide enough to round the estimate to the true
    M reliably; the median of several samples guards the tail. If the count
    exceeds N/2 the oracle is doubled first so the iteration formula applies.
    Raises ``SearchDisagreement`` if the collected set cannot reach the
    counted size, which signals a counting/search inconsistency.
    """
    _check_backend(backend)
    calls = 0
    doubled = False
    while True:
        m = m_exact(oracle.index_size) + ENUMERATION_EXTRA_BITS
        m_hat, estimate = _median_count(oracle, m, rng, backend, ENUMERATION_SAMPLES)
        calls += ENUMERATION_SAMPLES * ((1 << m) - 1)
        if m_hat == 0:
            return EnumerationResult(frozenset(), estimate, calls, 0, doubled)
        if doubled or m_hat <= oracle.index_size / 2:
            break
        oracle = oracle.doubled()
        doubled = True

    iterations = iteration_count(oracle.index_size, m_hat)
    found: set[int] = set()
    runs = 0
    # A run succeeds with probability p = sin^2((2j+1) theta/2) (Boyer et
    # al. 1998) and then returns one of the m_hat solutions uniformly, so
    # after R runs a given solution is still unseen with probability at most
    # exp(-R p / m_hat). On a correct count this cap bounds the chance that
    # any of them is by e**-21.
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
    return EnumerationResult(frozenset(found), estimate, calls, runs, doubled)


# ---------------------------------------------------------------------------
# Grover adaptive search
# ---------------------------------------------------------------------------


@dataclass
class RepetitionLog:
    start_index: int
    final_index: int
    oracle_calls: int
    improvements: int


@dataclass
class GasResult:
    index: int
    value: int
    oracle_calls: int
    repetitions: list[RepetitionLog] = field(default_factory=list)


def gas_budget(n_space: int) -> float:
    """Oracle-call budget per repetition: 22.5 sqrt(N) + 1.4 log2(N)^2."""
    return 22.5 * math.sqrt(n_space) + 1.4 * math.log2(n_space) ** 2


def gas(
    values: ValueTable,
    direction: str,
    rng: np.random.Generator,
    repetitions: int,
    backend: str = "effective",
    qes_budget: int | None = None,
    counting_termination: bool = False,
) -> GasResult:
    """Adaptive search for the extremal table entry.

    A repetition starts from a uniformly random threshold index; each round
    marks strictly better entries (greater-than for ``max``, less-than for
    ``min``), runs exponential search, and moves the threshold to any found
    improvement. The round loop stops once its cumulative oracle calls
    exceed the per-repetition budget. The best index over ``repetitions``
    independent repetitions is returned; success probability is at least
    1 - 1/2**repetitions.

    With ``counting_termination`` a solution-detection count runs before each
    search and ends the repetition early when no better entry exists.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    _check_backend(backend)
    n_space = values.size
    budget = gas_budget(n_space)
    per_qes = qes_budget if qes_budget is not None else default_qes_budget(n_space)
    op = "gt" if direction == "max" else "lt"

    def better(a: int, b: int) -> bool:
        return a > b if direction == "max" else a < b

    best_index: int | None = None
    total_calls = 0
    logs: list[RepetitionLog] = []
    for child in rng.spawn(repetitions):
        j = int(child.integers(0, n_space))
        start = j
        calls = 0
        improvements = 0
        oracle = None
        while calls <= budget:
            if oracle is None:  # a new threshold; otherwise its evolution is reused
                oracle = single_list_oracle(values, values[j], op)
            if counting_termination:
                check = quantum_counting(oracle, m_detect(n_space), child, backend)
                calls += (1 << check.m) - 1
                if check.m_rounded == 0:
                    break
            remaining = budget - calls
            sub_budget = max(1, min(per_qes, math.ceil(remaining)))
            outcome = qes(oracle, child, sub_budget, backend)
            calls += outcome.oracle_calls
            if outcome.found_index is not None and better(
                values[outcome.found_index], values[j]
            ):
                j = outcome.found_index
                improvements += 1
                oracle = None
        logs.append(RepetitionLog(start, j, calls, improvements))
        total_calls += calls
        if best_index is None or better(values[j], values[best_index]):
            best_index = j
    return GasResult(best_index, values[best_index], total_calls, logs)
