"""Grover iteration planning, exponential search, adaptive search and counting.

The searches run on either backend:

* ``dense`` prepares the oracle's full workspace and simulates every gate;
* ``effective`` evolves index amplitudes only (exact for these oracles) and
  scales to list sizes far beyond dense reach.

Each oracle memoises its Grover evolution on either backend (``_Evolution``):
the furthest state G^j|psi> is stepped only when a larger j is asked for,
and each j reached keeps a record that rebuilds its index-register
probabilities bit for bit, so a search draws exactly what simulating from
|psi> would. The effective backend finds that index from the closed-form CDF
of its amplitude pair by one bisection, or from the CDF itself near a boundary.
Dense counting steps the same operator: its register starts in |+>^m and
only controls powers of G until the inverse QFT, so the joint state is
sum_c |c> G^c|psi> / 2^(m/2), built row by row from 2^m - 1 steps on the
workspace alone. Effective counting evaluates one phase-estimation kernel
and mirrors it. On both backends a count's outcome and its further samples
come from one CDF, as ``rng.choice`` draws them.

Sampling is deterministic for a given ``numpy.random.Generator``; independent
repetitions derive child generators by spawning, so runs are reproducible
from a single master seed.
"""

from __future__ import annotations

import bisect
import math
import sys
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
    """One oracle's Grover evolution from |psi>, stepped once, sampled often.

    The furthest state reached is stepped only when a later j is asked for,
    and each j reached keeps a record from which its index-register
    probabilities are rebuilt bit for bit, so an oracle takes at most max-j
    steps in all. A measurement locates one uniform ``v`` in the CDF, kept
    for the last j, so repeated runs at one j cost one binary search each.
    Subclasses give the state, the step and the record, and may locate
    ``v`` without the CDF; nothing held refers back to the oracle.
    """

    def __init__(self, state):
        self.state = state
        self.records = [self._record(state)]
        self._cdf_iterations = -1

    def step(self, state):
        """One Grover iteration."""
        raise NotImplementedError

    def _record(self, state):
        raise NotImplementedError

    def probabilities(self, iterations: int) -> np.ndarray:
        """Index-register probabilities after ``iterations`` Grover iterations."""
        raise NotImplementedError

    def record(self, iterations: int):
        """The record of the state after ``iterations`` Grover iterations."""
        while len(self.records) <= iterations:
            self.state = self.step(self.state)
            self.records.append(self._record(self.state))
        return self.records[iterations]

    def sample(self, iterations: int, rng: np.random.Generator) -> int:
        """Measure the index register: the draw ``rng.choice(N, p=probs)`` makes."""
        return self.locate(iterations, rng.random())

    def locate(self, iterations: int, v: float) -> int:
        """The index whose interval of the measurement CDF holds the uniform ``v``."""
        if iterations != self._cdf_iterations:
            self._cdf_iterations = iterations
            self._cdf = _measurement_cdf(self.probabilities(iterations))
        return int(self._cdf.searchsorted(v, side="right"))


def _measurement_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF ``rng.choice(probs.size, p=probs / probs.sum())`` searches its uniforms in."""
    total = probs.sum()
    if total < 1e-12:
        raise RuntimeError("register marginal is numerically zero")
    cdf = probs / total
    cdf.cumsum(out=cdf)
    cdf /= cdf[-1]
    return cdf


class _EffectiveEvolution(_Evolution):
    """The index amplitudes alone, recorded as one (marked, unmarked) pair per j.

    After j iterations every marked amplitude is the same number, and so is
    every unmarked one (Boyer, Brassard, Hoyer & Tapp 1998), so the pair
    rebuilds the whole vector and the CDF is F(i) = (p_in c(i) + p_out (i +
    1 - c(i))) / S, with c(i) the smaller class's indices up to i. ``v`` is
    located by one bisection over the weight before each of them (kept for
    the last j) and by arithmetic in the gap after. Everything held is O(N).
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
        # the smaller class's indices, with the other class's count before each
        self._small_is_marked = 2 * self.marked.size <= mask.size
        small = self.marked if self._small_is_marked else np.flatnonzero(~mask)
        self._ranks = np.arange(small.size, dtype=float)
        self._others = small - self._ranks
        # read as Python ints, between the sentinels -1 and N
        self._small = memoryview(np.concatenate(([-1], small, [mask.size])))
        # The float CDF of ``_Evolution.locate`` sums nonnegative terms and its
        # division by cdf[-1] cancels the total's error, so it is monotone and
        # within (2N + 2) 2^-53 of the exact F in any summation order. An index
        # whose closed-form interval clears this margin (4x that, plus the few
        # roundings of the closed form) on both sides is the one searchsorted
        # finds; v within it of one of the N boundaries, a share of at most
        # 2 N margin (1.2e-7 at N = 8192) of draws, take the CDF path.
        self._margin = (mask.size + 8) * 2.0**-50
        self._weights_iterations = -1
        super().__init__(effective_state_new(index_bits))

    def step(self, state):
        return effective_grover_step(state, self.marked)

    def _record(self, state) -> tuple[float, float]:
        """The (marked, unmarked) amplitude pair."""
        amps = state.amplitudes
        return tuple(0.0 if k is None else amps[k] for k in self._probes)

    def probabilities(self, iterations: int) -> np.ndarray:
        a_marked, a_unmarked = self.record(iterations)
        return np.where(self.mask, a_marked, a_unmarked) ** 2

    def locate(self, iterations: int, v: float) -> int:
        if iterations != self._weights_iterations:
            pair = [float(a) * float(a) for a in self.record(iterations)]
            w_in, w_out = pair if self._small_is_marked else pair[::-1]
            # the weight before each small-class index, bisected as Python floats
            before = memoryview(w_in * self._ranks + w_out * self._others)
            total = w_in * len(before) + w_out * (self.mask.size - len(before))
            self._weights_iterations, self._weights = iterations, (w_in, w_out, total, before)
        (w_in, w_out, total, before), small, margin = self._weights, self._small, self._margin
        t = v * total
        k = bisect.bisect_right(before, t)
        if k and t < before[k - 1] + w_in:  # on small-class index k - 1
            i, low, width = small[k], before[k - 1], w_in
        else:  # among the other-class indices before small-class index k
            first, end = small[k] + 1, small[k + 1]
            if first == end or w_out < margin:  # no index there clears the margin
                return super().locate(iterations, v)
            i = first + int((t - (before[k - 1] + w_in if k else 0.0)) / w_out)
            i = i if i < end else end - 1
            low, width = w_in * k + w_out * (i - k), w_out
        # F(i - 1) + margin <= v < F(i) - margin, with F in closed form
        if low / total + margin <= v < (low + width) / total - margin:
            return i
        return super().locate(iterations, v)


class _DenseEvolution(_Evolution):
    """The whole workspace statevector, recorded as its index marginal per j.

    The Grover operator is built once. Only the furthest state is kept,
    with one 2^n marginal per j reached.
    """

    def __init__(self, oracle: OracleCircuit):
        self.operator = grover_operator(oracle)
        self.index = oracle.layout.index
        super().__init__(_prepared_state(oracle))

    def step(self, state: sim.StateVector) -> sim.StateVector:
        return sim.apply(state, self.operator)

    def _record(self, state: sim.StateVector) -> np.ndarray:
        return sim.subregister_distribution(state, self.index)

    def probabilities(self, iterations: int) -> np.ndarray:
        return self.record(iterations)


def _prepared_state(oracle: OracleCircuit) -> sim.StateVector:
    """|psi>: the oracle's prepared workspace."""
    return sim.apply(sim.new_basis_state(oracle.num_qubits, 0), oracle.prep_circuit)


def _evolution(oracle: OracleCircuit, backend: str = "effective") -> _Evolution:
    if backend == "dense":
        if oracle.dense_evolution is None:
            oracle.dense_evolution = _DenseEvolution(oracle)
        return oracle.dense_evolution
    if oracle.evolution is None:
        oracle.evolution = _EffectiveEvolution(oracle.mask, oracle.index_bits)
    return oracle.evolution


def marked_probability_after(oracle: OracleCircuit, iterations: int) -> float:
    """Effective-backend marked mass after a fixed number of iterations."""
    evolution = _evolution(oracle)
    a_marked, _ = evolution.record(iterations)
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
    return _evolution(oracle, backend).sample(iterations, rng)


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
    rounded estimate; ``cdf`` is the CDF ``b`` was drawn from.
    """

    m: int
    b: int
    n_space: int
    theta_est: float
    m_est: float
    m_rounded: int
    bound: float
    distribution: np.ndarray
    cdf: np.ndarray = field(repr=False)

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
    """Comparator resolution bits for resolving power d: ceil(log2(1/d)).

    This is the one check of a resolving power: d must lie in (0, 1) and
    need at most a double's 53 significand bits, since finer bits quantize
    nothing.
    """
    if not 0.0 < d < 1.0:
        raise ValueError(f"resolution must lie in (0, 1), got {d}")
    inverse = 1.0 / d
    bits = sys.float_info.mant_dig
    if not math.isfinite(inverse) or math.log2(inverse) > bits:
        raise ValueError(f"resolution {d} is finer than 2^-{bits}, the finest a double carries")
    return math.ceil(math.log2(inverse))


def qpe_distribution(phase_turns: float, m: int) -> np.ndarray:
    """Exact m-bit phase-estimation outcome distribution for one eigenphase.

    Outcome b has probability sin^2(pi (x - b)) / (2^m sin(pi (phi - b/2^m)))^2
    with x = 2^m phi. The numerator is sin^2(pi (x - round(x))) for every b,
    one float from an exact difference (pi x itself rounds at the scale of
    2^m), so only the denominator takes a pass over the outcomes. A register
    above ``sim.DENSE_QUBIT_CAP`` qubits is refused before it is allocated.
    """
    if m > sim.DENSE_QUBIT_CAP:
        raise sim.CapacityError(
            f"counting register of {m} qubits is above the cap {sim.DENSE_QUBIT_CAP}"
        )
    size = 1 << m
    phi = phase_turns % 1.0
    x = phi * size
    nearest = round(x)
    if abs(x - nearest) < 1e-12:
        dist = np.zeros(size)
        dist[nearest % size] = 1.0
        return dist
    # in place: phi - b / 2^m, then the denominator, then the quotient
    dist = np.arange(size, dtype=float)
    dist /= -size
    dist += phi
    dist *= np.pi
    np.sin(dist, out=dist)
    dist *= size
    np.square(dist, out=dist)
    return np.divide(math.sin(math.pi * (x - nearest)) ** 2, dist, out=dist)


def counting_distribution(n_space: int, n_marked: int, m: int) -> np.ndarray:
    """Counting-register distribution for M marked of N, exactly.

    The uniform start state overlaps each Grover eigenvector (eigenphases
    +-theta/2pi) with weight 1/2, so the outcome law is the even mixture of
    the two phase-estimation kernels (Brassard, Hoyer, Mosca & Tapp 2002).
    The -phi kernel is the +phi kernel at outcome -b mod 2^m, so one kernel
    is evaluated and mirrored by index reversal, and the result is symmetric
    under b -> -b bit for bit. With no solution phi is 0: all mass on b = 0.
    """
    phi = grover_angle(n_space, n_marked) / (2.0 * math.pi) if n_marked else 0.0
    dist = qpe_distribution(phi, m)
    # in place: add kernel[-b mod 2^m] (numpy buffers the overlapping reversed
    # view) and halve; outcome 0 is its own mirror, (k + k) / 2 = k
    dist[1:] += dist[:0:-1]
    dist[1:] *= 0.5
    return dist


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

    Returns the exact outcome distribution and one sample drawn from its CDF
    (kept on the estimate for further samples), as ``rng.choice`` draws it.
    On the dense backend the register's branches G^c|psi> are stepped on the
    oracle workspace and the inverse QFT runs over register and workspace;
    on the effective backend the distribution follows from the two
    eigenphases directly.
    """
    _check_backend(backend)
    if m < 1:
        raise ValueError("m must be >= 1")
    n_space = oracle.index_size
    if backend == "dense":
        dist = _dense_counting_distribution(oracle, m)
    else:
        dist = counting_distribution(n_space, len(oracle.marked_set), m)
    cdf = _measurement_cdf(dist)
    b = int(cdf.searchsorted(rng.random(), side="right"))
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
        cdf=cdf,
    )


def _dense_counting_distribution(oracle: OracleCircuit, m: int) -> np.ndarray:
    work = oracle.num_qubits
    nq = work + m
    if nq > sim.DENSE_QUBIT_CAP:
        raise sim.CapacityError(
            f"counting needs {nq} qubits, above the dense cap {sim.DENSE_QUBIT_CAP}"
        )
    counting = list(range(work, nq))
    joint = sim.StateVector(nq, _counting_branches(oracle, m).reshape(-1))
    # in place: the branch buffer is the only joint-sized state held
    state = sim.apply(joint, sim.inverse_qft_circuit(counting, nq), in_place=True)
    return sim.subregister_distribution(state, counting)


def _counting_branches(oracle: OracleCircuit, m: int) -> np.ndarray:
    """The counting register and workspace before the inverse QFT, as (2^m, 2^w) rows.

    The register starts in |+>^m and only controls G^(2^j) until the
    inverse QFT, so the joint state is sum_c |c> G^c|psi> / 2^(m/2). The
    register is the top m qubits, so row c is branch c: G stepped c times
    on the workspace alone, 2^m - 1 steps in all.
    """
    evolution = _evolution(oracle, "dense")
    state = _prepared_state(oracle)
    branches = np.empty((1 << m, state.amplitudes.size), dtype=np.complex128)
    branches[0] = state.amplitudes
    for c in range(1, 1 << m):
        state = evolution.step(state)
        branches[c] = state.amplitudes
    branches *= 2.0 ** (-0.5 * m)
    return branches


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
    draws = est.cdf.searchsorted(rng.random(samples), side="right")
    rounded = sorted(estimate_from_outcome(int(b), m, est.n_space)[2] for b in draws)
    return rounded[len(rounded) // 2], est


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
    per_qes = default_qes_budget(n_space)
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
