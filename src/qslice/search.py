"""Grover iteration planning, exponential search, adaptive search and counting.

The searches run on either backend:

* ``dense`` prepares the oracle's full workspace and applies every gate,
  stepping only the sector of it that can hold amplitude: the basis states
  in which each qubit that |psi> holds at one value, and that no compiled
  stage of the Grover operator moves (such as a threshold register), keeps
  that value;
* ``effective`` evolves index amplitudes only (exact for these oracles) and
  scales to list sizes far beyond dense reach.

A dense evolution builds only what its table needs: the Grover operator is
kept per value table and comparison (the last 8, ``_operator_slot``), a memo
that holds no state. |psi> and the index marginal are read off the oracle's
layout, with no circuit. Per gate and per stage facts are kept by ``sim``.

Each oracle memoises its Grover evolution on either backend (``_Evolution``):
the furthest state G^j|psi> is stepped only when a larger j is asked for,
and each j reached keeps a record. A measurement locates a uniform v in the
class-ordered CDF, marked indices ascending and then unmarked ones: the
effective backend from the marked and unmarked amplitudes alone, with no
CDF, and with no step while the state is uniform; the dense backend in the
CDF of its simulated index marginal. Enumeration's fixed-j runs are drawn as
blocks located at once, each about twice the runs expected to collect the
solutions still missing. Exponential search draws its rounds in blocks too,
cut at its budget, and locates them one by one until one succeeds; on an
oracle with no marked index it locates none unless its log is read.
Dense counting reads the same memo: its register law depends only on the
overlaps r(k) = <psi|G^k psi>, k < 2^m, recorded next to each marginal, and
follows from them by one FFT, with no register qubit simulated. Both
backends draw a count's outcomes by rejection from one closed-form envelope
of the two-kernel law, with the same uniforms; the effective backend accepts
by the law in closed form, with no array of 2^m outcomes, and the dense
backend by its simulated law. A point mass locates one uniform per draw in
the law's CDF.

Counting has one routine, ``count_solutions``: the rounded median of a batch
of outcomes (``_median_count``), counted once more on the doubled oracle
when it is above N/2, with 2^m - 1 oracle calls charged per outcome drawn.
``slice`` runs it on m_exact(N) + ``ENUMERATION_EXTRA_BITS`` qubits with
``ENUMERATION_SAMPLES`` outcomes, ``count`` on the paper width with one, and
``quantum_counting`` is its one-outcome count with no doubling.

Sampling is deterministic for a given ``numpy.random.Generator``; independent
repetitions derive child generators by spawning, one as each starts, so runs
are reproducible from a single master seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from . import sim
from .oracles import (
    OracleCircuit,
    RegisterLayout,
    ValueTable,
    effective_grover_step,
    effective_index_size,
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
    and each j reached keeps a record, so an oracle takes at most max-j steps
    in all. Subclasses give the state, ``any_marked``, ``step(state)``, one
    Grover iteration, ``_record(state)``, and ``locate(j, v)``: the index
    whose interval of the class-ordered CDF after j iterations (the marked
    indices ascending, then the unmarked ones ascending) holds the uniform
    ``v``, or an array of them for an array of uniforms. Nothing held refers
    back to the oracle.
    """

    def __init__(self, state):
        self.state = state
        self.records = [self._record(state)]

    def record(self, iterations: int):
        """The record of the state after ``iterations`` Grover iterations."""
        while len(self.records) <= iterations:
            self.state = self.step(self.state)
            self.records.append(self._record(self.state))
        return self.records[iterations]


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
    every unmarked one (Boyer, Brassard, Hoyer & Tapp 1998), so a draw needs
    only the pair: a uniform picks a class by its mass, then an index of that
    class by its rank, with no CDF. The state is uniform at j = 0, and at
    every j with one class empty, so those draws take no step. The 2^n
    amplitudes are built on the first step, so an oracle searched only while
    uniform holds none.
    """

    def __init__(self, mask: np.ndarray, index_bits: int):
        self.index_bits = index_bits
        self._uniform = 1.0 / math.sqrt(effective_index_size(index_bits))
        self.mask = mask
        self.marked = np.flatnonzero(mask)
        self.any_marked = bool(self.marked.size)
        # the unmarked indices below each marked one: the k-th unmarked index
        # is k plus the marked indices at which this is at most k
        self._below = self.marked - np.arange(self.marked.size)
        first_unmarked = int(np.argmin(mask))
        # one index of each class, None where the class is empty
        self._probes = (
            int(self.marked[0]) if self.marked.size else None,
            None if mask[first_unmarked] else first_unmarked,
        )
        super().__init__(None)  # |psi>, built by the first step

    def step(self, state):
        if state is None:
            state = effective_state_new(self.index_bits)
        return effective_grover_step(state, self.marked)

    def _record(self, state) -> tuple[float, float]:
        """The (marked, unmarked) amplitude pair."""
        if state is None:  # |psi>: the amplitude effective_state_new gives every index
            return tuple(0.0 if k is None else self._uniform for k in self._probes)
        amps = state.amplitudes
        return tuple(0.0 if k is None else float(amps[k]) for k in self._probes)

    def locate(self, iterations: int, v):
        """``v`` scaled by the total mass, x, falls in the marked class below its
        mass M w_in, at rank floor(x / w_in), and otherwise in the unmarked
        class, at rank floor((x - M w_in) / w_out); a class with no mass takes
        no draw, and a rank rounded past its class takes the class's last."""
        marked, below = self.marked, self._below
        n_in, n_out = marked.size, self.mask.size - marked.size
        if iterations == 0 or None in self._probes:  # uniform: no step
            w_in = w_out = 1.0
        else:
            a_in, a_out = self.record(iterations)
            w_in, w_out = a_in * a_in, a_out * a_out
        mass_in, mass_out = n_in * w_in, n_out * w_out
        x = v * (mass_in + mass_out)
        if isinstance(x, float):  # one draw, in Python scalars; np.ndim costs as much as the draw
            if x < mass_in or not mass_out:
                return int(marked[min(int(x // w_in), n_in - 1)])
            k = min(int((x - mass_in) // w_out), n_out - 1)
            return k + int(below.searchsorted(k, side="right"))
        into = (x < mass_in) | (not mass_out)
        drawn = np.empty(x.shape, dtype=np.intp)
        # a class's rank is computed only for the draws it takes, so a class
        # of zero weight divides no array by it
        drawn[into] = marked[np.minimum(x[into] // w_in, n_in - 1).astype(np.intp)]
        k = np.minimum((x[~into] - mass_in) // w_out, n_out - 1).astype(np.intp)
        drawn[~into] = k + below.searchsorted(k, side="right")
        return drawn


class _DenseEvolution(_Evolution):
    """The workspace statevector in its sector, recorded per j as its index
    marginal and its overlap r(j) = <psi|G^j psi>.

    The Grover operator is built and compiled once per ``operator_key``, that
    is per value table and comparison, and only the furthest state is kept.
    Its stages are stepped on the sector of |psi> alone (``sim.Sector``):
    every qubit but the index and oracle qubits that no stage moves keeps
    its ``reference_basis`` bit. A threshold register drops out where one
    fused monomial holds the comparator's X chain, which writes it and
    restores it; a register a dense block spans stays. |psi> is written on
    the sector from the layout, as the prep circuit would leave it: the
    index qubits, the sector's low n, uniform, the oracle qubit in |->, and
    each other kept qubit at its ``reference_basis`` bit. The index marginal
    is then one reshape and sum. Each overlap is an ``einsum`` over the
    2^(n+1) nonzero entries of |psi>, which unlike ``np.vdot`` calls no BLAS.
    A draw inverts the float CDF of the simulated marginal in class order,
    kept for the last j, so it draws what the effective backend draws but
    for a uniform within float rounding of an interval's edge.
    """

    def __init__(self, oracle: OracleCircuit):
        sim.check_capacity(oracle.num_qubits)  # refused by its full width before anything is built
        slot = _operator_slot(oracle.operator_key)
        if not slot:
            slot.append(grover_operator(oracle))
        moving = sum(1 << q for q in (*oracle.layout.index, oracle.oracle_qubit))
        self.operator = sector = sim.Sector(slot[0], held=~moving, values=oracle.reference_basis)
        # |psi>: the index qubits, the sector's low n, uniform; the oracle
        # qubit in |->; every other kept qubit at its reference_basis bit
        n = oracle.index_bits
        base = sum(1 << sector.position(q) for q in sector.kept if oracle.reference_basis >> q & 1)
        uniform = base + np.arange(1 << n)
        oracle_bit = 1 << sector.position(oracle.oracle_qubit)
        self._support = np.concatenate([uniform, uniform + oracle_bit])
        amplitude = (1 / math.sqrt(2)) ** (n + 1)
        amps = np.zeros(1 << sector.num_qubits, dtype=np.complex128)
        amps[self._support] = np.repeat([amplitude, -amplitude], 1 << n)
        self._bra = amps[self._support].conj()
        self._order = np.argsort(~oracle.mask, kind="stable")  # marked, then unmarked
        self.any_marked = bool(oracle.mask.any())
        self._cdf_iterations = -1
        super().__init__(sim.StateVector(sector.num_qubits, amps))

    def step(self, state: sim.StateVector) -> sim.StateVector:
        return sim.apply(state, self.operator)

    def _record(self, state: sim.StateVector) -> tuple[np.ndarray, complex]:
        overlap = np.einsum("i,i", self._bra, state.amplitudes[self._support])
        # the index register is the sector's low n qubits: a row holds its 2^n values
        marginal = state.probabilities().reshape(-1, self._order.size).sum(axis=0)
        return marginal, complex(overlap)

    def locate(self, iterations: int, v):
        if iterations != self._cdf_iterations:
            self._cdf_iterations = iterations
            self._cdf = _measurement_cdf(self.record(iterations)[0][self._order])
        drawn = self._order[self._cdf.searchsorted(v, side="right")]
        return int(drawn) if isinstance(v, float) else drawn


@lru_cache(maxsize=8)
def _operator_slot(key: tuple) -> list:
    """A list, shared on purpose, for the Grover operator of one ``operator_key``; 8 kept."""
    return []



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
    shots: int | None = None,
) -> int | np.ndarray:
    """Apply the Grover operator ``iterations`` times to |psi> and measure.

    Each measurement draws one uniform and locates it in the class-ordered
    CDF (``_Evolution.locate``). With ``shots`` it returns an int array of the
    indices that many successive calls would return, from one block of
    uniforms located at once; the generator ends where those calls leave it.
    """
    _check_backend(backend)
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    evolution = _evolution(oracle, backend)
    if shots is None:
        return evolution.locate(iterations, rng.random())
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return evolution.locate(iterations, rng.random(shots))


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
    """Result of one exponential-search run; found_index is None on timeout.
    ``rounds`` may be given as a function that builds it on first read."""

    found_index: int | None
    oracle_calls: int
    rounds: list[RoundLog] = field(default_factory=list)

    def __post_init__(self):
        if callable(self.rounds):  # built by __getattr__
            self._log = self.__dict__.pop("rounds")

    def __getattr__(self, name):
        if name != "rounds":
            raise AttributeError(name)
        self.rounds = self._log()
        return self.rounds

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
    Rounds start while the calls spent before them are within budget, so a
    timeout reports at least the budget. Works without knowing the number of
    solutions; expected cost is O(sqrt(N/M)) oracle calls.

    Either backend draws the rounds in blocks, all their j by one
    ``rng.integers`` and then their uniforms by one ``rng.random``. The first
    block holds 16 more than twice the rounds the bound takes to grow, each
    later one twice the one before. A ``cumsum`` cuts each block at the
    budget, and its rounds are located in order until one measures a marked
    index; an oracle with none locates none. The ``RoundLog`` list is built
    on first read, locating every started round then.
    """
    _check_backend(backend)
    n_space = oracle.index_size
    if budget is None:
        budget = default_qes_budget(n_space)
    if budget <= 0:
        raise ValueError("budget must be positive")
    evolution, mask, ceilings = _evolution(oracle, backend), oracle.mask, _qes_ceilings(n_space)
    found, calls, first, size = None, 0, 0, 2 * ceilings.size + 16
    blocks = []  # the started rounds' j and v, per block
    while found is None and calls <= budget:
        j = rng.integers(0, ceilings.take(np.arange(first, first + size), mode="clip"))
        v = rng.random(size)
        spent = j.cumsum()  # the calls after each round of the block
        # round r + 1 starts while the calls up to round r are within budget
        started = min(size, 1 + int(spent.searchsorted(budget - calls, side="right")))
        for r in range(started if evolution.any_marked else 0):
            measured = evolution.locate(int(j[r]), float(v[r]))
            if mask[measured]:
                found, started = measured, r + 1
                break
        calls += int(spent[started - 1])
        blocks.append((j[:started], v[:started]))
        first, size = first + size, 2 * size
    return SearchOutcome(found, calls, partial(_qes_log, evolution, blocks, found is not None))


@cache
def _qes_ceilings(n_space: int) -> np.ndarray:
    """``qes``'s ceil(bound) per round while the bound grows; every later
    round draws below the last. Callers share the array, so it is read-only."""
    root = math.sqrt(n_space)
    bound, ceilings = 1.0, [1]
    while bound < root:
        bound = min(_QES_GROWTH * bound, root)
        ceilings.append(math.ceil(bound))
    ceilings = np.array(ceilings, dtype=np.int64)
    ceilings.flags.writeable = False
    return ceilings


def _qes_log(evolution: _Evolution, blocks: list, found: bool) -> list[RoundLog]:
    """The started rounds of ``qes``, each located as it was, or would have been, when drawn."""
    iterations, uniforms = (np.concatenate(column).tolist() for column in zip(*blocks))
    measured = list(map(evolution.locate, iterations, uniforms))
    accepted = [False] * (len(measured) - 1) + [found]  # only the last round may succeed
    return list(map(RoundLog, iterations, measured, accepted))


# ---------------------------------------------------------------------------
# Quantum counting
# ---------------------------------------------------------------------------


@dataclass
class CountEstimate:
    """A counting outcome b, the solution-count estimate and its error bound.

    ``m`` is the register width; ``bound`` is ``register_error_bound`` at the
    rounded estimate; ``law`` builds the law ``b`` was drawn from. Its arrays,
    ``distribution`` and ``cdf``, are built on first read, and an effective
    count's register above ``sim.DENSE_QUBIT_CAP`` qubits is refused then.
    """

    m: int
    b: int
    n_space: int
    theta_est: float
    m_est: float
    m_rounded: int
    bound: float
    law: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def distribution(self) -> np.ndarray:
        return self.law()

    @cached_property
    def cdf(self) -> np.ndarray:
        return _measurement_cdf(self.distribution)

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


def _check_register_cap(m: int) -> None:
    # on either backend, before a 2^m law is allocated or 2^m - 1 steps taken
    if m > sim.DENSE_QUBIT_CAP:
        raise sim.CapacityError(
            f"counting register of {m} qubits is above the dense cap {sim.DENSE_QUBIT_CAP}"
        )


def qpe_distribution(phase_turns: float, m: int) -> np.ndarray:
    """Exact m-bit phase-estimation outcome distribution for one eigenphase.

    Outcome b has probability sin^2(pi (x - b)) / (2^m sin(pi (phi - b/2^m)))^2
    with x = 2^m phi. The numerator is sin^2(pi (x - round(x))) for every b,
    one float from an exact difference (pi x itself rounds at the scale of
    2^m), so only the denominator takes a pass over the outcomes. A register
    above ``sim.DENSE_QUBIT_CAP`` qubits is refused before it is allocated.
    """
    _check_register_cap(m)
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

    Returns one sample of the exact outcome law, with a builder of the law
    kept on the estimate: ``count_solutions``'s one-sample case on an m-qubit
    register, with no doubling. The dense law follows from the overlaps
    <psi|G^k psi>, k < 2^m, that the oracle's Grover-evolution memo records,
    so a later search with j < 2^m steps nothing; the effective count
    follows from the two eigenphases and allocates no array of 2^m outcomes,
    so its register may exceed the dense cap.
    """
    return _median_count(oracle, m, rng, backend, 1)[1]


def _count(
    oracle: OracleCircuit,
    m: int,
    rng: np.random.Generator,
    backend: str,
    draws: int,
) -> tuple[Callable[[], np.ndarray], np.ndarray]:
    """A builder of the law of one m-qubit count, and ``draws`` outcomes of
    it, drawn as one batch.

    Within 1e-12 of an integer x = 2^m phi (no solution, every index a
    solution, or an exact phase) the law is a point mass, and each draw
    locates one uniform in its CDF: steps of 1/2 at round(x) and at its
    mirror on the effective backend, the simulated CDF on the dense one.
    Otherwise both backends draw by ``_CountSampler`` with the same
    uniforms, the dense one accepting by its simulated law.
    """
    _check_backend(backend)
    if m < 1:
        raise ValueError("m must be >= 1")
    n_space, n_marked, size = oracle.index_size, len(oracle.marked_set), 1 << m
    dist = _dense_counting_distribution(oracle, m) if backend == "dense" else None
    law = partial(counting_distribution, n_space, n_marked, m) if dist is None else lambda: dist
    phi = grover_angle(n_space, n_marked) / (2.0 * math.pi) if n_marked else 0.0
    x = phi * size
    peak = round(x)
    if abs(x - peak) >= 1e-12:
        return law, _CountSampler(x, size).draw(draws, rng, dist)
    if dist is not None:
        return law, _measurement_cdf(dist).searchsorted(rng.random(draws), side="right")
    low, high = sorted((peak % size, -peak % size))
    return law, np.where(rng.random(draws) < 0.5, low, high)


def _median_count(
    oracle: OracleCircuit,
    m: int,
    rng: np.random.Generator,
    backend: str,
    samples: int,
) -> tuple[int, CountEstimate]:
    """The rounded median of ``samples`` outcomes of one m-qubit count,
    drawn as one batch, and the estimate of the first outcome at it.

    The median of an even number of samples is the upper one. The estimate's
    ``m_rounded`` is the median, and its ``bound`` is ``register_error_bound``
    there.
    """
    law, outcomes = _count(oracle, m, rng, backend, samples)
    rounded = [estimate_from_outcome(b, m, oracle.index_size)[2] for b in outcomes.tolist()]
    median = sorted(rounded)[samples // 2]
    b = int(outcomes[rounded.index(median)])
    theta_est, m_est, _ = estimate_from_outcome(b, m, oracle.index_size)
    bound = register_error_bound(oracle.index_size, median, m)
    return median, CountEstimate(m, b, oracle.index_size, theta_est, m_est, median, bound, law)


def count_solutions(
    oracle: OracleCircuit,
    bits: Callable[[int], int],
    extra_bits: int,
    samples: int,
    rng: np.random.Generator,
    backend: str = "effective",
) -> tuple[OracleCircuit, int, CountEstimate, int, bool]:
    """Count the solutions: the one count-then-double rule of ``slice`` and ``count``.

    The register holds ``bits(N) + extra_bits`` qubits, and the count is the
    rounded median of ``samples`` outcomes (``_median_count``). A median
    above N/2 is counted once more, on the doubled oracle (of which at most
    half is marked) at its own width. Returns the oracle counted last, its
    median and estimate, the oracle calls charged, 2^m - 1 per outcome
    drawn, and whether the oracle was doubled.
    """
    calls = 0
    for doubled in (False, True):
        m = bits(oracle.index_size) + extra_bits
        median, estimate = _median_count(oracle, m, rng, backend, samples)
        calls += samples * ((1 << m) - 1)
        if doubled or median <= oracle.index_size / 2:
            return oracle, median, estimate, calls, doubled
        oracle = oracle.doubled()


class _CountSampler:
    """The counting law away from a point mass, drawn by rejection.

    With x0 = round(x), delta = x - x0 and s = sin^2(pi delta), the law is
    P(b) = (K(x - b) + K(x + b)) / 2 with K(d) = s / (2^m sin(pi d / 2^m))^2.
    Outcome b lies at offset k from the +phi peak, b = x0 + k, and at offset
    k' from the -phi peak, b = -x0 - k' (mod 2^m), each taken in the window
    |k - delta| <= 2^(m-1). There sin y >= 2y / pi gives
    K <= s / (4 (k - delta)^2), and sum_k 1 / (k - delta)^2 = pi^2 / s.

    A proposal takes a sign with one uniform, and an offset k with weight
    g(k): 1 / (k - delta)^2 on the central pair floor(delta) and
    floor(delta) + 1, and 1 / ((|k - delta| - 1/2)(|k - delta| + 1/2)) on
    each tail, which dominates it and telescopes, so a tail is drawn by
    inverting the continuous density 1 / y^2 and rounding. An offset
    outside the window is rejected, and b is accepted when
    u s (g(k) + g(k')) / 8 < P(b). About 4 / pi^2 of the proposals are
    accepted, and never under 2/5.
    """

    def __init__(self, x: float, size: int):
        self.size = size
        self.peak = round(x)
        self.delta = delta = x - self.peak
        self.s = math.sin(math.pi * delta) ** 2
        self.low = math.floor(delta)
        # the distances of the central pair's two offsets from delta
        self.near, self.far = delta - self.low, self.low + 1 - delta
        # the offset classes' cumulative weights: low, low + 1, then the
        # tails right of low + 1 and left of low, each 1 / (distance + 1/2)
        weights = np.cumsum([self.near**-2, self.far**-2, 1 / (self.far + 0.5), 1 / (self.near + 0.5)])
        self.cuts, self.total = weights[:3], weights[3]
        self.first = math.ceil(delta - size / 2)  # the window's least offset

    def offsets(self, pick: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """The offsets, as floats, that the uniforms ``pick`` (a class) and
        ``tail`` (a distance in a tail) propose."""
        which = self.cuts.searchsorted(pick * self.total, side="right")
        # a tail's distance y from delta beyond d + 1/2 has P(y > t) = (d + 1/2) / t,
        # and y in [d + j - 1/2, d + j + 1/2) proposes the offset j past the pair
        d = np.where(which == 3, self.near, self.far)
        j = np.floor((d + 0.5) / (1.0 - tail) - d + 0.5)
        return np.choose(which, (self.low, self.low + 1, self.low + 1 + j, self.low - j))

    def envelope(self, k: np.ndarray) -> np.ndarray:
        """The proposal's unnormalised weight g at the offsets ``k``."""
        squared = (k - self.delta) ** 2
        return 1.0 / np.where((k == self.low) | (k == self.low + 1), squared, squared - 0.25)

    def outcomes(self, k: np.ndarray, sign: np.ndarray, dist: np.ndarray | None = None) -> tuple:
        """The outcomes that the window offsets ``k`` name from the +phi peak
        where ``sign`` < 1/2, and from the -phi peak elsewhere; their bound
        s (g(k) + g(k')) / 8, k' the offset from the other peak; and P(b) in
        closed form, or ``dist[b]`` when given."""
        mirror = (-2 * self.peak - k - self.first) % self.size + self.first
        b = np.where(sign < 0.5, self.peak + k, -self.peak - k) % self.size
        bound = self.s / 8.0 * (self.envelope(k) + self.envelope(mirror))
        if dist is not None:
            return b, bound, dist[b]

        def kernel(offsets):  # K(delta - offset) / s
            return (self.size * np.sin(np.pi * (offsets - self.delta) / self.size)) ** -2.0

        return b, bound, self.s / 2.0 * (kernel(k) + kernel(mirror))

    def draw(self, draws: int, rng: np.random.Generator, dist: np.ndarray | None = None) -> np.ndarray:
        """``draws`` outcomes, accepted by the closed-form law or by ``dist``.

        Each round draws a sign, a class, a tail and an acceptance uniform
        for each of 4 r + 4 proposals, r the outcomes still missing, as one
        ``rng.random`` block, and keeps the first r accepted.
        """
        kept, missing = [], draws
        while missing:
            sign, pick, tail, u = rng.random((4, 4 * missing + 4))
            k = self.offsets(pick, tail)
            inside = np.abs(k - self.delta) <= self.size / 2
            b, bound, target = self.outcomes(k[inside].astype(np.int64), sign[inside], dist)
            kept.append(b[u[inside] * bound < target][:missing])
            missing -= kept[-1].size
        return np.concatenate(kept)


def _dense_counting_distribution(oracle: OracleCircuit, m: int) -> np.ndarray:
    """The register law from the overlaps r(k) = <psi|G^k psi>, k < 2^m.

    Before the inverse QFT the joint state is sum_c |c> G^c|psi> / 2^(m/2), so
    P(b) = 4^-m sum_{c,c'} e^(-2 pi i b (c - c') / 2^m) r(c - c'), with r(-k)
    the conjugate of r(k). Summing the 2^m - k pairs at each lag k >= 0 gives
    P(b) = 4^-m (2 Re FFT(a)_b - a_0), a_k = (2^m - k) r(k), clipped at 0.
    """
    _check_register_cap(m)
    evolution = _evolution(oracle, "dense")
    size = 1 << m
    overlaps = np.fromiter((evolution.record(k)[1] for k in range(size)), complex, size)
    lags = overlaps * np.arange(size, 0, -1)
    dist = (2.0 * np.fft.fft(lags).real - lags[0].real) / float(size * size)
    return np.maximum(dist, 0.0, out=dist)


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

#: Most fixed-iteration runs drawn as one block, which bounds the memory a
#: block takes whatever the run cap.
ENUMERATION_BLOCK = 1 << 16


class SearchDisagreement(RuntimeError):
    """Fixed-iteration searches could not collect the solutions counting reported."""


@dataclass
class EnumerationResult:
    indices: frozenset[int]
    count_estimate: CountEstimate
    oracle_calls: int
    grover_runs: int
    doubled: bool


def _enumeration_block(m_hat: int, missing: int, p: float, runs_left: int) -> int:
    """The runs of the next block: twice the m_hat H_k / p runs expected to
    draw the k = ``missing`` solutions still unseen, with H_k taken as
    ln k + gamma + 1/(2k), and at least 64, the runs left allowing, and at
    most ``ENUMERATION_BLOCK``."""
    harmonic = math.log(missing) + np.euler_gamma + 0.5 / missing
    return min(max(64, math.ceil(2.0 * m_hat * harmonic / p)), runs_left, ENUMERATION_BLOCK)


def enumerate_solutions(
    oracle: OracleCircuit,
    rng: np.random.Generator,
    backend: str = "effective",
) -> EnumerationResult:
    """Count the solutions, then collect them with fixed-iteration Grover runs.

    ``count_solutions`` counts on m_exact(N) + ``ENUMERATION_EXTRA_BITS``
    qubits, wide enough to round the estimate to the true M reliably, and
    the median of ``ENUMERATION_SAMPLES`` outcomes guards the tail. A count
    above N/2 is repeated on the doubled oracle, which the runs then search,
    so the iteration formula applies. The estimate returned is that of the
    first outcome at the median, on the oracle counted last. Raises
    ``SearchDisagreement`` if the collected set cannot reach the counted
    size, which signals a counting/search inconsistency.
    """
    oracle, m_hat, estimate, calls, doubled = count_solutions(
        oracle, m_exact, ENUMERATION_EXTRA_BITS, ENUMERATION_SAMPLES, rng, backend
    )
    if m_hat == 0:
        return EnumerationResult(frozenset(), estimate, calls, 0, doubled)

    iterations = iteration_count(oracle.index_size, m_hat)
    found = np.empty(0, dtype=np.intp)
    runs = 0
    # A run succeeds with probability p = sin^2((2j+1) theta/2) (Boyer et
    # al. 1998) and then returns one of the m_hat solutions uniformly, so
    # after R runs a given solution is still unseen with probability at most
    # exp(-R p / m_hat). On a correct count this cap bounds the chance that
    # any of them is by e**-21.
    p = math.sin((2 * iterations + 1) * grover_angle(oracle.index_size, m_hat) / 2.0) ** 2
    max_attempts = max(64, math.ceil(m_hat * (math.log(m_hat) + 21) / p))
    while found.size < m_hat:
        if runs >= max_attempts:
            raise SearchDisagreement(
                f"collected {found.size} of a counted {m_hat} solutions after "
                f"{runs} searches; counting and search disagree"
            )
        # The runs come as a block. If the set completes inside it, the
        # generator is rewound and redraws only the used runs' uniforms, so it
        # ends where drawing run by run up to the last find leaves it.
        shots = _enumeration_block(m_hat, m_hat - found.size, p, max_attempts - runs)
        saved = rng.bit_generator.state
        draws = grover_search(oracle, iterations, rng, backend, shots=shots)
        # the solutions new to this block, each at the run that first drew it;
        # the set completes at the need-th of those runs, if the block holds it
        hits = np.flatnonzero(oracle.mask[draws])
        new, first = np.unique(draws[hits], return_index=True)
        fresh = ~np.isin(new, found, assume_unique=True)
        new, first = new[fresh], hits[first[fresh]]
        need = m_hat - found.size
        used = shots if new.size < need else int(np.partition(first, need - 1)[need - 1]) + 1
        found = np.concatenate((found, new[first < used]))
        if used < shots:
            rng.bit_generator.state = saved
            rng.random(used)
        calls += iterations * used
        runs += used
    return EnumerationResult(frozenset(found.tolist()), estimate, calls, runs, doubled)


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
    """The best index found and its value, the calls spent, each repetition's
    log, and the register layout of the oracles searched, which no threshold
    changes."""

    index: int
    value: int
    oracle_calls: int
    repetitions: list[RepetitionLog] = field(default_factory=list)
    layout: RegisterLayout | None = None


def gas_budget(n_space: int) -> float:
    """Oracle-call budget per repetition: 22.5 sqrt(N) + 1.4 log2(N)^2."""
    return 22.5 * math.sqrt(n_space) + 1.4 * math.log2(n_space) ** 2


def gas(
    values: ValueTable,
    direction: str,
    rng: np.random.Generator,
    repetitions: int,
    backend: str = "effective",
) -> GasResult:
    """Adaptive search for the extremal table entry.

    A repetition starts from a uniformly random threshold index; each round
    marks strictly better entries (greater-than for ``max``, less-than for
    ``min``), runs exponential search, and moves the threshold to any found
    improvement. The round loop stops once its cumulative oracle calls
    exceed the per-repetition budget. The best index over ``repetitions``
    independent repetitions is returned; success probability is at least
    1 - 1/2**repetitions. The oracles of the 4 thresholds used last are
    kept, so a threshold met again, such as an earlier repetition's maximum,
    reuses its oracle and Grover evolution; draws depend on neither.
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

    oracle_for = lru_cache(maxsize=4)(lambda threshold: single_list_oracle(values, threshold, op))
    best_index: int | None = None
    total_calls = 0
    logs: list[RepetitionLog] = []
    for child in (rng.spawn(1)[0] for _ in range(repetitions)):  # rng.spawn(repetitions), lazily
        j = int(child.integers(0, n_space))
        start = j
        calls = 0
        improvements = 0
        while calls <= budget:
            remaining = budget - calls
            sub_budget = max(1, min(per_qes, math.ceil(remaining)))
            oracle = oracle_for(values[j])
            outcome = qes(oracle, child, sub_budget, backend)
            calls += outcome.oracle_calls
            if outcome.found_index is not None:  # marked, so strictly better
                j = outcome.found_index
                improvements += 1
        logs.append(RepetitionLog(start, j, calls, improvements))
        total_calls += calls
        if best_index is None or better(values[j], values[best_index]):
            best_index = j
    return GasResult(best_index, values[best_index], total_calls, logs, oracle.layout)
