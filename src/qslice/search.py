"""Grover iteration planning, exponential search, adaptive search and counting.

The searches run on either backend:

* ``dense`` prepares the oracle's full workspace and applies every gate,
  stepping only the sector of it that can hold amplitude: the basis states
  in which each qubit that |psi> holds at one value, and that no compiled
  stage of the Grover operator moves (such as a threshold register), keeps
  that value;
* ``effective`` evolves index amplitudes only (exact for these oracles) and
  scales to list sizes far beyond dense reach.

Each oracle memoises its Grover evolution on either backend (``_Evolution``):
the furthest state G^j|psi> is stepped only when a larger j is asked for,
and each j reached keeps a record. A measurement locates a uniform v in the
class-ordered CDF, marked indices ascending and then unmarked ones: the
effective backend from the marked and unmarked amplitudes alone, with no
CDF, and with no step while the state is uniform; the dense backend in the
CDF of its simulated index marginal. Enumeration's fixed-j runs are drawn as
blocks located at once. Exponential search draws its rounds in blocks too,
cut at its budget, and locates them one by one until one succeeds; on an
oracle with no marked index it locates none unless its log is read.
Dense counting reads the same memo: its register law depends only on the
overlaps r(k) = <psi|G^k psi>, k < 2^m, recorded next to each marginal, and
follows from them by one FFT, with no register qubit simulated. A count's
samples are located where ``rng.choice`` draws them in the law's CDF; an
effective count evaluates that CDF in two windows around the law's peaks and
builds the whole law (one kernel, mirrored) only for a uniform they cannot place.

Sampling is deterministic for a given ``numpy.random.Generator``; independent
repetitions derive child generators by spawning, one as each starts, so runs
are reproducible from a single master seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial

import numpy as np

from . import sim
from .oracles import (
    OracleCircuit,
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
    in all. Subclasses give the state, ``step(state)``, one Grover iteration,
    ``_record(state)``, and ``locate(j, v)``: the index whose interval of the
    class-ordered CDF after j iterations (the marked indices ascending, then
    the unmarked ones ascending) holds the uniform ``v``, or an array of
    them for an array of uniforms. Nothing held refers back to the oracle.
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
    restores it; a register a dense block spans stays. |psi> is prepared on
    the sector by the prep circuit's gates on the kept qubits, and every
    gate is still applied. Each overlap is an ``einsum`` over the nonzero
    entries of the sector's |psi>, which unlike ``np.vdot`` calls no BLAS.
    A draw inverts the float CDF of the simulated marginal in class order,
    kept for the last j, so it draws what the effective backend draws but
    for a uniform within float rounding of an interval's edge.
    """

    def __init__(self, oracle: OracleCircuit):
        sim.check_capacity(oracle.num_qubits)  # refused by its full width before anything is built
        slot = _operator_slot(oracle.operator_key) if oracle.operator_key else []
        if not slot:
            slot.append(grover_operator(oracle))
        moving = sum(1 << q for q in (*oracle.layout.index, oracle.oracle_qubit) if q is not None)
        self.operator = sector = sim.Sector(slot[0], held=~moving, values=oracle.reference_basis)
        # the X gates on fixed qubits set the values the sector holds
        prep = [g for g in oracle.prep_circuit.gates if not sector.fixed >> g.targets[0] & 1]
        prep = sim.Circuit(oracle.num_qubits, prep)
        prep = sim.remap(prep, dict(zip(sector.kept, range(prep.num_qubits))), sector.num_qubits)
        psi = sim.apply(sim.new_basis_state(sector.num_qubits, 0), prep)
        self.index = tuple(map(sector.position, oracle.layout.index))
        self._support = np.flatnonzero(psi.amplitudes)
        self._bra = psi.amplitudes[self._support].conj()
        self._order = np.argsort(~oracle.mask, kind="stable")  # marked, then unmarked
        self._cdf_iterations = -1
        super().__init__(psi)

    def step(self, state: sim.StateVector) -> sim.StateVector:
        return sim.apply(state, self.operator)

    def _record(self, state: sim.StateVector) -> tuple[np.ndarray, complex]:
        overlap = np.einsum("i,i", self._bra, state.amplitudes[self._support])
        return sim.subregister_distribution(state, self.index), complex(overlap)

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
    searching = mask.any()
    found, calls, first, size = None, 0, 0, 2 * ceilings.size + 16
    blocks = []  # the started rounds' j and v, per block
    while found is None and calls <= budget:
        j = rng.integers(0, ceilings.take(np.arange(first, first + size), mode="clip"))
        v = rng.random(size)
        spent = np.cumsum(j)  # the calls after each round of the block
        # round r + 1 starts while the calls up to round r are within budget
        started = min(size, 1 + int(spent.searchsorted(budget - calls, side="right")))
        for r in range(started if searching else 0):
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
    rounded estimate; ``law``, the law ``b`` was drawn from, builds its arrays on first read.
    """

    m: int
    b: int
    n_space: int
    theta_est: float
    m_est: float
    m_rounded: int
    bound: float
    law: _CountingLaw = field(repr=False)

    @property
    def distribution(self) -> np.ndarray:
        return self.law.distribution

    @property
    def cdf(self) -> np.ndarray:
        return self.law.cdf

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
    return _qpe_kernel(phi, size, np.arange(size, dtype=float))


def _qpe_kernel(phi: float, size: int, dist: np.ndarray) -> np.ndarray:
    """``qpe_distribution``'s law at the float outcomes ``dist``, in place."""
    x = phi * size
    # in place: phi - b / 2^m, then the denominator, then the quotient
    dist /= -size
    dist += phi
    dist *= np.pi
    np.sin(dist, out=dist)
    dist *= size
    np.square(dist, out=dist)
    return np.divide(math.sin(math.pi * (x - round(x))) ** 2, dist, out=dist)


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

    Returns one sample of the exact outcome law, drawn as ``rng.choice``
    draws it, with the law (kept on the estimate for further samples). The
    dense law follows from the overlaps <psi|G^k psi>, k < 2^m, that the
    oracle's Grover-evolution memo records, so a later search with j < 2^m
    steps nothing; the effective law follows from the two eigenphases.
    """
    _check_backend(backend)
    if m < 1:
        raise ValueError("m must be >= 1")
    n_space = oracle.index_size
    if backend == "dense":
        law = _CountingLaw(_dense_counting_distribution(oracle, m))
    else:
        law = _PeakWindows(n_space, len(oracle.marked_set), m)
    b = int(law.locate(rng.random(1))[0])
    theta_est, m_est, m_rounded = estimate_from_outcome(b, m, n_space)
    return CountEstimate(
        m=m,
        b=b,
        n_space=n_space,
        theta_est=theta_est,
        m_est=m_est,
        m_rounded=m_rounded,
        bound=register_error_bound(n_space, max(m_rounded, 0), m),
        law=law,
    )


class _CountingLaw:
    """A count's outcome law, whose CDF is built on first use."""

    def __init__(self, distribution: np.ndarray):
        self.distribution = distribution

    @cached_property
    def cdf(self) -> np.ndarray:
        return _measurement_cdf(self.distribution)

    def locate(self, v: np.ndarray) -> np.ndarray:
        """The outcomes ``rng.choice`` draws for the uniforms ``v``."""
        return self.cdf.searchsorted(v, side="right")


class _PeakWindows(_CountingLaw):
    """The effective counting law, located near its peaks x = 2^m phi and 2^m - x.

    At a point mass the float CDF steps by exactly 0.5 at round(x) and at its
    mirror, or by 1 where they coincide. Otherwise the CDF F is evaluated on
    the W = min(4096, x0 - 1, 2^(m-1) - x0 - 1) outcomes each side of
    x0 = round(x), and mirrored as F(b) = 1 + P(0) - F(2^m - b - 1).
    Uniforms these cannot place, and all when W < 128, go to the full law.
    """

    def __init__(self, n_space: int, n_marked: int, m: int):
        _check_register_cap(m)  # the full law must fit, should a draw need it
        self._law = (n_space, n_marked, m)
        size = 1 << m
        # The float CDF lies within about 2^(m+1) 2^-53 of the exact F of its
        # terms, the edges within 2^(m-1) 2^-53 of it and the tail within
        # 3.4e-3 / W^5 < 1e-13: v is placed when it clears both edges of its
        # outcome by this margin, 8 (2^m + 8) 2^-53 >= 9e-13.
        self._margin = (size + 8) * 2.0**-50
        phi = grover_angle(n_space, n_marked) / (2.0 * math.pi) if n_marked else 0.0
        x = phi * size
        peak = round(x)
        if abs(x - peak) < 1e-12:
            low, high = sorted((peak % size, -peak % size))
            self._windows = ((np.array([0.0, 0.5]), low - 1), (np.array([0.5, 1.0]), high - 1))
            return
        half = min(4096, peak - 1, size // 2 - peak - 1)
        self._windows = ()
        if half < 128:
            return
        window = np.arange(peak - half, peak + half + 1, dtype=float)
        mirror = _qpe_kernel(phi, size, size - window)
        probs = (_qpe_kernel(phi, size, window) + mirror) * 0.5
        p0 = float(_qpe_kernel(phi, size, np.zeros(1))[0])
        left = np.cumsum(np.concatenate(([_left_tail(x, peak - half - 1, size, p0)], probs)))
        # F at the outcomes from peak - half - 1 on, and from 2^m - peak - half - 1 on
        self._windows = ((left, peak - half - 1), (1.0 + p0 - left[::-1], size - peak - half - 1))

    @cached_property
    def distribution(self) -> np.ndarray:
        return counting_distribution(*self._law)

    def locate(self, v: np.ndarray) -> np.ndarray:
        b = np.full(v.shape, -1)
        for edges, first in self._windows:
            j = np.clip(edges.searchsorted(v, side="right"), 1, edges.size - 1)
            inside = (edges[j - 1] + self._margin <= v) & (v < edges[j] - self._margin)
            b[inside] = first + j[inside]
        missed = b < 0
        if missed.any():  # in a tail, between the windows, or near an edge
            b[missed] = super().locate(v[missed])
        return b


def _left_tail(x: float, last: int, size: int, p0: float) -> float:
    """The effective counting law's mass on outcomes 0..last, by Euler-Maclaurin.

    Outcome 0 carries the kernel f(t) = s / (2^m sin(pi (x - t) / 2^m))^2 at
    0, and b with its mirror half of f(b) + f(-b): the mass is
    (f(0) + sum_{|t| <= last} f(t)) / 2. With r = pi / 2^m, c = cot(r (x - t))
    and q = 1 + c^2, f = s r^2 q / pi^2 integrates to s r c / pi^2,
    f' = 2 s r^3 c q / pi^2 and f''' = 8 s r^5 c q (3q - 1) / pi^2. As f'''' > 0,
    the remainder after the f' / 12 and -f''' / 720 end terms is at most
    2 zeta(4) / (2 pi)^4 of the rise of f''', about 3.4e-3 s / (x0 - last - 1)^5.
    """
    r = math.pi / size
    total = 0.0  # times s r / pi^2: the integral and end corrections, then f at both ends
    for t, sign in ((last, 1.0), (-last, -1.0)):
        c = 1.0 / math.tan(r * (x - t))
        q = 1.0 + c * c
        total += sign * c * (1.0 + r * r * q / 6.0 - r**4 * q * (3 * q - 1) / 90.0) + r * q / 2.0
    s = math.sin(math.pi * (x - round(x))) ** 2
    return (p0 + s * r / math.pi**2 * total) / 2.0


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


def _median_count(
    oracle: OracleCircuit,
    m: int,
    rng: np.random.Generator,
    backend: str,
    samples: int,
) -> tuple[int, CountEstimate]:
    est = quantum_counting(oracle, m, rng, backend)
    draws = est.law.locate(rng.random(samples))
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
        shots = min(max_attempts - runs, ENUMERATION_BLOCK)
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
) -> GasResult:
    """Adaptive search for the extremal table entry.

    A repetition starts from a uniformly random threshold index; each round
    marks strictly better entries (greater-than for ``max``, less-than for
    ``min``), runs exponential search, and moves the threshold to any found
    improvement. The round loop stops once its cumulative oracle calls
    exceed the per-repetition budget. The best index over ``repetitions``
    independent repetitions is returned; success probability is at least
    1 - 1/2**repetitions.
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
    for child in (rng.spawn(1)[0] for _ in range(repetitions)):  # rng.spawn(repetitions), lazily
        j = int(child.integers(0, n_space))
        start = j
        calls = 0
        improvements = 0
        oracle = None
        while calls <= budget:
            if oracle is None:  # a new threshold; otherwise its evolution is reused
                oracle = single_list_oracle(values, values[j], op)
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
