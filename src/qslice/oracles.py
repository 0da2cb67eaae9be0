"""Threshold oracles over phase-encoded value tables, plus the Grover operator.

An oracle marks list indices whose values satisfy an AND/OR tree of
threshold atoms. Values are t-bit integers b_k standing for the fractions
s_k = b_k / 2**t. One compiler turns every tree into the same circuit shape:
phase estimation of each atom's values into an estimate register (exact,
because the values are exact t-bit fractions); a reversible comparator per
atom against its threshold register and a combiner per internal node; the
root writes the oracle qubit, prepared in |->, so index k picks up the
phase (-1)**predicate(k); then the compute stage runs in reverse and
uncomputes every working register. The single-list, two-list and
condition-tree builders wrap that compiler; the direct marking oracle,
which has no values, is built on its own.

Two backends realise the Grover iteration:

* dense - the full circuit on a statevector (bounded by the qubit cap);
* effective - exact evolution of the index-register amplitudes alone, valid
  whenever the phase encoding is exact, which it is here by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import comparators
from .sim import (
    Circuit,
    Gate,
    StateVector,
    h,
    phase,
    phase_estimation_circuit,
    remap,
    x,
)

#: Effective-backend index registers beyond this are refused (2**24 floats).
EFFECTIVE_INDEX_CAP = 24


# ---------------------------------------------------------------------------
# Value tables
# ---------------------------------------------------------------------------


class ValueTable:
    """N = 2**n quantized values, each a t-bit integer representing b/2**t.

    The values are held as a read-only int64 array. An int64 array given
    to the constructor is not copied: the table holds a read-only view.
    """

    def __init__(self, bits: int, values: Sequence[int] | np.ndarray):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        limit = 1 << bits
        if isinstance(values, np.ndarray) and values.dtype == np.int64:
            outside = values[(values < 0) | (values >= limit)]
            bad = int(outside[0]) if outside.size else None
        else:
            values = tuple(map(int, values))
            # checked as Python ints: one beyond int64 would overflow the array
            bad = next((v for v in values if not 0 <= v < limit), None)
        if len(values) < 2 or len(values) & (len(values) - 1):
            raise ValueError(f"table length {len(values)} is not a power of two, >= 2")
        if bad is not None:
            raise ValueError(f"value {bad} does not fit in {bits} bits")
        self.bits = bits
        self.array = np.asarray(values, dtype=np.int64).view()
        self.array.flags.writeable = False
        self.token = object()  # what memos key on, never on the values

    @cached_property
    def values(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        return (self.size - 1).bit_length()

    @property
    def size(self) -> int:
        return self.array.size

    def fractions(self) -> np.ndarray:
        """The encoded values as exact fractions in [0, 1)."""
        return self.array / float(1 << self.bits)

    def padded(self, sentinel: int) -> "ValueTable":
        """Double the table, filling the upper half with a sentinel value."""
        return ValueTable(self.bits, np.concatenate([self.array, np.full(self.size, sentinel)]))

    def __getitem__(self, k: int) -> int:
        return int(self.array[k])

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueTable):
            return NotImplemented
        return self.bits == other.bits and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.bits, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"ValueTable(bits={self.bits}, n={self.n}, values={self.values!r})"


# ---------------------------------------------------------------------------
# Register layout and oracle container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisterLayout:
    """Named, disjoint qubit registers covering an oracle circuit."""

    num_qubits: int
    registers: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for _, qubits in self.registers:
            for q in qubits:
                if q in seen:
                    raise ValueError(f"qubit {q} assigned to two registers")
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit {q} outside the layout")
                seen.add(q)
        if len(seen) != self.num_qubits:
            raise ValueError("registers do not cover the circuit")

    def __getitem__(self, name: str) -> tuple[int, ...]:
        for reg_name, qubits in self.registers:
            if reg_name == name:
                return qubits
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    @property
    def index(self) -> tuple[int, ...]:
        return self["index"]

    def to_dict(self) -> dict:
        out: dict = {"num_qubits": self.num_qubits}
        out["registers"] = {name: list(qubits) for name, qubits in self.registers}
        return out


@dataclass(eq=False)
class OracleCircuit:
    """A marking circuit plus its register layout and marked-index mask.

    The circuit and the mask are built lazily, so effective-backend searches
    build no gates. Outside the index register the prepared workspace is the
    basis state ``reference_basis`` (the threshold bits) with the oracle
    qubit, if there is one, in |->.
    """

    layout: RegisterLayout
    mask_builder: Callable[[], np.ndarray]
    circuit_builder: Callable[[], Circuit]
    doubled_builder: Callable[[], "OracleCircuit"]
    description: str = ""
    reference_basis: int = 0
    oracle_qubit: int | None = None
    #: Equal for oracles that differ only in thresholds, and so in no gate; None: unshared.
    operator_key: tuple | None = None
    #: The effective and dense Grover evolutions memoised by ``search``; they
    #: hold the mask, or the Grover operator and a workspace state, but never
    #: the oracle, so neither forms a reference cycle with it.
    evolution: object = field(default=None, init=False, repr=False)
    dense_evolution: object = field(default=None, init=False, repr=False)

    @property
    def num_qubits(self) -> int:
        return self.layout.num_qubits

    @property
    def index_bits(self) -> int:
        return len(self.layout.index)

    @property
    def index_size(self) -> int:
        return 1 << self.index_bits

    @cached_property
    def circuit(self) -> Circuit:
        return self.circuit_builder()

    @cached_property
    def prep_circuit(self) -> Circuit:
        """Uniform index register, reference basis bits set, |-> oracle qubit."""
        flipped = tuple(q for q in range(self.num_qubits) if self.reference_basis >> q & 1)
        return _preparation(self.num_qubits, self.layout.index, self.oracle_qubit, flipped)

    @cached_property
    def mask(self) -> np.ndarray:
        """Boolean array over the indices: whether each is marked."""
        if self.index_bits > EFFECTIVE_INDEX_CAP:
            raise ValueError(
                f"{self.index_bits} index bits exceed the effective-backend cap"
            )
        return self.mask_builder()

    def predicate(self, k: int) -> bool:
        """Whether index k is marked."""
        return bool(self.mask[k])

    @cached_property
    def marked_set(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.mask).tolist())

    def doubled(self) -> "OracleCircuit":
        """The same condition on a doubled index space, upper half sentinel-padded.

        Guarantees at most half of the (new) search space is marked.
        """
        return self.doubled_builder()

    def __repr__(self) -> str:
        return f"OracleCircuit({self.description}, qubits={self.num_qubits})"


# ---------------------------------------------------------------------------
# Condition trees
# ---------------------------------------------------------------------------

#: Each comparison: its reversible circuit on (estimate, threshold, flag),
#: and the same strict test on an array of values.
_COMPARATORS = {
    "gt": (comparators.gt_circuit, np.greater),
    "lt": (comparators.lt_circuit, np.less),
    "eq": (comparators.eq_circuit, np.equal),
}


@dataclass(frozen=True)
class Atom:
    """A single threshold comparison against one value table."""

    op: str
    table: ValueTable
    threshold: int

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(f"op must be one of {sorted(_COMPARATORS)}")
        if not 0 <= self.threshold < (1 << self.table.bits):
            raise ValueError("threshold out of range for the table resolution")

    def mask(self) -> np.ndarray:
        """Boolean array over the indices: table[k] <op> threshold."""
        return _COMPARATORS[self.op][1](self.table.array, self.threshold)


def greater_than(table: ValueTable, threshold: int) -> Atom:
    return Atom("gt", table, threshold)


def less_than(table: ValueTable, threshold: int) -> Atom:
    return Atom("lt", table, threshold)


def equals(table: ValueTable, threshold: int) -> Atom:
    return Atom("eq", table, threshold)


@dataclass(frozen=True)
class AllOf:
    children: tuple

    def mask(self) -> np.ndarray:
        return np.logical_and.reduce([c.mask() for c in self.children])


@dataclass(frozen=True)
class AnyOf:
    children: tuple

    def mask(self) -> np.ndarray:
        return np.logical_or.reduce([c.mask() for c in self.children])


Condition = Atom | AllOf | AnyOf


def all_of(*children: Condition) -> AllOf:
    return AllOf(tuple(children))


def any_of(*children: Condition) -> AnyOf:
    return AnyOf(tuple(children))


def _walk(cond: Condition):
    """Every node of the tree, each after all of its descendants."""
    if not isinstance(cond, Atom):
        for c in cond.children:
            yield from _walk(c)
    yield cond


def _double_condition(cond: Condition) -> Condition:
    """The condition over tables doubled with padding values that never satisfy it."""
    if isinstance(cond, Atom):
        never = {"gt": 0, "lt": (1 << cond.table.bits) - 1, "eq": int(cond.threshold == 0)}
        return Atom(cond.op, cond.table.padded(never[cond.op]), cond.threshold)
    kind = AllOf if isinstance(cond, AllOf) else AnyOf
    return kind(tuple(_double_condition(c) for c in cond.children))


# ---------------------------------------------------------------------------
# The oracle compiler and its builders
# ---------------------------------------------------------------------------


def _compile(
    cond: Condition,
    description: str,
    names: dict[str, str] | None = None,
    fanout: bool = False,
) -> OracleCircuit:
    """Compile a condition tree into a marking oracle.

    Registers, in order: the index; with ``fanout`` a CX copy of it, which
    the phase estimations of all atoms but the first read; per distinct atom
    an estimate and a threshold register, plus a flag qubit unless the atom
    is the root; one ancilla per distinct internal node below the root; the
    oracle qubit. Registers are named index, index_copy, estimate_i,
    threshold_i, flag_i, node_j and oracle, each renamed through ``names``
    where it has an entry. Equal atoms share one block; an internal node
    object that occurs several times is computed once.
    """
    atoms: list[Atom] = []
    for node in _walk(cond):
        if isinstance(node, Atom) and node not in atoms:
            atoms.append(node)
    n, t = atoms[0].table.n, atoms[0].table.bits
    if any(a.table.n != n or a.table.bits != t for a in atoms):
        raise ValueError("all atoms must share index size and resolution")

    registers: list[tuple[str, tuple[int, ...]]] = []

    def reserve(name: str, width: int) -> tuple[int, ...]:
        start = sum(len(qubits) for _, qubits in registers)
        qubits = tuple(range(start, start + width))
        registers.append(((names or {}).get(name, name), qubits))
        return qubits

    index = reserve("index", n)
    copy = reserve("index_copy", n) if fanout else index
    blocks: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    flags: list[int] = []
    for i, atom in enumerate(atoms):
        blocks.append((reserve(f"estimate_{i}", t), reserve(f"threshold_{i}", t)))
        if atom is not cond:
            flags.append(reserve(f"flag_{i}", 1)[0])
    internal = {id(c): c for c in _walk(cond) if not isinstance(c, Atom) and c is not cond}
    node_qubit = {key: reserve(f"node_{j}", 1)[0] for j, key in enumerate(internal)}
    oracle_qubit = reserve("oracle", 1)[0]
    nq = oracle_qubit + 1

    def qubit_of(node: Condition) -> int:
        if node is cond:
            return oracle_qubit
        if isinstance(node, Atom):
            return flags[atoms.index(node)]
        return node_qubit[id(node)]

    def write(node: Condition) -> Circuit:
        """XOR the node's truth value into its qubit, from its inputs."""
        target = qubit_of(node)
        if isinstance(node, Atom):
            est, thr = blocks[atoms.index(node)]
            return _comparator(node.op, t, est + thr + (target,), nq)
        inputs = list(dict.fromkeys(qubit_of(c) for c in node.children))
        make = comparators.and_combiner if isinstance(node, AllOf) else comparators.or_combiner
        return make(inputs, target, nq)

    def build() -> Circuit:
        gates: list[Gate] = [x(copy[i], {index[i]}) for i in range(n)] if fanout else []
        for i, (atom, (est, _)) in enumerate(zip(atoms, blocks)):
            source = index if i == 0 else copy
            gates.extend(phase_estimation_circuit(est, atom.table.fractions(), source, nq).gates)
        compute = Circuit(nq, tuple(gates))
        # every node below the root: comparators, then combiners in walk
        # order, so each follows all of its descendants, shared ones included
        for node in [a for a in atoms if a is not cond] + list(internal.values()):
            compute = compute.then(write(node))
        return compute.then(write(cond)).then(compute.inverse())

    return OracleCircuit(
        RegisterLayout(nq, tuple(registers)),
        cond.mask,
        build,
        lambda: _compile(_double_condition(cond), description, names, fanout),
        description,
        reference_basis=sum(a.threshold << thr[0] for a, (_, thr) in zip(atoms, blocks)),
        oracle_qubit=oracle_qubit,
        operator_key=(fanout, *(  # the tree in post-order, thresholds dropped
            (qubit_of(c), c.op, c.table.token) if isinstance(c, Atom)
            else (qubit_of(c), type(c), len(c.children)) for c in _walk(cond)
        )),
    )


@lru_cache(maxsize=16)
def _preparation(
    num_qubits: int, index: tuple[int, ...], oracle: int | None, flipped: tuple[int, ...]
) -> Circuit:
    """The preparation of |psi>: H on the ``index`` qubits, X on the ``flipped``
    ones, then |-> on the ``oracle`` qubit. It depends on the layout alone, so
    the last 16 layouts are kept, each compiled on its first apply; no memo
    holds a state. The dense backend prepares its sector with it, renumbered."""
    gates = [h(q) for q in index] + [x(q) for q in flipped]
    if oracle is not None:
        gates += [x(oracle), h(oracle)]
    return Circuit(num_qubits, tuple(gates))


@lru_cache(maxsize=64)
def _comparator(op: str, t: int, qubits: tuple[int, ...], num_qubits: int) -> Circuit:
    """The t-bit ``op`` comparator on (estimate, threshold, outcome) ``qubits``."""
    return remap(_COMPARATORS[op][0](t), qubits, num_qubits)


_SINGLE_LIST_NAMES = {"estimate_0": "estimate", "threshold_0": "threshold"}

_TWO_LIST_NAMES = {
    f"{kind}_{i}": f"{side}_{kind}"
    for i, side in enumerate(("return", "risk"))
    for kind in ("estimate", "threshold", "flag")
}


def single_list_oracle(
    table: ValueTable, threshold: int, op: str = "gt"
) -> OracleCircuit:
    """Mark indices k with table[k] <op> threshold; layout size n + 2t + 1.

    Registers index, estimate, threshold and oracle: phase estimation of the
    value unitary into the estimate register, a comparator against the
    threshold register with the oracle qubit as outcome, then exact
    uncomputation of the estimate.
    """
    return _compile(
        Atom(op, table, threshold), f"single-list {op} S={threshold}", _SINGLE_LIST_NAMES
    )


def two_list_oracle(
    returns: ValueTable, sigmas: ValueTable, s1: int, s2: int
) -> OracleCircuit:
    """Mark indices with returns[k] > s1 AND sigmas[k] < s2; size 2n + 4t + 3.

    The index register is fanned out into a copy via CX so the two phase
    estimations run on separate registers; the two comparators write the
    return and risk flag qubits, an AND flips the |-> oracle qubit, and
    everything is uncomputed in reverse.
    """
    cond = all_of(greater_than(returns, s1), less_than(sigmas, s2))
    return _compile(
        cond, f"two-list r>{s1} and sigma<{s2}", _TWO_LIST_NAMES, fanout=True
    )


def condition_oracle(cond: Condition) -> OracleCircuit:
    """Compile an AND/OR tree of threshold atoms into a marking oracle.

    Each atom gets an estimate register, a threshold register and a flag
    qubit; internal tree nodes get one ancilla each; the root combiner
    targets the |-> oracle qubit and all intermediate results are uncomputed.
    Single atoms compile to the plain single-list layout.
    """
    if isinstance(cond, Atom):
        return single_list_oracle(cond.table, cond.threshold, cond.op)
    if len(cond.children) < 2:
        raise ValueError("combinators need at least two children")
    return _compile(cond, "condition tree")


def direct_marking_oracle(n: int, marked: Iterable[int]) -> OracleCircuit:
    """Phase-flip oracle on an explicit marked set; layout is n index qubits only."""
    if n < 1:
        raise ValueError("n must be >= 1")
    marked_set = frozenset(int(k) for k in marked)
    size = 1 << n
    for k in marked_set:
        if not 0 <= k < size:
            raise ValueError(f"marked index {k} out of range for n={n}")
    index = tuple(range(n))

    def mask() -> np.ndarray:
        return np.isin(np.arange(size), list(marked_set))

    def build() -> Circuit:
        turns = [0.5 if k in marked_set else 0.0 for k in range(size)]
        return Circuit(n, (phase(index, turns),))

    return OracleCircuit(
        RegisterLayout(n, (("index", index),)),
        mask,
        build,
        lambda: direct_marking_oracle(n + 1, marked_set),
        f"direct marking of {sorted(marked_set)}",
    )


# ---------------------------------------------------------------------------
# Diffusion and the Grover operator
# ---------------------------------------------------------------------------


def diffusion_circuit(n: int, qubits: Sequence[int] | None = None, num_qubits: int | None = None) -> Circuit:
    """Exact reflection 2|psi><psi| - I about the uniform state on n qubits.

    A trailing global half-turn record cancels the sign of the textbook
    H X MCZ X H construction, so the operator carries no phase slack; that
    matters once the circuit is controlled for counting. 64 shapes are kept.
    """
    return _diffusion(n, tuple(range(n) if qubits is None else qubits), num_qubits)


@lru_cache(maxsize=64)
def _diffusion(n: int, reg: tuple[int, ...], num_qubits: int | None) -> Circuit:
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(reg) != n:
        raise ValueError("qubit list length must equal n")
    nq = (max(reg) + 1) if num_qubits is None else num_qubits
    gates: list[Gate] = [h(q) for q in reg]
    gates.extend(x(q) for q in reg)
    gates.append(phase((reg[-1],), (0.0, 0.5), controls=set(reg[:-1])))
    gates.extend(x(q) for q in reg)
    gates.extend(h(q) for q in reg)
    gates.append(phase((), (0.5,)))
    return Circuit(nq, tuple(gates))


def grover_operator(oracle: OracleCircuit) -> Circuit:
    """Oracle followed by diffusion on the index register."""
    diff = diffusion_circuit(
        oracle.index_bits, oracle.layout.index, oracle.num_qubits
    )
    return oracle.circuit.then(diff)


# ---------------------------------------------------------------------------
# Effective backend: exact index-subspace simulation
# ---------------------------------------------------------------------------


@dataclass
class EffectiveState:
    """Index-register amplitudes only; exact while the oracle's phase encoding is."""

    amplitudes: np.ndarray

    @property
    def size(self) -> int:
        return int(self.amplitudes.size)

    def probabilities(self) -> np.ndarray:
        return self.amplitudes**2

    def copy(self) -> "EffectiveState":
        return EffectiveState(self.amplitudes.copy())


def effective_state_new(n: int) -> EffectiveState:
    """Uniform superposition over 2**n indices."""
    size = effective_index_size(n)
    return EffectiveState(np.full(size, 1.0 / math.sqrt(size)))


def effective_index_size(n: int) -> int:
    """2**n, for an n-bit index register within the effective-backend cap."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EFFECTIVE_INDEX_CAP:
        raise ValueError(f"n={n} exceeds the effective-backend cap {EFFECTIVE_INDEX_CAP}")
    return 1 << n


def effective_grover_step(state: EffectiveState, marked: Iterable[int]) -> EffectiveState:
    """One Grover iteration: negate marked amplitudes, reflect all about the mean."""
    amps = state.amplitudes.copy()
    if isinstance(marked, np.ndarray) and marked.dtype.kind in "iu":
        idx = marked  # already an index array, as the evolution memo passes it
    else:
        idx = np.fromiter((int(k) for k in marked), dtype=np.int64)
    if idx.size:
        amps[idx] *= -1.0
    # amps.mean()'s Python wrapper costs more than the reduction at these sizes
    return EffectiveState(2.0 * (amps.sum() / amps.size) - amps)


def index_amplitudes(state: StateVector, oracle: OracleCircuit) -> np.ndarray:
    """Project a dense workspace state onto the index register.

    Contracts the state against the oracle's reference ancilla state (its
    reference basis bits, with the oracle qubit in |->) and checks that no
    amplitude leaked outside it, which holds exactly when uncomputation is
    exact.
    """
    n = oracle.index_bits
    if oracle.layout.index != tuple(range(n)):
        raise ValueError("index register must occupy the low qubits")
    anc_qubits = state.num_qubits - n
    ref = np.zeros(1 << anc_qubits, dtype=np.complex128)
    ref[oracle.reference_basis >> n] = 1.0
    if oracle.oracle_qubit is not None:  # |-> = (|0> - |1>) / sqrt(2)
        ref[(oracle.reference_basis | 1 << oracle.oracle_qubit) >> n] = -1.0
        ref /= math.sqrt(2.0)
    mat = state.amplitudes.reshape(1 << anc_qubits, 1 << n)
    # ref has at most two nonzero rows, so plain numpy sums replace BLAS
    # calls, which stall when the process is pinned to one CPU
    rows = np.flatnonzero(ref)
    coeffs = np.einsum("r,ri->i", ref[rows].conj(), mat[rows])
    residual = mat.copy()
    residual[rows] -= np.outer(ref[rows], coeffs)
    flat = residual.view(np.float64).ravel()
    leak = math.sqrt(np.einsum("i,i->", flat, flat))
    if leak > 1e-9:
        raise RuntimeError(f"workspace leaked {leak} outside the reference ancilla state")
    return coeffs
