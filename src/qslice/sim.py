"""Dense statevector simulator: gate records, circuits, measurement, QFT, phase estimation.

Conventions used throughout the package:

* Qubit 0 is the least significant bit of a basis index, so the basis state
  written ``|q2 q1 q0>`` has integer index ``q0 + 2*q1 + 4*q2``.
* A register is an ordered list of qubit indices, least significant first:
  a register ``[a, b, c]`` holding the integer ``v`` stores bit ``j`` of
  ``v`` on the ``j``-th listed qubit.
* Diagonal phase tables are given in *turns* (multiples of 2*pi), all
  entries in ``[0, 1)``.

``apply`` runs a circuit as a compiled program of fused stages, built the
first time the circuit is applied and cached on it (``Circuit.stages``), so
an operator applied many times compiles once. Each stage acts on one
contiguous qubit span lo..hi, viewing the state as an (A, B, C) array of
(qubits above, span, qubits below) and rewriting axis 1 in chunks of at
most ``_CHUNK`` amplitudes:

* a monomial stage is a maximal run of X (any controls) and PHASE gates over
  at most ``_MONOMIAL_SPAN`` qubits, a permutation times a diagonal: one
  gather index and one complex diagonal of 2^span entries, applied as one
  ``take`` and one multiply;
* a dense block is a run that includes H or UNITARY gates and spans at most
  ``_BLOCK_SPAN`` qubits: one 2^span x 2^span unitary, applied by batched
  matrix products (the QFT on an estimate register, the diffusion on an
  index register);
* any other gate, such as a controlled H whose controls lie far from its
  target, runs alone through the gate-by-gate reference kernel.

Each table is built by running the stage's own gates once through that
reference kernel: on a batched identity for a block, and on an index ramp
and a vector of ones for a monomial run. The fused result differs from the
gate-by-gate loop only by the rounding of multiplying the gates' factors
together first, about 1e-15 on the tested circuits. The last 64 distinct stages
built, like the last 64 inverse QFTs by register, are kept and shared.

What is fixed is computed once where it is fixed: per gate, its qubits,
their span and its hash at construction (a pickled gate is rebuilt, and so
rehashed, where it is loaded), and a phase or unitary gate's inverse on
first use; per stage, the qubits it moves. A stage on a state of at most
``_CHUNK`` amplitudes runs as one chunk. ``Circuit.then`` and
``Circuit.inverse`` do not check gates already checked against the width.

A ``Sector`` restricts a compiled circuit to the basis states in which the
held qubits (read off a state, or given as bit masks) that no stage moves
keep their values; ``apply`` runs it on the sector's amplitudes alone. A
stage whose span holds no fixed qubit is only renumbered, sharing its tables.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Largest dense register we will allocate: 2**26 complex doubles is 1 GiB.
DENSE_QUBIT_CAP = 26

#: Absolute tolerance for state comparisons and unitarity checks.
ATOL = 1e-9

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class CapacityError(RuntimeError):
    """A dense allocation would exceed the configured qubit cap."""


# ---------------------------------------------------------------------------
# Gate records and circuits
# ---------------------------------------------------------------------------

KIND_X = "X"
KIND_H = "H"
KIND_UNITARY = "UNITARY"
KIND_PHASE = "PHASE"

_KINDS = (KIND_X, KIND_H, KIND_UNITARY, KIND_PHASE)


@dataclass(frozen=True)
class Gate:
    """One reversible operation: a (controlled) X, H, 2x2 unitary or diagonal phase.

    ``targets`` is a single qubit for X/H/UNITARY and a register (possibly
    empty, meaning a global phase) for PHASE. ``controls`` may be any set of
    additional qubits; the gate acts only where all controls are 1.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    matrix: tuple[tuple[complex, complex], tuple[complex, complex]] | None = None
    turns: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        touched = self.targets + self.controls
        if len(set(touched)) != len(touched):
            raise ValueError(f"gate qubits must be distinct, got {touched}")
        lo, hi = min(touched, default=sys.maxsize), max(touched, default=-1)
        if lo < 0:
            raise ValueError("qubit indices must be non-negative")
        if self.kind in (KIND_X, KIND_H):
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind} takes exactly one target")
        elif self.kind == KIND_UNITARY:
            if len(self.targets) != 1:
                raise ValueError("UNITARY takes exactly one target")
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError("UNITARY matrix must be 2x2")
            if not np.allclose(m.conj().T @ m, np.eye(2), atol=ATOL):
                raise ValueError("UNITARY matrix is not unitary")
        else:  # PHASE
            if self.turns is None or len(self.turns) != 1 << len(self.targets):
                raise ValueError("PHASE table length must be 2**len(targets)")
            if any(not (0.0 <= t < 1.0) for t in self.turns):
                raise ValueError("PHASE entries must lie in [0, 1) turns")
        # fixed per gate, so every compile and memo lookup reads them: the
        # qubits touched, their span (lo > hi for a global phase) and the hash
        object.__setattr__(self, "qubits", touched)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        fields = (self.kind, self.targets, self.controls, self.matrix, self.turns)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, and so rehashed, where it is loaded: a str hashes
        # differently in each process
        return Gate, (self.kind, self.targets, self.controls, self.matrix, self.turns)

    def inverse(self) -> "Gate":
        if self.kind in (KIND_X, KIND_H):
            return self
        return self._inverse

    @functools.cached_property
    def _inverse(self) -> "Gate":
        """The inverse of a UNITARY or PHASE gate, built on first use and kept."""
        if self.kind == KIND_UNITARY:
            m = np.asarray(self.matrix, dtype=complex).conj().T
            return Gate(KIND_UNITARY, self.targets, self.controls, _as_matrix_tuple(m))
        turns = tuple(_wrap_turn(-t) for t in self.turns)
        return Gate(KIND_PHASE, self.targets, self.controls, turns=turns)


def _as_matrix_tuple(m: np.ndarray) -> tuple:
    return tuple(tuple(complex(v) for v in row) for row in m)


def _wrap_turn(t: float) -> float:
    # t % 1.0 can round up to exactly 1.0 for tiny negative inputs
    wrapped = float(t) % 1.0
    return 0.0 if wrapped >= 1.0 else wrapped


def x(target: int, controls: Iterable[int] = ()) -> Gate:
    """(Multi-)controlled NOT; with no controls a plain X."""
    return Gate(KIND_X, (target,), tuple(sorted(controls)))


def h(target: int, controls: Iterable[int] = ()) -> Gate:
    return Gate(KIND_H, (target,), tuple(sorted(controls)))


def unitary(target: int, matrix: np.ndarray, controls: Iterable[int] = ()) -> Gate:
    return Gate(
        KIND_UNITARY,
        (target,),
        tuple(sorted(controls)),
        _as_matrix_tuple(np.asarray(matrix, dtype=complex)),
    )


def phase(targets: Sequence[int], turns: Sequence[float], controls: Iterable[int] = ()) -> Gate:
    """Diagonal phase over a register; ``turns[v]`` applies to register value v.

    An empty target register with a one-entry table is a global phase,
    useful because it becomes a relative phase once controlled.
    """
    table = tuple(_wrap_turn(t) for t in turns)
    return Gate(KIND_PHASE, tuple(targets), tuple(sorted(controls)), turns=table)


def z(target: int, controls: Iterable[int] = ()) -> Gate:
    return phase((target,), (0.0, 0.5), controls)


@dataclass(frozen=True)
class Circuit:
    """An ordered, reversible sequence of gate records over a fixed qubit count."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.hi >= self.num_qubits:
                raise ValueError(
                    f"gate touches qubit {g.hi} but circuit has {self.num_qubits} qubits"
                )

    @classmethod
    def _checked(cls, num_qubits: int, gates: tuple[Gate, ...]) -> "Circuit":
        """A circuit of gates already checked against this width, not checked again."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "num_qubits", num_qubits)
        object.__setattr__(circuit, "gates", gates)
        return circuit

    def inverse(self) -> "Circuit":
        return Circuit._checked(self.num_qubits, tuple(g.inverse() for g in reversed(self.gates)))

    def then(self, other: "Circuit") -> "Circuit":
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit counts differ")
        return Circuit._checked(self.num_qubits, self.gates + other.gates)

    def __len__(self) -> int:
        return len(self.gates)

    @functools.cached_property
    def stages(self) -> tuple["_Stage", ...]:
        """The fused program ``apply`` runs, compiled on first use."""
        return _compile(self)


def format_circuit(circuit: Circuit) -> str:
    """Stable one-gate-per-line debug dump, suitable for golden tests."""
    lines = []
    for g in circuit.gates:
        lines.append(
            f"{g.kind} controls={list(g.controls)} targets={list(g.targets)}"
        )
    return "\n".join(lines)


def remap(circuit: Circuit, mapping: dict[int, int] | Sequence[int], num_qubits: int) -> Circuit:
    """Relabel circuit qubits; ``mapping[old] = new``. Unmapped qubits keep their index."""
    if not isinstance(mapping, dict):
        mapping = {i: q for i, q in enumerate(mapping)}
    gates = []
    for g in circuit.gates:
        gates.append(
            Gate(
                g.kind,
                tuple(mapping.get(q, q) for q in g.targets),
                tuple(sorted(mapping.get(q, q) for q in g.controls)),
                g.matrix,
                g.turns,
            )
        )
    return Circuit(num_qubits, tuple(gates))


def controlled(circuit: Circuit, controls: Iterable[int]) -> Circuit:
    """Add a control set to every gate: identity unless all controls are 1.

    The controls must not overlap any qubit the circuit touches; the result
    is widened to cover them.
    """
    controls = tuple(sorted(controls))
    used = set()
    for g in circuit.gates:
        used.update(g.qubits)
    overlap = used.intersection(controls)
    if overlap:
        raise ValueError(f"controls {sorted(overlap)} overlap the circuit's qubits")
    nq = max(circuit.num_qubits, max(controls) + 1) if controls else circuit.num_qubits
    gates = [
        Gate(g.kind, g.targets, tuple(sorted(g.controls + controls)), g.matrix, g.turns)
        for g in circuit.gates
    ]
    return Circuit(nq, tuple(gates))


# ---------------------------------------------------------------------------
# State vectors
# ---------------------------------------------------------------------------


@dataclass
class StateVector:
    """Dense array of 2**num_qubits complex amplitudes, kept L2-normalised."""

    num_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        # einsum sums without BLAS: np.linalg.norm's BLAS call waits on a
        # worker thread, a scheduler slice whenever it shares the caller's CPU
        flat = np.ascontiguousarray(self.amplitudes, dtype=np.complex128).view(np.float64)
        return float(np.sqrt(np.einsum("i,i", flat, flat)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def check_capacity(num_qubits: int) -> None:
    """Refuse a dense workspace of more than ``DENSE_QUBIT_CAP`` qubits."""
    if num_qubits > DENSE_QUBIT_CAP:
        raise CapacityError(f"{num_qubits} qubits exceeds the dense cap of {DENSE_QUBIT_CAP}")


def new_basis_state(num_qubits: int, basis_index: int) -> StateVector:
    """Computational basis state |basis_index> on ``num_qubits`` qubits."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    check_capacity(num_qubits)
    dim = 1 << num_qubits
    if not 0 <= basis_index < dim:
        raise ValueError(f"basis_index {basis_index} out of range for {num_qubits} qubits")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[basis_index] = 1.0
    return StateVector(num_qubits, amps)


def _controlled_view(
    tensor: np.ndarray, num_qubits: int, controls: Sequence[int], offset: int = 0
):
    """View of the all-controls-one subspace plus a qubit->view-axis resolver."""
    top = offset + num_qubits - 1  # the qubit on axis 0
    index: list = [slice(None)] * num_qubits
    for c in controls:
        index[top - c] = 1
    # the trailing Ellipsis keeps a 0-d array view, not a scalar, when the
    # controls cover every qubit
    view = tensor[(*index, Ellipsis)]
    control_axes = sorted(top - c for c in controls)

    def axis(qubit: int) -> int:
        a = top - qubit
        return a - sum(1 for ca in control_axes if ca < a)

    return view, axis


def _slices(ndim: int, ax: int, bit: int) -> tuple:
    sel: list = [slice(None)] * ndim
    sel[ax] = bit
    return tuple(sel)


def _apply_gate(tensor: np.ndarray, num_qubits: int, gate: Gate, offset: int = 0) -> None:
    """Reference kernel: apply one gate in place to a ``(2,) * num_qubits`` tensor.

    The tensor holds qubits offset..offset+num_qubits-1, most significant
    first. Trailing axes beyond them are a batch, which ``_fuse`` uses to
    build a stage's tables.
    """
    view, axis = _controlled_view(tensor, num_qubits, gate.controls, offset)
    if gate.kind == KIND_X:
        ax = axis(gate.targets[0])
        lo, hi = _slices(view.ndim, ax, 0), _slices(view.ndim, ax, 1)
        tmp = view[lo].copy()
        view[lo] = view[hi]
        view[hi] = tmp
    elif gate.kind == KIND_H:
        ax = axis(gate.targets[0])
        lo, hi = _slices(view.ndim, ax, 0), _slices(view.ndim, ax, 1)
        a0 = view[lo].copy()
        a1 = view[hi].copy()
        view[lo] = (a0 + a1) * _INV_SQRT2
        view[hi] = (a0 - a1) * _INV_SQRT2
    elif gate.kind == KIND_UNITARY:
        m = np.asarray(gate.matrix, dtype=complex)
        ax = axis(gate.targets[0])
        lo, hi = _slices(view.ndim, ax, 0), _slices(view.ndim, ax, 1)
        a0 = view[lo].copy()
        a1 = view[hi].copy()
        view[lo] = m[0, 0] * a0 + m[0, 1] * a1
        view[hi] = m[1, 0] * a0 + m[1, 1] * a1
    else:  # PHASE: one multiply by the table, laid over the target axes
        factors = np.exp(2j * np.pi * np.asarray(gate.turns))
        k = len(gate.targets)
        # table axis i holds value bit k-1-i, which is target k-1-i
        axes = [axis(gate.targets[k - 1 - i]) for i in range(k)]
        shape = [1] * view.ndim
        for ax in axes:
            shape[ax] = 2
        view *= factors.reshape((2,) * k).transpose(np.argsort(axes)).reshape(shape)


def apply(state: StateVector, circuit: Circuit | Sector) -> StateVector:
    """Apply the circuit's compiled stages in order; returns a norm-checked state.

    A ``Sector`` takes a state on its own qubits, as its ``restrict`` gives
    it. The stages act on a copy of the amplitudes. Fused stages work
    through ``_CHUNK`` amplitudes of scratch; a gate run alone copies what
    the reference kernel copies.
    """
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    # scratch first, below the result: its freed block is reused, not trimmed
    scratch = np.empty(min(state.amplitudes.size, _CHUNK), dtype=np.complex128)
    amps = state.amplitudes.copy()
    for stage in circuit.stages:
        stage.run(amps, scratch)
    out = StateVector(state.num_qubits, amps)
    if abs(out.norm() - 1.0) > ATOL:
        raise RuntimeError(f"norm drifted to {out.norm()!r} after circuit application")
    return out


# ---------------------------------------------------------------------------
# Circuit compilation: fused stages
# ---------------------------------------------------------------------------

#: Widest qubit span fused into one dense block, a 2^5 x 2^5 unitary.
_BLOCK_SPAN = 5
#: Widest qubit span of a monomial stage's gather index and diagonal.
_MONOMIAL_SPAN = 12
#: Amplitudes a stage rewrites at a time, through scratch of this size (1 MiB).
_CHUNK = 1 << 16
#: Multiply-adds per BLAS matrix product. OpenBLAS hands larger products to
#: worker threads, and when a worker shares a CPU with the caller, every such
#: call waits out a scheduler slice (4-16 ms on a 2-vCPU host).
_GEMM_MNK = 1 << 15

_MIXING = (KIND_H, KIND_UNITARY)


class _Stage:
    """Fused gates over the qubits lo..lo+span-1 of an n-qubit state.

    The state is viewed as (A, B, C) = (2^(n-lo-span), 2^span, 2^lo), so the
    stage acts along axis 1 only. A state of at most ``_CHUNK`` amplitudes
    is rewritten as one chunk.
    """

    def __init__(self, num_qubits: int, lo: int, span: int):
        self.lo, self.span = lo, span
        self.shape = (1 << (num_qubits - lo - span), 1 << span, 1 << lo)
        self.whole = 1 << num_qubits <= _CHUNK

    def run(self, amps: np.ndarray, scratch: np.ndarray) -> None:
        """Rewrite ``amps`` in place, using ``scratch`` as workspace."""
        if self.whole:
            self._run(amps.reshape(self.shape), scratch[: amps.size].reshape(self.shape))
            return
        for chunk, out in self._chunks(amps, scratch):
            self._run(chunk, out)

    def _run(self, chunk: np.ndarray, out: np.ndarray) -> None:
        """Rewrite one (rows, 2^span, cols) chunk of the state, with ``out`` as workspace."""
        raise NotImplementedError

    def moves(self) -> int:
        """Bit mask of the qubits the stage may take out of a basis value."""
        return ((1 << self.span) - 1) << self.lo

    def restrict(self, sector: Sector) -> _Stage:
        """The same stage on the sector's qubits; it must move none the sector fixes."""
        return self._placed(sector.num_qubits, sector.position(self.lo))

    def _placed(self, num_qubits: int, lo: int) -> _Stage:
        """This stage at qubit ``lo`` of a ``num_qubits``-qubit state, sharing its tables."""
        stage = object.__new__(type(self))
        stage.__dict__.update(self.__dict__)
        _Stage.__init__(stage, num_qubits, lo, self.span)
        return stage

    def _chunks(self, amps: np.ndarray, scratch: np.ndarray):
        """(view of the state, same-shaped scratch) pairs covering every amplitude."""
        a, b, c = self.shape
        view = amps.reshape(self.shape)
        if b * c <= scratch.size:
            rows = scratch.size // (b * c)
            for start in range(0, a, rows):
                chunk = view[start : start + rows]
                yield chunk, scratch[: chunk.size].reshape(chunk.shape)
        else:
            cols = scratch.size // b
            for row in range(a):
                for start in range(0, c, cols):
                    chunk = view[row : row + 1, :, start : start + cols]
                    yield chunk, scratch[: chunk.size].reshape(chunk.shape)


class _Monomial(_Stage):
    """A run of X and PHASE gates: ``new[b] = diagonal[b] * old[gather[b]]`` over the span.

    ``gather`` is None for a pure diagonal, ``diagonal`` None for a pure
    permutation.
    """

    def __init__(self, num_qubits, lo, span, gather, diagonal):
        super().__init__(num_qubits, lo, span)
        identity = np.arange(gather.size)
        self.gather = None if np.array_equal(gather, identity) else gather
        self.diagonal = None if np.all(diagonal == 1.0) else diagonal.reshape(-1, 1).copy()

    def moves(self):
        return self._flips << self.lo

    @functools.cached_property
    def _flips(self) -> int:
        """Bit mask, over the span, of the qubits the gather moves; computed once."""
        if self.gather is None:
            return 0
        return int(np.bitwise_or.reduce(self.gather ^ np.arange(self.gather.size)))

    def restrict(self, sector):
        size = self.shape[1]
        mask = sector.fixed >> self.lo & (size - 1)
        if not mask:  # no fixed qubit in the span: renumbered, tables shared
            return super().restrict(sector)
        # the span's rows inside the sector, ascending: the renumbered span's
        # rows in order, and the gather maps them among themselves
        rows = np.flatnonzero((np.arange(size) & mask) == (sector.values >> self.lo & mask))
        gather = rows if self.gather is None else self.gather[rows]
        diagonal = np.ones(rows.size) if self.diagonal is None else self.diagonal[rows]
        return _Monomial(
            sector.num_qubits,
            sector.position(self.lo),
            self.span - mask.bit_count(),
            rows.searchsorted(gather),
            diagonal,
        )

    def run(self, amps, scratch):
        if self.gather is not None:
            super().run(amps, scratch)
        elif self.diagonal is not None:
            amps.reshape(self.shape)[...] *= self.diagonal

    def _run(self, chunk, out):
        # mode="clip" skips the buffered copy take makes in "raise" mode
        np.take(chunk, self.gather, axis=1, out=out, mode="clip")
        if self.diagonal is not None:
            out *= self.diagonal
        chunk[...] = out


class _Block(_Stage):
    """A run that mixes amplitudes, fused into one 2^span x 2^span unitary.

    It is applied as matrix products of at most ``_GEMM_MNK`` multiply-adds
    each, batched by numpy into one call per chunk.
    """

    def __init__(self, num_qubits, lo, span, matrix):
        super().__init__(num_qubits, lo, span)
        self.matrix = matrix
        self._transpose = np.ascontiguousarray(matrix.T)
        self._width = max(1, _GEMM_MNK >> (2 * span))  # vectors per product

    def _run(self, chunk, out):
        rows, size, cols = chunk.shape
        if cols == 1:
            # span at the bottom: row vectors times U^T
            width = min(rows, self._width)
            np.matmul(
                chunk.reshape(-1, width, size),
                self._transpose,
                out=out.reshape(-1, width, size),
            )
        else:
            width = min(cols, self._width)
            np.matmul(self.matrix, _columns(chunk, width), out=_columns(out, width))
        chunk[...] = out


def _columns(chunk: np.ndarray, width: int) -> np.ndarray:
    """A (rows, span, cols) view as a stack of (span, width) column blocks."""
    rows, size, cols = chunk.shape
    return chunk.reshape(rows, size, cols // width, width).transpose(0, 2, 1, 3)


class _Single(_Stage):
    """One gate too wide to fuse, run through the reference kernel on the whole state."""

    def __init__(self, num_qubits, gate):
        self.num_qubits = num_qubits
        self.gate = gate

    def run(self, amps, scratch):
        _apply_gate(amps.reshape((2,) * self.num_qubits), self.num_qubits, self.gate)

    def moves(self):
        return sum(1 << q for q in self.gate.qubits)

    def restrict(self, sector):
        g = self.gate
        targets, controls = (tuple(map(sector.position, qs)) for qs in (g.targets, g.controls))
        return _Single(sector.num_qubits, Gate(g.kind, targets, controls, g.matrix, g.turns))


def _compile(circuit: Circuit) -> tuple[_Stage, ...]:
    """Fuse the gates, in order, into maximal stages under the span caps."""
    n = circuit.num_qubits
    stages: list[_Stage] = []
    run: list[Gate] = []
    lo, hi, mixing = n, -1, False  # the open run's span; empty while hi < lo

    def fits(lo_, hi_, mixing_):
        return hi_ - lo_ + 1 <= (_BLOCK_SPAN if mixing_ else _MONOMIAL_SPAN)

    for gate in circuit.gates:
        g_lo, g_hi, g_mixing = gate.lo, gate.hi, gate.kind in _MIXING
        # the open run's span and kind with the gate added
        w_lo, w_hi, w_mixing = min(lo, g_lo), max(hi, g_hi), mixing or g_mixing
        if fits(w_lo, w_hi, w_mixing):
            run.append(gate)
            lo, hi, mixing = w_lo, w_hi, w_mixing
            continue
        if run:
            stages.append(_fuse(n, tuple(run), lo, hi, mixing))
        if fits(g_lo, g_hi, g_mixing):
            run, lo, hi, mixing = [gate], g_lo, g_hi, g_mixing
        else:
            stages.append(_Single(n, gate))
            run, lo, hi, mixing = [], n, -1, False
    if run:
        stages.append(_fuse(n, tuple(run), lo, hi, mixing))
    return tuple(stages)


@functools.lru_cache(maxsize=64)
def _fuse(num_qubits: int, gates: tuple[Gate, ...], lo: int, hi: int, mixing: bool) -> _Stage:
    """One stage over lo..hi, its tables built by the reference kernel, gate by gate.

    Stages are never modified once built, so equal runs share one: the
    Grover operators of oracles that differ only in their thresholds, whose
    values the prepared state holds, and the QFT and diffusion blocks of
    oracles of one size, compile once.
    """
    if hi < lo:  # global phases only
        lo, hi = 0, -1
    span = hi - lo + 1
    size = 1 << span
    if mixing:
        # column j of the batched identity becomes the run's image of |j>
        matrix = np.eye(size, dtype=np.complex128)
        batched = matrix.reshape((2,) * span + (size,))
        for g in gates:
            _apply_gate(batched, span, g, lo)
        return _Block(num_qubits, lo, span, matrix)
    # an index ramp through the X gates gives the gather index, and ones
    # through every gate give the diagonal that follows it
    tables = np.ones((size, 2), dtype=np.complex128)
    tables[:, 0] = np.arange(size)
    both = tables.reshape((2,) * span + (2,))
    diagonal = tables[:, 1].reshape((2,) * span)
    for g in gates:
        _apply_gate(both if g.kind == KIND_X else diagonal, span, g, lo)
    return _Monomial(num_qubits, lo, span, tables[:, 0].real.astype(np.intp), tables[:, 1])


class Sector:
    """A circuit's compiled stages, restricted to the sector a state lies in.

    The sector is the set of basis states in which every qubit that the
    state holds at one basis value, and that no stage of the circuit moves,
    keeps that value; they are read off the support of ``state``, or given
    as the bit masks ``held`` and ``values``. A stage moves a qubit if it is
    a dense block spanning it, a gate run alone touching it, or a monomial
    whose gather flips it; a gather that flips a qubit and later restores
    it, as a comparator's X chain does to its threshold register, moves
    nothing as a whole. Each stage maps the sector to itself, so ``apply``
    runs the restricted stages on the sector's amplitudes alone
    (``restrict``), with the remaining qubits renumbered in order: blocks
    and lone gates only change shape or numbering, and monomials keep the
    sector's rows of their gather and diagonal. Every gate is still applied.
    """

    def __init__(self, circuit: Circuit, state: StateVector | None = None, held=0, values=0):
        if state is not None:
            if circuit.num_qubits != state.num_qubits:
                raise ValueError(
                    f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
                )
            support = np.flatnonzero(state.amplitudes)
            values = int(np.bitwise_and.reduce(support))  # the bits every basis state there sets
            held = ~(values ^ int(np.bitwise_or.reduce(support)))
        moved = 0
        for stage in circuit.stages:
            moved |= stage.moves()
        #: Bit masks of the fixed qubits and of the values they keep.
        self.fixed = held & ~moved & ((1 << circuit.num_qubits) - 1)
        self.values = values & self.fixed
        #: The full circuit's qubits that remain, in order, and its gates.
        self.kept = tuple(q for q in range(circuit.num_qubits) if not self.fixed >> q & 1)
        self.num_qubits = len(self.kept)
        self.gates = circuit.gates
        self.stages = tuple(stage.restrict(self) for stage in circuit.stages)

    def position(self, qubit: int) -> int:
        """The number of kept qubits below ``qubit``: its own number if it is kept."""
        return bisect_left(self.kept, qubit)

    def restrict(self, state: StateVector) -> StateVector:
        """The sector's amplitudes of a full-width state, as a state on the kept qubits."""
        index = tuple(  # one axis per qubit, most significant first
            self.values >> q & 1 if self.fixed >> q & 1 else slice(None)
            for q in reversed(range(state.num_qubits))
        )
        amps = state.amplitudes.reshape((2,) * state.num_qubits)[index]
        return StateVector(self.num_qubits, amps.reshape(-1).copy())


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _check_register(state_qubits: int, qubits: Sequence[int]) -> None:
    if len(qubits) == 0:
        raise ValueError("register must be non-empty")
    if len(set(qubits)) != len(qubits):
        raise ValueError("register qubits must be distinct")
    for q in qubits:
        if not 0 <= q < state_qubits:
            raise ValueError(f"qubit {q} out of range")


def subregister_distribution(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Exact marginal distribution over the given register, LSB-first order.

    The probability tensor is summed over the other qubits, taken as runs of
    adjacent qubits so that each run is one axis, and the register's bits
    are then transposed into its order (``_Marginal``).
    """
    _check_register(state.num_qubits, qubits)
    return _Marginal(state.num_qubits, qubits)(state.probabilities())


class _Marginal:
    """``subregister_distribution``'s reshape, sums and transpose for one
    width and register, planned once and applied to any probability vector."""

    def __init__(self, num_qubits: int, qubits: Sequence[int]):
        kept = set(qubits)
        sizes: list[int] = []
        summed: list[int] = []
        top = num_qubits - 1
        while top >= 0:  # runs of qubits on one side, most significant first
            bottom = top
            while bottom > 0 and ((bottom - 1) in kept) == (top in kept):
                bottom -= 1
            if top not in kept:
                summed.append(len(sizes))
            sizes.append(1 << (top - bottom + 1))
            top = bottom - 1
        self.sizes = tuple(sizes)
        # one axis at a time, largest first: faster than one sum over many small axes
        self.summed = sorted(summed, key=lambda a: -sizes[a])
        self.register = (2,) * len(qubits)
        # one axis per register qubit, most significant qubit first
        descending = sorted(qubits, reverse=True)
        self.order = [descending.index(q) for q in reversed(qubits)]

    def __call__(self, probabilities: np.ndarray) -> np.ndarray:
        marginal = probabilities.reshape(self.sizes)
        for axis in self.summed:
            marginal = marginal.sum(axis=axis, keepdims=True)
        return marginal.reshape(self.register).transpose(self.order).reshape(-1)


def measure_subregister(
    state: StateVector, qubits: Sequence[int], rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Sample the register's marginal, collapse and renormalise.

    Deterministic for a fixed generator state.
    """
    dist = subregister_distribution(state, qubits)
    total = dist.sum()
    if total < 1e-12:
        raise RuntimeError("register marginal is numerically zero")
    outcome = int(rng.choice(dist.size, p=dist / total))

    idx = np.arange(state.amplitudes.size, dtype=np.int64)
    sub = np.zeros(state.amplitudes.size, dtype=np.int64)
    for j, q in enumerate(qubits):
        sub |= ((idx >> q) & 1) << j
    amps = np.where(sub == outcome, state.amplitudes, 0.0)
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise RuntimeError("collapse produced a numerically zero state")
    return outcome, StateVector(state.num_qubits, amps / norm)


# ---------------------------------------------------------------------------
# QFT and phase estimation
# ---------------------------------------------------------------------------


def qft_circuit(register: Sequence[int], num_qubits: int | None = None) -> Circuit:
    """Quantum Fourier transform on a register (LSB-first): |b> -> sum_k w^{bk}|k>/sqrt(2^t)."""
    reg = list(register)
    if not reg:
        raise ValueError("register must be non-empty")
    t = len(reg)
    nq = max(reg) + 1 if num_qubits is None else num_qubits
    gates: list[Gate] = []
    for i in reversed(range(t)):
        gates.append(h(reg[i]))
        for k in reversed(range(i)):
            gates.append(phase((reg[i],), (0.0, 1.0 / (1 << (i - k + 1))), controls={reg[k]}))
    for i in range(t // 2):
        a, b = reg[i], reg[t - 1 - i]
        gates.extend((x(b, {a}), x(a, {b}), x(b, {a})))
    return Circuit(nq, tuple(gates))


def inverse_qft_circuit(register: Sequence[int], num_qubits: int | None = None) -> Circuit:
    """Inverse QFT on the register; gate count is O(t**2). The last 64 shapes are kept."""
    return _inverse_qft(tuple(register), num_qubits)


@functools.lru_cache(maxsize=64)
def _inverse_qft(register: tuple[int, ...], num_qubits: int | None) -> Circuit:
    return qft_circuit(register, num_qubits).inverse()


def phase_estimation_circuit(
    counting: int | Sequence[int],
    phase_turns: Sequence[float],
    target_register: Sequence[int],
    num_qubits: int | None = None,
) -> Circuit:
    """Phase estimation of a diagonal unitary given by its per-index phase table.

    The counting register may be passed as an explicit qubit list or as an
    integer t, in which case it is allocated directly above the target
    register. Controlled powers U^(2^j) are realised as diagonal gates with
    the table multiplied by 2^j (mod 1). For a target basis state whose
    phase is an exact t-bit fraction b/2^t the counting register ends
    exactly in |b>.
    """
    target = list(target_register)
    if not target:
        raise ValueError("target register must be non-empty")
    table = np.asarray(phase_turns, dtype=float)
    if table.size != 1 << len(target):
        raise ValueError(
            f"phase table has {table.size} entries, expected {1 << len(target)}"
        )
    if isinstance(counting, (int, np.integer)):
        base = max(target) + 1
        count_reg = list(range(base, base + int(counting)))
    else:
        count_reg = list(counting)
    if not count_reg:
        raise ValueError("counting register must be non-empty")
    if set(count_reg) & set(target):
        raise ValueError("counting and target registers overlap")

    nq = max(max(count_reg), max(target)) + 1 if num_qubits is None else num_qubits
    gates: list[Gate] = [h(c) for c in count_reg]
    for j, cq in enumerate(count_reg):
        shifted = np.mod(table * float(1 << j), 1.0)
        gates.append(phase(tuple(target), shifted.tolist(), controls={cq}))
    gates.extend(inverse_qft_circuit(count_reg, nq).gates)
    return Circuit(nq, tuple(gates))


def qpe_register_size(m: int, epsilon: float) -> int:
    """Counting qubits for m-bit accuracy at failure probability epsilon."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return m + math.ceil(math.log2(2.0 + 1.0 / (2.0 * epsilon)))
