"""Reversible comparison circuits on two n-bit operands plus an outcome qubit.

Layout shared by all comparators: operand A on qubits [0, n), operand B on
qubits [n, 2n), outcome on qubit 2n. On a basis input |a>|b>|c> the circuit
produces |a>|b>|c XOR pred(a, b)>; both operand registers are restored.
Comparisons are strict: ties leave the outcome untouched for both GT and LT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .sim import Circuit, Gate, remap, x


@dataclass(frozen=True)
class ComparatorLayout:
    """Qubit roles of an n-bit comparator circuit."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("operand width must be >= 1")

    @property
    def a_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def b_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n, 2 * self.n))

    @property
    def outcome_qubit(self) -> int:
        return 2 * self.n

    @property
    def num_qubits(self) -> int:
        return 2 * self.n + 1


def gt_circuit(n: int) -> Circuit:
    """Strict greater-than: outcome ^= [a > b].

    Difference bits a XOR b are computed into the B register; scanning from
    the most significant position down, a multi-controlled X fires exactly
    when the operands first differ at a bit where a holds 1. The trailing
    layers uncompute the B register. Exactly 5n gate records: 2n CX, n MCX
    and 2n X.
    """
    lay = ComparatorLayout(n)
    out = lay.outcome_qubit
    gates: list[Gate] = []
    for j in range(n):
        gates.append(x(n + j, {j}))
    for j in reversed(range(n)):
        controls = {j, *range(n + j, 2 * n)}
        gates.append(x(out, controls))
        gates.append(x(n + j))
    for j in range(n):
        gates.append(x(n + j))
    for j in range(n):
        gates.append(x(n + j, {j}))
    return Circuit(lay.num_qubits, tuple(gates))


def lt_circuit(n: int) -> Circuit:
    """Strict less-than: outcome ^= [a < b]. ``gt_circuit`` with A and B swapped."""
    swap = {**{j: n + j for j in range(n)}, **{n + j: j for j in range(n)}}
    return remap(gt_circuit(n), swap, 2 * n + 1)


def eq_circuit(n: int) -> Circuit:
    """Equality: outcome ^= [a == b], via bitwise CX, X and a single MCX."""
    lay = ComparatorLayout(n)
    out = lay.outcome_qubit
    gates: list[Gate] = []
    for j in range(n):
        gates.append(x(n + j, {j}))
    for j in range(n):
        gates.append(x(n + j))
    gates.append(x(out, set(lay.b_qubits)))
    for j in range(n):
        gates.append(x(n + j))
    for j in range(n):
        gates.append(x(n + j, {j}))
    return Circuit(lay.num_qubits, tuple(gates))


def _combiner_num_qubits(inputs: Sequence[int], target: int) -> int:
    if target in inputs:
        raise ValueError("target overlaps the input qubits")
    if len(set(inputs)) != len(inputs):
        raise ValueError("input qubits must be distinct")
    if not inputs:
        raise ValueError("at least one input qubit required")
    return max(max(inputs), target) + 1


def and_combiner(inputs: Sequence[int], target: int, num_qubits: int | None = None) -> Circuit:
    """target ^= AND(inputs); a single multi-controlled X."""
    nq = _combiner_num_qubits(inputs, target)
    return Circuit(num_qubits or nq, (x(target, set(inputs)),))


def or_combiner(inputs: Sequence[int], target: int, num_qubits: int | None = None) -> Circuit:
    """target ^= OR(inputs), by De Morgan: X-conjugated MCX plus a target flip."""
    nq = _combiner_num_qubits(inputs, target)
    gates: list[Gate] = [x(q) for q in inputs]
    gates.append(x(target, set(inputs)))
    gates.extend(x(q) for q in inputs)
    gates.append(x(target))
    return Circuit(num_qubits or nq, tuple(gates))
