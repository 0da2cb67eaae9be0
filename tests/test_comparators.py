import numpy as np
import pytest

from qslice import (
    ComparatorLayout,
    and_combiner,
    apply,
    eq_circuit,
    gt_circuit,
    lt_circuit,
    new_basis_state,
    or_combiner,
)
from qslice.sim import Circuit, format_circuit, h

from conftest import run_basis

PREDICATES = {
    gt_circuit: lambda a, b: a > b,
    lt_circuit: lambda a, b: a < b,
    eq_circuit: lambda a, b: a == b,
}


def test_layout():
    lay = ComparatorLayout(3)
    assert lay.a_qubits == (0, 1, 2)
    assert lay.b_qubits == (3, 4, 5)
    assert lay.outcome_qubit == 6
    assert lay.num_qubits == 7
    with pytest.raises(ValueError):
        ComparatorLayout(0)


def test_n0_rejected():
    for builder in PREDICATES:
        with pytest.raises(ValueError):
            builder(0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("builder", list(PREDICATES), ids=["gt", "lt", "eq"])
def test_truth_tables_exhaustive(n, builder):
    circ = builder(n)
    pred = PREDICATES[builder]
    for a in range(1 << n):
        for b in range(1 << n):
            for c in (0, 1):
                landed = run_basis(circ, a | (b << n) | (c << (2 * n)))
                assert landed == a | (b << n) | ((c ^ pred(a, b)) << (2 * n))


def test_gt_spot_examples():
    circ = gt_circuit(3)
    assert run_basis(circ, 5 | (3 << 3)) == 5 | (3 << 3) | (1 << 6)  # 5 > 3
    assert run_basis(circ, 4 | (4 << 3) | (1 << 6)) == 4 | (4 << 3) | (1 << 6)  # tie keeps c


def test_gate_count_contract():
    for n in range(1, 6):
        assert len(gt_circuit(n).gates) == 5 * n
        assert len(lt_circuit(n).gates) == 5 * n


# lt_circuit's gate listing before it became gt_circuit with the operands swapped
LT_LISTINGS = {
    1: (
        "X controls=[1] targets=[0]\n"
        "X controls=[0, 1] targets=[2]\n"
        "X controls=[] targets=[0]\n"
        "X controls=[] targets=[0]\n"
        "X controls=[1] targets=[0]"
    ),
    2: (
        "X controls=[2] targets=[0]\n"
        "X controls=[3] targets=[1]\n"
        "X controls=[1, 3] targets=[4]\n"
        "X controls=[] targets=[1]\n"
        "X controls=[0, 1, 2] targets=[4]\n"
        "X controls=[] targets=[0]\n"
        "X controls=[] targets=[0]\n"
        "X controls=[] targets=[1]\n"
        "X controls=[2] targets=[0]\n"
        "X controls=[3] targets=[1]"
    ),
    3: (
        "X controls=[3] targets=[0]\n"
        "X controls=[4] targets=[1]\n"
        "X controls=[5] targets=[2]\n"
        "X controls=[2, 5] targets=[6]\n"
        "X controls=[] targets=[2]\n"
        "X controls=[1, 2, 4] targets=[6]\n"
        "X controls=[] targets=[1]\n"
        "X controls=[0, 1, 2, 3] targets=[6]\n"
        "X controls=[] targets=[0]\n"
        "X controls=[] targets=[0]\n"
        "X controls=[] targets=[1]\n"
        "X controls=[] targets=[2]\n"
        "X controls=[3] targets=[0]\n"
        "X controls=[4] targets=[1]\n"
        "X controls=[5] targets=[2]"
    ),
    4: (
        "X controls=[4] targets=[0]\n"
        "X controls=[5] targets=[1]\n"
        "X controls=[6] targets=[2]\n"
        "X controls=[7] targets=[3]\n"
        "X controls=[3, 7] targets=[8]\n"
        "X controls=[] targets=[3]\n"
        "X controls=[2, 3, 6] targets=[8]\n"
        "X controls=[] targets=[2]\n"
        "X controls=[1, 2, 3, 5] targets=[8]\n"
        "X controls=[] targets=[1]\n"
        "X controls=[0, 1, 2, 3, 4] targets=[8]\n"
        "X controls=[] targets=[0]\n"
        "X controls=[] targets=[0]\n"
        "X controls=[] targets=[1]\n"
        "X controls=[] targets=[2]\n"
        "X controls=[] targets=[3]\n"
        "X controls=[4] targets=[0]\n"
        "X controls=[5] targets=[1]\n"
        "X controls=[6] targets=[2]\n"
        "X controls=[7] targets=[3]"
    ),
}


@pytest.mark.parametrize("n", sorted(LT_LISTINGS))
def test_lt_listing_is_pinned(n):
    assert format_circuit(lt_circuit(n)) == LT_LISTINGS[n]


def test_self_inverse():
    for builder in PREDICATES:
        circ = builder(2)
        doubled = circ.then(circ)
        rng = np.random.default_rng(5)
        state = apply(
            new_basis_state(5, 0), Circuit(5, tuple(h(q) for q in range(5)))
        )
        assert np.allclose(apply(state, doubled).amplitudes, state.amplitudes, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2])
def test_superposition_outcome_marginal(n):
    # uniform over (a, b): outcome-qubit marginal equals #(a > b) / 4^n
    circ = gt_circuit(n)
    prep = Circuit(circ.num_qubits, tuple(h(q) for q in range(2 * n)))
    state = apply(apply(new_basis_state(circ.num_qubits, 0), prep), circ)
    from qslice import subregister_distribution

    marginal = subregister_distribution(state, [2 * n])
    count = sum(1 for a in range(1 << n) for b in range(1 << n) if a > b)
    assert abs(marginal[1] - count / 4**n) < 1e-9


def test_or_combiner_exhaustive():
    circ = or_combiner([0, 1], 2)
    for v in range(4):
        for t in (0, 1):
            bit = 1 if v else 0
            assert run_basis(circ, v | (t << 2)) == v | ((t ^ bit) << 2)


def test_and_combiner_exhaustive():
    circ = and_combiner([0, 1, 2], 3)
    for v in range(8):
        for t in (0, 1):
            bit = 1 if v == 7 else 0
            assert run_basis(circ, v | (t << 3)) == v | ((t ^ bit) << 3)


def test_combiner_validation():
    with pytest.raises(ValueError):
        or_combiner([0, 1], 1)
    with pytest.raises(ValueError):
        and_combiner([], 0)
