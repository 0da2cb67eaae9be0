import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslice import (
    EffectiveState,
    ValueTable,
    all_of,
    any_of,
    apply,
    condition_oracle,
    diffusion_circuit,
    direct_marking_oracle,
    effective_grover_step,
    effective_state_new,
    equals,
    greater_than,
    grover_operator,
    index_amplitudes,
    less_than,
    new_basis_state,
    single_list_oracle,
    subregister_distribution,
    two_list_oracle,
)
from qslice.oracles import EFFECTIVE_INDEX_CAP, AllOf, AnyOf
from qslice.sim import Circuit, h, inverse_qft_circuit, phase_estimation_circuit, qft_circuit, x


def prepared(oracle):
    return apply(new_basis_state(oracle.num_qubits, 0), oracle.prep_circuit)


def oracle_signs(oracle):
    """Index-amplitude signs after one oracle application to |psi>."""
    before = prepared(oracle)
    after = apply(before, oracle.circuit)
    c0 = index_amplitudes(before, oracle)
    c1 = index_amplitudes(after, oracle)
    return np.real(c1 / c0)


def assert_marks_match_predicate(oracle):
    signs = oracle_signs(oracle)
    for k in range(oracle.index_size):
        want = -1.0 if oracle.predicate(k) else 1.0
        assert abs(signs[k] - want) < 1e-9, (k, signs[k])


# ---------------------------------------------------------------------------
# Value tables
# ---------------------------------------------------------------------------


def test_value_table_validation():
    with pytest.raises(ValueError):
        ValueTable(3, (1, 2, 3))  # not a power of two
    with pytest.raises(ValueError):
        ValueTable(3, (1,))  # a single entry leaves no index register
    with pytest.raises(ValueError):
        ValueTable(2, (4, 0, 0, 0))  # out of range
    with pytest.raises(ValueError, match="does not fit in 2 bits"):
        ValueTable(2, (2**70, 0, 0, 0))  # beyond int64 too
    # a value that is not an integer is refused, never truncated
    with pytest.raises(ValueError, match="value 0.9 is not an integer"):
        ValueTable(2, (0.9, 3.99, 0, 0))
    with pytest.raises(ValueError, match="value '1' is not an integer"):
        ValueTable(2, ("1", 0, 0, 0))
    with pytest.raises(ValueError, match="is not an integer"):
        ValueTable(2, np.array([1.0, 3.0, 0.0, 0.0]))
    assert ValueTable(2, np.array([1, 3, 0, 2], dtype=np.int32)).values == (1, 3, 0, 2)
    assert ValueTable(2, (np.uint8(3), True, 0, 2)).values == (3, 1, 0, 2)
    vt = ValueTable(3, (1, 5, 3, 7))
    assert vt.n == 2 and vt.size == 4
    assert np.allclose(vt.fractions(), [1 / 8, 5 / 8, 3 / 8, 7 / 8])
    assert vt.padded(0).values == (1, 5, 3, 7, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Single-list oracle
# ---------------------------------------------------------------------------


def test_single_list_layout_sizes():
    vt = ValueTable(7, tuple(range(8)))
    oracle = single_list_oracle(vt, 5)
    assert oracle.num_qubits == 18  # n=3, t=7
    names = oracle.layout.names
    assert names == ("index", "estimate", "threshold", "oracle")
    for n in (1, 2, 3):
        for t in (1, 2, 4, 7):
            o = single_list_oracle(ValueTable(t, (0,) * (1 << n)), 0)
            assert o.num_qubits == n + 2 * t + 1


def test_single_list_all_zero_strict():
    oracle = single_list_oracle(ValueTable(3, (0, 0, 0, 0)), 0)
    assert oracle.marked_set == frozenset()


def test_single_list_marks():
    oracle = single_list_oracle(ValueTable(3, (1, 5, 3, 7)), 3)
    assert oracle.marked_set == frozenset({1, 3})
    assert_marks_match_predicate(oracle)


def test_single_list_threshold_range():
    with pytest.raises(ValueError):
        single_list_oracle(ValueTable(3, (0, 0)), 8)


def test_single_list_lt_and_eq_ops():
    vt = ValueTable(3, (1, 5, 3, 7))
    assert single_list_oracle(vt, 4, "lt").marked_set == frozenset({0, 2})
    assert single_list_oracle(vt, 3, "eq").marked_set == frozenset({2})
    assert_marks_match_predicate(single_list_oracle(vt, 4, "lt"))


def test_estimate_register_is_basis_state_before_compare():
    # exactness premise: quantized values give an exact phase estimate
    vt = ValueTable(3, (1, 5, 3, 7))
    oracle = single_list_oracle(vt, 3)
    estimate = oracle.layout["estimate"]
    pe = phase_estimation_circuit(estimate, vt.fractions(), oracle.layout.index,
                                  oracle.num_qubits)
    for k in range(4):
        state = apply(new_basis_state(oracle.num_qubits, k), pe)
        dist = subregister_distribution(state, estimate)
        assert abs(dist[vt[k]] - 1.0) < 1e-9  # point mass, zero entropy


# ---------------------------------------------------------------------------
# Two-list oracle
# ---------------------------------------------------------------------------


def test_two_list_layout_sizes():
    r = ValueTable(7, tuple(range(8)))
    s = ValueTable(7, tuple(range(8)))
    oracle = two_list_oracle(r, s, 3, 5)
    assert oracle.num_qubits == 37  # n=3, t=7
    for n in (1, 2):
        for t in (1, 2, 3):
            o = two_list_oracle(
                ValueTable(t, (0,) * (1 << n)), ValueTable(t, (0,) * (1 << n)), 0, 0
            )
            assert o.num_qubits == 2 * n + 4 * t + 3


def test_two_list_impossible_return_threshold():
    r = ValueTable(3, (1, 5, 3, 7))
    s = ValueTable(3, (2, 2, 6, 6))
    oracle = two_list_oracle(r, s, 7, 7)  # r_k > 7 never holds
    assert oracle.marked_set == frozenset()


def test_two_list_marks_dense():
    r = ValueTable(3, (1, 5, 3, 7))
    s = ValueTable(3, (2, 2, 6, 6))
    oracle = two_list_oracle(r, s, 2, 4)
    # brute force: r_k > 2 gives {1,2,3}; sigma_k < 4 gives {0,1}
    assert oracle.marked_set == frozenset({1})
    assert_marks_match_predicate(oracle)


def test_two_list_shape_mismatch():
    with pytest.raises(ValueError):
        two_list_oracle(ValueTable(3, (0, 0)), ValueTable(2, (0, 0)), 0, 0)
    with pytest.raises(ValueError):
        two_list_oracle(ValueTable(3, (0, 0)), ValueTable(3, (0, 0, 0, 0)), 0, 0)


# ---------------------------------------------------------------------------
# Direct marking oracle
# ---------------------------------------------------------------------------


def test_direct_marking_empty_is_identity():
    oracle = direct_marking_oracle(2, set())
    state = prepared(oracle)
    assert np.allclose(apply(state, oracle.circuit).amplitudes, state.amplitudes)


def test_direct_marking_refuses_what_it_cannot_mark():
    with pytest.raises(ValueError, match="n must be >= 1"):
        direct_marking_oracle(0, ())
    for k in (-1, 4):  # -1 would otherwise wrap around the indicator table
        with pytest.raises(ValueError, match=f"marked index {k} out of range for n=2"):
            direct_marking_oracle(2, {k})
    # refused before its 2**n-entry table is allocated
    with pytest.raises(ValueError, match="exceeds the effective-backend cap"):
        direct_marking_oracle(EFFECTIVE_INDEX_CAP + 1, ())


def test_direct_marking_zero_on_plus():
    oracle = direct_marking_oracle(1, {0})
    state = prepared(oracle)  # |+> on the index qubit
    out = apply(state, oracle.circuit)
    minus = np.array([1, -1]) / math.sqrt(2)
    overlap = abs(np.vdot(minus, index_amplitudes(out, oracle)))
    assert abs(overlap - 1.0) < 1e-12  # |-> up to global phase


def test_direct_marking_all_is_global_phase():
    oracle = direct_marking_oracle(2, {0, 1, 2, 3})
    state = prepared(oracle)
    out = apply(state, oracle.circuit)
    assert np.allclose(out.amplitudes, -state.amplitudes, atol=1e-12)
    assert np.allclose(
        subregister_distribution(out, [0, 1]), subregister_distribution(state, [0, 1])
    )


# ---------------------------------------------------------------------------
# Condition trees
# ---------------------------------------------------------------------------


def test_condition_oracle_on_one_atom_is_the_single_list_oracle():
    table = ValueTable(2, (1, 3, 0, 2))
    for atom in (greater_than(table, 2), less_than(table, 2), equals(table, 2)):
        got, want = condition_oracle(atom), single_list_oracle(table, 2, atom.op)
        assert (got.layout, got.description) == (want.layout, want.description)
        assert np.array_equal(got.mask, want.mask)
    with pytest.raises(ValueError, match="at least two children"):
        condition_oracle(all_of(greater_than(table, 1)))


def test_condition_oracle_matches_two_list_semantics():
    r = ValueTable(2, (1, 3, 0, 2))
    s = ValueTable(2, (2, 0, 3, 1))
    cond = all_of(greater_than(r, 1), less_than(s, 2))
    oracle = condition_oracle(cond)
    want = {k for k in range(4) if r[k] > 1 and s[k] < 2}
    assert oracle.marked_set == frozenset(want)
    assert_marks_match_predicate(oracle)


def test_condition_oracle_or_tree():
    r = ValueTable(2, (1, 3, 0, 2))
    s = ValueTable(2, (2, 0, 3, 1))
    cond = any_of(greater_than(r, 2), less_than(s, 1))
    oracle = condition_oracle(cond)
    want = {k for k in range(4) if r[k] > 2 or s[k] < 1}
    assert oracle.marked_set == frozenset(want)
    assert_marks_match_predicate(oracle)


def test_condition_oracle_repeated_subtrees():
    # repeated node objects must compute once and combine without duplicate controls
    a = ValueTable(2, (0, 1, 2, 3))
    atom = greater_than(a, 1)
    oracle = condition_oracle(all_of(atom, atom))
    assert oracle.marked_set == frozenset({2, 3})
    assert_marks_match_predicate(oracle)
    sub = any_of(greater_than(a, 2), less_than(a, 1))
    oracle = condition_oracle(all_of(sub, sub))
    assert oracle.marked_set == frozenset({0, 3})
    assert_marks_match_predicate(oracle)


def test_condition_oracle_shared_subtree_inside_a_sibling():
    # the shared node is read by the root and by its sibling, so it must be
    # computed before that sibling is combined
    a = ValueTable(1, (0, 1))
    b = ValueTable(1, (1, 0))
    shared = any_of(greater_than(a, 0), less_than(b, 0))
    cond = all_of(shared, any_of(shared, equals(b, 1)))
    oracle = condition_oracle(cond)
    assert oracle.marked_set == frozenset({1})
    assert_marks_match_predicate(oracle)


def test_condition_oracle_nested():
    a = ValueTable(2, (0, 1, 2, 3))
    b = ValueTable(2, (3, 2, 1, 0))
    c = ValueTable(2, (1, 1, 2, 2))
    cond = all_of(any_of(greater_than(a, 1), less_than(b, 1)), greater_than(c, 1))
    oracle = condition_oracle(cond)
    want = {k for k in range(4) if (a[k] > 1 or b[k] < 1) and c[k] > 1}
    assert oracle.marked_set == frozenset(want)
    assert_marks_match_predicate(oracle)


# ---------------------------------------------------------------------------
# Diffusion and the Grover operator
# ---------------------------------------------------------------------------


def test_diffusion_fixes_uniform_state():
    for n in (1, 2, 3):
        circ = diffusion_circuit(n)
        state = apply(new_basis_state(n, 0), Circuit(n, tuple(h(q) for q in range(n))))
        assert np.allclose(apply(state, circ).amplitudes, state.amplitudes, atol=1e-9)


def test_diffusion_flips_minus_component():
    circ = diffusion_circuit(1)
    minus = apply(
        new_basis_state(1, 1), Circuit(1, (h(0),))
    )  # (|0> - |1>)/sqrt(2)
    out = apply(minus, circ)
    assert np.allclose(out.amplitudes, -minus.amplitudes, atol=1e-12)


def test_diffusion_matrix_n2():
    cols = [apply(new_basis_state(2, k), diffusion_circuit(2)).amplitudes for k in range(4)]
    matrix = np.column_stack(cols)
    assert np.allclose(matrix, 2 / 4 * np.ones((4, 4)) - np.eye(4), atol=1e-9)


def test_shape_memos_take_lists_and_return_what_tuples_give():
    assert diffusion_circuit(3, [4, 5, 6], 8).gates == diffusion_circuit(3, (4, 5, 6), 8).gates
    assert inverse_qft_circuit([2, 0, 1], 5).gates == inverse_qft_circuit((2, 0, 1), 5).gates
    assert inverse_qft_circuit([2, 0, 1], 5).gates == qft_circuit([2, 0, 1], 5).inverse().gates



def test_grover_no_marks_leaves_marginal():
    oracle = direct_marking_oracle(2, set())
    state = prepared(oracle)
    out = apply(state, grover_operator(oracle))
    assert np.allclose(
        subregister_distribution(out, [0, 1]), subregister_distribution(state, [0, 1]),
        atol=1e-9,
    )


def test_grover_exact_rotation_n4():
    oracle = direct_marking_oracle(2, {2})
    out = apply(prepared(oracle), grover_operator(oracle))
    assert abs(subregister_distribution(out, oracle.layout.index)[2] - 1.0) < 1e-9


def test_grover_one_step_n8():
    # exact arithmetic: one step from uniform gives (2.5/sqrt(8))^2 = 25/32
    oracle = direct_marking_oracle(3, {5})
    out = apply(prepared(oracle), grover_operator(oracle))
    marginal = subregister_distribution(out, [0, 1, 2])
    assert abs(marginal[5] - 25 / 32) < 1e-9


# ---------------------------------------------------------------------------
# Effective backend
# ---------------------------------------------------------------------------


def test_effective_step_examples():
    state = effective_state_new(2)
    out = effective_grover_step(state, {2})
    assert abs(out.probabilities()[2] - 1.0) < 1e-12
    unchanged = effective_grover_step(state, set())
    assert np.allclose(unchanged.amplitudes, state.amplitudes)


def test_effective_step_reflects_about_the_mean_bit_for_bit():
    # the reflection divides the sum by the size rather than calling mean():
    # the same add-reduce and the same division
    rng = np.random.default_rng(11)
    for trial in range(2000):
        size = 1 << int(rng.integers(1, 13))
        if trial % 2:
            amps = rng.standard_normal(size)
        else:  # two-valued, as every state of the Grover evolution is
            amps = np.where(rng.random(size) < rng.random(), *rng.standard_normal(2))
        marked = np.flatnonzero(rng.random(size) < rng.random())
        flipped = amps.copy()
        flipped[marked] *= -1.0
        want = 2.0 * flipped.mean() - flipped
        got = effective_grover_step(EffectiveState(amps), marked).amplitudes
        assert got.tobytes() == want.tobytes(), (trial, size, marked.size)


def test_effective_matches_dense_single_list():
    values = [0] * 8
    values[5] = 7
    oracle = single_list_oracle(ValueTable(3, values), 3)
    dense = prepared(oracle)
    eff = effective_state_new(3)
    op = grover_operator(oracle)
    for _ in range(2):
        dense = apply(dense, op)
        eff = effective_grover_step(eff, oracle.marked_set)
    assert np.allclose(index_amplitudes(dense, oracle), eff.amplitudes, atol=1e-9)


def test_index_amplitudes_refuses_a_workspace_that_leaked():
    oracle = single_list_oracle(ValueTable(2, (1, 3, 0, 2)), 1)
    out = apply(prepared(oracle), oracle.circuit)
    assert np.allclose(np.abs(index_amplitudes(out, oracle)), 0.5, atol=1e-12)
    # an estimate qubit left at 1 puts every amplitude outside the two reference rows
    leaked = apply(out, Circuit(oracle.num_qubits, (x(oracle.layout["estimate"][0]),)))
    with pytest.raises(RuntimeError, match="leaked"):
        index_amplitudes(leaked, oracle)


def _random_oracle(rng):
    kind = rng.choice(["single", "single", "single", "two", "cond"])
    if kind == "single":
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, 4))
        vt = ValueTable(t, rng.integers(0, 1 << t, size=1 << n))
        op = str(rng.choice(["gt", "lt", "eq"]))
        return single_list_oracle(vt, int(rng.integers(0, 1 << t)), op)
    if kind == "two":
        n = int(rng.integers(1, 3))
        t = int(rng.integers(1, 3))
        r = ValueTable(t, rng.integers(0, 1 << t, size=1 << n))
        s = ValueTable(t, rng.integers(0, 1 << t, size=1 << n))
        return two_list_oracle(
            r, s, int(rng.integers(0, 1 << t)), int(rng.integers(0, 1 << t))
        )
    n, t = 2, int(rng.integers(1, 3))
    a = ValueTable(t, rng.integers(0, 1 << t, size=1 << n))
    b = ValueTable(t, rng.integers(0, 1 << t, size=1 << n))
    join = all_of if rng.random() < 0.5 else any_of
    return condition_oracle(
        join(greater_than(a, int(rng.integers(0, 1 << t))),
             less_than(b, int(rng.integers(0, 1 << t))))
    )


@pytest.mark.parametrize("seed", range(25))
def test_oracle_predicate_equivalence_random(seed):
    # the dense circuit marks exactly the classical predicate and restores
    # every working register (index_amplitudes raises on any leakage)
    oracle = _random_oracle(np.random.default_rng(seed))
    assert_marks_match_predicate(oracle)
    # a direct marking oracle, compiled from its 1-bit indicator table, marks
    # exactly its set, before and after doubling
    rng = np.random.default_rng([seed, 1])
    n = int(rng.integers(1, 9))
    marked = np.flatnonzero(rng.random(1 << n) < rng.random()).tolist()
    direct = direct_marking_oracle(n, marked)
    want = np.isin(np.arange(1 << n), marked)
    assert np.array_equal(direct.mask, want)
    assert np.array_equal(direct.doubled().mask, np.isin(np.arange(2 << n), marked))
    assert np.allclose(oracle_signs(direct), np.where(want, -1.0, 1.0), rtol=0, atol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_backend_equivalence_random(seed):
    rng = np.random.default_rng(1000 + seed)
    oracle = _random_oracle(rng)
    dense = prepared(oracle)
    eff = effective_state_new(oracle.index_bits)
    op = grover_operator(oracle)
    for _ in range(3):
        dense = apply(dense, op)
        eff = effective_grover_step(eff, oracle.marked_set)
        assert np.allclose(index_amplitudes(dense, oracle), eff.amplitudes, atol=1e-9)


def test_doubling_pads_with_non_solutions():
    vt = ValueTable(3, (1, 5, 3, 7))
    oracle = single_list_oracle(vt, 3)
    doubled = oracle.doubled()
    assert doubled.index_size == 8
    assert doubled.marked_set == oracle.marked_set
    lt = single_list_oracle(vt, 4, "lt").doubled()
    assert lt.marked_set == frozenset({0, 2})
    two = two_list_oracle(vt, ValueTable(3, (2, 2, 6, 6)), 2, 4).doubled()
    assert two.marked_set == frozenset({1})
    assert two.num_qubits == 2 * 3 + 4 * 3 + 3


def test_compiled_threshold_oracles_are_pinned():
    # gate and qubit counts at n=3, t=7; they do not depend on the table values
    r = ValueTable(7, (3, 90, 12, 64, 127, 0, 45, 100))
    s = ValueTable(7, (20, 5, 110, 64, 33, 90, 1, 77))
    single = single_list_oracle(r, 50)
    assert (len(single.circuit), single.num_qubits) == (137, 18)
    two = two_list_oracle(r, s, 20, 80)
    assert (len(two.circuit), two.num_qubits) == (351, 37)
    names = (
        "index", "index_copy",
        "return_estimate", "return_threshold", "return_flag",
        "risk_estimate", "risk_threshold", "risk_flag",
        "oracle",
    )
    assert two.layout.names == names
    assert tuple(two.layout.to_dict()["registers"]) == names


# ---------------------------------------------------------------------------
# Property: random condition trees
# ---------------------------------------------------------------------------

WORKSPACE_CAP = 14


@st.composite
def condition_trees(draw):
    """AND/OR trees of gt/lt/eq atoms over one or two tables, with repeated
    atoms and subtrees shared at any depth (an internal node may reuse the
    ones built before it), compiling to at most WORKSPACE_CAP qubits."""
    n = draw(st.integers(1, 2))
    t = draw(st.integers(1, 2))
    value = st.integers(0, (1 << t) - 1)
    tables = [
        ValueTable(t, draw(st.lists(value, min_size=1 << n, max_size=1 << n)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    # room for the index, the oracle qubit and two internal-node ancillas
    max_atoms = (WORKSPACE_CAP - n - 3) // (2 * t + 1)
    make = st.sampled_from([greater_than, less_than, equals])
    atoms = [
        draw(make)(draw(st.sampled_from(tables)), draw(value))
        for _ in range(draw(st.integers(1, max_atoms)))
    ]
    join = st.sampled_from([all_of, any_of])
    inner = []
    for _ in range(draw(st.integers(0, 2))):
        children = draw(st.lists(st.sampled_from(atoms + inner), min_size=2, max_size=3))
        inner.append(draw(join)(*children))
    return draw(join)(*draw(st.lists(st.sampled_from(atoms + inner), min_size=2, max_size=3)))


def holds(cond, k):
    """Plain-Python truth of a condition at index k."""
    if isinstance(cond, AllOf):
        return all(holds(c, k) for c in cond.children)
    if isinstance(cond, AnyOf):
        return any(holds(c, k) for c in cond.children)
    compare = {"gt": operator.gt, "lt": operator.lt, "eq": operator.eq}[cond.op]
    return compare(cond.table[k], cond.threshold)


@settings(max_examples=200, deadline=None)
@given(condition_trees())
def test_condition_tree_oracle_property(cond):
    oracle = condition_oracle(cond)
    assert oracle.num_qubits <= WORKSPACE_CAP
    assert oracle.marked_set == {k for k in range(oracle.index_size) if holds(cond, k)}
    # one dense Grover step, read through the explicit reference ancilla
    # state, equals one effective step
    dense = apply(prepared(oracle), grover_operator(oracle))
    eff = effective_grover_step(effective_state_new(oracle.index_bits), oracle.marked_set)
    assert np.max(np.abs(index_amplitudes(dense, oracle) - eff.amplitudes)) < 1e-9
