import math

import numpy as np
import pytest

from qslice import (
    CapacityError,
    Circuit,
    apply,
    controlled,
    format_circuit,
    h,
    inverse_qft_circuit,
    measure_subregister,
    new_basis_state,
    phase,
    phase_estimation_circuit,
    qft_circuit,
    qpe_register_size,
    remap,
    subregister_distribution,
    unitary,
    x,
    z,
)
from qslice import sim
from qslice.sim import Gate, StateVector

from conftest import run_basis


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def test_basis_state_examples():
    s = new_basis_state(1, 0)
    assert np.allclose(s.amplitudes, [1, 0])
    s = new_basis_state(2, 3)
    assert np.allclose(s.amplitudes, [0, 0, 0, 1])


def test_basis_state_cap_and_range():
    with pytest.raises(CapacityError):
        new_basis_state(27, 0)
    with pytest.raises(ValueError):
        new_basis_state(2, 4)
    with pytest.raises(ValueError):
        new_basis_state(0, 0)


# ---------------------------------------------------------------------------
# Gate records
# ---------------------------------------------------------------------------


def test_gate_validation():
    with pytest.raises(ValueError):
        x(1, {1})  # control equals target
    with pytest.raises(ValueError):
        unitary(0, [[1, 0], [0, 2]])  # not unitary
    with pytest.raises(ValueError):
        phase((0, 1), [0.0, 0.5])  # table too short
    with pytest.raises(ValueError):
        Gate("PHASE", (0,), (), turns=(0.0, 1.5))
    with pytest.raises(ValueError):
        Circuit(1, (x(3),))  # gate beyond circuit width


def test_apply_examples():
    out = apply(new_basis_state(1, 0), Circuit(1, (h(0),)))
    assert np.allclose(out.amplitudes, [1 / math.sqrt(2)] * 2)
    assert run_basis(Circuit(2, (x(0),)), 0b00) == 0b01  # qubit 0 least significant


def test_apply_qubit_mismatch():
    with pytest.raises(ValueError):
        apply(new_basis_state(2, 0), Circuit(3, (x(0),)))


def _random_circuit(rng, num_qubits, num_gates):
    gates = []
    for _ in range(num_gates):
        kind = rng.integers(0, 4)
        qubits = rng.permutation(num_qubits)
        target = int(qubits[0])
        n_controls = int(rng.integers(0, min(3, num_qubits)))
        controls = {int(q) for q in qubits[1 : 1 + n_controls]}
        if kind == 0:
            gates.append(x(target, controls))
        elif kind == 1:
            gates.append(h(target, controls))
        elif kind == 2:
            mat, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            gates.append(unitary(target, mat, controls))
        else:
            width = int(rng.integers(1, 3))
            reg = [int(q) for q in qubits[:width]]
            controls = {int(q) for q in qubits[width : width + n_controls]}
            gates.append(phase(reg, rng.random(1 << width), controls))
    return Circuit(num_qubits, tuple(gates))


@pytest.mark.parametrize("seed", range(8))
def test_reversibility_and_unitarity_random_circuits(seed):
    rng = np.random.default_rng(seed)
    nq = int(rng.integers(2, 9))
    circ = _random_circuit(rng, nq, int(rng.integers(5, 51)))
    state = new_basis_state(nq, int(rng.integers(0, 1 << nq)))
    mixed = apply(state, Circuit(nq, tuple(h(q) for q in range(min(3, nq)))))
    forward = apply(mixed, circ)
    assert abs(forward.norm() - 1.0) < 1e-9
    back = apply(forward, circ.inverse())
    assert np.allclose(back.amplitudes, mixed.amplitudes, atol=1e-9)


@pytest.mark.parametrize("drift, raises", [(2e-9, True), (5e-10, False)])
def test_apply_norm_check_tolerance(drift, raises):
    state = StateVector(3, np.eye(8, dtype=complex)[5] * (1.0 + drift))
    circ = Circuit(3, (x(0), h(1)))
    if raises:
        with pytest.raises(RuntimeError, match="norm drifted"):
            apply(state, circ)
    else:
        assert abs(apply(state, circ).norm() - (1.0 + drift)) < 1e-12


# ---------------------------------------------------------------------------
# Compiled circuits against the gate-by-gate reference kernel
# ---------------------------------------------------------------------------


def _reference_apply(state, circuit):
    """Every gate in order through the reference kernel, as apply did before fusion."""
    amps = state.amplitudes.copy()
    tensor = amps.reshape((2,) * state.num_qubits)
    for gate in circuit.gates:
        sim._apply_gate(tensor, state.num_qubits, gate)
    return amps


def _mixed_circuit(rng, num_qubits, num_gates):
    """X with 0-3 controls, H with and without controls, UNITARY and PHASE on 0-3 targets."""
    gates = []
    for _ in range(num_gates):
        qubits = [int(q) for q in rng.permutation(num_qubits)]
        kind = int(rng.integers(0, 5))
        if kind == 4:
            width = int(rng.integers(0, min(3, num_qubits) + 1))
            n_controls = int(rng.integers(0, min(3, num_qubits - width) + 1))
            targets = qubits[:width]
            controls = qubits[width : width + n_controls]
            gates.append(phase(targets, rng.random(1 << width), controls))
            continue
        controls = qubits[1 : 1 + int(rng.integers(0, min(3, num_qubits - 1) + 1))]
        if kind == 0:
            gates.append(x(qubits[0], controls))
        elif kind == 1:
            gates.append(h(qubits[0], controls))
        elif kind == 2:
            gates.append(h(qubits[0]))
        else:
            mat, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            gates.append(unitary(qubits[0], mat, controls))
    if num_qubits > 1:
        # a global phase controlled on every qubit, and a controlled H whose
        # controls reach the far end of the register
        gates.insert(num_gates // 2, phase((), (float(rng.random()),), range(num_qubits)))
        gates.append(h(0, {num_qubits - 1}))
    return Circuit(num_qubits, tuple(gates))


@pytest.mark.parametrize("num_qubits", range(1, 13))
def test_compiled_apply_matches_gate_loop(num_qubits):
    rng = np.random.default_rng(100 + num_qubits)
    for _ in range(3):
        circ = _mixed_circuit(rng, num_qubits, int(rng.integers(1, 60)))
        state = _random_state(rng, num_qubits)
        got = apply(state, circ).amplitudes
        assert np.max(np.abs(got - _reference_apply(state, circ))) < 1e-12


def test_compiled_runs_wider_than_a_block():
    # an H layer and X/PHASE runs over 10 qubits: several stages of each kind
    n = 10
    layer = [h(q) for q in range(n)]
    chain = [x(q + 1, {q}) for q in range(n - 1)] + [phase((0, n - 1), (0.0, 0.1, 0.2, 0.3))]
    circ = Circuit(n, tuple(layer + chain + layer + chain[::-1]))
    kinds = [type(stage) for stage in circ.stages]
    assert kinds.count(sim._Block) >= 2 and sim._Monomial in kinds
    state = _random_state(np.random.default_rng(8), n)
    assert np.max(np.abs(apply(state, circ).amplitudes - _reference_apply(state, circ))) < 1e-12


def test_lone_wide_controlled_h_runs_alone():
    circ = Circuit(12, (h(0, {11}),))
    (stage,) = circ.stages
    assert isinstance(stage, sim._Single)
    state = _random_state(np.random.default_rng(9), 12)
    assert np.array_equal(apply(state, circ).amplitudes, _reference_apply(state, circ))


def test_circuit_compiles_once(monkeypatch):
    calls = []
    real = sim._compile
    monkeypatch.setattr(sim, "_compile", lambda circ: calls.append(circ) or real(circ))
    circ = qft_circuit(range(4), 6)
    state = new_basis_state(6, 3)
    for _ in range(3):
        state = apply(state, circ)
    assert len(calls) == 1
    assert circ.stages is circ.stages


@pytest.mark.parametrize("num_qubits", [3, 8, 12, 14])
def test_stage_tables_fit_their_span(num_qubits):
    rng = np.random.default_rng(num_qubits)
    circ = _mixed_circuit(rng, num_qubits, 80)
    spans = []
    for stage in circ.stages:
        if isinstance(stage, sim._Single):
            continue
        size = stage.shape[1]  # 2^span
        spans.append(size)
        assert stage.shape[0] * size * stage.shape[2] == 1 << num_qubits
        if isinstance(stage, sim._Block):
            assert stage.matrix.shape == (size, size)
            assert size <= 1 << sim._BLOCK_SPAN
        else:
            for table in (stage.gather, stage.diagonal):
                assert table is None or table.size == size
            assert size <= 1 << sim._MONOMIAL_SPAN
    assert spans


def test_sector_steps_only_the_qubits_a_stage_moves():
    # qubits 0-3 in a random state; 4-12 held at one value, with 4, 5 and 7 set
    n, held = 13, 0b1011 << 4
    rng = np.random.default_rng(12)
    work = _random_state(rng, 4).amplitudes
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[held : held + 16] = work
    state = StateVector(n, amps)
    gates = list(remap(_mixed_circuit(rng, 4, 30), {}, n).gates)
    # one monomial flips 4 and 5 and restores them; 6 is flipped for good
    gates += [x(5, {0}), x(4), phase((4, 5), (0.0, 0.1, 0.2, 0.3)), x(4), x(5, {0})]
    gates += [h(9), h(0, {12}), x(6, {1})]
    circ = Circuit(n, tuple(gates))
    sector = sim.Sector(circ, state)
    assert sector.kept == (0, 1, 2, 3, 6, 9, 12)
    assert sector.gates == circ.gates
    got = apply(sector.restrict(state), sector).amplitudes
    full = apply(state, circ)
    want = sector.restrict(full).amplitudes
    assert np.max(np.abs(got - want)) < 1e-12
    assert abs(np.linalg.norm(want) - 1.0) < 1e-12  # nothing left the sector


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def test_measure_basis_state():
    state = new_basis_state(2, 2)
    outcome, collapsed = measure_subregister(state, [0, 1], np.random.default_rng(0))
    assert outcome == 2
    assert np.allclose(collapsed.amplitudes, state.amplitudes)


def test_measure_bell_collapse():
    bell = Circuit(2, (h(0), x(1, {0})))
    state = apply(new_basis_state(2, 0), bell)
    outcome, collapsed = measure_subregister(state, [0], np.random.default_rng(3))
    assert outcome in (0, 1)
    expected = new_basis_state(2, 3 if outcome else 0)
    assert np.allclose(collapsed.amplitudes, expected.amplitudes, atol=1e-9)


def test_measure_determinism():
    state = apply(new_basis_state(3, 0), Circuit(3, (h(0), h(1), h(2))))
    seq1 = [measure_subregister(state, [0, 1, 2], np.random.default_rng(11))[0] for _ in range(5)]
    seq2 = [measure_subregister(state, [0, 1, 2], np.random.default_rng(11))[0] for _ in range(5)]
    assert seq1 == seq2


def test_subregister_distributions():
    state = apply(new_basis_state(2, 0), Circuit(2, (h(0),)))
    assert np.allclose(subregister_distribution(state, [0]), [0.5, 0.5], atol=1e-9)
    assert np.allclose(subregister_distribution(new_basis_state(3, 5), [0, 1, 2]),
                       np.eye(8)[5], atol=1e-12)
    uniform = apply(new_basis_state(3, 0), Circuit(3, (h(0), h(1), h(2))))
    assert np.allclose(subregister_distribution(uniform, [0, 1, 2]), np.full(8, 0.125), atol=1e-9)


def _bincount_marginal(state, qubits):
    """The marginal as built before: an index per amplitude and a weighted bincount."""
    probs = state.probabilities()
    idx = np.arange(probs.size, dtype=np.int64)
    sub = np.zeros(probs.size, dtype=np.int64)
    for j, q in enumerate(qubits):
        sub |= ((idx >> q) & 1) << j
    return np.bincount(sub, weights=probs, minlength=1 << len(qubits))


@pytest.mark.parametrize(
    "qubits",
    [[7, 2, 4], [1, 5, 6, 0], list(reversed(range(9))), [3], [8], [0], list(range(9)),
     [0, 1, 2], [6, 7, 8], [2, 3, 4, 5]],
)
def test_subregister_distribution_matches_bincount(qubits):
    rng = np.random.default_rng(len(qubits) + sum(qubits))
    state = _random_state(rng, 9)
    got = subregister_distribution(state, qubits)
    assert got.shape == (1 << len(qubits),)
    assert np.max(np.abs(got - _bincount_marginal(state, qubits))) < 1e-15


def test_register_validation():
    state = new_basis_state(2, 0)
    with pytest.raises(ValueError):
        subregister_distribution(state, [])
    with pytest.raises(ValueError):
        subregister_distribution(state, [0, 0])
    with pytest.raises(ValueError):
        subregister_distribution(state, [2])


# ---------------------------------------------------------------------------
# QFT and phase estimation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_qft_matches_dft_matrix(t):
    size = 1 << t
    dft = np.array(
        [[np.exp(2j * np.pi * j * k / size) / math.sqrt(size) for k in range(size)]
         for j in range(size)]
    )
    circ = qft_circuit(range(t))
    for k in range(size):
        out = apply(new_basis_state(t, k), circ)
        assert np.allclose(out.amplitudes, dft[:, k], atol=1e-9)


def test_inverse_qft_roundtrip_and_t1():
    circ = qft_circuit(range(3)).then(inverse_qft_circuit(range(3)))
    for k in range(8):
        assert run_basis(circ, k) == k
    single = inverse_qft_circuit([0])
    assert len(single.gates) == 1 and single.gates[0].kind == "H"


def test_qpe_zero_phase():
    circ = phase_estimation_circuit(3, [0.0, 0.0], [0])
    state = apply(new_basis_state(4, 1), circ)
    dist = subregister_distribution(state, [1, 2, 3])
    assert abs(dist[0] - 1.0) < 1e-9


def test_qpe_exact_three_eighths():
    circ = phase_estimation_circuit(3, [0.0, 3 / 8], [0])
    state = apply(new_basis_state(4, 1), circ)
    dist = subregister_distribution(state, [1, 2, 3])
    assert abs(dist[3] - 1.0) < 1e-9


def test_qpe_one_third_distribution():
    # frozen from the closed-form kernel |sin(2^t pi d)/2^t sin(pi d)|^2
    circ = phase_estimation_circuit(3, [0.0, 1 / 3], [0])
    state = apply(new_basis_state(4, 1), circ)
    dist = subregister_distribution(state, [1, 2, 3])
    assert int(np.argmax(dist)) == 3
    assert abs(dist[3] - 0.6878376625896215) < 1e-9
    assert abs(dist[2] - 0.17493988160479135) < 1e-9
    assert dist[2] + dist[3] >= 8 / math.pi**2


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_qpe_exact_for_every_t_bit_phase(t):
    for b in range(1 << t):
        circ = phase_estimation_circuit(t, [0.0, b / (1 << t)], [0])
        state = apply(new_basis_state(t + 1, 1), circ)
        dist = subregister_distribution(state, list(range(1, t + 1)))
        assert abs(dist[b] - 1.0) < 1e-9


@pytest.mark.parametrize("t", [3, 4, 5])
def test_qpe_two_nearest_mass(t):
    rng = np.random.default_rng(17 * t)
    size = 1 << t
    for _ in range(17):
        phi = float(rng.random())
        circ = phase_estimation_circuit(t, [0.0, phi], [0])
        state = apply(new_basis_state(t + 1, 1), circ)
        dist = subregister_distribution(state, list(range(1, t + 1)))
        below = math.floor(phi * size) % size
        above = (below + 1) % size
        assert dist[below] + dist[above] >= 8 / math.pi**2 - 1e-9


def test_qpe_table_length_mismatch():
    with pytest.raises(ValueError):
        phase_estimation_circuit(2, [0.0, 0.1, 0.2], [0])


def test_qpe_register_size():
    assert qpe_register_size(3, 0.25) == 5
    assert qpe_register_size(4, 1 / 6) == 7
    assert qpe_register_size(1, 0.5) == 3
    with pytest.raises(ValueError):
        qpe_register_size(0, 0.5)
    with pytest.raises(ValueError):
        qpe_register_size(3, 0.0)


# ---------------------------------------------------------------------------
# Controlled circuits and remapping
# ---------------------------------------------------------------------------


def test_controlled_cx_truth_table():
    cx = controlled(Circuit(1, (x(0),)), {1})
    for i in range(4):
        want = i ^ 1 if i & 2 else i
        assert run_basis(cx, i) == want


def test_controlled_zero_control_is_identity():
    rng = np.random.default_rng(0)
    inner = _random_circuit(rng, 2, 10)
    lifted = controlled(inner, {2})
    state = apply(new_basis_state(3, 0), Circuit(3, (h(0), h(1))))
    assert np.allclose(apply(state, lifted).amplitudes, state.amplitudes, atol=1e-9)


def test_controlled_toffoli_truth_table():
    ccx = controlled(Circuit(1, (x(0),)), {1, 2})
    for i in range(8):
        want = i ^ 1 if (i & 2 and i & 4) else i
        assert run_basis(ccx, i) == want


def _random_state(rng, num_qubits):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def test_global_phase_controlled_on_every_qubit():
    # controls covering every qubit leave a 0-d view of the state to scale
    rng = np.random.default_rng(5)
    cases = (
        (controlled(Circuit(1, (phase((), (0.5,)),)), {0}), Circuit(1, (z(0),))),
        (Circuit(2, (phase((), (0.5,), controls={0, 1}),)), Circuit(2, (z(1, {0}),))),
    )
    for got, want in cases:
        n = got.num_qubits
        plus = apply(new_basis_state(n, 0), Circuit(n, tuple(h(q) for q in range(n))))
        for state in (plus, _random_state(rng, n)):
            assert np.allclose(
                apply(state, got).amplitudes, apply(state, want).amplitudes, atol=1e-12
            )


def test_controlled_overlap_rejected():
    with pytest.raises(ValueError):
        controlled(Circuit(2, (x(0, {1}),)), {1})


def test_remap():
    circ = Circuit(2, (x(1, {0}),))
    moved = remap(circ, {0: 2, 1: 0}, 3)
    assert run_basis(moved, 0b100) == 0b101


def test_format_circuit_golden():
    circ = Circuit(3, (h(0), x(2, {0, 1}), phase((1,), (0.0, 0.5))))
    assert format_circuit(circ) == (
        "H controls=[] targets=[0]\n"
        "X controls=[0, 1] targets=[2]\n"
        "PHASE controls=[] targets=[1]"
    )
