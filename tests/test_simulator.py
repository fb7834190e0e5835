import itertools
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from isingperm import (
    DimensionTooLargeError,
    InvalidInputError,
    OverlapResult,
    ProtocolConfig,
    QuantumCircuit,
    ancilla_probability_zero,
    build_hadamard_test,
    generate_terms,
    hoeffding_shots,
    overlap_exact,
    overlap_shots,
    permanent_ryser,
    richardson_extrapolate,
    select_dt,
    simulate_statevector,
)
from isingperm import matrices, simulator


def dense_unitary(circuit):
    # oracle: prepare each basis state with X gates, then run the circuit
    dim = 2**circuit.num_qubits
    cols = []
    for k in range(dim):
        prep = QuantumCircuit(circuit.num_qubits)
        for q in range(circuit.num_qubits):
            if (k >> q) & 1:
                prep.x(q)
        for g in circuit.gates:
            method = getattr(prep, g.name.lower())
            if g.theta is None:
                method(*g.qubits)
            else:
                method(*g.qubits, g.theta)
        cols.append(simulate_statevector(prep))
    return np.stack(cols, axis=1)


def kron_chain(num_qubits, ops):
    # little-endian: qubit 0 is the least-significant factor
    full = np.eye(1)
    for q in range(num_qubits):
        full = np.kron(ops.get(q, np.eye(2)), full)
    return full


H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
Z = np.diag([1.0, -1.0]).astype(np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
P0 = np.diag([1.0, 0.0]).astype(np.complex128)
P1 = np.diag([0.0, 1.0]).astype(np.complex128)
SINGLE = {"H": H, "SDG": np.diag([1.0, -1.0j]), "X": X}


def rz_matrix(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def kron_gate(num_qubits, gate):
    # oracle: one gate as a sum of np.kron products, controlled gates as
    # |0><0|_c (x) I + |1><1|_c (x) G; never calls the simulator
    q, theta = gate.qubits, gate.theta
    if gate.name in SINGLE:
        return kron_chain(num_qubits, {q[0]: SINGLE[gate.name]})
    if gate.name == "RZ":
        return kron_chain(num_qubits, {q[0]: rz_matrix(theta)})
    off = kron_chain(num_qubits, {q[0]: P0})
    if gate.name == "CNOT":
        return off + kron_chain(num_qubits, {q[0]: P1, q[1]: X})
    assert gate.name == "CRZZ"
    return (off + np.cos(theta / 2) * kron_chain(num_qubits, {q[0]: P1})
            - 1j * np.sin(theta / 2) * kron_chain(num_qubits, {q[0]: P1, q[1]: Z, q[2]: Z}))


def kron_unitary(circuit):
    u = np.eye(2**circuit.num_qubits, dtype=np.complex128)
    for g in circuit.gates:
        u = kron_gate(circuit.num_qubits, g) @ u
    return u


GATE_ARITY = {"h": 1, "sdg": 1, "x": 1, "rz": 1, "cnot": 2, "crzz": 3}


def random_circuit(rng, num_qubits, length):
    circ = QuantumCircuit(num_qubits)
    names = [name for name, k in GATE_ARITY.items() if k <= num_qubits]
    for _ in range(length):
        name = names[rng.integers(len(names))]
        qubits = [int(q) for q in rng.permutation(num_qubits)[:GATE_ARITY[name]]]
        theta = [rng.uniform(-4.0, 4.0)] if name in ("rz", "crzz") else []
        getattr(circ, name)(*qubits, *theta)
    return circ


def test_single_qubit_gates():
    circ = QuantumCircuit(1)
    circ.h(0)
    assert np.allclose(dense_unitary(circ), H)
    circ = QuantumCircuit(1)
    circ.sdg(0)
    assert np.allclose(dense_unitary(circ), np.diag([1.0, -1.0j]))
    circ = QuantumCircuit(1)
    circ.x(0)
    assert np.allclose(dense_unitary(circ), X)


def test_rz_phase_convention():
    theta = 0.731
    circ = QuantumCircuit(1)
    circ.rz(0, theta)
    expected = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    assert np.allclose(dense_unitary(circ), expected)


def test_cnot_both_orientations():
    circ = QuantumCircuit(2)
    circ.cnot(0, 1)
    expected = np.eye(4, dtype=np.complex128)[[0, 3, 2, 1]]
    assert np.allclose(dense_unitary(circ), expected)
    circ = QuantumCircuit(2)
    circ.cnot(1, 0)
    expected = np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]
    assert np.allclose(dense_unitary(circ), expected)


@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_simulator_matches_kron_oracle_on_random_circuits(num_qubits):
    rng = np.random.default_rng(40 + num_qubits)
    seen = set()
    for _ in range(3):
        circ = random_circuit(rng, num_qubits, 30)
        seen |= {g.name.lower() for g in circ.gates}
        np.testing.assert_allclose(dense_unitary(circ), kron_unitary(circ), rtol=0, atol=1e-12)
    assert seen == {name for name, k in GATE_ARITY.items() if k <= num_qubits}


def test_controlled_gates_match_kron_oracle_in_every_orientation():
    # CNOT with the control above and below the target, CRZZ with the
    # control above, between and below its targets, on adjacent and gapped qubits
    for num_qubits, qubits in ((3, (0, 1, 2)), (5, (0, 2, 4))):
        for c, t1, t2 in itertools.permutations(qubits):
            circ = QuantumCircuit(num_qubits)
            circ.cnot(c, t1)
            circ.crzz(c, t1, t2, -1.371)
            for g in circ.gates:
                one = QuantumCircuit(num_qubits, [g])
                np.testing.assert_allclose(dense_unitary(one), kron_unitary(one), rtol=0, atol=1e-12)


@pytest.mark.parametrize("num_qubits", range(3, 7))
def test_deferred_control_phase_flushed_before_mixing_its_control(num_qubits):
    # CRZZ leaves e^(-i theta/2) on its control = 1 half for later; H or X on
    # the control, or a CNOT onto it, must see that phase first
    rng = np.random.default_rng(120 + num_qubits)
    for mixer in ("h", "x", "cnot"):
        c, *rest = (int(q) for q in rng.permutation(num_qubits))
        circ = random_circuit(rng, num_qubits, 4)
        circ.crzz(c, rest[0], rest[1], rng.uniform(-4.0, 4.0))
        # diagonal gates between, then the gate that mixes the control's halves
        circ.crzz(rest[-1], c, rest[0], rng.uniform(-4.0, 4.0))
        circ.rz(c, rng.uniform(-4.0, 4.0))
        if mixer == "cnot":
            circ.cnot(rest[0], c)
        else:
            getattr(circ, mixer)(c)
        circ.gates += random_circuit(rng, num_qubits, 4).gates
        np.testing.assert_allclose(dense_unitary(circ), kron_unitary(circ), rtol=0, atol=1e-12)


@pytest.mark.parametrize("num_qubits", range(3, 7))
def test_deferred_global_phase_of_rz_and_rzz_runs(num_qubits):
    # RZ, the uncontrolled phase gate, leaves a global phase, applied once at
    # the end; runs of RZ and of RZZ built as CNOT RZ CNOT (the CNOTs must not
    # flush it), alone, then with H and X on their qubits after the run
    rng = np.random.default_rng(130 + num_qubits)
    for tail in (False, True):
        circ = QuantumCircuit(num_qubits)
        for _ in range(12):
            q = [int(v) for v in rng.permutation(num_qubits)[:2]]
            if rng.integers(2):
                circ.rz(q[0], rng.uniform(-4.0, 4.0))
            else:
                circ.cnot(q[0], q[1])
                circ.rz(q[1], rng.uniform(-4.0, 4.0))
                circ.cnot(q[0], q[1])
        if tail:
            for q in range(num_qubits):
                circ.h(q)
                circ.x(q)
            circ.crzz(0, 1, 2, 0.9)
        np.testing.assert_allclose(dense_unitary(circ), kron_unitary(circ), rtol=0, atol=1e-12)


@pytest.mark.parametrize("synthesize", [False, True])
@pytest.mark.parametrize("n", [1, 2])
def test_sdg_hadamard_test_unitary_matches_kron_oracle(n, synthesize):
    # the Im circuit: the deferred phases of the CRZZ (or CRZ and RZ) gates
    # meet the Sdg phase on the ancilla before its closing H
    m = np.random.default_rng(140 + n).standard_normal((n, n))
    circ = build_hadamard_test(m, 0.45, measure_imag=True, synthesize=synthesize)
    np.testing.assert_allclose(dense_unitary(circ), kron_unitary(circ), rtol=0, atol=1e-12)


def assert_matches_kron_column(circ):
    # simulate_statevector starts from |0...0>: the oracle's first column
    np.testing.assert_allclose(simulate_statevector(circ), kron_unitary(circ)[:, 0],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_leading_h_run_matches_kron_oracle(num_qubits):
    rng = np.random.default_rng(70 + num_qubits)
    for _ in range(4):
        # H on a random subset of qubits in random order, then random gates
        subset = rng.permutation(num_qubits)[:rng.integers(1, num_qubits + 1)]
        circ = QuantumCircuit(num_qubits)
        for q in subset:
            circ.h(int(q))
        circ.gates += random_circuit(rng, num_qubits, 12).gates
        assert_matches_kron_column(circ)
    # H on every qubit, alone and followed by more gates
    circ = QuantumCircuit(num_qubits)
    for q in rng.permutation(num_qubits):
        circ.h(int(q))
    assert_matches_kron_column(circ)
    circ.gates += random_circuit(rng, num_qubits, 12).gates
    assert_matches_kron_column(circ)


@pytest.mark.parametrize("num_qubits", [2, 3, 5])
def test_leading_h_run_ends_at_a_repeated_h_or_another_gate(num_qubits):
    rng = np.random.default_rng(75 + num_qubits)
    # a repeated H undoes the first: the run must stop before it
    for _ in range(3):
        order = [int(q) for q in rng.permutation(num_qubits)]
        circ = QuantumCircuit(num_qubits)
        for q in order[:2] + [order[0]] + order[2:]:
            circ.h(q)
        assert_matches_kron_column(circ)
        circ.gates += random_circuit(rng, num_qubits, 8).gates
        assert_matches_kron_column(circ)
    # H after another gate, on the same and on other qubits
    for first in ("x", "sdg", "rz"):
        for _ in range(2):
            q0 = int(rng.integers(num_qubits))
            circ = QuantumCircuit(num_qubits)
            getattr(circ, first)(q0, *([0.77] if first == "rz" else []))
            for q in rng.permutation(num_qubits):
                circ.h(int(q))
            circ.gates += random_circuit(rng, num_qubits, 8).gates
            assert_matches_kron_column(circ)


@pytest.mark.parametrize("synthesize", [False, True])
@pytest.mark.parametrize("measure_imag", [False, True])
def test_hadamard_test_state_matches_kron_oracle(measure_imag, synthesize):
    # the Re circuit's run is every qubit; the Im circuit's stops at its Sdg
    rng = np.random.default_rng(78)
    circ = build_hadamard_test(rng.standard_normal((3, 3)), 0.4,
                               measure_imag=measure_imag, synthesize=synthesize)
    assert circ.num_qubits == 7
    assert_matches_kron_column(circ)


def test_leading_h_run_on_every_qubit_of_a_wide_register():
    # a run of k H gates must not need a view with more axes than numpy 1.x
    # allows (32): 20 qubits in random order give the constant 2^(-10)
    circ = QuantumCircuit(20)
    for q in np.random.default_rng(76).permutation(20):
        circ.h(int(q))
    state = simulate_statevector(circ)
    assert np.all(state == 2.0**-10)


def test_real_hadamard_test_at_n8_matches_overlap_exact():
    # the Re circuit's run covers all 17 qubits
    m = np.random.default_rng(77).standard_normal((8, 8)) * 0.1
    circ = build_hadamard_test(m, 0.3, synthesize=False)
    assert circ.num_qubits == 17
    p0 = ancilla_probability_zero(circ, ancilla=16)
    assert 2.0 * p0 - 1.0 == pytest.approx(overlap_exact(m, 0.3).real_part, abs=1e-12)


def test_simulate_statevector_peak_memory():
    # gates act in place on views of the state: the largest temporary is
    # half the state, so the traced peak is about 1.5x its bytes plus numpy's
    # fixed iteration buffers (2.3x in all at 15 qubits)
    rng = np.random.default_rng(61)
    circ = build_hadamard_test(rng.standard_normal((7, 7)), 0.3)
    assert circ.num_qubits == 15
    circ.gates += random_circuit(rng, 15, 40).gates
    tracemalloc.start()
    state = simulate_statevector(circ)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= 2.5 * state.nbytes


def protocol_terms(n, field_):
    rng = np.random.default_rng(80 + n)
    a = rng.standard_normal((n, n)) * 0.1
    if field_ == "complex":
        a = a + 1j * rng.standard_normal((n, n)) * 0.1
    cfg = ProtocolConfig(dt=select_dt(a).chosen)
    terms = generate_terms(a, cfg)
    assert terms
    return terms, cfg.dt / 2.0


@pytest.mark.parametrize("field_, n, synthesize", [
    pytest.param(field_, n, synthesize, id=f"{field_}-{n}" + ("" if synthesize else "-native"))
    for field_ in ("real", "complex") for n in (5, 6) for synthesize in (True, False)])
def test_hadamard_test_matches_overlap_exact_on_protocol_terms(n, field_, synthesize):
    # the circuit's ancilla gives 2 p0 - 1 = Re <phi|U|phi> for every term the
    # protocol evaluates, and 0 = Im through the Sdg variant
    terms, dt_half = protocol_terms(n, field_)
    for term in terms:
        want = overlap_exact(term.matrix, dt_half)
        for imag, part in ((False, want.real_part), (True, want.imag_part)):
            circ = build_hadamard_test(term.matrix, dt_half, measure_imag=imag,
                                       synthesize=synthesize)
            p0 = ancilla_probability_zero(circ, ancilla=2 * n)
            assert 2.0 * p0 - 1.0 == pytest.approx(part, abs=1e-12)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("field_", ["real", "complex"])
def test_overlap_shots_draws_from_synthesized_circuit_probability(n, field_):
    # shots mode simulates the native CRZZ circuit; its counts must be the
    # ones a binomial draw from the CNOT-synthesized circuit's p0 gives
    terms, dt_half = protocol_terms(n, field_)
    shots = hoeffding_shots(0.05, 0.05)
    for term in terms:
        for imag in (False, True):
            circ = build_hadamard_test(term.matrix, dt_half, measure_imag=imag)
            p0 = ancilla_probability_zero(circ, ancilla=2 * n)
            for seed in range(10):
                n0 = np.random.default_rng(seed).binomial(shots, p0)
                res = overlap_shots(term.matrix, dt_half, shots, seed, measure_imag=imag)
                got = res.imag_part if imag else res.real_part
                assert got == (2 * n0 - shots) / shots


SHOT_COUNTS = json.loads((pathlib.Path(__file__).parent / "shot_counts.json").read_text())


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("field_", ["real", "complex"])
def test_overlap_shots_reproduces_pinned_counts(field_, n, part):
    # shot_counts.json holds the ancilla-0 counts overlap_shots drew for every
    # protocol term at seeds 0-4, recorded before the simulator deferred the
    # phase gates' common phase; the draws must stay the same
    terms, dt_half = protocol_terms(n, field_)
    shots = hoeffding_shots(0.05, 0.05)
    pinned = SHOT_COUNTS[f"{field_}-{n}-{part}"]
    assert len(pinned) == len(terms)
    for term, counts in zip(terms, pinned):
        for seed, n0 in enumerate(counts):
            res = overlap_shots(term.matrix, dt_half, shots, seed, measure_imag=part == "im")
            got = res.imag_part if part == "im" else res.real_part
            assert got == (2 * n0 - shots) / shots


def test_native_hadamard_test_peak_memory():
    # H and the phase gates act in place with no temporary, so a native
    # Hadamard test (H, SDG, CRZZ only) peaks at about the state itself
    # (1.05x at 19 qubits: numpy's fixed iteration buffers)
    rng = np.random.default_rng(62)
    circ = build_hadamard_test(rng.standard_normal((9, 9)), 0.3, measure_imag=True,
                               synthesize=False)
    assert circ.num_qubits == 19
    tracemalloc.start()
    state = simulate_statevector(circ)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= 1.15 * state.nbytes


def test_crzz_decomposition_matches_native():
    theta = 0.917
    native = QuantumCircuit(3)
    native.crzz(0, 1, 2, theta)
    manual = QuantumCircuit(3)
    manual.cnot(1, 2)
    manual.rz(2, theta / 2)
    manual.cnot(0, 2)
    manual.rz(2, -theta / 2)
    manual.cnot(0, 2)
    manual.cnot(1, 2)
    assert np.allclose(dense_unitary(native), dense_unitary(manual))


@pytest.mark.parametrize("imag", [False, True])
def test_hadamard_test_recovers_overlap(imag):
    rng = np.random.default_rng(53)
    n = 2
    m = rng.standard_normal((n, n))
    dt_half = 0.35
    exact = overlap_exact(m, dt_half)
    circ = build_hadamard_test(m, dt_half, measure_imag=imag)
    assert circ.num_qubits == 2 * n + 1
    p0 = ancilla_probability_zero(circ, ancilla=2 * n)
    got = 2.0 * p0 - 1.0
    want = exact.imag_part if imag else exact.real_part
    assert got == pytest.approx(want, abs=1e-12)


def test_hadamard_test_native_matches_synthesized():
    m = np.array([[0.3, -0.6], [0.2, 0.4]])
    synth = build_hadamard_test(m, 0.4)
    native = build_hadamard_test(m, 0.4, synthesize=False)
    assert native.cnot_count == 0
    p_synth = ancilla_probability_zero(synth, ancilla=4)
    p_native = ancilla_probability_zero(native, ancilla=4)
    assert p_synth == pytest.approx(p_native, abs=1e-13)


def test_hadamard_test_cnot_count():
    for n in (1, 2, 3):
        circ = build_hadamard_test(np.ones((n, n)), 0.5)
        assert circ.cnot_count == 4 * n * n


def test_overlap_exact_identity_matrix():
    # M = 0 gives U = I so the overlap is exactly 1
    res = overlap_exact(np.zeros((2, 2)), 0.7)
    assert res.real_part == pytest.approx(1.0, abs=1e-14)
    assert res.imag_part == pytest.approx(0.0, abs=1e-14)


def test_overlap_magnitude_bounded():
    rng = np.random.default_rng(59)
    for _ in range(10):
        m = rng.standard_normal((3, 3)) * 2.0
        res = overlap_exact(m, rng.uniform(0.1, 1.0))
        assert abs(res.value) <= 1.0 + 1e-12


def test_overlap_shots_converges_and_is_seeded():
    m = np.array([[0.4, -0.2], [0.1, 0.3]])
    exact = overlap_exact(m, 0.5)
    a = overlap_shots(m, 0.5, shots=200_000, seed=11)
    b = overlap_shots(m, 0.5, shots=200_000, seed=11)
    assert a.real_part == b.real_part
    assert a.real_part == pytest.approx(exact.real_part, abs=0.01)
    assert a.imag_part is None
    assert a.shots_used == 200_000
    im = overlap_shots(m, 0.5, shots=200_000, seed=12, measure_imag=True)
    assert im.imag_part == pytest.approx(exact.imag_part, abs=0.01)
    assert im.real_part == 0.0


def test_hoeffding_examples():
    assert hoeffding_shots(0.1, 0.05) == 738
    assert hoeffding_shots(0.5, 0.5) == 12


def test_hoeffding_epsilon_scaling():
    assert hoeffding_shots(0.05, 0.05) == 2952  # 4x the eps = 0.1 count


def test_hoeffding_validation():
    with pytest.raises(InvalidInputError):
        hoeffding_shots(0.0, 0.05)
    with pytest.raises(InvalidInputError):
        hoeffding_shots(0.1, 1.5)


def test_depth_simple():
    circ = QuantumCircuit(3)
    circ.h(0)
    circ.h(1)
    circ.cnot(0, 1)
    circ.h(2)
    assert circ.depth() == 2


def test_gate_validation():
    circ = QuantumCircuit(2)
    with pytest.raises(InvalidInputError):
        circ.cnot(0, 0)
    with pytest.raises(InvalidInputError):
        circ.h(5)


def test_overlap_result_value():
    res = OverlapResult(real_part=0.25, imag_part=-0.5, shots_used=0)
    assert res.value == 0.25 - 0.5j


def pair_sum_overlap(m, dt_half):
    # oracle: mean of exp(-i dt_half x'^T M x) over all 4^N sign-vector pairs
    n = m.shape[0]
    idx = np.arange(1 << n)
    s = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)) & 1)
    return complex(np.exp(-1j * dt_half * (s @ m @ s.T)).sum()) / 4**n


@pytest.mark.parametrize("n", range(1, 8))
def test_overlap_exact_matches_pair_sum_oracle(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(3):
        m = rng.standard_normal((n, n))
        dt_half = rng.uniform(0.05, 2.0)
        res = overlap_exact(m, dt_half)
        assert res.imag_part == 0.0
        assert abs(res.value - pair_sum_overlap(m, dt_half)) <= 1e-14


def test_overlap_exact_spans_blocks(monkeypatch):
    # 4 KiB of 112-byte rows holds 2^5 sign vectors, so N = 7 walks 4 blocks
    monkeypatch.setattr(matrices, "_BLOCK_BYTES", 1 << 12)
    blocks = []

    def counted(w, row_bytes):
        for block in matrices.sign_blocks(w, row_bytes):
            blocks.append(block)
            yield block

    monkeypatch.setattr(simulator, "sign_blocks", counted)
    rng = np.random.default_rng(79)
    m = rng.standard_normal((7, 7))
    res = overlap_exact(m, 0.6)
    assert len(blocks) >= 4
    assert abs(res.value - pair_sum_overlap(m, 0.6)) <= 1e-14


def test_overlap_exact_cap_checked_before_walk(monkeypatch):
    def no_walk(w, row_bytes):
        raise AssertionError("the sign-vector walk started above the cap")

    monkeypatch.setattr(simulator, "sign_blocks", no_walk)
    n = simulator._OVERLAP_MAX_N + 1
    m = np.zeros((n, n))
    tracemalloc.start()
    with pytest.raises(DimensionTooLargeError):
        overlap_exact(m, 0.5)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("n", [6, 7, 8])
def test_richardson_small_dt_roundoff(n):
    # Richardson-2 at a fifth of the chosen dt cancels heavily across its
    # weights; overlaps accurate to a few ulps keep the result near Ryser.
    rng = np.random.default_rng(90 + n)
    for _ in range(4):
        a = rng.standard_normal((n, n)) * 0.1
        cfg = ProtocolConfig(dt=select_dt(a).chosen / 5)
        est = richardson_extrapolate(a, cfg, 2, simulator.exact_overlap_evaluator())
        want = permanent_ryser(a).value
        assert abs(est.value - want) <= 1e-5 * abs(want)
