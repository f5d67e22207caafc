"""State primitives: construction invariants, gate application, partial
trace, fidelity and trace distance."""

import numpy as np
import pytest

from dctcsim.qsim import (
    DensityMatrix,
    Gate,
    PureState,
    apply_gate,
    fidelity,
    gate_matrix,
    is_unitary,
    kron,
    partial_trace,
    trace_distance,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def brute_force_embedding(u, wires, qubit_count):
    """Independent full-matrix embedding built entry by entry from bit
    arithmetic (no tensor reshaping)."""
    dim = 2**qubit_count
    k = len(wires)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub_in = 0
        for w in wires:
            sub_in = (sub_in << 1) | ((col >> (qubit_count - 1 - w)) & 1)
        for sub_out in range(2**k):
            row = col
            for pos, w in enumerate(wires):
                bit = (sub_out >> (k - 1 - pos)) & 1
                shift = qubit_count - 1 - w
                row = (row & ~(1 << shift)) | (bit << shift)
            full[row, col] += u[sub_out, sub_in]
    return full


# --- kron -------------------------------------------------------------------


def test_kron_identity():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basis_projectors():
    p0 = np.outer(KET0, KET0)
    p1 = np.outer(KET1, KET1)
    assert np.allclose(kron(p0, p1), np.diag([0, 1, 0, 0]))


def test_kron_hadamard_pair_on_zero():
    h = gate_matrix(Gate("H", (0,)))
    vec = kron(h, h) @ np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(vec, np.full(4, 0.5))


# --- state types -------------------------------------------------------------


def test_pure_state_norm_enforced():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))


def test_pure_state_basis_and_plus():
    assert np.allclose(PureState.basis(2, 2).amplitudes, [0, 0, 1, 0])
    assert np.allclose(PureState.plus(2).amplitudes, np.full(4, 0.5))


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.1j], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(1, np.diag([1.5, -0.5]))  # negative population
    # Hermitian, unit trace, non-negative diagonal, yet an eigenvalue of -1/4.
    u = np.array([1, 1, 0, 0]) / np.sqrt(2)
    w = np.array([1, -1, 0, 0]) / np.sqrt(2)
    with pytest.raises(ValueError):
        DensityMatrix(2, np.eye(4) / 4 - 0.5 * np.outer(u, u) + 0.5 * np.outer(w, w))


def test_states_are_immutable():
    psi = PureState.basis(1, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0
    rho = DensityMatrix.maximally_mixed(1)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 2.0


# --- apply_gate ---------------------------------------------------------------


def test_hadamard_on_zero():
    out = apply_gate(PureState.basis(1, 0), Gate("H", (0,)))
    assert np.allclose(out.amplitudes, PLUS)


def test_cnot_basis_action():
    out = apply_gate(PureState.basis(2, 2), Gate("CNOT", (0, 1)))  # |10> -> |11>
    assert np.allclose(out.amplitudes, PureState.basis(2, 3).amplitudes)


def test_ry_half_pi_on_zero():
    out = apply_gate(PureState.basis(1, 0), Gate("Ry", (0,), np.pi / 2))
    assert np.allclose(out.amplitudes, [np.cos(np.pi / 4), np.sin(np.pi / 4)])


def test_apply_gate_wire_out_of_range():
    with pytest.raises(ValueError):
        apply_gate(PureState.basis(1, 0), Gate("H", (1,)))


def test_duplicate_wires_rejected():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))


def test_rotation_requires_angle_and_others_reject_it():
    with pytest.raises(ValueError):
        Gate("Ry", (0,))
    with pytest.raises(ValueError):
        Gate("H", (0,), 0.5)


def test_gate_matrices_unitary():
    gates = [
        Gate("H", (0,)), Gate("X", (0,)), Gate("Ry", (0,), 0.37), Gate("Rz", (0,), -1.2),
        Gate("SWAP", (0, 1)), Gate("CNOT", (0, 1)), Gate("controlled-H", (0, 1)),
        Gate("controlled-Ry", (0, 1), 2.1), Gate("controlled-Rz", (0, 1), 0.77),
    ]
    for g in gates:
        assert is_unitary(gate_matrix(g))


def test_apply_gate_matches_brute_force_embedding():
    rng = np.random.default_rng(7)
    for _ in range(12):
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        vec /= np.linalg.norm(vec)
        psi = PureState(3, vec)
        rho = psi.density()
        wires = tuple(rng.choice(3, size=2, replace=False))
        gate = Gate("controlled-Ry", wires, float(rng.uniform(-np.pi, np.pi)))
        u_full = brute_force_embedding(gate_matrix(gate), gate.wires, 3)
        out_state = apply_gate(psi, gate)
        assert np.max(np.abs(out_state.amplitudes - u_full @ vec)) < 1e-12
        out_rho = apply_gate(rho, gate)
        expected = u_full @ rho.matrix @ u_full.conj().T
        assert np.max(np.abs(out_rho.matrix - expected)) < 1e-12


def test_gate_embedding_preserves_state_invariants():
    rng = np.random.default_rng(21)
    for _ in range(10):
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        vec /= np.linalg.norm(vec)
        psi = PureState(3, vec)
        gate = Gate("controlled-H", (2, 0))
        out = apply_gate(psi, gate)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12
        # DensityMatrix construction re-checks Hermiticity/trace/positivity.
        out_rho = apply_gate(psi.density(), gate)
        assert abs(np.trace(out_rho.matrix) - 1.0) < 1e-12


# --- partial trace -------------------------------------------------------------


def test_partial_trace_product_state():
    rho = PureState.basis(2, 0).density()  # |00>
    reduced = partial_trace(rho, {0})
    assert np.allclose(reduced.matrix, np.outer(KET0, KET0))


def test_partial_trace_bell_state():
    bell = PureState(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    reduced = partial_trace(bell.density(), {0})
    assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-12


def test_partial_trace_factors_products_exactly():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b /= np.linalg.norm(b)
    rho_a = np.outer(a, a.conj())
    rho_b = np.outer(b, b.conj())
    full = DensityMatrix(3, np.kron(rho_a, rho_b))
    assert np.max(np.abs(partial_trace(full, {0}).matrix - rho_a)) < 1e-12
    assert np.max(np.abs(partial_trace(full, {1, 2}).matrix - rho_b)) < 1e-12


def test_partial_trace_errors():
    rho = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError):
        partial_trace(rho, set())
    with pytest.raises(ValueError):
        partial_trace(rho, {5})


# --- fidelity / trace distance --------------------------------------------------


def test_fidelity_identical_and_orthogonal():
    zero = PureState(1, KET0)
    assert fidelity(zero, zero.density()) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(zero, PureState(1, PLUS).density()) == pytest.approx(0.5, abs=1e-15)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(PureState.basis(1, 0), DensityMatrix.maximally_mixed(2))


def test_trace_distance_basics():
    rho = DensityMatrix.maximally_mixed(2)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)
    zero = PureState(1, KET0).density()
    one = PureState(1, KET1).density()
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    plus = PureState(1, PLUS).density()
    assert trace_distance(zero, plus) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_distance(DensityMatrix.maximally_mixed(1), DensityMatrix.maximally_mixed(2))


def test_pure_state_distance_fidelity_identity():
    # T = sqrt(1 - F) for pure states.
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b /= np.linalg.norm(b)
        sa, sb = PureState(2, a), PureState(2, b)
        t = trace_distance(sa.density(), sb.density())
        f = fidelity(sa, sb.density())
        assert abs(t - np.sqrt(1 - f)) < 1e-10
