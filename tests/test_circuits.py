"""Circuit builders: code states, gate counts, block structure, and an
independent operator-definition oracle for the decoder unitary."""

import numpy as np
import pytest

from dctcsim.circuits import (
    apply_circuit,
    apply_with_cr_fixed,
    bloch_state,
    build_cloner,
    build_decoder,
    build_encoder,
    circuit_from_json,
    circuit_to_json,
    circuit_unitary,
    psi_k,
    two_qubit_gate_count,
    Circuit,
)
from dctcsim.qsim import DensityMatrix, PureState, kron, partial_trace


def ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def popcount(x):
    return bin(x).count("1")


def decoder_blocks_from_definitions(n):
    """The five decoder blocks as explicit basis-sum matrices (built without
    any gate machinery), in application order."""
    d = 2**n
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

    swap = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            swap[b * d + a, a * d + b] = 1.0

    rot = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        proj = np.zeros((d, d), dtype=complex)
        proj[j, j] = 1.0
        block = ry(-2 * np.pi * j / d)
        for _ in range(n - 1):
            block = np.kron(block, np.eye(2))
        rot += np.kron(proj, block)

    hh = np.eye(1, dtype=complex)
    for _ in range(n - 1):
        hh = np.kron(hh, h)
    fan_ctc = np.kron(np.diag([1.0, 0.0]), np.eye(2 ** (n - 1))) + np.kron(
        np.diag([0.0, 1.0]), hh
    )
    fanout = np.kron(np.eye(d), fan_ctc)

    pop_ctc = np.zeros((d, d), dtype=complex)
    for j in range(2 ** (n - 1)):
        proj = np.zeros((2 ** (n - 1), 2 ** (n - 1)), dtype=complex)
        proj[j, j] = 1.0
        pop_ctc += np.kron(ry(popcount(j) * np.pi / n), proj)
    popreg = np.kron(np.eye(d), pop_ctc)

    copy = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            copy[j * d + (i ^ j), j * d + i] = 1.0

    return swap, rot, fanout, popreg, copy


# --- code states ---------------------------------------------------------------


def test_psi_k_values():
    assert np.allclose(psi_k(2, 0).amplitudes, [1, 0])
    assert np.allclose(psi_k(2, 1).amplitudes, np.array([1, 1]) / np.sqrt(2))
    amps = psi_k(3, 3).amplitudes
    assert amps[0] == pytest.approx(0.382683, abs=1e-6)
    assert amps[1] == pytest.approx(0.923880, abs=1e-6)


def test_psi_k_range_errors():
    with pytest.raises(ValueError):
        psi_k(2, 4)
    with pytest.raises(ValueError):
        psi_k(0, 0)


def test_bloch_state_values():
    assert np.allclose(bloch_state(0.0, 1.0).amplitudes, [1, 0])
    assert np.allclose(bloch_state(np.pi / 2, 0.0).amplitudes, np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(
        bloch_state(np.pi / 2, np.pi / 2).amplitudes, np.array([1, 1j]) / np.sqrt(2)
    )


def test_bloch_state_range():
    assert np.allclose(bloch_state(np.pi, 0.0).amplitudes, [0, 1])  # probe input
    with pytest.raises(ValueError):
        bloch_state(-0.1, 0.0)
    with pytest.raises(ValueError):
        bloch_state(0.5, 2 * np.pi)


# --- encoder ---------------------------------------------------------------------


def encoded_qubit(n, bits):
    circuit = build_encoder(n, bits)
    full = apply_circuit(circuit, PureState.basis(n + 1, 0))
    reduced = partial_trace(full.density(), {0})
    return reduced


def test_encoder_k1_gives_plus():
    rho = encoded_qubit(2, 1)
    plus = np.full((2, 2), 0.5)
    assert np.max(np.abs(rho.matrix - plus)) < 1e-12


def test_encoder_zero_bits_identity():
    rho = encoded_qubit(2, 0)
    assert np.max(np.abs(rho.matrix - np.diag([1.0, 0.0]))) < 1e-12


@pytest.mark.parametrize("n,k", [(3, 5), (3, 1), (2, 3), (4, 11)])
def test_encoder_matches_closed_form(n, k):
    rho = encoded_qubit(n, k)
    expected = psi_k(n, k)
    assert np.max(np.abs(rho.matrix - np.outer(expected.amplitudes, expected.amplitudes.conj()))) < 1e-12


def test_encoder_gate_count_and_errors():
    assert two_qubit_gate_count(build_encoder(3, 0)) == 3
    assert two_qubit_gate_count(build_encoder(3, 7)) == 3
    with pytest.raises(ValueError):
        build_encoder(0, 0)


# --- decoder ----------------------------------------------------------------------


def test_decoder_gate_counts():
    assert two_qubit_gate_count(build_decoder(2)) == 8
    assert two_qubit_gate_count(build_decoder(4)) == 18
    for n in range(2, 6):
        assert two_qubit_gate_count(build_decoder(n)) == 5 * n - 2
    with pytest.raises(ValueError):
        build_decoder(0)


def test_decoder_matches_operator_definitions_n2():
    swap, rot, fanout, popreg, copy = decoder_blocks_from_definitions(2)
    expected = copy @ popreg @ fanout @ rot @ swap
    assert np.max(np.abs(circuit_unitary(build_decoder(2)) - expected)) < 1e-12


def test_decoder_matches_operator_definitions_n3():
    swap, rot, fanout, popreg, copy = decoder_blocks_from_definitions(3)
    expected = copy @ popreg @ fanout @ rot @ swap
    assert np.max(np.abs(circuit_unitary(build_decoder(3)) - expected)) < 1e-12


def test_rotation_slice_returns_code_state_to_zero():
    # With the CR register frozen at the encoded value, the rotation block
    # sends the code qubit on CTC wire 0 back to |0>.
    circuit = build_decoder(2)
    code_in = kron(psi_k(2, 1).amplitudes, [1, 0])
    rot_gates = circuit.slice_gates("rotation")
    sliced = Circuit(circuit.qubit_count, circuit.slice_gates("swap") + rot_gates,
                     circuit.layout, {"swap": circuit.slices["swap"],
                                      "rotation": (len(circuit.slice_gates("swap")),
                                                   len(circuit.slice_gates("swap")) + len(rot_gates))})
    out = apply_with_cr_fixed(sliced, code_in)[:, 1]
    expected = np.zeros(4, dtype=complex)
    expected[0] = 1.0
    assert np.max(np.abs(out - expected)) < 1e-12


def test_rotation_inverse_property_all_k():
    for n in range(1, 5):
        for k in range(2**n):
            out = ry(-2 * np.pi * k / 2**n) @ psi_k(n, k).amplitudes
            assert np.max(np.abs(out - np.array([1, 0]))) < 1e-12


def test_encoder_decoder_rotation_adjointness():
    # Encoder rotation for k composed with the decoder rotation block at CR=k
    # is the identity on the code qubit.
    for n in (2, 3):
        for k in range(2**n):
            total = ry(-2 * np.pi * k / 2**n) @ ry(2 * np.pi * k / 2**n)
            assert np.max(np.abs(total - np.eye(2))) < 1e-12


def test_popcount_rotation_slice_matches_basis_sum():
    # Composed popcount block equals sum_j Ry(o(j) pi/n) (x) |j><j| on the CTC register.
    from dctcsim.qsim import apply_matrix_on_wires, gate_matrix

    for n in range(2, 5):
        circuit = build_decoder(n)
        layout = circuit.layout
        ctc_pos = {w: i for i, w in enumerate(layout.ctc_wires)}
        dim = 2**n
        composed = np.eye(dim, dtype=complex)
        for g in circuit.slice_gates("popcount_rotation"):
            wires = tuple(ctc_pos[w] for w in g.wires)
            composed = apply_matrix_on_wires(composed, gate_matrix(g), wires, n)
        brute = np.zeros((dim, dim), dtype=complex)
        for j in range(2 ** (n - 1)):
            proj = np.zeros((2 ** (n - 1), 2 ** (n - 1)), dtype=complex)
            proj[j, j] = 1.0
            brute += np.kron(ry(popcount(j) * np.pi / n), proj)
        assert np.max(np.abs(composed - brute)) < 1e-12


def test_decoder_unitary_is_unitary():
    u = circuit_unitary(build_decoder(3))
    assert np.max(np.abs(u.conj().T @ u - np.eye(64))) < 1e-10


def test_decoder_fixed_point_basis_pass():
    # Psi_2 (x) |2> maps to |2> (x) |2>.
    from dctcsim.analysis import decode_cr_input

    u = circuit_unitary(build_decoder(2))
    full = kron(decode_cr_input(2, 2).amplitudes, PureState.basis(2, 2).amplitudes)
    out = u @ full
    expected = kron(PureState.basis(2, 2).amplitudes, PureState.basis(2, 2).amplitudes)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_empty_circuit_unitary_is_identity():
    c = Circuit(2, ())
    assert np.allclose(circuit_unitary(c), np.eye(4))


def test_unitary_size_limit():
    with pytest.raises(ValueError):
        circuit_unitary(build_decoder(6))  # 12 qubits > materialization limit


# --- cloner -----------------------------------------------------------------------


def test_cloner_gate_counts():
    assert two_qubit_gate_count(build_cloner(2, 2)) == 18
    assert two_qubit_gate_count(build_cloner(1, 1)) == 8
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            assert two_qubit_gate_count(build_cloner(n, m)) == 5 * (n + m) - 2
    with pytest.raises(ValueError):
        build_cloner(0, 1)
    with pytest.raises(ValueError):
        build_cloner(1, 0)


def test_cloner_rotation_slice_inverts_preparation():
    # CR frozen at (k=1, l=1): the rotation block maps the grid state back to
    # |0> up to a global phase.
    n = m = 2
    circuit = build_cloner(n, m)
    state = bloch_state(np.pi / 4, np.pi / 2).amplitudes
    ctc_in = kron(state, PureState.basis(n + m - 1, 0).amplitudes)
    swap_gates = circuit.slice_gates("swap")
    rot_gates = circuit.slice_gates("rotation")
    sliced = Circuit(
        circuit.qubit_count,
        swap_gates + rot_gates,
        circuit.layout,
        {"swap": (0, len(swap_gates)),
         "rotation": (len(swap_gates), len(swap_gates) + len(rot_gates))},
    )
    cr_value = (1 << m) | 1  # polar 1, azimuthal 1
    out = apply_with_cr_fixed(sliced, ctc_in)[:, cr_value]
    phase = out[0] / abs(out[0])
    expected = np.zeros(len(out), dtype=complex)
    expected[0] = phase
    assert np.max(np.abs(out - expected)) < 1e-12


def test_cloner_unitary_is_unitary():
    u = circuit_unitary(build_cloner(2, 2))
    assert np.max(np.abs(u.conj().T @ u - np.eye(256))) < 1e-10


def test_cloner_z_rotations_precede_y_rotations():
    circuit = build_cloner(2, 3)
    kinds = [g.kind for g in circuit.slice_gates("rotation")]
    assert kinds == ["controlled-Rz"] * 3 + ["controlled-Ry"] * 2


# --- serialization ------------------------------------------------------------------


def test_circuit_json_round_trip():
    for circuit in (build_decoder(3), build_cloner(2, 1), build_encoder(3, 5)):
        text = circuit_to_json(circuit)
        back = circuit_from_json(text)
        assert back.qubit_count == circuit.qubit_count
        assert back.gates == circuit.gates
        assert (back.layout is None) == (circuit.layout is None)
        if circuit.layout is not None:
            assert back.layout == circuit.layout
            assert back.slices == circuit.slices
        assert circuit_to_json(back) == text


def test_apply_circuit_on_density_matrix():
    circuit = build_encoder(2, 1)
    rho = apply_circuit(circuit, DensityMatrix.maximally_mixed(3))
    assert abs(np.trace(rho.matrix) - 1) < 1e-12
