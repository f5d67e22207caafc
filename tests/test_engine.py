"""Channel construction, fixed-point solving, probing, readout, and the
unrolled-circuit equivalence oracle."""

import numpy as np
import pytest

from dctcsim import engine
from dctcsim.analysis import clone_cr_input, decode_cr_input
from dctcsim.circuits import Circuit, build_cloner, build_decoder, circuit_unitary
from dctcsim.engine import (
    CtcChannel,
    apply_channel,
    cesaro_limit,
    fixed_point_to_json,
    kraus_from,
    probe_fixed_points,
    readout,
    simulate_unrolled,
    solve_fixed_point,
)
from dctcsim.qsim import DensityMatrix, Gate, PureState, partial_trace, trace_distance


def kraus_via_full_unitary(circuit, cr_input):
    """Independent Kraus construction: K_i = (<i| x I) U (|input> x I) from
    the materialized circuit unitary."""
    u = circuit_unitary(circuit)
    width = circuit.layout.width
    d = 2**width
    blocks = (u @ np.kron(cr_input.amplitudes.reshape(-1, 1), np.eye(d))).reshape(d, d, d)
    return [np.array(blocks[i]) for i in range(d)]


def channel_via_conjugation(circuit, cr_input, omega):
    """Independent channel action: conjugate by the full unitary, then trace
    out the CR register."""
    u = circuit_unitary(circuit)
    full = np.kron(cr_input.density().matrix, omega.matrix)
    evolved = u @ full @ u.conj().T
    width = circuit.layout.width
    rho = DensityMatrix(2 * width, evolved)
    return partial_trace(rho, set(circuit.layout.ctc_wires))


def decoder_channel(n, k):
    circuit = build_decoder(n)
    cr_input = decode_cr_input(n, k)
    return circuit, cr_input, kraus_from(circuit, cr_input)


def full_circuit_decoder_channel(n, k):
    """The decoder's channel as a literal Kraus list from the full unitary."""
    circuit = build_decoder(n)
    cr_input = decode_cr_input(n, k)
    return circuit, cr_input, CtcChannel(n, kraus=kraus_via_full_unitary(circuit, cr_input))


def rank_one_kraus(ch):
    """The Kraus list K_j = |v_j><j| of a channel given by prep vectors."""
    ops = []
    for j in range(ch.dim):
        k = np.zeros((ch.dim, ch.dim), dtype=complex)
        k[:, j] = ch.prep_vectors[:, j]
        ops.append(k)
    return ops


# --- Kraus construction -----------------------------------------------------


def test_kraus_completeness():
    _, _, ch = decoder_channel(2, 0)
    total = sum(k.conj().T @ k for k in rank_one_kraus(ch))
    assert np.max(np.abs(total - np.eye(4))) < 1e-12


def test_kraus_matches_full_unitary_construction():
    cases = [(build_decoder(n), decode_cr_input(n, k)) for n, k in [(2, 0), (2, 1), (2, 3), (3, 5)]]
    cases += [(build_cloner(1, 1), clone_cr_input(1, 1, 0.7, 1.3))]
    for circuit, cr_input in cases:
        ch = kraus_from(circuit, cr_input)
        oracle = kraus_via_full_unitary(circuit, cr_input)
        for got, want in zip(rank_one_kraus(ch), oracle, strict=True):
            assert np.max(np.abs(got - want)) < 1e-12


def test_kraus_from_rejects_circuits_without_a_register_swap():
    c = build_decoder(2)
    swap_gates = c.slice_gates("swap")
    shifted = {name: (a + 1, b + 1) for name, (a, b) in c.slices.items()}
    cr_input = decode_cr_input(2, 1)

    def rebuilt(gates, slices):
        return Circuit(c.qubit_count, gates, c.layout, slices)

    # Slices stripped: nothing marks the register swap.
    stripped = rebuilt(c.gates, None)
    # The swap slice does not start at gate 0.
    late = rebuilt((Gate("H", (2,)),) + c.gates, shifted)
    # CR wire 0 swapped with CTC wire 1 and CR wire 1 with CTC wire 0.
    crossed_swaps = (Gate("SWAP", (0, 3)), Gate("SWAP", (1, 2)))
    crossed = rebuilt(crossed_swaps + c.gates[len(swap_gates):], c.slices)
    # A pair swapped twice is swapped back.
    doubled = rebuilt(swap_gates[:1] + c.gates, shifted | {"swap": (0, len(swap_gates) + 1)})
    for circuit in (stripped, late, crossed, doubled):
        with pytest.raises(ValueError):
            kraus_from(circuit, cr_input)


def test_kraus_list_rejects_non_square_operators():
    # Four rows of I_4 sum to I_4 in K^dag K but are not maps on the register.
    rows = [np.eye(4)[i : i + 1] for i in range(4)]
    with pytest.raises(ValueError, match="4x4"):
        CtcChannel(2, kraus=rows)


def test_kraus_rejects_mixed_input():
    circuit = build_decoder(2)
    with pytest.raises(TypeError):
        kraus_from(circuit, DensityMatrix.maximally_mixed(2))


def test_kraus_width_mismatch():
    circuit = build_decoder(2)
    with pytest.raises(ValueError):
        kraus_from(circuit, PureState.basis(3, 0))


# --- apply_channel -----------------------------------------------------------


def test_channel_matches_conjugation_oracle():
    circuit, cr_input, ch = decoder_channel(2, 1)
    omega = PureState.basis(2, 1).density()
    via_kraus = apply_channel(ch, omega)
    via_conj = channel_via_conjugation(circuit, cr_input, omega)
    assert np.max(np.abs(via_kraus.matrix - via_conj.matrix)) < 1e-12


def test_structured_and_generic_paths_agree():
    rng = np.random.default_rng(5)
    circuit, cr_input, ch = decoder_channel(2, 3)
    generic = CtcChannel(2, kraus=kraus_via_full_unitary(circuit, cr_input))
    for _ in range(5):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat = g @ g.conj().T
        mat /= np.trace(mat)
        omega = DensityMatrix(2, mat)
        a = apply_channel(ch, omega)
        b = apply_channel(generic, omega)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12


def test_channel_fixed_point_of_basis_input():
    _, _, ch = decoder_channel(2, 3)
    omega = PureState.basis(2, 3).density()
    out = apply_channel(ch, omega)
    assert np.max(np.abs(out.matrix - omega.matrix)) < 1e-12


def test_channel_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(17)
    for n, k in [(2, 1), (3, 4)]:
        _, _, ch = decoder_channel(n, k)
        d = 2**n
        for _ in range(5):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mat = g @ g.conj().T
            mat /= np.trace(mat)
            out = apply_channel(ch, DensityMatrix(n, mat))
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12
            assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12


def test_single_application_boosts_target_population():
    _, _, ch = decoder_channel(2, 1)
    omega = PureState.plus(2).density()
    out = apply_channel(ch, omega)
    assert out.diagonal()[1] > omega.diagonal()[1]


def test_apply_channel_dimension_mismatch():
    _, _, ch = decoder_channel(2, 0)
    with pytest.raises(ValueError):
        apply_channel(ch, DensityMatrix.maximally_mixed(3))


# --- solve_fixed_point ---------------------------------------------------------


def test_solve_reaches_basis_fixed_point():
    for route in (decoder_channel, full_circuit_decoder_channel):
        _, _, ch = route(2, 2)
        res = solve_fixed_point(ch, DensityMatrix.maximally_mixed(2))
        assert res.converged
        assert res.residual <= 1e-10
        expected = PureState.basis(2, 2).density()
        assert trace_distance(res.sigma, expected) < 1e-8


def test_solve_at_fixed_point_takes_one_iteration():
    _, _, ch = decoder_channel(2, 0)
    res = solve_fixed_point(ch, PureState.basis(2, 0).density())
    assert res.converged
    assert res.iterations == 1
    assert res.residual < 1e-14


def test_solve_trace_matches_plain_iteration():
    circuit, cr_input, ch = decoder_channel(2, 1)
    init = PureState.plus(2).density()
    res = solve_fixed_point(ch, init, tol=1e-10, max_iters=50)
    omega = init
    for t in range(8):
        assert np.max(np.abs(res.trace[t] - omega.diagonal())) < 1e-12
        omega = apply_channel(ch, omega)


def test_solve_seven_iterations_population():
    _, _, ch = decoder_channel(2, 1)
    res = solve_fixed_point(ch, PureState.plus(2).density(), tol=1e-30, max_iters=7)
    assert not res.converged  # tol unreachable; exactly 7 applications recorded
    assert res.iterations == 7
    assert res.trace.shape == (8, 4)
    assert res.trace[7][1] == pytest.approx(0.8202362060546875, abs=1e-12)


def test_solve_generic_path_matches_structured():
    _, _, ch = decoder_channel(2, 1)
    _, _, generic = full_circuit_decoder_channel(2, 1)
    init = PureState.plus(2).density()
    a = solve_fixed_point(ch, init)
    b = solve_fixed_point(generic, init)
    assert b.converged
    assert trace_distance(a.sigma, b.sigma) < 1e-9


def test_solve_validates_tolerance():
    _, _, ch = decoder_channel(2, 0)
    with pytest.raises(ValueError):
        solve_fixed_point(ch, DensityMatrix.maximally_mixed(2), tol=0.0)


def test_solve_validates_max_iters():
    _, _, ch = decoder_channel(2, 0)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_iters"):
            solve_fixed_point(ch, DensityMatrix.maximally_mixed(2), max_iters=bad)


def test_solve_returns_the_last_measured_state_when_iterations_run_out():
    _, _, ch = decoder_channel(2, 1)
    init = PureState.plus(2).density()
    res = solve_fixed_point(ch, init, tol=1e-30, max_iters=1)
    assert res.sigma is init
    assert res.residual == pytest.approx(trace_distance(apply_channel(ch, init), init), abs=1e-15)
    res = solve_fixed_point(ch, init, tol=1e-30, max_iters=7)
    # Seven applications were made; the sixth iterate is the last one whose
    # residual the seventh application measured.
    assert np.max(np.abs(res.sigma.diagonal() - res.trace[6])) < 1e-15


def test_nonconvergence_is_flagged_not_raised():
    _, _, ch = decoder_channel(2, 1)
    res = solve_fixed_point(ch, PureState.plus(2).density(), tol=1e-12, max_iters=3)
    assert not res.converged
    assert res.iterations == 3


# --- probe_fixed_points -----------------------------------------------------------


def test_probe_decoder_unique_fixed_point():
    _, _, ch = decoder_channel(2, 1)
    probe = probe_fixed_points(ch, tol=1e-10)
    assert len(probe.fixed_points) == 1
    assert probe.dropped == 0
    expected = PureState.basis(2, 1).density()
    assert trace_distance(probe.fixed_points[0], expected) < 1e-8


def test_probe_cloner_zero_state_multiple_fixed_points():
    # The full-circuit readout must equal the diagonal.  At (3,3) each one
    # pushes a 12-qubit batch, so only every eighth fixed point is checked.
    for n, m, count, stride in [(2, 2, 13, 1), (3, 3, 33, 8)]:
        circuit = build_cloner(n, m)
        cr_input = clone_cr_input(n, m, 0.0, 0.0)
        ch = kraus_from(circuit, cr_input)
        probe = probe_fixed_points(ch, tol=1e-10)
        assert len(probe.fixed_points) == count
        assert probe.dropped == 0
        # The probe clusters by half the L1 distance between diagonals; the
        # SVD trace distance must give the same number.
        if n == 2:
            for a in probe.fixed_points:
                for b in probe.fixed_points:
                    half_l1 = 0.5 * np.sum(np.abs(a.diagonal() - b.diagonal()))
                    assert abs(trace_distance(a, b) - half_l1) <= 1e-12
        for fp in probe.fixed_points[::stride]:
            assert np.max(np.abs(readout(circuit, cr_input, fp) - fp.diagonal())) <= 1e-12
        # The polar-zero basis states are all fixed points and must appear.
        for l in range(2**m):
            target = PureState.basis(n + m, l).density()
            assert any(
                trace_distance(fp, target) < 1e-8 for fp in probe.fixed_points
            ), f"missing fixed point at azimuthal value {l}"


def test_probe_measures_one_residual_and_builds_one_state_per_start(monkeypatch):
    # Each start's Cesaro limit is exact, so its solve is one step: one
    # residual, and the start itself is returned without a second state.
    ch = kraus_from(build_cloner(2, 2), clone_cr_input(2, 2, np.pi - 0.1, 2.0))
    calls = {"trace_distance": 0, "states": 0}
    trace_distance_raw = engine.trace_distance_raw
    validate = DensityMatrix.__post_init__

    def counted_distance(a, b):
        calls["trace_distance"] += 1
        return trace_distance_raw(a, b)

    def counted_validate(self):
        calls["states"] += 1
        validate(self)

    monkeypatch.setattr(engine, "trace_distance_raw", counted_distance)
    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_validate)
    probe = probe_fixed_points(ch)
    assert probe.start_count == 17 and probe.dropped == 0
    assert calls["trace_distance"] == probe.start_count
    assert calls["states"] <= probe.start_count


def test_probe_cloner_grid_state_unique():
    circuit = build_cloner(2, 2)
    cr_input = clone_cr_input(2, 2, np.pi / 4, np.pi / 2)
    ch = kraus_from(circuit, cr_input)
    probe = probe_fixed_points(ch, tol=1e-10)
    assert len(probe.fixed_points) == 1
    expected = PureState.basis(4, (1 << 2) | 1).density()
    assert trace_distance(probe.fixed_points[0], expected) < 1e-8


# --- readout ----------------------------------------------------------------------


def test_readout_basis_fixed_points():
    circuit = build_decoder(2)
    probs = readout(circuit, decode_cr_input(2, 3), PureState.basis(2, 3).density())
    assert probs[3] == pytest.approx(1.0, abs=1e-12)
    probs = readout(circuit, decode_cr_input(2, 0), PureState.basis(2, 0).density())
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_readout_cloner_polar_marginal():
    circuit = build_cloner(2, 2)
    cr_input = clone_cr_input(2, 2, 0.0, 0.0)
    mix = sum(PureState.basis(4, l).density().matrix for l in range(4)) / 4
    sigma = DensityMatrix(4, mix)
    probs = readout(circuit, cr_input, sigma).reshape(4, 4)
    polar_marginal = probs.sum(axis=1)
    assert polar_marginal[0] == pytest.approx(1.0, abs=1e-12)


def test_readout_dimension_checks():
    circuit = build_decoder(2)
    with pytest.raises(ValueError):
        readout(circuit, PureState.basis(3, 0), DensityMatrix.maximally_mixed(2))
    with pytest.raises(ValueError):
        readout(circuit, decode_cr_input(2, 0), DensityMatrix.maximally_mixed(3))


# --- full-conjugation fixed-point example ---------------------------------------------


def test_conjugation_partial_trace_reproduces_basis_fixed_points():
    # Tr over the CR register of U (Psi_k x |k><k|) U^dag equals |k><k|,
    # computed entirely through the 16x16 unitary and partial_trace.
    circuit = build_decoder(2)
    for k in range(4):
        reduced = channel_via_conjugation(
            circuit, decode_cr_input(2, k), PureState.basis(2, k).density()
        )
        expected = PureState.basis(2, k).density()
        assert np.max(np.abs(reduced.matrix - expected.matrix)) < 1e-12


# --- periodic chains --------------------------------------------------------------------


def test_oscillation_is_reported_unconverged_generic_path():
    # A unitary permutation channel flips |0> <-> |1> forever; the solver
    # iterates, so it runs out of iterations and says so.
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = CtcChannel(1, kraus=[x])
    res = solve_fixed_point(ch, PureState.basis(1, 0).density(), tol=1e-10, max_iters=200)
    assert not res.converged
    assert not res.used_averaging
    assert res.iterations == 200
    assert res.residual == pytest.approx(1.0, abs=1e-12)


def test_oscillation_is_reported_unconverged_structured_path():
    # Rank-one factors forming a basis swap oscillate the same way; their
    # fixed point from |0> is the Cesaro limit I/2, which the solver accepts.
    vecs = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = CtcChannel(1, prep_vectors=vecs)
    res = solve_fixed_point(ch, PureState.basis(1, 0).density(), tol=1e-10, max_iters=200)
    assert not res.converged
    assert not res.used_averaging
    assert res.iterations == 200
    limit = cesaro_limit(ch, [1, 0])
    assert np.max(np.abs(limit.matrix - np.eye(2) / 2)) < 1e-12
    assert solve_fixed_point(ch, limit).converged


def test_cesaro_limit_checks_the_start_length():
    _, _, ch = decoder_channel(2, 1)
    with pytest.raises(ValueError):
        cesaro_limit(ch, np.ones(3) / 3)


def test_channel_copies_its_inputs():
    vecs = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = CtcChannel(1, prep_vectors=vecs)
    vecs[:] = np.eye(2)  # the caller's array stays writable
    assert np.array_equal(ch.prep_vectors, [[0, 1], [1, 0]])
    op = np.eye(2, dtype=complex)
    ch = CtcChannel(1, kraus=[op])
    op[0, 0] = 2.0  # would break completeness if the channel held the array
    rho = PureState.basis(1, 0).density().matrix
    assert np.array_equal(ch.apply_raw(rho), rho)


def test_probe_periodic_swap_finds_only_the_mixed_state():
    # Every start of the swap channel averages to I/2, including the basis
    # states whose iterates oscillate forever.
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    probe = probe_fixed_points(CtcChannel(1, prep_vectors=x))
    assert probe.dropped == 0
    assert len(probe.fixed_points) == 1
    assert np.max(np.abs(probe.fixed_points[0].matrix - np.eye(2) / 2)) < 1e-10


def test_probe_rejects_kraus_list_channels():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError):
        probe_fixed_points(CtcChannel(1, kraus=[x]))
    _, _, ch = full_circuit_decoder_channel(2, 1)
    with pytest.raises(ValueError):
        probe_fixed_points(ch)


# --- unrolled-circuit equivalence ----------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("iterations", [2, 3])
def test_channel_equals_unrolled_circuit(k, iterations):
    circuit, cr_input, ch = decoder_channel(2, k)
    for omega0 in (PureState.plus(2).density(), DensityMatrix.maximally_mixed(2)):
        state = omega0
        for _ in range(iterations):
            state = apply_channel(ch, state)
        unrolled = simulate_unrolled(circuit, cr_input, omega0, iterations)
        assert np.max(np.abs(state.matrix - unrolled.matrix)) < 1e-10


def test_unrolled_qubit_limit():
    circuit = build_decoder(2)
    with pytest.raises(ValueError):
        simulate_unrolled(
            circuit, decode_cr_input(2, 0), DensityMatrix.maximally_mixed(2), 8
        )


# --- serialization --------------------------------------------------------------------


def test_fixed_point_json_schema():
    _, _, ch = decoder_channel(2, 2)
    res = solve_fixed_point(ch, DensityMatrix.maximally_mixed(2))
    doc = fixed_point_to_json(res)
    assert set(doc) == {
        "residual", "iterations", "converged", "used_averaging",
        "sigma_diagonal", "trace",
    }
    assert doc["converged"] is True
    assert len(doc["sigma_diagonal"]) == 4
    assert len(doc["trace"]) == res.iterations + 1
