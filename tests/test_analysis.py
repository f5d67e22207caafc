"""Analysis pipelines: uniqueness overlaps, decode experiments, convergence
traces, cloning fidelity, sweeps, and mutual information.

An independent closed-form oracle is used throughout: the conditional-block
amplitudes give a column-stochastic matrix for the diagonal populations, so
iteration traces and stationary readouts can be cross-checked without going
through the circuit or Kraus machinery.
"""

import numpy as np
import pytest

from dctcsim.analysis import (
    alpha,
    bloch_sweep,
    clone_cr_input,
    clone_fidelity,
    clone_result_to_json,
    convergence_trace,
    decode_cr_input,
    decode_experiment,
    decode_result_to_json,
    initial_ctc_state,
    mutual_information,
    overlap_closed_form,
    overlap_reports_to_json,
    sweep_rows_to_csv,
    verify_uniqueness,
)
from dctcsim.circuits import bloch_state, build_decoder, circuit_unitary, psi_k
from dctcsim.engine import readout
from dctcsim.qsim import PureState, kron

from oracles import closed_form_chain

SQRT2 = np.sqrt(2.0)


# --- alpha and overlaps -------------------------------------------------------


def test_alpha_values():
    assert alpha(2, 2) == pytest.approx(1.0, abs=1e-15)
    assert alpha(2, 1) == pytest.approx(-SQRT2 / 2, abs=1e-12)
    assert alpha(2, 3) == pytest.approx(SQRT2 / 2, abs=1e-12)


def test_alpha_range_errors():
    with pytest.raises(ValueError):
        alpha(2, 0)
    with pytest.raises(ValueError):
        alpha(2, 4)


def test_alpha_never_vanishes():
    for n in range(1, 5):
        for i in range(1, 2**n):
            assert abs(alpha(n, i)) > 1e-12


def test_overlap_closed_form_values():
    assert overlap_closed_form(2, 1, 1) == 1.0
    assert overlap_closed_form(2, 1, 0) == pytest.approx(-1 / (2 * SQRT2), abs=1e-12)


def test_numeric_overlap_values():
    reports = verify_uniqueness(2)
    assert reports[3 * 4 + 3].numeric == pytest.approx(1.0, abs=1e-12)
    val = reports[1 * 4 + 0].numeric
    assert val.real == pytest.approx(-0.35355339, abs=1e-8)
    assert abs(val.imag) < 1e-12


def test_numeric_overlap_all_nonzero_n3():
    vals = [abs(r.numeric) for r in verify_uniqueness(3)]
    assert len(vals) == 64
    assert min(vals) > 0.01


def test_overlap_matches_full_unitary_matrix_element():
    # Third route: <j|_CR <k|_CTC U (|Psi_k>_CR |j>_CTC).
    for n in (2, 3):
        u = circuit_unitary(build_decoder(n))
        d = 2**n
        reports = verify_uniqueness(n)
        for k in range(d):
            code_in = psi_k(n, k).amplitudes
            if n > 1:
                rest = np.zeros(2 ** (n - 1), dtype=complex)
                rest[0] = 1.0
                code_in = kron(code_in, rest)
            for j in range(d):
                full_in = kron(code_in, PureState.basis(n, j).amplitudes)
                out = u @ full_in
                elem = out[j * d + k]
                assert abs(elem - reports[k * d + j].numeric) < 1e-12


@pytest.mark.parametrize("n,count", [(1, 4), (2, 16), (3, 64)])
def test_verify_uniqueness(n, count):
    reports = verify_uniqueness(n)
    assert len(reports) == count
    assert all(r.agree for r in reports)
    assert all(r.closed_form != 0.0 for r in reports)
    on_diag = [r for r in reports if r.j == r.k]
    assert all(r.closed_form == 1.0 and r.alpha is None for r in on_diag)


def test_verify_uniqueness_n1_edge_values():
    # Width 1: no fan-out/popcount wires; off-diagonal overlaps are +-1.
    reports = verify_uniqueness(1)
    off = {(r.k, r.j): r for r in reports if r.j != r.k}
    assert off[(0, 1)].closed_form == pytest.approx(-1.0, abs=1e-12)
    assert off[(1, 0)].closed_form == pytest.approx(1.0, abs=1e-12)


def test_uniqueness_range_error():
    with pytest.raises(ValueError):
        verify_uniqueness(6)


# --- decode -----------------------------------------------------------------------


def test_decode_n2_k1():
    res = decode_experiment(2, 1)
    assert res.decoded == 1
    assert res.success_prob >= 1 - 1e-9
    assert abs(res.distribution.sum() - 1.0) < 1e-10


def test_decode_n2_k0():
    res = decode_experiment(2, 0)
    assert res.decoded == 0
    assert res.success_prob >= 1 - 1e-9


def test_decode_n3_k5():
    res = decode_experiment(3, 5)
    assert res.decoded == 5
    assert res.success_prob >= 1 - 1e-9


def test_decode_distribution_matches_full_circuit_readout():
    for n in range(1, 5):
        circuit = build_decoder(n)
        for k in range(2**n):
            res = decode_experiment(n, k)
            oracle = readout(circuit, decode_cr_input(n, k), res.fixed_point.sigma)
            assert np.max(np.abs(res.distribution - oracle)) <= 1e-12


def test_decode_result_json():
    doc = decode_result_to_json(decode_experiment(2, 3))
    assert doc["decoded"] == 3
    assert doc["n"] == 2 and doc["k"] == 3
    assert len(doc["distribution"]) == 4
    assert doc["fixed_point"]["converged"] is True


def test_decode_range_error():
    with pytest.raises(ValueError):
        decode_experiment(5, 0)


def test_pipelines_reject_max_iters_below_one_as_the_cli_does():
    with pytest.raises(ValueError, match="max_iters"):
        decode_experiment(2, 1, max_iters=0)
    with pytest.raises(ValueError, match="max_iters"):
        clone_fidelity(2, 2, 1.0, 0.5, max_iters=-3)


# --- convergence traces ---------------------------------------------------------


def test_convergence_trace_uniform_start():
    table = convergence_trace(2, 0, 7, "plus")
    assert table.shape == (8, 4)
    assert np.allclose(table[0], 0.25)
    pops = table[:, 0]
    assert np.all(np.diff(pops) >= -1e-12)
    assert pops[7] == pytest.approx(0.8202362060546875, abs=1e-12)


def test_convergence_trace_matches_closed_form_chain():
    for k in range(4):
        table = convergence_trace(2, k, 7, "plus")
        m = closed_form_chain(2, k)
        p = np.full(4, 0.25)
        for t in range(1, 8):
            p = m @ p
            assert np.max(np.abs(table[t] - p)) < 1e-12


def test_convergence_trace_k2_concentrates():
    table = convergence_trace(2, 2, 7, "plus")
    assert int(np.argmax(table[7])) == 2
    assert table[7][2] > 0.8


def test_convergence_trace_k3_monotone():
    table = convergence_trace(2, 3, 7, "plus")
    pops = table[:, 3]
    assert np.all(np.diff(pops) >= -1e-12)


def test_convergence_trace_basis_init():
    table = convergence_trace(2, 1, 3, "basis:1")
    assert np.allclose(table[0], [0, 1, 0, 0])
    assert np.allclose(table[3], [0, 1, 0, 0], atol=1e-12)


def test_initial_state_specs():
    assert np.allclose(initial_ctc_state("mixed", 2).matrix, np.eye(4) / 4)
    assert np.allclose(initial_ctc_state("plus", 1).matrix, np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        initial_ctc_state("bogus", 2)


# --- cloning -----------------------------------------------------------------------


def test_clone_zero_state_perfect_for_every_fixed_point():
    res = clone_fidelity(2, 2, 0.0, 0.0, tol=1e-11)
    assert len(res.per_fixed_point) >= 4
    for ev in res.per_fixed_point:
        assert ev.fidelity == pytest.approx(1.0, abs=1e-9)
    assert res.min_fidelity == pytest.approx(1.0, abs=1e-9)


def test_clone_grid_state_perfect():
    res = clone_fidelity(2, 2, np.pi / 4, np.pi / 2)
    assert res.min_fidelity == pytest.approx(1.0, abs=1e-9)
    assert len(res.per_fixed_point) == 1


def test_clone_one_state_imperfect():
    res = clone_fidelity(2, 2, np.pi, 0.0)
    assert res.max_fidelity < 1.0
    # Frozen from the closed-form chain oracle: stationary readout gives 7/11.
    assert res.min_fidelity == pytest.approx(7 / 11, abs=1e-6)


def closed_form_clone_fidelity(n, m, theta, phi):
    """Fidelity from the stationary distribution of the closed-form cloner
    chain, reached by plain power iteration."""

    def a_b(k, l):
        c, s = np.cos(np.pi * k / 2**n / 2), np.sin(np.pi * k / 2**n / 2)
        ry = np.array([[c, s], [-s, c]], dtype=complex)  # Ry(-theta_k)
        ang = 2 * np.pi * l / 2**m
        rz = np.diag([np.exp(0.5j * ang), np.exp(-0.5j * ang)])  # Rz(-phi_l)
        psi = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        return ry @ rz @ psi

    q = n + m
    d = 2**q
    mat = np.zeros((d, d))
    for j in range(d):
        k, l = j >> m, j & (2**m - 1)
        v = a_b(k, l)
        for i in range(d):
            amp = v[0] if i == j else v[1] * alpha(q, i ^ j) / np.sqrt(2 ** (q - 1))
            mat[i, j] = abs(amp) ** 2
    p = np.full(d, 1 / d)
    for _ in range(20000):
        p2 = mat @ p
        if np.abs(p2 - p).sum() < 1e-14:
            break
        p = p2
    rho = np.zeros((2, 2), dtype=complex)
    for j in range(d):
        k, l = j >> m, j & (2**m - 1)
        w = np.array(
            [np.cos(np.pi * k / 2**n / 2),
             np.exp(2j * np.pi * l / 2**m) * np.sin(np.pi * k / 2**n / 2)]
        )
        rho += p[j] * np.outer(w, w.conj())
    psi_in = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return float(np.real(psi_in.conj() @ rho @ psi_in))


def test_clone_against_closed_form_chain():
    # Independent route for generic inputs.  The low-theta input sits near
    # the grid's polar edge and contracts at ~0.9994 per step.
    for n, m, theta, phi in [(2, 2, 0.9, 2.1), (2, 3, 0.05, 1.0)]:
        res = clone_fidelity(n, m, theta, phi, tol=1e-12)
        assert res.dropped_starts == 0
        oracle_fid = closed_form_clone_fidelity(n, m, theta, phi)
        assert res.min_fidelity == pytest.approx(oracle_fid, abs=1e-9)
        # The reconstruction is the distribution's mixture of grid states.
        for ev in res.per_fixed_point:
            mix = sum(
                ev.distribution[k, l]
                * bloch_state(np.pi * k / 2**n, 2 * np.pi * l / 2**m).density().matrix
                for k in range(2**n)
                for l in range(2**m)
            )
            assert np.max(np.abs(ev.reconstructed.matrix - mix)) <= 1e-14


def test_clone_result_json():
    doc = clone_result_to_json(clone_fidelity(2, 2, np.pi / 4, np.pi / 2))
    assert doc["n"] == 2 and doc["m"] == 2
    assert doc["min_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert len(doc["per_fixed_point"]) == 1
    entry = doc["per_fixed_point"][0]
    assert len(entry["distribution"]) == 4
    assert len(entry["reconstructed"]) == 2


def test_clone_input_layout():
    state = clone_cr_input(2, 2, np.pi / 2, 0.0)
    assert state.qubit_count == 4
    # Target qubit on wire 0, ancillas in |0>: support on indices 0 and 8.
    nz = np.nonzero(np.abs(state.amplitudes) > 1e-12)[0]
    assert set(nz) == {0, 8}


def test_clone_width_limit():
    with pytest.raises(ValueError):
        clone_fidelity(5, 4, 0.1, 0.1)


# --- sweeps -----------------------------------------------------------------------


def test_sweep_smallest_grid():
    rows, failures = bloch_sweep(2, 2, 2, 2)
    assert not failures
    assert len(rows) == 4
    thetas = sorted({r.theta for r in rows})
    assert thetas == [0.0, np.pi]
    csv = sweep_rows_to_csv(rows)
    assert csv.splitlines()[0] == "theta,phi,fidelity,fixed_points,converged"
    assert len(csv.splitlines()) == 5


def test_sweep_grid_states_have_unit_fidelity():
    rows, failures = bloch_sweep(2, 2, 9, 8)
    assert not failures
    assert all(0.0 <= r.fidelity <= 1.0 for r in rows)
    for r in rows:
        on_theta = any(abs(r.theta - np.pi * k / 4) < 1e-12 for k in range(4))
        on_phi = any(abs(r.phi - 2 * np.pi * l / 4) < 1e-12 for l in range(4))
        if r.theta == 0.0 or (on_theta and on_phi):
            assert r.fidelity == pytest.approx(1.0, abs=1e-9), (r.theta, r.phi)


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        bloch_sweep(2, 2, 1, 4)
    with pytest.raises(ValueError):
        bloch_sweep(4, 3, 4, 4)


# --- mutual information -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mutual_information_saturates(n):
    assert mutual_information(n) == pytest.approx(float(n), abs=1e-6)


# --- report serialization ------------------------------------------------------------


def test_overlap_reports_json():
    docs = overlap_reports_to_json(verify_uniqueness(2))
    assert len(docs) == 16
    assert all(d["agree"] for d in docs)
    diag = [d for d in docs if d["j"] == d["k"]]
    assert all(d["alpha"] is None and d["closed_form"] == 1.0 for d in diag)
