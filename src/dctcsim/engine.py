"""Channel construction and self-consistency fixed-point solving.

A circuit with a CR/CTC register split plus a pure CR input state induces a
completely positive trace-preserving map on the CTC register,

    N(omega) = Tr_CR( U (rho_CR x omega) U^dag ),

whose fixed points are the self-consistent CTC states.  For a pure CR input
the map has one Kraus operator per CR basis value,

    K_i = (<i|_CR x I) U (|input>_CR x I).

For the register-swap circuits built in :mod:`dctcsim.circuits`, U factors as
(conditional CTC blocks) x (register swap) and every K_i is rank one:
K_i = |v_i><i| with v_i the conditional block for CR value i applied to the
input placed on the CTC register.  The channel then acts on the diagonal
alone, through the column-stochastic M = |<i|v_j>|^2, so the fixed point that
iteration from any start reaches is given directly by the Cesaro projector
of M.  The iterative solver checks each such fixed point in one step; it
remains the only route for channels given as a literal Kraus list, and the
oracle the tests compare against.  The CR measurement at such a fixed point
is its diagonal; :func:`readout` computes it through the full circuit and is
kept only as the oracle for that shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, apply_with_cr_fixed
from .qsim import (
    DensityMatrix,
    PureState,
    apply_matrix_on_wires,
    gate_matrix,
    trace_distance_raw,
)

__all__ = [
    "CtcChannel",
    "FixedPointResult",
    "ProbeResult",
    "ConvergenceError",
    "kraus_from",
    "apply_channel",
    "cesaro_limit",
    "solve_fixed_point",
    "probe_fixed_points",
    "readout",
    "simulate_unrolled",
    "fixed_point_to_json",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 1000
COMPLETENESS_ATOL = 1e-12
CLUSTER_TOL = 1e-6
# Singular values of M - I at or below this count as zero: the dimension of
# ker(M - I) is the number of extremal fixed points.
RANK_TOL = 1e-9
_STAGNATION_WINDOW = 10


class ConvergenceError(RuntimeError):
    """Raised when a pipeline step finds no converged fixed point."""


class CtcChannel:
    """The CPTP map induced on the CTC register by a circuit and CR input.

    ``kraus`` materializes the full list of 2^(CR width) Kraus matrices; for
    channels built from register-swap circuits the matrices are generated
    lazily from their rank-one factors, so large instances never hold the
    dense list unless asked.
    """

    def __init__(
        self,
        ctc_qubits: int,
        *,
        prep_vectors: np.ndarray | None = None,
        kraus: list[np.ndarray] | None = None,
    ):
        if (prep_vectors is None) == (kraus is None):
            raise ValueError("provide exactly one of prep_vectors or kraus")
        self.ctc_qubits = int(ctc_qubits)
        dim = 2**self.ctc_qubits
        if prep_vectors is not None:
            vec = np.asarray(prep_vectors, dtype=complex)
            if vec.shape != (dim, dim):
                raise ValueError(f"prep_vectors must be {dim}x{dim}, got {vec.shape}")
            norms = np.sum(np.abs(vec) ** 2, axis=0)
            err = float(np.max(np.abs(norms - 1.0)))
            if err > COMPLETENESS_ATOL:
                raise ValueError(f"Kraus completeness violated: {err:.3e}")
            vec.setflags(write=False)
            self._prep_vectors = vec
            self._kraus = None
        else:
            ops = [np.asarray(k, dtype=complex) for k in kraus]
            for k in ops:
                if k.shape[1] != dim:
                    raise ValueError("Kraus operator column dimension mismatch")
            total = sum(k.conj().T @ k for k in ops)
            err = float(np.max(np.abs(total - np.eye(dim))))
            if err > COMPLETENESS_ATOL:
                raise ValueError(f"Kraus completeness violated: {err:.3e}")
            self._prep_vectors = None
            self._kraus = ops
        self._markov: np.ndarray | None = None
        self._cesaro: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return 2**self.ctc_qubits

    @property
    def prep_vectors(self) -> np.ndarray | None:
        """Columns v_i of the rank-one factorization K_i = |v_i><i|, if any."""
        return self._prep_vectors

    @property
    def kraus(self) -> list[np.ndarray]:
        if self._kraus is not None:
            return list(self._kraus)
        ops = []
        for i in range(self.dim):
            k = np.zeros((self.dim, self.dim), dtype=complex)
            k[:, i] = self._prep_vectors[:, i]
            ops.append(k)
        return ops

    @property
    def markov(self) -> np.ndarray | None:
        """Column-stochastic matrix of diagonal populations, |<i|v_j>|^2."""
        if self._prep_vectors is None:
            return None
        if self._markov is None:
            self._markov = np.abs(self._prep_vectors) ** 2
        return self._markov

    @property
    def cesaro(self) -> np.ndarray | None:
        """Projector Z = R (L^T R)^-1 L^T onto ker(M - I) along range(M - I).

        R and L span the right and left null spaces of M - I.  Z p0 is the
        limit of the running average of M^t p0; for an aperiodic M the
        iterates converge to it as well.
        """
        m = self.markov
        if m is None:
            return None
        if self._cesaro is None:
            u, svals, vh = np.linalg.svd(m - np.eye(self.dim))
            rank = int(np.sum(svals > RANK_TOL))
            right, left = vh[rank:].T, u[:, rank:]
            self._cesaro = right @ np.linalg.solve(left.T @ right, left.T)
        return self._cesaro

    def apply_raw(self, mat: np.ndarray) -> np.ndarray:
        """Channel action on a raw matrix (no state validation)."""
        if self._prep_vectors is not None:
            w = self._prep_vectors
            return (w * np.real(np.diagonal(mat))) @ w.conj().T
        out = np.zeros_like(mat)
        for k in self._kraus:
            out += k @ mat @ k.conj().T
        return out


def kraus_from(circuit: Circuit, cr_input: PureState) -> CtcChannel:
    """Channel induced on the CTC register by ``circuit`` with a pure CR input.

    Mixed CR inputs are unsupported; every experiment here uses a pure input,
    which yields the compact one-Kraus-operator-per-basis-value family.
    """
    if not isinstance(cr_input, PureState):
        raise TypeError("cr_input must be a PureState (mixed CR inputs unsupported)")
    layout = circuit.layout
    if layout is None:
        raise ValueError("circuit has no register layout")
    width = layout.width
    if cr_input.qubit_count != width:
        raise ValueError(
            f"cr_input has {cr_input.qubit_count} qubits, CR register has {width}"
        )
    if _is_register_swap_circuit(circuit):
        dim = 2**width
        vecs = np.empty((dim, dim), dtype=complex)
        for j in range(dim):
            vecs[:, j] = apply_with_cr_fixed(circuit, j, cr_input.amplitudes)
        return CtcChannel(width, prep_vectors=vecs)
    # Fallback for circuits without the swap/conditional-block structure:
    # push |input> x |w> columns through the full circuit and slice.
    d_cr = 2**width
    d_ctc = 2 ** len(layout.ctc_wires)
    batch = np.kron(cr_input.amplitudes.reshape(-1, 1), np.eye(d_ctc, dtype=complex))
    for g in circuit.gates:
        batch = apply_matrix_on_wires(batch, gate_matrix(g), g.wires, circuit.qubit_count)
    blocks = batch.reshape(d_cr, d_ctc, d_ctc)
    ops = [np.array(blocks[i]) for i in range(d_cr)]
    return CtcChannel(len(layout.ctc_wires), kraus=ops)


def _is_register_swap_circuit(circuit: Circuit) -> bool:
    layout, slices = circuit.layout, circuit.slices
    if layout is None or slices is None or "swap" not in slices:
        return False
    if len(layout.cr_wires) != len(layout.ctc_wires):
        return False
    swap_gates = circuit.slice_gates("swap")
    expected = {
        (layout.cr_wires[i], layout.ctc_wires[i]) for i in range(layout.width)
    }
    got = set()
    for g in swap_gates:
        if g.kind != "SWAP":
            return False
        got.add(g.wires)
    a, b = circuit.slices["swap"]
    if a != 0:
        return False
    return got == expected


def apply_channel(ch: CtcChannel, omega: DensityMatrix) -> DensityMatrix:
    """One application of the channel: sum_i K_i omega K_i^dag."""
    if omega.qubit_count != ch.ctc_qubits:
        raise ValueError("state width does not match channel")
    out = ch.apply_raw(omega.matrix)
    return DensityMatrix(ch.ctc_qubits, out)


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """Outcome of a fixed-point solve.

    ``trace`` holds diagonal populations per iteration: row 0 is the initial
    state, row t the state after t channel applications.  ``converged``
    implies ``residual <= tol``; non-convergence is reported through the
    flag, never as an exception.
    """

    sigma: DensityMatrix
    residual: float
    iterations: int
    converged: bool
    trace: np.ndarray
    used_averaging: bool


def cesaro_limit(ch: CtcChannel, init: DensityMatrix) -> DensityMatrix:
    """The state the running average of N^t(init) converges to.

    Needs a register-swap channel: N maps a state with diagonal p to
    W diag(p) W^dag, and the diagonal to M p, so the limit is W diag(Z p0) W^dag
    with Z the projector :attr:`CtcChannel.cesaro`.
    """
    if ch.cesaro is None:
        raise ValueError("the Cesaro limit needs a channel with prep_vectors")
    if init.qubit_count != ch.ctc_qubits:
        raise ValueError("init width does not match channel")
    p = np.clip(ch.cesaro @ init.diagonal(), 0.0, None)
    w = ch.prep_vectors
    mat = (w * (p / p.sum())) @ w.conj().T
    return DensityMatrix(ch.ctc_qubits, 0.5 * (mat + mat.conj().T))


def solve_fixed_point(
    ch: CtcChannel,
    init: DensityMatrix,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> FixedPointResult:
    """Iterate omega <- N(omega) until successive iterates are tol-close in
    trace distance, falling back to a running (Cesaro) average of iterates if
    the residual stops decreasing over a 10-iteration window.

    Started from a fixed point, such as :func:`cesaro_limit` returns, the
    solve is a single step that gates the start on its residual.

    The reported residual is always the trace distance between N(sigma) and
    sigma for the returned sigma, recomputed after a final Hermitize-and-
    renormalize cleanup of accumulated float drift.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if init.qubit_count != ch.ctc_qubits:
        raise ValueError("init width does not match channel")
    omega = init.matrix
    trace_rows = [np.real(np.diagonal(omega)).copy()]
    residuals: list[float] = []
    avg = None
    avg_count = 0
    used_averaging = False
    while len(residuals) < max_iters:
        nxt = ch.apply_raw(omega)
        trace_rows.append(np.real(np.diagonal(nxt)).copy())
        residuals.append(trace_distance_raw(nxt, omega))
        omega = nxt
        if avg is not None:
            avg = (avg * avg_count + nxt) / (avg_count + 1)
            avg_count += 1
            if trace_distance_raw(ch.apply_raw(avg), avg) <= tol:
                omega, used_averaging = avg, True
                break
        if residuals[-1] <= tol:
            break
        if (
            avg is None
            and len(residuals) > _STAGNATION_WINDOW
            and residuals[-1] >= residuals[-1 - _STAGNATION_WINDOW]
        ):
            avg = nxt.copy()
            avg_count = 1
    else:
        if avg is not None:
            omega, used_averaging = avg, True
    mat = 0.5 * (omega + omega.conj().T)
    mat /= np.real(np.trace(mat))
    residual = trace_distance_raw(ch.apply_raw(mat), mat)
    return FixedPointResult(
        sigma=DensityMatrix(ch.ctc_qubits, mat),
        residual=residual,
        iterations=len(residuals),
        converged=bool(residual <= tol),
        trace=np.array(trace_rows),
        used_averaging=used_averaging,
    )


@dataclass(frozen=True, eq=False)
class ProbeResult:
    """Distinct fixed points found by multi-start solving.

    ``fixed_points`` holds one representative per cluster (pairwise trace
    distance below the clustering tolerance merges); the representative is
    the member with the lowest residual.  Non-converged starts are dropped
    and counted in ``dropped``.
    """

    fixed_points: list[DensityMatrix]
    results: list[FixedPointResult]
    dropped: int
    start_count: int


def probe_fixed_points(
    ch: CtcChannel,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    cluster_tol: float = CLUSTER_TOL,
) -> ProbeResult:
    """Solve from every CTC basis state and from the maximally mixed state,
    then cluster the converged results by pairwise trace distance.

    For a register-swap channel each start is first replaced by its
    :func:`cesaro_limit`, so the solve only has to confirm it.
    """
    dim = ch.dim
    starts = [DensityMatrix(ch.ctc_qubits, _basis_projector(dim, j)) for j in range(dim)]
    starts.append(DensityMatrix.maximally_mixed(ch.ctc_qubits))
    if ch.prep_vectors is not None:
        starts = [cesaro_limit(ch, init) for init in starts]
    reps: list[FixedPointResult] = []
    dropped = 0
    for init in starts:
        res = solve_fixed_point(ch, init, tol, max_iters)
        if not res.converged:
            dropped += 1
            continue
        for i, rep in enumerate(reps):
            if trace_distance_raw(res.sigma.matrix, rep.sigma.matrix) < cluster_tol:
                if res.residual < rep.residual:
                    reps[i] = res
                break
        else:
            reps.append(res)
    return ProbeResult(
        fixed_points=[r.sigma for r in reps],
        results=reps,
        dropped=dropped,
        start_count=len(starts),
    )


def _basis_projector(dim: int, j: int) -> np.ndarray:
    mat = np.zeros((dim, dim), dtype=complex)
    mat[j, j] = 1.0
    return mat


def readout(circuit: Circuit, cr_input: PureState, sigma: DensityMatrix) -> np.ndarray:
    """Exact CR measurement distribution after one pass of the circuit.

    Applies the full circuit to cr_input x sigma, traces out the CTC
    register, and returns the diagonal of the reduced CR state as exact
    probabilities indexed by register value (no sampling).

    This is the full-circuit oracle the tests compare against.  For
    register-swap circuits it equals ``sigma.diagonal()`` to rounding, which
    the pipelines use instead.
    """
    layout = circuit.layout
    if layout is None:
        raise ValueError("circuit has no register layout")
    if cr_input.qubit_count != len(layout.cr_wires):
        raise ValueError("cr_input width does not match CR register")
    if sigma.qubit_count != len(layout.ctc_wires):
        raise ValueError("sigma width does not match CTC register")
    d_cr = 2**cr_input.qubit_count
    d_ctc = 2**sigma.qubit_count
    vals, vecs = np.linalg.eigh(sigma.matrix)
    weights = np.clip(np.real(vals), 0.0, None)
    weights /= weights.sum()
    # One batch column per eigenvector of sigma; CR index is the major axis.
    batch = (cr_input.amplitudes[:, None, None] * vecs[None, :, :]).reshape(
        d_cr * d_ctc, d_ctc
    )
    for g in circuit.gates:
        batch = apply_matrix_on_wires(batch, gate_matrix(g), g.wires, circuit.qubit_count)
    pops = np.abs(batch.reshape(d_cr, d_ctc, d_ctc)) ** 2
    probs = pops.sum(axis=1) @ weights
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"readout probabilities sum to {total!r}")
    return probs / total


def simulate_unrolled(
    circuit: Circuit,
    cr_input: PureState,
    omega0: DensityMatrix,
    iterations: int,
) -> DensityMatrix:
    """Simulate repeated channel application by unrolling into one circuit.

    A carrier register holds the CTC state and each iteration wires in a
    fresh copy of the CR input; the circuit's gates are replayed with the CR
    register mapped onto copy i and the CTC register onto the carrier.  The
    reduced state of the carrier after ``iterations`` passes equals
    ``iterations`` applications of the induced channel.
    """
    layout = circuit.layout
    if layout is None:
        raise ValueError("circuit has no register layout")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    w = layout.width
    total_qubits = w * (iterations + 1)
    if total_qubits > 16:
        raise ValueError(f"unrolled circuit needs {total_qubits} qubits (limit 16)")
    vals, vecs = np.linalg.eigh(omega0.matrix)
    weights = np.clip(np.real(vals), 0.0, None)
    weights /= weights.sum()
    d_carrier = 2**w
    rho = np.zeros((d_carrier, d_carrier), dtype=complex)
    for a in range(len(weights)):
        if weights[a] < 1e-15:
            continue
        vec = vecs[:, a]
        for _ in range(iterations):
            vec = np.kron(vec, cr_input.amplitudes)
        for it in range(1, iterations + 1):
            wire_map = {layout.ctc_wires[p]: p for p in range(w)}
            wire_map.update({layout.cr_wires[p]: w * it + p for p in range(w)})
            for g in circuit.gates:
                mapped = tuple(wire_map[x] for x in g.wires)
                vec = apply_matrix_on_wires(vec, gate_matrix(g), mapped, total_qubits)
        block = vec.reshape(d_carrier, -1)
        rho += weights[a] * (block @ block.conj().T)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.real(np.trace(rho))
    return DensityMatrix(w, rho)


def fixed_point_to_json(result: FixedPointResult) -> dict:
    """JSON-ready document: residual, iterations, flags, diagonals, trace."""
    return {
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "used_averaging": result.used_averaging,
        "sigma_diagonal": [float(x) for x in result.sigma.diagonal()],
        "trace": [[float(x) for x in row] for row in result.trace],
    }
