"""Channel construction and self-consistency fixed-point solving.

A circuit with a CR/CTC register split plus a pure CR input state induces a
completely positive trace-preserving map on the CTC register,

    N(omega) = Tr_CR( U (rho_CR x omega) U^dag ),

whose fixed points are the self-consistent CTC states.  For a pure CR input
the map has one Kraus operator per CR basis value,

    K_i = (<i|_CR x I) U (|input>_CR x I).

The register-swap circuits built in :mod:`dctcsim.circuits` factor U as
(conditional CTC blocks) x (register swap), so every K_i is rank one:
K_i = |v_i><i| with v_i the conditional block for CR value i applied to the
input placed on the CTC register.  :func:`kraus_from` builds the channel
from these prep vectors and nothing else.  The channel acts on the diagonal
alone, through the column-stochastic M = |<i|v_j>|^2, so the fixed point that
iteration from any start reaches is given directly by the Cesaro projector
of M, and each fixed point is determined by its diagonal.  The iterative
solver checks each such fixed point in one step; it also runs on channels
given as a literal Kraus list, which cannot be probed and serve the tests as
the oracle.  The CR measurement at such a fixed point is its diagonal;
:func:`readout` computes it through the full circuit and is kept only as the
oracle for that shortcut.
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
    """A CPTP map on the CTC register, given by one of two forms.

    ``prep_vectors`` holds the columns v_i of rank-one Kraus operators
    K_i = |v_i><i|, the form :func:`kraus_from` builds; only this form has
    :attr:`markov` and :attr:`cesaro`.  ``kraus`` is a literal list of
    dim x dim Kraus matrices, the oracle form the tests build.
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
                if k.shape != (dim, dim):
                    raise ValueError(f"Kraus operators must be {dim}x{dim}, got {k.shape}")
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
    """Channel induced on the CTC register by a register-swap ``circuit``
    with a pure CR input: its prep vectors are the conditional blocks
    :func:`apply_with_cr_fixed` returns, which raises ValueError for any
    other circuit.  Mixed CR inputs are unsupported.
    """
    if not isinstance(cr_input, PureState):
        raise TypeError("cr_input must be a PureState (mixed CR inputs unsupported)")
    vecs = apply_with_cr_fixed(circuit, cr_input.amplitudes)
    return CtcChannel(cr_input.qubit_count, prep_vectors=vecs)


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


def _clean(mat: np.ndarray) -> np.ndarray:
    """Hermitize and renormalize, dropping accumulated float drift."""
    mat = 0.5 * (mat + mat.conj().T)
    return mat / np.real(np.trace(mat))


def _cesaro_state(ch: CtcChannel, p0: np.ndarray) -> DensityMatrix:
    """W diag(Z p0) W^dag, renormalized: the Cesaro limit of any start whose
    diagonal is ``p0``."""
    if ch.cesaro is None:
        raise ValueError("the Cesaro limit needs a channel with prep_vectors")
    w = ch.prep_vectors
    mat = (w * np.clip(ch.cesaro @ p0, 0.0, None)) @ w.conj().T
    return DensityMatrix(ch.ctc_qubits, _clean(mat))


def cesaro_limit(ch: CtcChannel, init: DensityMatrix) -> DensityMatrix:
    """The state the running average of N^t(init) converges to.

    Needs a register-swap channel: N maps a state with diagonal p to
    W diag(p) W^dag, and the diagonal to M p, so the limit is W diag(Z p0) W^dag
    with Z the projector :attr:`CtcChannel.cesaro`.
    """
    if init.qubit_count != ch.ctc_qubits:
        raise ValueError("init width does not match channel")
    return _cesaro_state(ch, init.diagonal())


def solve_fixed_point(
    ch: CtcChannel,
    init: DensityMatrix,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> FixedPointResult:
    """Iterate omega <- N(omega) until N moves omega by at most tol in trace
    distance, falling back to a running (Cesaro) average of iterates if the
    residual stops decreasing over a 10-iteration window.

    Each step measures one residual, that of omega, from the step's own
    channel application; once averaging starts, the average's residual is
    measured too.  The returned sigma is the last state whose residual was
    measured, and ``residual`` is that trace distance between N(sigma) and
    sigma.  Started from a fixed point, such as :func:`cesaro_limit`
    returns, the solve is a single step that gates the start on its
    residual and returns ``init`` itself.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if init.qubit_count != ch.ctc_qubits:
        raise ValueError("init width does not match channel")
    omega = init.matrix
    trace_rows = [np.real(np.diagonal(omega)).copy()]
    residuals: list[float] = []
    avg = None
    avg_count = 0
    while len(residuals) < max_iters:
        nxt = _clean(ch.apply_raw(omega))
        trace_rows.append(np.real(np.diagonal(nxt)).copy())
        residuals.append(trace_distance_raw(nxt, omega))
        sigma, residual, used_averaging = omega, residuals[-1], False
        if residual <= tol:
            break
        if avg is not None:
            avg = _clean(avg * avg_count + nxt)
            avg_count += 1
            residual = trace_distance_raw(_clean(ch.apply_raw(avg)), avg)
            sigma, used_averaging = avg, True
            if residual <= tol:
                break
        elif (
            len(residuals) > _STAGNATION_WINDOW
            and residuals[-1] >= residuals[-1 - _STAGNATION_WINDOW]
        ):
            avg = nxt
            avg_count = 1
        omega = nxt
    return FixedPointResult(
        sigma=init if sigma is init.matrix else DensityMatrix(ch.ctc_qubits, sigma),
        residual=residual,
        iterations=len(residuals),
        converged=bool(residual <= tol),
        trace=np.array(trace_rows),
        used_averaging=used_averaging,
    )


@dataclass(frozen=True, eq=False)
class ProbeResult:
    """Distinct fixed points found by multi-start solving.

    ``fixed_points`` holds one representative per cluster of converged
    starts whose diagonals lie within :data:`CLUSTER_TOL` in half-L1
    distance, which for these channels is their trace distance; the
    representative is the member with the lowest residual.  Non-converged
    starts are dropped and counted in ``dropped``.
    """

    fixed_points: list[DensityMatrix]
    results: list[FixedPointResult]
    dropped: int
    start_count: int


def probe_fixed_points(
    ch: CtcChannel,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ProbeResult:
    """Gate the Cesaro limit of every CTC basis state and of the maximally
    mixed state with one :func:`solve_fixed_point` call each, then cluster
    the converged results by their diagonals.  The limits depend on a start
    only through its diagonal, so the starts are the rows of the identity
    and the uniform vector.

    Needs a channel given by prep vectors, as :func:`kraus_from` builds; a
    literal Kraus list raises ValueError.  A prep-vector channel maps a
    state with diagonal p to W diag(p) W^dag, so every fixed point is
    sigma_p = W diag(p) W^dag with p = diag(sigma_p) = M p, and two fixed
    points are exactly 1/2 |p - q|_1 apart in trace distance:

    * at most, since sigma_p - sigma_q = sum_j (p_j - q_j) |w_j><w_j| and
      every column w_j has unit norm;
    * at least, since taking the diagonal (pinching) never increases the
      trace norm.
    """
    starts = [*np.eye(ch.dim), np.full(ch.dim, 1.0 / ch.dim)]
    reps: list[FixedPointResult] = []
    dropped = 0
    for p0 in starts:
        res = solve_fixed_point(ch, _cesaro_state(ch, p0), tol, max_iters)
        if not res.converged:
            dropped += 1
            continue
        p = res.sigma.diagonal()
        for i, rep in enumerate(reps):
            if 0.5 * np.sum(np.abs(p - rep.sigma.diagonal())) < CLUSTER_TOL:
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
