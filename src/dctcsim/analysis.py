"""Experiment pipelines: uniqueness verification of the decoder's fixed
point, decode and convergence runs, cloning fidelity and Bloch-sphere sweeps,
and the mutual-information accounting for the coding scheme.

The uniqueness check compares two routes to the same overlap: a closed-form
expression built from the fan-out/popcount block amplitudes, and a direct
matrix computation from the circuit's conditional CTC blocks, all of which
:func:`apply_with_cr_fixed` builds in one pass per code input.  A nonzero
overlap for every (register value, initial CTC value) pair certifies that
the self-consistent CTC state is unique, which is what makes the decode
deterministic.

The decode and clone pipelines take the CR measurement distribution as
``sigma.diagonal()``.  :func:`kraus_from` builds a channel only for
register-swap circuits, from the conditional blocks of
:func:`apply_with_cr_fixed`.  There the swap leaves sigma on the CR register,
and :func:`apply_with_cr_fixed` rejects any later gate that uses a CR wire
other than as a control, so the CR populations stay diag(sigma).  The
full-circuit :func:`dctcsim.engine.readout` is the oracle the tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (
    apply_with_cr_fixed,
    bloch_state,
    build_cloner,
    build_decoder,
    psi_k,
)
from .engine import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    ConvergenceError,
    FixedPointResult,
    apply_channel,
    cesaro_limit,
    fixed_point_to_json,
    kraus_from,
    probe_fixed_points,
    readout,  # not called here; perfbench/tracing.py wraps analysis.readout
    solve_fixed_point,
)
from .qsim import DensityMatrix, PureState, fidelity, kron

__all__ = [
    "OverlapReport",
    "DecodeResult",
    "CloneResult",
    "FixedPointEvaluation",
    "SweepRow",
    "UniquenessError",
    "alpha",
    "overlap_closed_form",
    "numeric_overlap",
    "verify_uniqueness",
    "decode_cr_input",
    "clone_cr_input",
    "initial_ctc_state",
    "decode_experiment",
    "convergence_trace",
    "clone_fidelity",
    "bloch_sweep",
    "sweep_rows_to_csv",
    "mutual_information",
    "overlap_reports_to_json",
    "decode_result_to_json",
    "clone_result_to_json",
]

OVERLAP_ATOL = 1e-10


class UniquenessError(AssertionError):
    """A closed-form/numeric overlap disagreement or a vanishing overlap."""

    def __init__(self, n: int, k: int, j: int, message: str):
        super().__init__(f"uniqueness check failed at n={n}, k={k}, j={j}: {message}")
        self.n, self.k, self.j = n, k, j


def _popcount(x: int) -> int:
    return int(x).bit_count()


def alpha(n: int, i: int) -> float:
    """Amplitude picked up by CTC basis state i from the fan-out and
    popcount-rotation blocks at register width n.

    sin(pi/2 * (1 + (o(i)-1)/n)) when the top bit of i is set, else
    cos(pi/2 * (1 + o(i)/n)), with o(i) the number of set bits.  Nonzero for
    every i in [1, 2^n); undefined at i = 0.
    """
    if not 1 <= i < 2**n:
        raise ValueError(f"i={i} out of range [1, {2**n})")
    o = _popcount(i)
    if i >= 2 ** (n - 1):
        return float(np.sin(np.pi / 2 * (1 + (o - 1) / n)))
    return float(np.cos(np.pi / 2 * (1 + o / n)))


def overlap_closed_form(n: int, k: int, j: int) -> float:
    """Closed-form overlap between CTC basis state k and the conditional
    block for CR value j applied to the width-n code input for k.

    Equals 1 when j = k; otherwise sin(theta_kj/2) * alpha(j XOR k) scaled by
    1/sqrt(2^(n-1)), with theta_kj = 2*pi*(k-j)/2^n.
    """
    dim = 2**n
    if not (0 <= k < dim and 0 <= j < dim):
        raise ValueError(f"k={k}, j={j} out of range [0, {dim})")
    if j == k:
        return 1.0
    theta = 2 * np.pi * (k - j) / dim
    return float(np.sin(theta / 2) * alpha(n, j ^ k) / np.sqrt(2 ** (n - 1)))


def numeric_overlap(n: int, k: int, j: int) -> complex:
    """Same overlap as :func:`overlap_closed_form`, computed from matrices:
    the decoder's conditional CTC block for CR value j is applied to the code
    input for k and the component on basis state k is returned."""
    dim = 2**n
    if not (0 <= k < dim and 0 <= j < dim):
        raise ValueError(f"k={k}, j={j} out of range [0, {dim})")
    blocks = apply_with_cr_fixed(build_decoder(n), decode_cr_input(n, k).amplitudes)
    return complex(blocks[k, j])


@dataclass(frozen=True)
class OverlapReport:
    """One (k, j) overlap comparison; ``alpha`` is None on the diagonal j=k
    where the closed form is the constant 1."""

    n: int
    k: int
    j: int
    theta_kj: float
    popcount: int
    alpha: float | None
    closed_form: float
    numeric: complex
    agree: bool


def verify_uniqueness(n: int) -> list[OverlapReport]:
    """All 4^n overlap comparisons at width n; fails loudly on any
    closed-form/numeric disagreement beyond 1e-10 or any vanishing overlap."""
    if not 1 <= n <= 5:
        raise ValueError("n must be in 1..5")
    dim = 2**n
    circuit = build_decoder(n)
    reports: list[OverlapReport] = []
    for k in range(dim):
        blocks = apply_with_cr_fixed(circuit, decode_cr_input(n, k).amplitudes)
        for j in range(dim):
            numeric = complex(blocks[k, j])
            closed = overlap_closed_form(n, k, j)
            err = abs(numeric - closed)
            agree = err <= OVERLAP_ATOL
            reports.append(
                OverlapReport(
                    n=n,
                    k=k,
                    j=j,
                    theta_kj=float(2 * np.pi * (k - j) / dim),
                    popcount=_popcount(j ^ k),
                    alpha=None if j == k else alpha(n, j ^ k),
                    closed_form=closed,
                    numeric=numeric,
                    agree=agree,
                )
            )
            if not agree:
                raise UniquenessError(
                    n, k, j, f"|numeric - closed_form| = {err:.3e} exceeds {OVERLAP_ATOL}"
                )
            if closed == 0.0:
                raise UniquenessError(n, k, j, "closed-form overlap vanishes")
    return reports


# --- decode and convergence ------------------------------------------------


def _with_zero_ancillas(qubit: PureState, width: int) -> PureState:
    """``qubit`` on wire 0 followed by width - 1 ancillas in |0>."""
    vec = qubit.amplitudes
    if width > 1:
        vec = kron(vec, PureState.basis(width - 1, 0).amplitudes)
    return PureState(width, vec)


def decode_cr_input(n: int, k: int) -> PureState:
    """CR register input for the decoder: code qubit for k plus |0> ancillas."""
    return _with_zero_ancillas(psi_k(n, k), n)


def clone_cr_input(n: int, m: int, theta: float, phi: float) -> PureState:
    """CR register input for the cloner: the target qubit plus |0> ancillas."""
    return _with_zero_ancillas(bloch_state(theta, phi), n + m)


def initial_ctc_state(spec: str, qubits: int) -> DensityMatrix:
    """Initial CTC state from a spec string: mixed | plus | basis:<index>."""
    if spec == "mixed":
        return DensityMatrix.maximally_mixed(qubits)
    if spec == "plus":
        return PureState.plus(qubits).density()
    if spec.startswith("basis:"):
        idx = int(spec.split(":", 1)[1])
        return PureState.basis(qubits, idx).density()
    raise ValueError(f"unknown initial state spec {spec!r}")


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Readout distribution and fixed-point diagnostics for one decode run."""

    n: int
    k: int
    distribution: np.ndarray
    decoded: int
    success_prob: float
    fixed_point: FixedPointResult


def decode_experiment(
    n: int,
    k: int,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> DecodeResult:
    """Encode k into the code state, build the decoder, solve the
    self-consistency fixed point reached from the maximally mixed state, and
    read the CR register out as the fixed point's diagonal (see the module
    docstring).  The solve starts at that state's Cesaro limit, so its trace
    records the one verification step.  Non-convergence propagates as
    converged=False with partial data rather than an exception.
    """
    if n > 4:
        raise ValueError("decode_experiment supports n <= 4")
    channel = kraus_from(build_decoder(n), decode_cr_input(n, k))
    init = cesaro_limit(channel, DensityMatrix.maximally_mixed(n))
    result = solve_fixed_point(channel, init, tol, max_iters)
    distribution = result.sigma.diagonal()
    decoded = int(np.argmax(distribution))
    return DecodeResult(
        n=n,
        k=k,
        distribution=distribution,
        decoded=decoded,
        success_prob=float(distribution[k]),
        fixed_point=result,
    )


def convergence_trace(
    n: int, k: int, iters: int, init: str = "plus"
) -> np.ndarray:
    """Diagonal CTC populations along repeated channel application.

    Row 0 is the initial state's diagonal; row t the diagonal after t
    applications, for t up to ``iters``.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if n > 8:
        raise ValueError("convergence_trace supports n <= 8")
    channel = kraus_from(build_decoder(n), decode_cr_input(n, k))
    omega = initial_ctc_state(init, n)
    rows = [omega.diagonal()]
    for _ in range(iters):
        omega = apply_channel(channel, omega)
        rows.append(omega.diagonal())
    return np.array(rows)


# --- cloning ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FixedPointEvaluation:
    """CR distribution (the fixed point's diagonal), reconstructed qubit, and
    fidelity for one fixed point of the cloning channel."""

    distribution: np.ndarray   # shape (2^n, 2^m), indexed by (polar, azimuthal)
    reconstructed: DensityMatrix
    fidelity: float
    fixed_point: FixedPointResult


@dataclass(frozen=True, eq=False)
class CloneResult:
    n: int
    m: int
    theta: float
    phi: float
    per_fixed_point: list[FixedPointEvaluation]
    min_fidelity: float
    max_fidelity: float
    dropped_starts: int


def clone_fidelity(
    n: int,
    m: int,
    theta: float,
    phi: float,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> CloneResult:
    """Fidelity of reconstructing a qubit through the cloning circuit.

    Probes the induced channel for fixed points from every basis start; for
    each fixed point found, reads the (polar, azimuthal) distribution off its
    diagonal (see the module docstring), rebuilds the target qubit as the
    corresponding mixture of grid states, and evaluates the squared-overlap
    fidelity against the input.  When the fixed point is not unique every
    representative is evaluated and the min/max across them is reported.
    """
    if n + m > 8:
        raise ValueError("clone_fidelity supports n + m <= 8")
    channel = kraus_from(build_cloner(n, m), clone_cr_input(n, m, theta, phi))
    probe = probe_fixed_points(channel, tol, max_iters)
    if not probe.fixed_points:
        raise ConvergenceError(
            f"no converged fixed point for cloner n={n}, m={m}, "
            f"theta={theta}, phi={phi}"
        )
    target = bloch_state(theta, phi)
    # Row k * 2^m + l holds the grid state for CR value (polar k, azimuthal l).
    grid = np.array(
        [
            bloch_state(np.pi * k / 2**n, 2 * np.pi * l / 2**m).amplitudes
            for k in range(2**n)
            for l in range(2**m)
        ]
    )
    evaluations: list[FixedPointEvaluation] = []
    for res in probe.results:
        p = res.sigma.diagonal()
        rho = grid.T @ (p[:, None] * grid.conj())
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.real(np.trace(rho))
        reconstructed = DensityMatrix(1, rho)
        evaluations.append(
            FixedPointEvaluation(
                distribution=p.reshape(2**n, 2**m),
                reconstructed=reconstructed,
                fidelity=fidelity(target, reconstructed),
                fixed_point=res,
            )
        )
    fids = [e.fidelity for e in evaluations]
    return CloneResult(
        n=n,
        m=m,
        theta=float(theta),
        phi=float(phi),
        per_fixed_point=evaluations,
        min_fidelity=min(fids),
        max_fidelity=max(fids),
        dropped_starts=probe.dropped,
    )


@dataclass(frozen=True)
class SweepRow:
    theta: float
    phi: float
    fidelity: float
    fixed_points: int
    converged: bool


def bloch_sweep(
    n: int,
    m: int,
    theta_steps: int,
    phi_steps: int,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[list[SweepRow], list[tuple[float, float, str]]]:
    """Cloning fidelity over a Bloch-sphere grid.

    Evaluates the worst case (minimum over fixed points) at
    theta_i = pi*i/(theta_steps-1), phi_j = 2*pi*j/phi_steps.  Failed points
    are left out of the rows and returned as (theta, phi, reason) records.
    """
    if theta_steps < 2 or phi_steps < 2:
        raise ValueError("grid sizes must be at least 2")
    if n + m > 6:
        raise ValueError("full sweeps support n + m <= 6")
    rows: list[SweepRow] = []
    failures: list[tuple[float, float, str]] = []
    for i in range(theta_steps):
        theta = np.pi * i / (theta_steps - 1)
        for j in range(phi_steps):
            phi = 2 * np.pi * j / phi_steps
            try:
                res = clone_fidelity(n, m, theta, phi, tol, max_iters)
            except ConvergenceError as exc:
                failures.append((float(theta), float(phi), str(exc)))
                continue
            rows.append(
                SweepRow(
                    theta=float(theta),
                    phi=float(phi),
                    fidelity=res.min_fidelity,
                    fixed_points=len(res.per_fixed_point),
                    converged=res.dropped_starts == 0,
                )
            )
    return rows, failures


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    """CSV document with the stable header theta,phi,fidelity,fixed_points,converged."""
    lines = ["theta,phi,fidelity,fixed_points,converged"]
    for r in rows:
        lines.append(
            f"{r.theta!r},{r.phi!r},{r.fidelity!r},{r.fixed_points},{str(r.converged).lower()}"
        )
    return "\n".join(lines) + "\n"


def mutual_information(n: int) -> float:
    """Mutual information (bits) between a uniform register value and the
    decoded readout, using exact distributions from the decode pipeline."""
    if n > 4:
        raise ValueError("mutual_information supports n <= 4")
    dim = 2**n
    cond = np.array([decode_experiment(n, k).distribution for k in range(dim)])
    joint = cond / dim                      # p(k, j), rows k
    marginal_j = joint.sum(axis=0)
    info = 0.0
    for k in range(dim):
        for j in range(dim):
            p = joint[k, j]
            if p <= 0.0:
                continue
            info += p * np.log2(p / ((1.0 / dim) * marginal_j[j]))
    return float(info)


# --- serialization ----------------------------------------------------------


def overlap_reports_to_json(reports: list[OverlapReport]) -> list[dict]:
    return [
        {
            "n": r.n,
            "k": r.k,
            "j": r.j,
            "theta_kj": r.theta_kj,
            "popcount": r.popcount,
            "alpha": r.alpha,
            "closed_form": r.closed_form,
            "numeric": {"re": r.numeric.real, "im": r.numeric.imag},
            "agree": r.agree,
        }
        for r in reports
    ]


def decode_result_to_json(result: DecodeResult) -> dict:
    return {
        "n": result.n,
        "k": result.k,
        "distribution": [float(p) for p in result.distribution],
        "decoded": result.decoded,
        "success_prob": result.success_prob,
        "fixed_point": fixed_point_to_json(result.fixed_point),
    }


def clone_result_to_json(result: CloneResult) -> dict:
    return {
        "n": result.n,
        "m": result.m,
        "theta": result.theta,
        "phi": result.phi,
        "min_fidelity": result.min_fidelity,
        "max_fidelity": result.max_fidelity,
        "dropped_starts": result.dropped_starts,
        "per_fixed_point": [
            {
                "fidelity": e.fidelity,
                "distribution": [[float(p) for p in row] for row in e.distribution],
                "reconstructed": [
                    [{"re": z.real, "im": z.imag} for z in row]
                    for row in e.reconstructed.matrix
                ],
                "residual": e.fixed_point.residual,
                "iterations": e.fixed_point.iterations,
            }
            for e in result.per_fixed_point
        ],
    }
