"""Dense complex linear algebra and quantum-state primitives.

States live on qubit registers where wire 0 carries the *most significant*
bit of the register's computational-basis value, so ``|a b c>`` is the basis
state with index ``4a + 2b + c``.  All state objects are immutable after
construction and every operation here is a pure function, which makes the
whole layer safe to share across parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Gate",
    "PureState",
    "DensityMatrix",
    "kron",
    "gate_matrix",
    "apply_gate",
    "apply_matrix_on_wires",
    "partial_trace",
    "fidelity",
    "trace_distance",
    "is_unitary",
]

# Tolerances for state invariants (checked at construction time).
NORM_ATOL = 1e-12
HERM_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10
UNITARY_ATOL = 1e-10

_PSD_PROBE_COUNT = 8
_PSD_PROBE_SEED = 0x1D5EED


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two complex matrices (or vectors)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_unitary(m: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    """True if ``m`` is square and m-dagger m = identity entrywise within atol."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= atol)


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector on ``qubit_count`` qubits."""

    qubit_count: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be at least 1")
        if amps.shape[0] != 2**self.qubit_count:
            raise ValueError(
                f"expected {2**self.qubit_count} amplitudes, got {amps.shape[0]}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, qubit_count: int, value: int) -> "PureState":
        """Computational basis state |value> on the given register width."""
        dim = 2**qubit_count
        if not 0 <= value < dim:
            raise ValueError(f"basis value {value} out of range for {qubit_count} qubits")
        amps = np.zeros(dim, dtype=complex)
        amps[value] = 1.0
        return cls(qubit_count, amps)

    @classmethod
    def plus(cls, qubit_count: int) -> "PureState":
        """Uniform superposition |+>^(n), i.e. a Hadamard on every qubit of |0...0>."""
        dim = 2**qubit_count
        return cls(qubit_count, np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))

    def density(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi|."""
        v = self.amplitudes
        return DensityMatrix(self.qubit_count, np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix on a qubit register.

    Positivity is enforced through a cheap testable proxy: non-negative
    diagonal entries plus <v|rho|v> >= -1e-10 for a fixed set of sampled unit
    vectors.  The fixed-point engine's residual check is the authoritative
    convergence gate, so a full eigendecomposition is not needed here.
    """

    qubit_count: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex).copy()
        dim = 2**self.qubit_count
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be at least 1")
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        herm_err = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_err > HERM_ATOL:
            raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {herm_err:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        diag = np.real(np.diagonal(mat))
        if np.min(diag) < -PSD_ATOL:
            raise ValueError(f"negative diagonal entry {np.min(diag):.3e}")
        rng = np.random.default_rng(_PSD_PROBE_SEED)
        for _ in range(_PSD_PROBE_COUNT):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            q = float(np.real(v.conj() @ mat @ v))
            if q < -PSD_ATOL:
                raise ValueError(f"sampled quadratic form is negative: {q:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def maximally_mixed(cls, qubit_count: int) -> "DensityMatrix":
        dim = 2**qubit_count
        return cls(qubit_count, np.eye(dim, dtype=complex) / dim)

    def diagonal(self) -> np.ndarray:
        """Real diagonal populations in the computational basis."""
        return np.real(np.diagonal(self.matrix)).copy()


# --- gates ---------------------------------------------------------------

_ONE_WIRE_KINDS = frozenset({"H", "X", "Ry", "Rz"})
_TWO_WIRE_KINDS = frozenset({"SWAP", "CNOT", "controlled-Ry", "controlled-Rz", "controlled-H"})
_ROTATION_KINDS = frozenset({"Ry", "Rz", "controlled-Ry", "controlled-Rz"})


@dataclass(frozen=True)
class Gate:
    """A one- or two-qubit gate; for controlled kinds the control wire is listed first."""

    kind: str
    wires: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        if self.kind in _ONE_WIRE_KINDS:
            arity = 1
        elif self.kind in _TWO_WIRE_KINDS:
            arity = 2
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.wires) != arity:
            raise ValueError(f"{self.kind} acts on {arity} wire(s), got {self.wires}")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"duplicate wire indices {self.wires}")
        if self.kind in _ROTATION_KINDS:
            if self.angle is None or not np.isfinite(self.angle):
                raise ValueError(f"{self.kind} requires a finite angle")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex
    )


_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _controlled(u: np.ndarray) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary matrix of the gate in the |wires[0] wires[1]> basis ordering."""
    if gate.kind == "H":
        return _H.copy()
    if gate.kind == "X":
        return _X.copy()
    if gate.kind == "Ry":
        return _ry(gate.angle)
    if gate.kind == "Rz":
        return _rz(gate.angle)
    if gate.kind == "SWAP":
        return _SWAP.copy()
    if gate.kind == "CNOT":
        return _controlled(_X)
    if gate.kind == "controlled-Ry":
        return _controlled(_ry(gate.angle))
    if gate.kind == "controlled-Rz":
        return _controlled(_rz(gate.angle))
    if gate.kind == "controlled-H":
        return _controlled(_H)
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def apply_matrix_on_wires(
    arr: np.ndarray, u: np.ndarray, wires: tuple[int, ...], qubit_count: int
) -> np.ndarray:
    """Apply a k-wire unitary at the given wires of a 2^qubit_count-dim array.

    ``arr`` may carry trailing batch axes (columns of a matrix, stacked
    vectors); the unitary is applied to every batch column at once.
    """
    k = len(wires)
    batch = arr.shape[1:]
    t = arr.reshape((2,) * qubit_count + batch)
    t = np.moveaxis(t, list(wires), range(k))
    rest = t.shape[k:]
    t = u @ t.reshape(2**k, -1)
    t = np.moveaxis(t.reshape((2,) * k + rest), range(k), list(wires))
    return t.reshape((2**qubit_count,) + batch)


def _check_wires(wires: tuple[int, ...], qubit_count: int) -> None:
    for w in wires:
        if not 0 <= w < qubit_count:
            raise ValueError(f"wire {w} out of range for {qubit_count} qubits")


def apply_gate(state, gate: Gate):
    """Apply a gate to a PureState or DensityMatrix, returning the same kind.

    The gate matrix is embedded at the specified wires (identity elsewhere);
    density matrices transform by two-sided conjugation.
    """
    u = gate_matrix(gate)
    if isinstance(state, PureState):
        _check_wires(gate.wires, state.qubit_count)
        out = apply_matrix_on_wires(state.amplitudes, u, gate.wires, state.qubit_count)
        return PureState(state.qubit_count, out)
    if isinstance(state, DensityMatrix):
        _check_wires(gate.wires, state.qubit_count)
        left = apply_matrix_on_wires(state.matrix, u, gate.wires, state.qubit_count)
        out = apply_matrix_on_wires(left.conj().T, u, gate.wires, state.qubit_count)
        return DensityMatrix(state.qubit_count, out.conj().T)
    raise TypeError(f"cannot apply gate to {type(state).__name__}")


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (relative wire order preserved)."""
    keep = sorted(set(int(w) for w in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    n = rho.qubit_count
    for w in keep:
        if not 0 <= w < n:
            raise ValueError(f"wire {w} out of range for {n} qubits")
    drop = [w for w in range(n) if w not in keep]
    t = rho.matrix.reshape((2,) * (2 * n))
    remaining = n
    for w in sorted(drop, reverse=True):
        t = np.trace(t, axis1=w, axis2=w + remaining)
        remaining -= 1
    dim = 2 ** len(keep)
    return DensityMatrix(len(keep), t.reshape(dim, dim))


def fidelity(psi: PureState, rho: DensityMatrix) -> float:
    """Squared-overlap fidelity <psi|rho|psi>, clipped into [0, 1]."""
    if psi.qubit_count != rho.qubit_count:
        raise ValueError("qubit counts do not match")
    v = psi.amplitudes
    val = float(np.real(v.conj() @ rho.matrix @ v))
    return float(min(max(val, 0.0), 1.0))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of singular values of a - b."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("qubit counts do not match")
    return trace_distance_raw(a.matrix, b.matrix)


def trace_distance_raw(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError("shapes do not match")
    return 0.5 * float(np.sum(np.linalg.svd(a - b, compute_uv=False)))
