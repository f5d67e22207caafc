"""Builders for the register encoder, the loop-assisted decoder and the
cloning circuit, decomposed entirely into one- and two-qubit gates.

The decoder acts on two equal registers: the ordinary (chronology-respecting,
"CR") register and the closed-timelike-curve ("CTC") register.  Its gate list
is laid down in five named blocks:

* ``swap``               -- register-wise SWAP of CR and CTC
* ``rotation``           -- CR-controlled rotations undoing the state
                            preparation on CTC wire 0
* ``fanout``             -- Hadamards on the remaining CTC wires, controlled
                            by CTC wire 0
* ``popcount_rotation``  -- rotations on CTC wire 0 controlled by each
                            remaining CTC wire (angles add with the number of
                            set bits)
* ``xor_copy``           -- bitwise CNOTs copying the CR value into CTC

Multi-controlled blocks are decomposed into independent two-qubit gates using
angle additivity of fixed-axis rotations and the bitwise structure of XOR,
which is what makes the linear two-qubit gate count emerge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .qsim import (
    DensityMatrix,
    Gate,
    PureState,
    apply_gate,
    apply_matrix_on_wires,
    gate_matrix,
)

__all__ = [
    "RegisterLayout",
    "Circuit",
    "psi_k",
    "bloch_state",
    "build_encoder",
    "build_decoder",
    "build_cloner",
    "two_qubit_gate_count",
    "circuit_unitary",
    "apply_circuit",
    "apply_with_cr_fixed",
]

MAX_APPLY_QUBITS = 16   # statevector application limit
MAX_UNITARY_QUBITS = 10  # full-matrix materialization limit


@dataclass(frozen=True)
class RegisterLayout:
    """Wire assignment of the CR and CTC registers.

    ``n`` is the polar register width and ``m`` the azimuthal width (0 for
    plain encode/decode circuits); both registers hold n+m wires.  Wire 0 of
    each register is the most significant bit; the CTC register excluding its
    first wire is addressed through :meth:`ctc_prime_wires`.
    """

    n: int
    m: int
    cr_wires: tuple[int, ...]
    ctc_wires: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cr_wires", tuple(int(w) for w in self.cr_wires))
        object.__setattr__(self, "ctc_wires", tuple(int(w) for w in self.ctc_wires))
        width = self.n + self.m
        if len(self.cr_wires) != width or len(self.ctc_wires) != width:
            raise ValueError("each register must hold n + m wires")
        if set(self.cr_wires) & set(self.ctc_wires):
            raise ValueError("cr_wires and ctc_wires must be disjoint")

    @property
    def width(self) -> int:
        return self.n + self.m

    def ctc_prime_wires(self) -> tuple[int, ...]:
        return self.ctc_wires[1:]


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered list of one- and two-qubit gates with optional register
    layout and named gate-range slices."""

    qubit_count: int
    gates: tuple[Gate, ...]
    layout: RegisterLayout | None = None
    slices: Mapping[str, tuple[int, int]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for w in g.wires:
                if not 0 <= w < self.qubit_count:
                    raise ValueError(f"gate wire {w} outside circuit of {self.qubit_count} qubits")
        if self.slices is not None:
            object.__setattr__(
                self, "slices", {k: (int(a), int(b)) for k, (a, b) in self.slices.items()}
            )

    def slice_gates(self, name: str) -> tuple[Gate, ...]:
        if self.slices is None or name not in self.slices:
            raise KeyError(f"circuit has no slice {name!r}")
        a, b = self.slices[name]
        return self.gates[a:b]


def psi_k(n: int, k: int) -> PureState:
    """Single-qubit code state for register value k at width n.

    Returns cos(pi k / 2^n)|0> + sin(pi k / 2^n)|1>: the 2^n evenly spaced
    states on the XZ great circle of the Bloch sphere.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k < 2**n:
        raise ValueError(f"k={k} out of range [0, {2**n})")
    ang = np.pi * k / 2**n
    return PureState(1, np.array([np.cos(ang), np.sin(ang)], dtype=complex))


def bloch_state(theta: float, phi: float) -> PureState:
    """Single-qubit state at polar angle theta and azimuthal angle phi.

    cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.  theta = pi is accepted as a
    probe input even though it lies outside the perfectly decodable set.
    """
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta={theta} outside [0, pi]")
    if not 0.0 <= phi < 2 * np.pi:
        raise ValueError(f"phi={phi} outside [0, 2*pi)")
    amps = np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )
    return PureState(1, amps)


def build_encoder(n: int, bits: int) -> Circuit:
    """Encoder circuit: one encoding qubit (wire 0) plus n control qubits.

    Control wire w (1-based from the top) holds the register bit of weight
    2^(n-w); X gates prepare the control register at value ``bits`` and each
    set control applies a Y-rotation by 2*pi*(bit weight)/2^n to the encoding
    qubit, accumulating a total rotation of 2*pi*bits/2^n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= bits < 2**n:
        raise ValueError(f"bits={bits} out of range [0, {2**n})")
    gates: list[Gate] = []
    for w in range(1, n + 1):
        weight = 2 ** (n - w)
        if bits & weight:
            gates.append(Gate("X", (w,)))
    for w in range(1, n + 1):
        weight = 2 ** (n - w)
        gates.append(Gate("controlled-Ry", (w, 0), 2 * np.pi * weight / 2**n))
    return Circuit(n + 1, tuple(gates))


def _loop_circuit(n: int, m: int, rotation_gates) -> Circuit:
    """Common S / rotation / fanout / popcount / copy scaffold."""
    width = n + m
    cr = tuple(range(width))
    ctc = tuple(range(width, 2 * width))
    layout = RegisterLayout(n, m, cr, ctc)
    gates: list[Gate] = []
    slices: dict[str, tuple[int, int]] = {}

    start = len(gates)
    for i in range(width):
        gates.append(Gate("SWAP", (cr[i], ctc[i])))
    slices["swap"] = (start, len(gates))

    start = len(gates)
    gates.extend(rotation_gates(cr, ctc))
    slices["rotation"] = (start, len(gates))

    start = len(gates)
    for w in layout.ctc_prime_wires():
        gates.append(Gate("controlled-H", (ctc[0], w)))
    slices["fanout"] = (start, len(gates))

    start = len(gates)
    for w in layout.ctc_prime_wires():
        gates.append(Gate("controlled-Ry", (w, ctc[0]), np.pi / width))
    slices["popcount_rotation"] = (start, len(gates))

    start = len(gates)
    for i in range(width):
        gates.append(Gate("CNOT", (cr[i], ctc[i])))
    slices["xor_copy"] = (start, len(gates))

    return Circuit(2 * width, tuple(gates), layout, slices)


def build_decoder(n: int) -> Circuit:
    """Decoder on 2n qubits retrieving a register value from the code state.

    The rotation block turns the code qubit back to |0> when the CR register
    holds the encoded value: CR wire of bit weight v controls a Y-rotation by
    -2*pi*v/2^n on CTC wire 0.
    """
    if n < 1:
        raise ValueError("n must be at least 1")

    def rotations(cr, ctc):
        out = []
        for i, w in enumerate(cr):
            weight = 2 ** (n - 1 - i)
            out.append(Gate("controlled-Ry", (w, ctc[0]), -2 * np.pi * weight / 2**n))
        return out

    return _loop_circuit(n, 0, rotations)


def build_cloner(n: int, m: int) -> Circuit:
    """Cloning circuit on 2(n+m) qubits.

    The CR register holds the input qubit on wire 0 plus n+m-1 ancillas in
    |0>; the CTC register holds n polar wires followed by m azimuthal wires.
    The rotation block first undoes the azimuthal (Z-axis) rotation, then the
    polar (Y-axis) rotation, so a state prepared at grid angles
    (pi*k/2^n, 2*pi*l/2^m) returns to |0> up to a global phase.  The rest of
    the structure matches the decoder at register width n+m.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")

    def rotations(cr, ctc):
        out = []
        for j in range(m):
            weight = 2 ** (m - 1 - j)
            out.append(
                Gate("controlled-Rz", (cr[n + j], ctc[0]), -2 * np.pi * weight / 2**m)
            )
        for i in range(n):
            weight = 2 ** (n - 1 - i)
            out.append(Gate("controlled-Ry", (cr[i], ctc[0]), -np.pi * weight / 2**n))
        return out

    return _loop_circuit(n, m, rotations)


def two_qubit_gate_count(circuit: Circuit) -> int:
    """Number of gates acting on exactly two wires."""
    return sum(1 for g in circuit.gates if len(g.wires) == 2)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Materialize the full circuit unitary (for oracle-style checks only)."""
    if circuit.qubit_count > MAX_UNITARY_QUBITS:
        raise ValueError(
            f"refusing to materialize a {circuit.qubit_count}-qubit unitary "
            f"(limit {MAX_UNITARY_QUBITS})"
        )
    dim = 2**circuit.qubit_count
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        u = apply_matrix_on_wires(u, gate_matrix(g), g.wires, circuit.qubit_count)
    return u


def apply_circuit(circuit: Circuit, state):
    """Apply the circuit gate by gate to a PureState or DensityMatrix."""
    if circuit.qubit_count > MAX_APPLY_QUBITS:
        raise ValueError(
            f"circuit of {circuit.qubit_count} qubits exceeds the "
            f"{MAX_APPLY_QUBITS}-qubit application limit"
        )
    if state.qubit_count != circuit.qubit_count:
        raise ValueError("state width does not match circuit")
    for g in circuit.gates:
        state = apply_gate(state, g)
    return state


_CONTROLLED_BASE = {
    "controlled-Ry": "Ry",
    "controlled-Rz": "Rz",
    "controlled-H": "H",
    "CNOT": "X",
}


def apply_with_cr_fixed(circuit: Circuit, ctc_vector: np.ndarray) -> np.ndarray:
    """Every conditional CTC block of a register-swap circuit applied to
    ``ctc_vector``, in one pass over the gates.

    A register-swap circuit opens with a ``swap`` slice of SWAP gates pairing
    CR wire i with CTC wire i; after it, each gate acts on CTC wires alone or
    is a CR-controlled one-qubit gate on a CTC wire.  With the CR register
    frozen to basis value j, a controlled gate collapses to its base gate
    (control bit set) or the identity, which leaves the conditional CTC
    unitary U_j.  Returns the (2^w, 2^w) matrix whose column j is
    U_j @ ctc_vector, w being the register width; any other circuit raises
    ValueError.
    """
    layout, slices = circuit.layout, circuit.slices
    if layout is None or slices is None or "swap" not in slices:
        raise ValueError("circuit has no register layout or swap slice")
    swap_start, swap_end = slices["swap"]
    swaps = circuit.gates[swap_start:swap_end]
    if (
        swap_start != 0
        or any(g.kind != "SWAP" for g in swaps)
        or sorted(g.wires for g in swaps) != sorted(zip(layout.cr_wires, layout.ctc_wires))
    ):
        raise ValueError("circuit does not open with a CR/CTC register swap")
    width = layout.width
    dim = 2**width
    vec = np.asarray(ctc_vector, dtype=complex)
    if vec.shape != (dim,):
        raise ValueError(f"ctc_vector has shape {vec.shape}, the register needs ({dim},)")
    cr_pos = {w: i for i, w in enumerate(layout.cr_wires)}
    ctc_pos = {w: i for i, w in enumerate(layout.ctc_wires)}
    cr_values = np.arange(dim)

    out = np.repeat(vec[:, None], dim, axis=1)
    for g in circuit.gates[swap_end:]:
        if g.wires[0] in cr_pos:
            if g.kind not in _CONTROLLED_BASE or g.wires[1] not in ctc_pos:
                raise ValueError(f"gate {g} is not a CR-controlled CTC gate")
            cols = np.flatnonzero((cr_values >> (width - 1 - cr_pos[g.wires[0]])) & 1)
            base = Gate(_CONTROLLED_BASE[g.kind], (0,), g.angle)
            target = (ctc_pos[g.wires[1]],)
            out[:, cols] = apply_matrix_on_wires(out[:, cols], gate_matrix(base), target, width)
        else:
            if any(w not in ctc_pos for w in g.wires):
                raise ValueError(f"gate {g} mixes registers in an unsupported way")
            wires = tuple(ctc_pos[w] for w in g.wires)
            out = apply_matrix_on_wires(out, gate_matrix(g), wires, width)
    return out
