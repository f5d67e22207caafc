"""Density-matrix simulation of circuits coupled to a Deutschian
closed-timelike-curve register: linear coding of a classical register into a
single qubit, self-consistency fixed-point solving, and approximate cloning,
all with linear two-qubit gate cost."""

from .qsim import (
    DensityMatrix,
    Gate,
    PureState,
    apply_gate,
    fidelity,
    kron,
    partial_trace,
    trace_distance,
)
from .circuits import (
    Circuit,
    RegisterLayout,
    apply_circuit,
    bloch_state,
    build_cloner,
    build_decoder,
    build_encoder,
    circuit_unitary,
    psi_k,
    two_qubit_gate_count,
)
from .engine import (
    ConvergenceError,
    CtcChannel,
    FixedPointResult,
    ProbeResult,
    apply_channel,
    kraus_from,
    probe_fixed_points,
    readout,
    simulate_unrolled,
    solve_fixed_point,
)
from .analysis import (
    CloneResult,
    DecodeResult,
    OverlapReport,
    UniquenessError,
    alpha,
    bloch_sweep,
    clone_fidelity,
    convergence_trace,
    decode_experiment,
    mutual_information,
    overlap_closed_form,
    verify_uniqueness,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix", "Gate", "PureState", "apply_gate", "fidelity", "kron",
    "partial_trace", "trace_distance",
    "Circuit", "RegisterLayout", "apply_circuit", "bloch_state", "build_cloner",
    "build_decoder", "build_encoder", "circuit_unitary", "psi_k",
    "two_qubit_gate_count",
    "ConvergenceError", "CtcChannel", "FixedPointResult", "ProbeResult",
    "apply_channel", "kraus_from", "probe_fixed_points", "readout",
    "simulate_unrolled", "solve_fixed_point",
    "CloneResult", "DecodeResult", "OverlapReport", "UniquenessError", "alpha",
    "bloch_sweep", "clone_fidelity", "convergence_trace", "decode_experiment",
    "mutual_information", "overlap_closed_form", "verify_uniqueness",
]
