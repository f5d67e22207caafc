"""Workloads of the dctcsim benchmark: the inputs each one draws from its
seed, the op it times, and the check every op's output must pass.

Checks return ``None`` for a correct output and a one-line reason otherwise.
They never run inside a timed region.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Iterator

import numpy as np

from dctcsim import analysis, circuits, engine, qsim

IN_PROCESS = ("decode", "clone-point")
SWEEPS = {
    "sweep-n2m2": {"n": 2, "m": 2, "theta_steps": 9, "phi_steps": 16},
    "sweep-n3m3": {"n": 3, "m": 3, "theta_steps": 2, "phi_steps": 2},
}
WORKLOADS = IN_PROCESS + tuple(SWEEPS)

# The library's own iteration cap for its cloning pipelines, and the value
# README recommends for slowly contracting channels.  At the decode default of
# 1000 iterations every n=4 decode stops unconverged with p(k) short of 1 by
# 3e-5 to 5e-5, which the decode check rejects.
DECODE_MAX_ITERS = 20000
SWEEP_TOL = "1e-10"
SWEEP_MAX_ITERS = "20000"

CLONE_PAIRS = ((2, 2), (2, 3), (3, 2))
# Below theta ~ 0.055 the iterative probe drops starts at 20000 iterations,
# and up to pi/16 one op costs 0.3 s to 4 s (iterations grow like 1/theta^2),
# so a single draw there can fill much of a run.  Inputs start at pi/16.
CLONE_THETA_MIN = math.pi / 16
CLONE_STRATA = 16  # a power of two, for the bit-reversed order

# Fixed warm-up inputs, so set-up time does not depend on the seed.
WARMUP = {"decode": (3, 5), "clone-point": (2, 3, math.pi / 2, 1.0)}

DECODE_P_ATOL = 1e-9
CLONE_FIDELITY_ATOL = 1e-7
NULL_SV_ATOL = 1e-9
SWEEP_FIDELITY_ATOL = 1e-6
POLE_FIDELITY_ATOL = 1e-8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def inputs(workload: str, seed: int) -> Iterator[tuple]:
    """Endless op inputs drawn from ``seed``, in balanced blocks.

    A ``decode`` block holds one input per n in {2, 3, 4}, shuffled.  A
    ``clone-point`` block holds every (n, m) pair once per polar stratum of
    [pi/16, pi], with theta uniform within the stratum; strata come in
    bit-reversed order so that any prefix of a block spreads over the whole
    range.  Op cost varies widely with (n, m) and the angles, so balanced
    blocks keep a run's throughput mostly a property of the program, not of
    the draw.
    """
    rng = np.random.default_rng(seed)
    width = (math.pi - CLONE_THETA_MIN) / CLONE_STRATA
    bits = CLONE_STRATA.bit_length() - 1
    order = [int(f"{i:0{bits}b}"[::-1], 2) for i in range(CLONE_STRATA)]
    while True:
        if workload == "decode":
            yield from ((int(n), int(rng.integers(2**n))) for n in rng.permutation([2, 3, 4]))
        elif workload == "clone-point":
            for rep in range(len(CLONE_PAIRS)):
                for i, stratum in enumerate(order):
                    n, m = CLONE_PAIRS[(i + rep) % len(CLONE_PAIRS)]
                    theta = CLONE_THETA_MIN + width * (stratum + rng.random())
                    yield n, m, theta, 2 * math.pi * rng.random()
        else:
            raise ValueError(f"{workload!r} has no seeded inputs")


def run_op(workload: str, args: tuple):
    """One op of an in-process workload, through the public API."""
    if workload == "decode":
        n, k = args
        return analysis.decode_experiment(n, k, max_iters=DECODE_MAX_ITERS)
    n, m, theta, phi = args
    return analysis.clone_fidelity(n, m, theta, phi)


def check(workload: str, args: tuple, result) -> str | None:
    if workload == "decode":
        return check_decode(args, result)
    return check_clone(args, result)


def check_decode(args: tuple, result) -> str | None:
    n, k = args
    if result.decoded != k:
        return f"decoded {result.decoded}, expected {k}"
    if not result.fixed_point.converged:
        return "fixed point not converged"
    if result.success_prob < 1 - DECODE_P_ATOL:
        return f"success_prob {result.success_prob!r} below 1 - {DECODE_P_ATOL}"
    return None


def oracle_clone(n: int, m: int, theta: float, phi: float) -> tuple[float, int]:
    """Fidelity and fixed-point count from the null space of M - I.

    M is the column-stochastic matrix of the induced channel.  Its
    eigenvalue-1 eigenvector is the fixed point's diagonal, which for the
    register-swap cloner is also the CR readout, so no solver iteration and
    no circuit readout is involved.  The grid mixture and the fidelity are
    rebuilt here from the Bloch-state formula.
    """
    target = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
    vec = np.zeros(2 ** (n + m), dtype=complex)
    vec[0] = target[0]
    vec[2 ** (n + m - 1)] = target[1]
    cr_input = qsim.PureState(n + m, vec)
    markov = engine.kraus_from(circuits.build_cloner(n, m), cr_input).markov
    _, svals, vh = np.linalg.svd(markov - np.eye(markov.shape[0]))
    nullity = int(np.sum(svals < NULL_SV_ATOL))
    probs = np.real(vh[-1])
    probs = (probs / probs.sum()).reshape(2**n, 2**m)
    rho = np.zeros((2, 2), dtype=complex)
    for k in range(2**n):
        for l in range(2**m):
            a, b = math.pi * k / 2**n, 2 * math.pi * l / 2**m
            amp = np.array([math.cos(a / 2), np.exp(1j * b) * math.sin(a / 2)])
            rho += probs[k, l] * np.outer(amp, amp.conj())
    return float(np.real(target.conj() @ rho @ target)), nullity


def check_clone(args: tuple, result) -> str | None:
    n, m, theta, phi = args
    if result.dropped_starts != 0:
        return f"{result.dropped_starts} probe start(s) dropped"
    if len(result.per_fixed_point) != 1:
        return f"{len(result.per_fixed_point)} fixed points, expected 1"
    fid, nullity = oracle_clone(n, m, theta, phi)
    if nullity != 1:
        return f"oracle finds a {nullity}-dimensional fixed-point space"
    if abs(result.min_fidelity - fid) > CLONE_FIDELITY_ATOL:
        return f"fidelity {result.min_fidelity!r}, oracle {fid!r}"
    return None


def sweep_argv(workload: str) -> list[str]:
    p = SWEEPS[workload]
    return [
        "sweep", "--n", str(p["n"]), "--m", str(p["m"]),
        "--theta-steps", str(p["theta_steps"]), "--phi-steps", str(p["phi_steps"]),
        "--tol", SWEEP_TOL, "--max-iters", SWEEP_MAX_ITERS,
    ]


def reference_rows(workload: str) -> list[dict]:
    """The sweep's CSV rows as produced at the commit that added the benchmark."""
    name = workload.replace("-", "_") + ".csv"
    return _parse_csv((REFERENCE_DIR / name).read_text())


def _parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep(workload: str, returncode: int, stdout: str, reference: list[dict]) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}: {stdout.strip()[:200]}"
    if not stdout.startswith("theta,phi,fidelity,fixed_points,converged\n"):
        return "missing CSV header"
    rows = _parse_csv(stdout)
    p = SWEEPS[workload]
    if len(rows) != p["theta_steps"] * p["phi_steps"]:
        return f"{len(rows)} rows, expected {p['theta_steps'] * p['phi_steps']}"
    for row, ref in zip(rows, reference):
        where = f"theta={row['theta']}, phi={row['phi']}"
        if (row["theta"], row["phi"]) != (ref["theta"], ref["phi"]):
            return f"grid point {where} differs from reference"
        if row["converged"] != "true":
            return f"{where}: converged={row['converged']}"
        if row["fixed_points"] != ref["fixed_points"]:
            return f"{where}: {row['fixed_points']} fixed points, reference {ref['fixed_points']}"
        fid, theta = float(row["fidelity"]), float(row["theta"])
        if abs(fid - float(ref["fidelity"])) > SWEEP_FIDELITY_ATOL:
            return f"{where}: fidelity {fid!r}, reference {ref['fidelity']}"
        if theta == 0.0 and abs(fid - 1.0) > POLE_FIDELITY_ATOL:
            return f"{where}: fidelity {fid!r} at theta=0, expected 1"
        if (p["n"], p["m"]) == (2, 2) and theta == math.pi and abs(fid - 7 / 11) > SWEEP_FIDELITY_ATOL:
            return f"{where}: fidelity {fid!r} at theta=pi, expected 7/11"
    return None
