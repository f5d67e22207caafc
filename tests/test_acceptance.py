"""Acceptance suite.

One test per criterion; each prints a [PASS]/[FAIL] line with the measured
numbers (run with ``pytest -s`` to see them inline).  Tolerances are pinned
here, not deferred.

Frozen fixture values come from a closed-form oracle that never touches the
circuit or channel machinery: the conditional-block amplitudes give a
column-stochastic transition matrix for the diagonal populations, and the
fixture numbers are what that chain produces.  The oracle itself is
reproduced in this module so the freeze stays auditable.
"""

import numpy as np
import pytest

from dctcsim.analysis import (
    alpha,
    bloch_sweep,
    clone_cr_input,
    clone_fidelity,
    convergence_trace,
    decode_cr_input,
    decode_experiment,
    mutual_information,
    numeric_overlap,
    overlap_closed_form,
    verify_uniqueness,
)
from dctcsim.circuits import (
    build_cloner,
    build_decoder,
    circuit_unitary,
    two_qubit_gate_count,
)
from dctcsim.engine import (
    apply_channel,
    kraus_from,
    probe_fixed_points,
    simulate_unrolled,
    solve_fixed_point,
)
from dctcsim.qsim import DensityMatrix, PureState, fidelity, trace_distance

# Population of basis state k after 7 channel applications from the uniform
# |+>|+> start, identical for every encoded k at width 2.  Frozen from the
# closed-form chain oracle (exactly 53755/65536); the chain needs 14
# applications to clear 0.95, so this is the 7-application plateau.
FROZEN_ITERATION7_POPULATION = 53755 / 65536

# Cloning fidelity of the theta=pi probe input at n=m=2, frozen from the
# stationary distribution of the closed-form chain (7/11).
FROZEN_CLONE_ONE_FIDELITY = 7 / 11


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def closed_form_chain(n: int, k: int) -> np.ndarray:
    d = 2**n
    m = np.zeros((d, d))
    for j in range(d):
        th = 2 * np.pi * (k - j) / d
        for i in range(d):
            if i == j:
                amp = np.cos(th / 2)
            else:
                amp = np.sin(th / 2) * alpha(n, i ^ j) / np.sqrt(2 ** (n - 1))
            m[i, j] = abs(amp) ** 2
    return m


def test_criterion_1_gate_costs():
    ok = True
    details = []
    for n in range(1, 7):
        count = two_qubit_gate_count(build_decoder(n))
        ok &= count == 5 * n - 2
        details.append(f"decode n={n}: {count}")
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            count = two_qubit_gate_count(build_cloner(n, m))
            ok &= count == 5 * (n + m) - 2
    report(
        "criterion 1 (gate cost 5n-2 / 5(n+m)-2)",
        ok,
        "; ".join(details) + "; cloner grid {1,2,3}^2 all 5(n+m)-2",
    )


def test_criterion_2_decode_and_mutual_information():
    ok = True
    details = []
    for n in (2, 3):
        worst = 1.0
        for k in range(2**n):
            res = decode_experiment(n, k)
            ok &= res.decoded == k
            ok &= res.success_prob >= 1 - 1e-9
            worst = min(worst, res.success_prob)
        info = mutual_information(n)
        ok &= abs(info - n) <= 1e-6
        details.append(f"n={n}: worst p(k)={worst:.12f}, I={info:.9f} bits")
    report("criterion 2 (perfect decode + mutual information)", ok, "; ".join(details))


def test_criterion_3_uniqueness_overlaps():
    ok = True
    max_err = 0.0
    min_mag = 1.0
    for n in (2, 3, 4):
        reports = verify_uniqueness(n)
        ok &= len(reports) == 4**n
        for r in reports:
            max_err = max(max_err, abs(r.numeric - r.closed_form))
            min_mag = min(min_mag, abs(r.closed_form))
    ok &= max_err <= 1e-10
    ok &= min_mag > 0.0
    spot = overlap_closed_form(2, 1, 0)
    ok &= abs(spot - (-1 / (2 * np.sqrt(2)))) < 1e-12
    ok &= abs(numeric_overlap(2, 1, 0) - spot) < 1e-10
    diag_ok = all(
        overlap_closed_form(2, k, k) == 1.0
        and abs(numeric_overlap(2, k, k) - 1.0) < 1e-10
        for k in range(4)
    )
    ok &= diag_ok
    report(
        "criterion 3 (uniqueness overlaps n=2..4)",
        ok,
        f"max |numeric-closed|={max_err:.2e}, min |overlap|={min_mag:.4f}, "
        f"spot (2,1,0)=-1/(2*sqrt(2)) ok",
    )


def test_criterion_4_iteration_trace():
    ok = True
    details = []
    for k in range(4):
        table = convergence_trace(2, k, 7, "plus")
        pops = table[:, k]
        ok &= abs(pops[0] - 0.25) < 1e-12
        ok &= bool(np.all(np.diff(pops) >= -1e-12))
        ok &= pops[7] >= FROZEN_ITERATION7_POPULATION - 1e-12
        # Cross-check the whole trajectory against the closed-form chain.
        m = closed_form_chain(2, k)
        p = np.full(4, 0.25)
        for t in range(1, 8):
            p = m @ p
            ok &= bool(np.max(np.abs(table[t] - p)) < 1e-12)
        details.append(f"k={k}: pop@7={pops[7]:.10f}")
    report(
        "criterion 4 (7-iteration trace, threshold frozen at "
        f"{FROZEN_ITERATION7_POPULATION:.10f})",
        ok,
        "; ".join(details) + " (non-decreasing, matches chain oracle)",
    )


def test_criterion_5_unrolled_equivalence():
    circuit = build_decoder(2)
    ok = True
    worst = 0.0
    for k in range(4):
        cr_input = decode_cr_input(2, k)
        channel = kraus_from(circuit, cr_input)
        for iterations in (2, 3):  # 6- and 8-qubit unrollings
            for omega0 in (PureState.plus(2).density(), DensityMatrix.maximally_mixed(2)):
                state = omega0
                for _ in range(iterations):
                    state = apply_channel(channel, state)
                unrolled = simulate_unrolled(circuit, cr_input, omega0, iterations)
                err = float(np.max(np.abs(state.matrix - unrolled.matrix)))
                worst = max(worst, err)
                ok &= err <= 1e-10
    report(
        "criterion 5 (channel vs unrolled circuit, n=2, 2-3 iterations)",
        ok,
        f"worst entrywise error {worst:.2e} over all k, inits, and unroll depths",
    )


def test_criterion_6a_clone_zero_state():
    res = clone_fidelity(2, 2, 0.0, 0.0, tol=1e-11)
    ok = len(res.per_fixed_point) >= 4
    ok &= all(abs(ev.fidelity - 1.0) <= 1e-9 for ev in res.per_fixed_point)
    report(
        "criterion 6a (cloning |0>: multiple fixed points, fidelity 1)",
        ok,
        f"{len(res.per_fixed_point)} distinct fixed points, "
        f"min fidelity {res.min_fidelity:.12f}",
    )


def test_criterion_6b_distinguishable_grid_clones_perfectly():
    # 32 evaluations: the 16 (polar, azimuthal) grid states plus the 16
    # theta=0 sweep-grid points (all of which prepare |0>).
    evaluated = 0
    worst = 1.0
    ok = True
    for k in range(4):
        for l in range(4):
            res = clone_fidelity(2, 2, np.pi * k / 4, 2 * np.pi * l / 4, tol=1e-11)
            worst = min(worst, res.min_fidelity)
            ok &= abs(res.min_fidelity - 1.0) <= 1e-9
            evaluated += 1
    for j in range(16):
        res = clone_fidelity(2, 2, 0.0, 2 * np.pi * j / 16, tol=1e-11)
        worst = min(worst, res.min_fidelity)
        ok &= abs(res.min_fidelity - 1.0) <= 1e-9
        evaluated += 1
    report(
        "criterion 6b (32 distinguishable grid evaluations clone at fidelity 1)",
        ok and evaluated == 32,
        f"{evaluated} evaluations, worst fidelity {worst:.12f}",
    )


def test_criterion_6c_one_state_clones_imperfectly():
    res = clone_fidelity(2, 2, np.pi, 0.0)
    ok = res.max_fidelity < 1.0
    ok &= abs(res.min_fidelity - FROZEN_CLONE_ONE_FIDELITY) < 1e-6
    report(
        "criterion 6c (theta=pi input clones imperfectly)",
        ok,
        f"fidelity {res.min_fidelity:.10f} (frozen oracle value "
        f"{FROZEN_CLONE_ONE_FIDELITY:.10f} = 7/11)",
    )


def test_criterion_6d_mean_fidelity_grows_with_register_width():
    rows22, fail22 = bloch_sweep(2, 2, 9, 16)
    rows33, fail33 = bloch_sweep(3, 3, 9, 16)
    ok = not fail22 and not fail33
    ok &= len(rows22) == 144 and len(rows33) == 144
    ok &= all(r.converged for r in rows22) and all(r.converged for r in rows33)
    mean22 = float(np.mean([r.fidelity for r in rows22]))
    mean33 = float(np.mean([r.fidelity for r in rows33]))
    ok &= mean33 > mean22
    report(
        "criterion 6d (9x16 sweep mean fidelity, n=m=3 vs n=m=2)",
        ok,
        f"mean(2,2)={mean22:.6f} < mean(3,3)={mean33:.6f}, "
        f"all 288 points converged",
    )


def test_criterion_7_property_suite():
    ok = True
    details = []

    # Kraus completeness <= 1e-12.
    worst = 0.0
    for circuit, cr_input in [
        (build_decoder(2), decode_cr_input(2, 1)),
        (build_decoder(3), decode_cr_input(3, 6)),
        (build_cloner(2, 2), clone_cr_input(2, 2, 0.7, 1.3)),
    ]:
        # K_j = |v_j><j|, so sum_j K_j^dag K_j - I is diagonal with entries
        # |v_j|^2 - 1.
        ch = kraus_from(circuit, cr_input)
        err = float(np.max(np.abs(np.sum(np.abs(ch.prep_vectors) ** 2, axis=0) - 1.0)))
        worst = max(worst, err)
        ok &= err <= 1e-12
    details.append(f"completeness {worst:.1e}")

    # Channel preserves trace and Hermiticity <= 1e-12 on random inputs.
    rng = np.random.default_rng(99)
    worst_tr, worst_h = 0.0, 0.0
    ch = kraus_from(build_decoder(3), decode_cr_input(3, 2))
    for _ in range(10):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        mat = g @ g.conj().T
        mat /= np.trace(mat)
        out = apply_channel(ch, DensityMatrix(3, mat))
        worst_tr = max(worst_tr, abs(float(np.real(np.trace(out.matrix))) - 1.0))
        worst_h = max(worst_h, float(np.max(np.abs(out.matrix - out.matrix.conj().T))))
    ok &= worst_tr <= 1e-12 and worst_h <= 1e-12
    details.append(f"trace drift {worst_tr:.1e}, herm drift {worst_h:.1e}")

    # Circuit unitarity <= 1e-10.
    worst_u = 0.0
    for circuit in [build_decoder(2), build_decoder(4), build_cloner(2, 2)]:
        u = circuit_unitary(circuit)
        err = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        worst_u = max(worst_u, err)
    ok &= worst_u <= 1e-10
    details.append(f"unitarity {worst_u:.1e}")

    # Every converged solve satisfies residual <= tol.
    tol = 1e-10
    converged_all = True
    for n in (2, 3):
        for k in range(2**n):
            ch = kraus_from(build_decoder(n), decode_cr_input(n, k))
            res = solve_fixed_point(ch, DensityMatrix.maximally_mixed(n), tol=tol)
            converged_all &= res.converged and res.residual <= tol
    probe = probe_fixed_points(
        kraus_from(build_cloner(2, 2), clone_cr_input(2, 2, np.pi, 0.0)), tol=tol
    )
    converged_all &= all(r.residual <= tol for r in probe.results)
    ok &= converged_all
    details.append("all converged residuals <= tol")

    # Pure-state identity T = sqrt(1 - F) <= 1e-10.
    worst_tf = 0.0
    for _ in range(20):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b /= np.linalg.norm(b)
        sa, sb = PureState(2, a), PureState(2, b)
        t = trace_distance(sa.density(), sb.density())
        f = fidelity(sa, sb.density())
        worst_tf = max(worst_tf, abs(t - np.sqrt(1 - f)))
    ok &= worst_tf <= 1e-10
    details.append(f"T=sqrt(1-F) err {worst_tf:.1e}")

    report("criterion 7 (always-on property suite)", ok, "; ".join(details))
