"""Property tests over random inputs.  Every fixed point the probe reports
for a random cloner is checked against the stochastic matrix M, against
plain power iteration of M, and against the full-circuit readout; every
solve from a random start reports the residual of the state it returns."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dctcsim.analysis import clone_cr_input, decode_cr_input
from dctcsim.circuits import build_cloner, build_decoder
from dctcsim.engine import (
    DEFAULT_TOL,
    CtcChannel,
    apply_channel,
    kraus_from,
    probe_fixed_points,
    readout,
    solve_fixed_point,
)
from dctcsim.qsim import DensityMatrix, trace_distance

widths = st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 5 - n)))


def power_iteration(markov, starts, steps=50000, tol=1e-14):
    """Columns of ``starts`` pushed through p <- M p until the largest L1
    step falls below ``tol``."""
    p = starts
    for _ in range(steps):
        nxt = markov @ p
        if np.max(np.abs(nxt - p).sum(axis=0)) < tol:
            return nxt
        p = nxt
    raise AssertionError("power iteration did not settle")


@settings(max_examples=20, deadline=None)
@given(
    widths,
    st.floats(np.pi / 8, 7 * np.pi / 8),
    st.floats(0.0, 2 * np.pi, exclude_max=True),
)
def test_probe_fixed_points_agree_with_power_iteration_and_readout(nm, theta, phi):
    n, m = nm
    circuit = build_cloner(n, m)
    cr_input = clone_cr_input(n, m, theta, phi)
    ch = kraus_from(circuit, cr_input)
    probe = probe_fixed_points(ch)
    assert probe.fixed_points and probe.dropped == 0
    # The probe's starts: every basis state and the uniform mixture.
    dim = ch.dim
    starts = np.hstack([np.eye(dim), np.full((dim, 1), 1 / dim)])
    limits = power_iteration(ch.markov, starts)
    pops = np.array([fp.diagonal() for fp in probe.fixed_points]).T
    for res, p in zip(probe.results, pops.T):
        assert res.residual <= DEFAULT_TOL
        assert np.abs(ch.markov @ p - p).sum() <= 1e-12
        assert np.max(np.abs(readout(circuit, cr_input, res.sigma) - p)) <= 1e-12
    # Half-L1 distance from each start's limit to each reported fixed point:
    # every limit is reported, and every reported fixed point is a limit.
    dist = 0.5 * np.abs(limits[:, :, None] - pops[:, None, :]).sum(axis=0)
    assert dist.min(axis=1).max() <= 1e-8
    assert dist.min(axis=0).max() <= 1e-8


@st.composite
def channels(draw):
    """A decoder, a cloner, or the period-two swap, given by prep vectors or
    as the equivalent literal Kraus list."""
    kind = draw(st.sampled_from(["decoder", "cloner", "swap"]))
    if kind == "decoder":
        n = draw(st.integers(1, 3))
        ch = kraus_from(build_decoder(n), decode_cr_input(n, draw(st.integers(0, 2**n - 1))))
    elif kind == "cloner":
        n, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
        theta = draw(st.floats(0.0, np.pi))
        phi = draw(st.floats(0.0, 2 * np.pi, exclude_max=True))
        ch = kraus_from(build_cloner(n, m), clone_cr_input(n, m, theta, phi))
    else:
        ch = CtcChannel(1, prep_vectors=np.array([[0, 1], [1, 0]], dtype=complex))
    if draw(st.booleans()):
        w, eye = ch.prep_vectors, np.eye(ch.dim)
        ch = CtcChannel(ch.ctc_qubits, kraus=[np.outer(w[:, j], eye[j]) for j in range(ch.dim)])
    return ch


@settings(max_examples=80, deadline=None)
@given(
    channels(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.sampled_from([1e-30, 1e-10]),
)
def test_solve_reports_the_residual_of_the_state_it_returns(ch, seed, max_iters, tol):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(ch.dim, ch.dim)) + 1j * rng.normal(size=(ch.dim, ch.dim))
    rho = g @ g.conj().T
    init = DensityMatrix(ch.ctc_qubits, rho / np.real(np.trace(rho)))
    res = solve_fixed_point(ch, init, tol, max_iters)
    measured = trace_distance(apply_channel(ch, res.sigma), res.sigma)
    assert abs(res.residual - measured) <= 1e-14
    assert res.converged == (res.residual <= tol)
    assert 1 <= res.iterations <= max_iters
