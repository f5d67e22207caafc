"""Property tests over random cloner inputs: every fixed point the probe
reports is checked against the stochastic matrix M, against plain power
iteration of M, and against the full-circuit readout."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dctcsim.analysis import clone_cr_input
from dctcsim.circuits import build_cloner
from dctcsim.engine import DEFAULT_TOL, kraus_from, probe_fixed_points, readout

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
