"""Closed-form oracles shared by the test modules.

They never touch the circuit or channel machinery, so the pipelines can be
checked against them independently.
"""

import numpy as np

from dctcsim.analysis import alpha


def closed_form_chain(n: int, k: int) -> np.ndarray:
    """Population transition matrix of the width-n decode channel for code
    input k, built from the closed-form conditional-block amplitudes only:
    entry (i, j) is |<i| U_j |Psi_k, 0...0>|^2."""
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
