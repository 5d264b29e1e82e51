"""Numeric inner loops in plain numpy.

The two kernels below dominate runtime: the matrix exponential and the
sequential scan that pushes an output row across a uniform time grid.
"""

from __future__ import annotations

import numpy as np


def expm(a):
    """exp(a) by scaling and squaring with a Taylor series run to roundoff.

    The input is scaled by 2**-s until its max-abs entry is <= 0.25, the
    series is summed until terms fall below 1e-18 of the partial sum, and
    the result is squared s times.  For the small generator matrices used
    here this meets a 1e-12 relative accuracy budget per entry.
    """
    n = a.shape[0]
    mu = np.max(np.abs(a))
    if mu == 0.0:
        return np.eye(n)
    s = 0
    scale = mu
    while scale > 0.25:
        scale *= 0.5
        s += 1
    b = a / (2.0**s)
    term = np.eye(n)
    acc = np.eye(n)
    for k in range(1, 40):
        term = (term @ b) / k
        acc = acc + term
        if np.max(np.abs(term)) <= 1e-18 * np.max(np.abs(acc)):
            break
    for _ in range(s):
        acc = acc @ acc
    return acc


def row_scan(row0, step, count):
    """Rows row0 @ step**k for k = 0..count, shape (count+1, n)."""
    n = row0.shape[0]
    out = np.empty((count + 1, n))
    r = row0.copy()
    out[0] = r
    for k in range(1, count + 1):
        r = r @ step
        out[k] = r
    return out
