"""Numeric inner loops in plain numpy.

The matrix exponential and the blocked scan that pushes a row across a
uniform time grid.  `dynamics.coefficient_trajectory` runs both on the Van
Loan block of the generator, so one scan yields an output row and its
running average.  `simulate` runs them, `design` and `verify` do not; even
in `simulate` they cost less than writing the CSV table.
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


# Rows per block of `row_scan`: B - 1 products form the powers and about
# count / B products the anchors, against count products for a plain scan.
SCAN_BLOCK = 64


def row_scan(row0, step, count):
    """Rows row0 @ step**k for k = 0..count, shape (count+1, n).

    Blocked: the powers step**0..step**(B-1) are formed once, the anchors
    row0 @ step**(B j) are scanned with step**B, and one matrix product
    multiplies every anchor by every power, laid side by side as an
    n x (B n) matrix.  Row k = B j + i is anchor j times power i.
    """
    n = row0.shape[0]
    width = min(SCAN_BLOCK, count + 1)
    powers = np.empty((width, n, n))
    powers[0] = np.eye(n)
    for i in range(1, width):
        powers[i] = powers[i - 1] @ step
    anchors = np.empty((-(-(count + 1) // width), n))
    anchors[0] = row0
    if anchors.shape[0] > 1:
        jump = powers[-1] @ step
        for j in range(1, anchors.shape[0]):
            anchors[j] = anchors[j - 1] @ jump
    side_by_side = powers.transpose(1, 0, 2).reshape(n, width * n)
    return (anchors @ side_by_side).reshape(-1, n)[: count + 1]
