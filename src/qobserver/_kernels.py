"""The matrix exponential in plain numpy, for `core.propagator` and the Van
Loan route of `dynamics`; the observer's own system needs none.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteError


def expm(a):
    """exp(a) by scaling and squaring with a Taylor series run to roundoff.

    The input is scaled by 2**-s, the least s >= 0 that brings its max-abs
    entry to <= 0.25 (read from `math.frexp`), the series is summed until
    terms fall below 1e-18 of the partial sum, and the result is squared s
    times: a 1e-12 relative accuracy per entry for the small generators
    used here.  NonFiniteError on an input entry that is inf or nan.
    """
    n = a.shape[0]
    mu = np.max(np.abs(a))
    if not math.isfinite(mu):
        raise NonFiniteError(f"matrix exponential of a matrix with entry {mu!r}")
    if mu == 0.0:
        return np.eye(n)
    mantissa, exponent = math.frexp(mu)
    s = max(0, exponent + 1 if mantissa == 0.5 else exponent + 2)
    b = np.ldexp(a, -s)
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
