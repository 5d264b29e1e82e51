"""The one numeric kernel: the weights of the closed form in `dynamics`, in
plain numpy.  Every row, running average and propagator of the library is a
small matrix product with these weights; there is no matrix exponential.
`dynamics._weights_at` reads the same weights at one point on Python floats.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import SERIES as _SERIES

# `dynamics.SERIES`, the closed form's Taylor coefficients, as an array
SERIES = np.array(_SERIES)


def weights(det: float, y: np.ndarray):
    """y^m f_m(x) and y^m f_(m+1)(x) for m = 0..3 at x^2 = det y^2, each (nt, 4).

    f_0 = cos x, f_1 = sin x / x and f_(k+2) = (1/k! - f_k) / x^2 (cosh and
    sinh of |x| when det < 0).  Where |x| > 1, y^2 f_(k+2) is formed as
    (1/k! - f_k) / det, so no power beyond y itself can overflow early.
    `y` must be non-decreasing and not negative, as a validated grid shifted
    to start at 0 is: the points with |x| <= 1, which take the series, are
    then a prefix of it.
    """
    root = math.sqrt(abs(det))
    k = int(np.searchsorted(root * y, 1.0, side="right"))
    rows, averages = np.empty((y.size, 4)), np.empty((y.size, 4))
    ys = y[:k, None]
    f = (math.copysign(1.0, det) * (root * ys) ** 2) ** np.arange(len(SERIES)) @ SERIES
    powers = ys ** np.arange(4)
    np.multiply(powers, f[:, :4], out=rows[:k])
    np.multiply(powers, f[:, 1:], out=averages[:k])
    yb = y[k:]
    x = root * yb
    f0, f1 = (np.cos(x), np.sin(x) / x) if det > 0.0 else (np.cosh(x), np.sinh(x) / x)
    q2, q3 = (1.0 - f0) / det, (1.0 - f1) / det  # y^2 f_2, y^2 f_3
    q4 = (0.5 - q2 / yb / yb) / det  # y^2 f_4
    rows[k:, 0], rows[k:, 1], rows[k:, 2], rows[k:, 3] = f0, yb * f1, q2, yb * q3
    averages[k:, 0], averages[k:, 1], averages[k:, 2], averages[k:, 3] = f1, q2 / yb, q3, yb * q4
    return rows, averages
