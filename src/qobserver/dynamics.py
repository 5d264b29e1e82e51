"""Simulation and convergence verification for the augmented system.

Everything here works at the coefficient level: the Heisenberg trajectory
of an output z = C x is fully described by the row C exp(A t), so scalar
claims about operators become checkable statements about rows.  For a valid
design the plant row [C_p, 0, 0] is a left null vector of the generator
(z_p is frozen), while the observer row oscillates at angular frequency
4 omega_o and its running time average converges to the plant row at rate
O(1/T) with an oscillatory prefactor:

    (1/T) int_0^T (C_p,aug - C_o,aug exp(As)) ds  =  O(1/T).

Every row and running average comes from `_rows_and_averages`: for the
observer's generator a closed form in cos and sin of w t (w^2 = det Om),
exact to roundoff at any horizon and with no exponential; for any other
generator the Van Loan exponential.  The decay rate is a property of the
R_o = 2 omega_o I construction; the underlying guarantee is only that the
average tends to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import EXACT_TOL, LinearQuantumSystem, maxabs
from .errors import DimensionError, NonFiniteError
from .observer import ObserverDesign, augment, validate_observer


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Rows C exp(A t_k) of one output row C over a time grid, with their running average.

    `coefficient_rows[k]` is C exp(A t_k) and `running_average[k]` is
    (1/(t_k - t_0)) int_{t_0}^{t_k} C exp(As) ds, the row itself at k = 0;
    both have shape (nt, n).
    """

    times: np.ndarray
    coefficient_rows: np.ndarray
    running_average: np.ndarray


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Outcome of the coefficient-level convergence verification."""

    horizons: tuple[float, ...]
    errors: tuple[float, ...]
    ratios: tuple[float, ...]
    fitted_rate: float
    oscillation_frequency_estimate: float
    expected_frequency: float
    output_row_defect: float
    averaged_limit_defect: float
    checks: tuple[CheckResult, ...]
    passed: bool
    failures: tuple[str, ...]


def default_horizons(omega_o: float) -> tuple[float, ...]:
    """The default horizon ladder {5, 10, 20, 40, 80} / omega_o.

    NonFiniteError (a ValueError) if it overflows, as it does for a
    subnormal omega_o.
    """
    horizons = tuple(t / omega_o for t in (5.0, 10.0, 20.0, 40.0, 80.0))
    if not all(math.isfinite(t) for t in horizons):
        raise NonFiniteError(
            f"default horizon ladder {{5..80}}/omega_o is not finite for omega_o = {omega_o!r}"
        )
    return horizons


def _validate_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    if t.size == 0:
        raise ValueError("time grid is empty")
    if not np.all(np.isfinite(t)):
        raise ValueError("time grid has non-finite entries")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("time grid must be strictly increasing")
    return t


def _van_loan_rows(a: np.ndarray, c_row: np.ndarray, t: np.ndarray):
    """`_rows_and_averages` for any generator.

    exp([[A h, I], [0, 0]]) = [[exp(Ah), W], [0, I]] with the average
    W = (1/h) int_0^h exp(As) ds (Van Loan, IEEE TAC 23(3), 1978), which
    stays finite where the integral would overflow.  A uniform grid of 3 or
    more points scans [C exp(A t_0), 0] under one such exponential, and the
    second half at step k is the sum of k one-step averages; any other grid
    takes one per point, with h = t_k - t_0.
    """
    n = a.shape[0]
    start = c_row if t[0] == 0.0 else c_row @ _kernels.expm(a * t[0])

    def van_loan(h):
        return _kernels.expm(np.block([[a * h, np.eye(n)], [np.zeros((n, 2 * n))]]))

    steps = np.diff(t)
    if steps.size < 2 or np.max(np.abs(steps - steps[0])) > 1e-12 * max(1.0, steps[0]):
        tops = [van_loan(tk - t[0])[:n] for tk in t[1:]]
        rows = np.array([start, *(start @ e[:, :n] for e in tops)])
        return rows, np.array([start, *(start @ e[:, n:] for e in tops)])
    step = van_loan(steps[0])
    scanned = np.empty((t.size, 2 * n))
    scanned[0] = np.concatenate([start, np.zeros(n)])
    for k in range(1, t.size):
        scanned[k] = scanned[k - 1] @ step
    rows = scanned[:, :n]
    averages = scanned[:, n:] / np.maximum(np.arange(t.size), 1)[:, None]
    averages[0] = rows[0]
    return rows, averages


def _observer_blocks(a: np.ndarray):
    """(P, D, Om, s = max|Om| or 1, det(Om / s)) of A = [[0, P], [D, Om]], or None.

    None unless A has the structure `augment` builds from a rank-one R_c:
    4 x 4, a zero plant block, a traceless Om and D P = 0, the last two to
    1e-14 of max|Om| and of max|D| max|P|.  Then A^4 = -det(Om) A^2.
    """
    if a.shape != (4, 4) or np.any(a[:2, :2]):
        return None
    p, d, om = a[:2, 2:], a[2:, :2], a[2:, 2:]
    s = maxabs(om) or 1.0
    d_scale, p_scale = maxabs(d), maxabs(p)
    dp_zero = not (d_scale and p_scale) or maxabs((d / d_scale) @ (p / p_scale)) <= 1e-14
    if abs(om[0, 0] + om[1, 1]) > 1e-14 * s or not dp_zero:
        return None
    om_s = om / s
    return p, d, om, s, float(om_s[0, 0] * om_s[1, 1] - om_s[0, 1] * om_s[1, 0])


# Row k holds (-1)^k / (2k + m)!, the Taylor coefficients in x^2 of f_m,
# m = 0..4.  Ten terms reach roundoff for x^2 <= 1, where the recurrence cancels.
_SERIES = np.array([[(-1) ** k / math.factorial(2 * k + m) for m in range(5)] for k in range(10)])


def _weights(det: float, y: np.ndarray):
    """y^m f_m(x) and y^m f_(m+1)(x) for m = 0..3 at x^2 = det y^2, each (nt, 4).

    f_0 = cos x, f_1 = sin x / x and f_(k+2) = (1/k! - f_k) / x^2 (cosh and
    sinh of |x| when det < 0).  Where |x| > 1, y^2 f_(k+2) is formed as
    (1/k! - f_k) / det, so no power beyond y itself can overflow early.
    """
    root = math.sqrt(abs(det))
    big = root * y > 1.0
    rows, averages = np.empty((y.size, 4)), np.empty((y.size, 4))
    ys = y[~big][:, None]
    f = (math.copysign(1.0, det) * (root * ys) ** 2) ** np.arange(len(_SERIES)) @ _SERIES
    powers = ys ** np.arange(4)
    rows[~big], averages[~big] = powers * f[:, :4], powers * f[:, 1:]
    yb = y[big]
    x = root * yb
    f0, f1 = (np.cos(x), np.sin(x) / x) if det > 0.0 else (np.cosh(x), np.sinh(x) / x)
    q2, q3 = (1.0 - f0) / det, (1.0 - f1) / det  # y^2 f_2, y^2 f_3
    q4 = (0.5 - q2 / yb / yb) / det  # y^2 f_4
    rows[big] = np.column_stack([f0, yb * f1, q2, yb * q3])
    averages[big] = np.column_stack([f1, q2 / yb, q3, yb * q4])
    return rows, averages


def _closed_form(blocks: tuple, c_row: np.ndarray, t: np.ndarray):
    """Rows [u0, v0] exp(A t_k) and their running averages from t = 0.

    With y = s t, the row is [u0, 0] + sum_m y^m f_m R_m and its average
    [u0, 0] + sum_m y^m f_(m+1) R_m, where R_m = [c_m D/s, c_(m+1)] for the
    chain c = (0, v0, b, g Om/s, 0), g = u0 P/s and b = v0 Om/s + g.  Rows
    meet P and D before the division by s: D/s alone overflows when |beta|
    is far above omega_o, while C_o D/s is of the order of C_p.
    """
    p, d, om, s, det = blocks
    om = om / s
    u0, v0 = c_row[:2], c_row[2:]
    g = u0 @ p / s
    chain = np.array([np.zeros(2), v0, v0 @ om + g, g @ om, np.zeros(2)])
    r = np.hstack([chain[:4] @ d / s, chain[1:]])
    base = np.concatenate([u0, np.zeros(2)])
    rows, averages = _weights(det, s * t)
    return base + rows @ r, base + averages @ r


def _rows_and_averages(a: np.ndarray, blocks, c_row: np.ndarray, t: np.ndarray):
    """Rows C exp(A t_k) and (1/(t_k - t_0)) int_{t_0}^{t_k} C exp(As) ds, unchecked.

    `blocks` is `_observer_blocks(a)`.  The closed form for the observer's
    structure, restarted from its row at t_0 > 0; Van Loan otherwise.  The
    average at k = 0 is the row itself.
    """
    if blocks is None:
        return _van_loan_rows(a, c_row, t)
    if t[0] != 0.0:
        c_row = _closed_form(blocks, c_row, t[:1])[0][0]
    return _closed_form(blocks, c_row, t - t[0])


def _output_row(sys: LinearQuantumSystem, c_row) -> np.ndarray:
    c_row = np.asarray(c_row, dtype=float).reshape(-1)
    if c_row.shape != (sys.space.n,):
        raise DimensionError(
            f"output row has {c_row.shape[0]} entries, state dimension is {sys.space.n}"
        )
    return c_row


def coefficient_trajectory(sys: LinearQuantumSystem, c_row, t_grid) -> Trajectory:
    """Rows C exp(A t_k) and their exact running average over an increasing time grid.

    No exponential for an observer system.  Any other takes one for a
    uniform grid, one more when t_0 > 0, and one per point otherwise.
    """
    c_row = _output_row(sys, c_row)
    t = _validate_grid(t_grid)
    rows, averages = _rows_and_averages(sys.a, _observer_blocks(sys.a), c_row, t)
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(averages))):
        raise NonFiniteError("trajectory rows overflowed to non-finite values")
    return Trajectory(times=t, coefficient_rows=rows, running_average=averages)


def time_average_error(sys: LinearQuantumSystem, c_p_row, c_o_row, T: float) -> float:
    """Max-abs norm of (1/T) int_0^T (c_p_row - c_o_row exp(As)) ds, exactly.

    The running average of c_o_row on the grid (0, T), at any T; an
    overflow is returned as inf or nan for the caller's finite check.
    """
    t = _validate_grid((0.0, T))
    c_p_row, c_o_row = _output_row(sys, c_p_row), _output_row(sys, c_o_row)
    _, averages = _rows_and_averages(sys.a, _observer_blocks(sys.a), c_o_row, t)
    return maxabs(c_p_row - averages[-1])


def simulate_means(sys: LinearQuantumSystem, x0_means, t_grid) -> np.ndarray:
    """Means z_i(t_k) = C_i exp(A t_k) x0 of every output row, shape (nt, m)."""
    x0 = np.asarray(x0_means, dtype=float).reshape(-1)
    if x0.shape != (sys.space.n,):
        raise DimensionError(
            f"initial mean vector has {x0.shape[0]} entries, "
            f"state dimension is {sys.space.n}"
        )
    if sys.c.shape[0] == 0:
        raise DimensionError("system has no output rows attached")
    return np.column_stack(
        [coefficient_trajectory(sys, c, t_grid).coefficient_rows @ x0 for c in sys.c]
    )


def dominant_frequency(sys: LinearQuantumSystem, c_row) -> float:
    """Exact angular frequency Omega of the row C exp(A t).

    If z = const + a cos(Omega t) + b sin(Omega t), the derivative row
    g = C A satisfies g A^2 = -Omega^2 g, so Omega^2 = -(g A^2 . g)/(g . g).
    C and g are normalized by their max-abs entries, so the result does not
    depend on the scale of the row.  A row with g = 0 or Omega^2 <= 0 does
    not oscillate and gives 0.0.
    """
    c_row = _output_row(sys, c_row)
    scale = maxabs(c_row)
    if scale == 0.0:
        return 0.0
    g = (c_row / scale) @ sys.a
    scale = maxabs(g)
    if scale == 0.0:
        return 0.0
    g = g / scale
    omega_sq = -float((g @ sys.a @ sys.a) @ g) / float(g @ g)
    return math.sqrt(omega_sq) if omega_sq > 0.0 else 0.0


def _fit_decay_rate(horizons: np.ndarray, errors: np.ndarray) -> float:
    """Least-squares exponent p of errors ~ T^(-p), from the centred slope in log-log."""
    x = np.log(horizons)
    x -= x.mean()
    y = np.log(np.maximum(errors, 1e-300))
    return float(-(x @ (y - y.mean())) / (x @ x))


def verify_convergence(design: ObserverDesign, horizons=None) -> ConvergenceReport:
    """Verify the two defining properties of a direct-coupled observer.

    Checks, on the augmented system built from `design`:

    a. the plant output row annihilates the generator (z_p is constant),
       to within EXACT_TOL;
    b. the time-average error decays over the horizon ladder: strictly
       decreasing with fitted rate >= 0.9, and the closed-form limit
       -C_o R_o^{-1} beta^T = 1 holds to EXACT_TOL.  The errors are read
       from the running average of the observer row on the grid
       (0, *horizons);
    c. the observer row oscillates within 1% of 4 omega_o: at w, read from
       Om, for the observer's structure, else at `dominant_frequency`.

    The default ladder is `default_horizons(omega_o)`.  A ladder that is
    not at least 2 positive, finite, strictly increasing horizons raises
    ValueError before any error is computed; otherwise this always returns a
    report, and failed checks are named in `failures` rather than raised.
    """
    if horizons is None:
        horizons = default_horizons(design.omega_o)
    horizons = tuple(float(t) for t in horizons)
    if len(horizons) < 2:
        raise ValueError(f"horizon ladder needs at least 2 horizons, got {horizons}")
    grid = _validate_grid((0.0, *horizons))

    sys = augment(design)
    c_p_aug, c_o_aug = sys.c[0], sys.c[1]
    blocks = _observer_blocks(sys.a)

    row_defect = maxabs(c_p_aug @ sys.a)
    _, averages = _rows_and_averages(sys.a, blocks, c_o_aug, grid)
    errors = tuple(float(e) for e in np.max(np.abs(c_p_aug - averages[1:]), axis=1))
    ratios = tuple(b / a if a > 0.0 else math.inf for a, b in zip(errors, errors[1:]))
    rate = _fit_decay_rate(np.asarray(horizons), np.asarray(errors))

    # |-C_o R_o^{-1} beta^T - 1|, inf when beta = 0 or R_o is not definite
    limit_defect = validate_observer(design).normalized_constraint_defect

    expected = 4.0 * design.omega_o
    if blocks is None:
        freq = dominant_frequency(sys, c_o_aug)
    else:  # w = s sqrt(det(Om / s)), 0.0 when det <= 0
        freq = blocks[3] * math.sqrt(max(blocks[4], 0.0))
    freq_rel = abs(freq - expected) / expected

    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    checks = (
        CheckResult(
            name="plant output row constant",
            passed=row_defect <= EXACT_TOL,
            value=row_defect,
            threshold=EXACT_TOL,
            detail="max-abs of C_p,aug @ A_aug",
        ),
        CheckResult(
            name="time-average error decays",
            passed=decreasing and rate >= 0.9 and limit_defect <= EXACT_TOL,
            value=rate,
            threshold=0.9,
            detail=(
                f"strictly decreasing={decreasing}, "
                f"closed-form limit defect={limit_defect:.3e}"
            ),
        ),
        CheckResult(
            name="observer oscillation frequency",
            passed=freq_rel <= 0.01,
            value=freq,
            threshold=expected,
            detail=f"relative deviation {freq_rel:.3e} from 4*omega_o",
        ),
    )
    failures = tuple(c.name for c in checks if not c.passed)
    return ConvergenceReport(
        horizons=horizons,
        errors=errors,
        ratios=ratios,
        fitted_rate=rate,
        oscillation_frequency_estimate=freq,
        expected_frequency=expected,
        output_row_defect=row_defect,
        averaged_limit_defect=limit_defect,
        checks=checks,
        passed=not failures,
        failures=failures,
    )
