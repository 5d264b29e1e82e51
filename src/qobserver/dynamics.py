"""Simulation and convergence verification for the augmented system.

Everything here works at the coefficient level: the Heisenberg trajectory
of an output z = C x is fully described by the row C exp(A t), so scalar
claims about operators become checkable statements about rows.  For a valid
design the plant row [C_p, 0, 0] is a left null vector of the generator
(z_p is frozen), while the observer row oscillates at angular frequency
4 omega_o and its running time average converges to the plant row at rate
O(1/T) with an oscillatory prefactor:

    (1/T) int_0^T (C_p,aug - C_o,aug exp(As)) ds  =  O(1/T).

For a linear system that integral is exact: (1/h) int_0^h exp(As) ds is
the top-right block of exp([[A h, I], [0, 0]]) (Van Loan), so one scan of
the row [C, 0] under that exponential gives `coefficient_trajectory` the
rows and their running average together, and `time_average_error` is that
average on the grid (0, T): no quadrature and no step control at any
horizon.  For the observer's own block structure the average is a closed
form in sin and cos, so `verify_convergence` gets the whole ladder without
an exponential.  The oscillation frequency
is exact too: `dominant_frequency` reads it from the derivative row C A and
two more products with A, so verification runs no trajectory.  The decay
rate is a property of the R_o = 2 omega_o I construction; the underlying
guarantee is only that the average tends to zero.
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


def _uniform_step(t: np.ndarray) -> float | None:
    """The common step of a validated increasing grid, or None if it varies.

    Also None for fewer than 3 points, where a scan would save no product.
    """
    steps = np.diff(t)
    if steps.size > 1 and np.max(np.abs(steps - steps[0])) <= 1e-12 * max(1.0, abs(steps[0])):
        return float(steps[0])
    return None


def _rows_and_averages(a: np.ndarray, c_row: np.ndarray, t: np.ndarray):
    """Rows C exp(A t_k) and their running averages over a validated grid, unchecked.

    exp([[A h, I], [0, 0]]) = [[exp(Ah), W], [0, I]] with the average
    W = (1/h) int_0^h exp(As) ds (Van Loan, IEEE TAC 23(3), 1978), which
    stays finite where the integral would overflow.  So [r, 0] times it is
    [r exp(Ah), r W]: the row h later and its average over those h.  A
    uniform grid scans [C exp(A t_0), 0] under one such exponential, and
    the second half at step k is the sum of k one-step averages; any other
    grid takes one per point after t_0, with h = t_k - t_0.
    """
    n = a.shape[0]
    start = c_row if t[0] == 0.0 else c_row @ _kernels.expm(a * t[0])

    def van_loan(h):
        return _kernels.expm(np.block([[a * h, np.eye(n)], [np.zeros((n, 2 * n))]]))

    h = _uniform_step(t)
    if h is None:
        tops = [van_loan(tk - t[0])[:n] for tk in t[1:]]
        rows = np.array([start, *(start @ e[:, :n] for e in tops)])
        return rows, np.array([start, *(start @ e[:, n:] for e in tops)])
    scanned = _kernels.row_scan(np.concatenate([start, np.zeros(n)]), van_loan(h), t.size - 1)
    rows = scanned[:, :n]
    averages = scanned[:, n:] / np.maximum(np.arange(t.size), 1)[:, None]
    averages[0] = rows[0]
    return rows, averages


def _output_row(sys: LinearQuantumSystem, c_row) -> np.ndarray:
    c_row = np.asarray(c_row, dtype=float).reshape(-1)
    if c_row.shape != (sys.space.n,):
        raise DimensionError(
            f"output row has {c_row.shape[0]} entries, state dimension is {sys.space.n}"
        )
    return c_row


def coefficient_trajectory(sys: LinearQuantumSystem, c_row, t_grid) -> Trajectory:
    """Rows C exp(A t_k) and their exact running average over an increasing time grid.

    One Van Loan exponential covers a uniform grid from t_0 = 0; a grid
    from t_0 > 0 adds one for C exp(A t_0), and any other grid takes one
    per point.
    """
    c_row = _output_row(sys, c_row)
    t = _validate_grid(t_grid)
    rows, averages = _rows_and_averages(sys.a, c_row, t)
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(averages))):
        raise NonFiniteError("trajectory rows overflowed to non-finite values")
    return Trajectory(times=t, coefficient_rows=rows, running_average=averages)


def time_average_error(sys: LinearQuantumSystem, c_p_row, c_o_row, T: float) -> float:
    """Max-abs norm of (1/T) int_0^T (c_p_row - c_o_row exp(As)) ds, exactly.

    The average is the running average of c_o_row on the grid (0, T): one
    Van Loan exponential however long T is.  An overflow is returned as inf
    or nan for the caller's finite check.
    """
    T = float(T)
    if not math.isfinite(T) or T <= 0.0:
        raise ValueError(f"averaging horizon must be positive and finite, got {T}")
    c_p_row = _output_row(sys, c_p_row)
    _, averages = _rows_and_averages(sys.a, _output_row(sys, c_o_row), np.array([0.0, T]))
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


# Row k holds (-1)^k / (2k + j)! for j = 1, 2, 3: the Taylor coefficients in
# x^2 of sin x / x, (1 - cos x) / x^2 and (x - sin x) / x^3.  Ten terms reach
# roundoff for x^2 <= 1, where the direct quotients cancel.
_SERIES = np.array([[(-1) ** k / math.factorial(2 * k + j) for j in (1, 2, 3)] for k in range(10)])


def _ladder_errors(sys: LinearQuantumSystem, horizons: tuple[float, ...]) -> np.ndarray | None:
    """`time_average_error` at every horizon in closed form, or None where it does not apply.

    `sys` is the system `augment` builds: A = [[0, P], [D, Om]] with a
    traceless Om, so Om^2 = -w^2 I with w^2 = det Om, and output rows
    [C_p, 0] and [0, C_o].  When D P = 0 (a rank-one R_c), the observer row
    is [C_o int_0^s exp(Om u) du D, C_o exp(Om s)], and with x = w T

        (1/T) int_0^T exp(Om s) ds = (sin x / x) I + T ((1 - cos x) / x^2) Om,
        (1/T) int_0^T int_0^s exp(Om u) du ds
            = T ((1 - cos x) / x^2) I + T^2 ((x - sin x) / x^3) Om,

    with sinh and cosh through x = i y when w^2 < 0.  None when D P exceeds
    roundoff (1e-14 of max|D| max|P|), w^2 is subnormal, or some w^2 T^2 is
    not finite or overflows sinh.
    """
    p, d, om = sys.a[:2, 2:], sys.a[2:, :2], sys.a[2:, 2:]
    d_scale, p_scale = maxabs(d), maxabs(p)
    if d_scale and p_scale and maxabs((d / d_scale) @ (p / p_scale)) > 1e-14:
        return None
    w2 = om[0, 0] * om[1, 1] - om[0, 1] * om[1, 0]
    t = np.asarray(horizons)
    x2 = w2 * t * t
    if 0.0 < abs(w2) < np.finfo(float).tiny or not np.all((-700.0**2 < x2) & (x2 < math.inf)):
        return None
    big = np.abs(x2) > 1.0
    x2_big = np.where(big, x2, 1.0)
    x = np.sqrt(x2_big.astype(complex))
    sinc = (np.sin(x) / x).real
    direct = np.stack([sinc, (1.0 - np.cos(x)).real / x2_big, (1.0 - sinc) / x2_big], axis=1)
    series = np.where(big, 0.0, x2)[:, None] ** np.arange(len(_SERIES)) @ _SERIES
    sinc, versine, sine_gap = np.where(big[:, None], direct, series).T
    c_o = sys.c[1, 2:]
    # the average row: sinc [0, C_o] + T versine [C_o D, C_o Om] + T^2 sine_gap [C_o Om D, 0]
    rows = np.array([[0.0, 0.0, *c_o], [*(c_o @ d), *(c_o @ om)], [*(c_o @ om @ d), 0.0, 0.0]])
    average = np.column_stack([sinc, t * versine, t * (t * sine_gap)]) @ rows
    return np.max(np.abs(sys.c[0] - average), axis=1)


def verify_convergence(design: ObserverDesign, horizons=None) -> ConvergenceReport:
    """Verify the two defining properties of a direct-coupled observer.

    Checks, on the augmented system built from `design`:

    a. the plant output row annihilates the generator (z_p is constant),
       to within EXACT_TOL;
    b. the time-average error decays over the horizon ladder: strictly
       decreasing with fitted rate >= 0.9, and the closed-form limit
       -C_o R_o^{-1} beta^T = 1 holds to EXACT_TOL.  The errors come from
       `_ladder_errors`, or from `time_average_error` where it does not apply;
    c. the observer row oscillates within 1% of 4 omega_o (exact frequency
       from `dominant_frequency`).

    The default ladder is `default_horizons(omega_o)`.  A ladder that is
    not at least 2 positive, finite, strictly increasing horizons raises
    ValueError before any error is computed; otherwise this always returns a
    report, and failed checks are named in `failures` rather than raised.
    """
    if horizons is None:
        horizons = default_horizons(design.omega_o)
    horizons = tuple(float(t) for t in horizons)
    if (
        len(horizons) < 2
        or not all(0.0 < t < math.inf for t in horizons)
        or any(b <= a for a, b in zip(horizons, horizons[1:]))
    ):
        raise ValueError(
            f"horizon ladder must be at least 2 positive, finite, increasing values, got {horizons}"
        )

    sys = augment(design)
    c_p_aug, c_o_aug = sys.c[0], sys.c[1]

    row_defect = maxabs(c_p_aug @ sys.a)
    errors = _ladder_errors(sys, horizons)
    if errors is None:
        errors = [time_average_error(sys, c_p_aug, c_o_aug, T) for T in horizons]
    errors = tuple(float(e) for e in errors)
    ratios = tuple(b / a if a > 0.0 else math.inf for a, b in zip(errors, errors[1:]))
    rate = _fit_decay_rate(np.asarray(horizons), np.asarray(errors))

    # |-C_o R_o^{-1} beta^T - 1|, inf when beta = 0 or R_o is not definite
    limit_defect = validate_observer(design).normalized_constraint_defect

    expected = 4.0 * design.omega_o
    freq = dominant_frequency(sys, c_o_aug)
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
