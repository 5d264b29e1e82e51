"""Simulation and convergence verification for the augmented system.

Everything here works at the coefficient level: the Heisenberg trajectory
of an output z = C x is fully described by the row C exp(A t), so scalar
claims about operators become checkable statements about rows.  For a valid
design the plant row [C_p, 0, 0] is a left null vector of the generator
(z_p is frozen), while the observer row oscillates at angular frequency
4 omega_o and its running time average converges to the plant row at rate
O(1/T) with an oscillatory prefactor:

    (1/T) int_0^T (C_p,aug - C_o,aug exp(As)) ds  =  O(1/T).

For a linear system that integral is exact: int_0^T exp(As) ds is the
top-right block of one augmented exponential, so `time_average_error` needs
no quadrature and no step control at any horizon.  The oscillation frequency
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
from .core import LinearQuantumSystem, maxabs
from .errors import DimensionError, NonFiniteError
from .observer import ObserverDesign, PlantSpec, augment, validate_observer

DEFAULT_HORIZON_LADDER = (5.0, 10.0, 20.0, 40.0, 80.0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid plus per-time output data.

    `coefficient_rows` holds C exp(A t) for one designated row C (shape
    (nt, n)); `mean_values` holds z_i(t) = C_i exp(A t) x0 for every output
    row of a system when an initial mean vector was supplied (shape (nt, m)).
    """

    times: np.ndarray
    coefficient_rows: np.ndarray | None = None
    mean_values: np.ndarray | None = None


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
    """The common step of a validated increasing grid, or None if it varies."""
    steps = np.diff(t)
    if steps.size and np.max(np.abs(steps - steps[0])) <= 1e-12 * max(1.0, abs(steps[0])):
        return float(steps[0])
    return None


def _scan_rows(g: np.ndarray, row0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows row0 exp(g t_k) over a validated increasing grid t.

    Uniform grids start from row0 exp(g t_0) and advance by the blocked
    scan with exp(g h); any other grid takes one exponential per point.
    """
    h = _uniform_step(t)
    if h is not None:
        start = row0 if t[0] == 0.0 else row0 @ _kernels.expm(g * t[0])
        return _kernels.row_scan(start, _kernels.expm(g * h), t.size - 1)
    return np.vstack([row0 @ _kernels.expm(g * tk) for tk in t])


def _van_loan(a: np.ndarray, T: float, corner: float) -> np.ndarray:
    """(corner / T) int_0^T exp(As) ds, the top-right block of exp([[A T, corner I], [0, 0]]).

    Van Loan, IEEE TAC 23(3), 1978: one 2n x 2n exponential for any T.
    corner = T gives the integral itself; corner = 1 gives the average,
    whose block does not grow with T, so it stays finite where the integral
    would overflow.
    """
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = a * T
    block[:n, n:] = corner * np.eye(n)
    return _kernels.expm(block)[:n, n:]


def _output_row(sys: LinearQuantumSystem, c_row) -> np.ndarray:
    c_row = np.asarray(c_row, dtype=float).reshape(-1)
    if c_row.shape != (sys.space.n,):
        raise DimensionError(
            f"output row has {c_row.shape[0]} entries, state dimension is {sys.space.n}"
        )
    return c_row


def coefficient_trajectory(sys: LinearQuantumSystem, c_row, t_grid) -> Trajectory:
    """Rows C exp(A t_k) over an increasing time grid."""
    c_row = _output_row(sys, c_row)
    t = _validate_grid(t_grid)
    rows = _scan_rows(sys.a, c_row, t)
    if not np.all(np.isfinite(rows)):
        raise NonFiniteError("trajectory rows overflowed to non-finite values")
    return Trajectory(times=t, coefficient_rows=rows)


def time_average_error(sys: LinearQuantumSystem, c_p_row, c_o_row, T: float) -> float:
    """Max-abs norm of (1/T) int_0^T (c_p_row - c_o_row exp(As)) ds, exactly.

    The integral int_0^T exp(As) ds comes from `_van_loan`, so each
    horizon costs one 2n x 2n exponential however long it is.
    """
    T = float(T)
    if not math.isfinite(T) or T <= 0.0:
        raise ValueError(f"averaging horizon must be positive and finite, got {T}")
    c_p_row = np.asarray(c_p_row, dtype=float).reshape(-1)
    c_o_row = np.asarray(c_o_row, dtype=float).reshape(-1)
    n = sys.space.n
    if c_p_row.shape != (n,) or c_o_row.shape != (n,):
        raise DimensionError("output rows do not match the state dimension")
    # corner T: the errors of report.json are pinned to this rounding
    return maxabs(c_p_row - c_o_row @ _van_loan(sys.a, T, T) / T)


def simulate_means(sys: LinearQuantumSystem, x0_means, t_grid) -> Trajectory:
    """Mean trajectories z_i(t) = C_i exp(A t) x0 for every output row."""
    x0 = np.asarray(x0_means, dtype=float).reshape(-1)
    if x0.shape != (sys.space.n,):
        raise DimensionError(
            f"initial mean vector has {x0.shape[0]} entries, "
            f"state dimension is {sys.space.n}"
        )
    if sys.c.shape[0] == 0:
        raise DimensionError("system has no output rows attached")
    t = _validate_grid(t_grid)
    # x(t)^T = x0^T exp(A^T t): the state means are a row scan under A^T.
    states = _scan_rows(sys.a.T, x0, t)
    return Trajectory(times=t, mean_values=states @ sys.c.T)


def running_average(sys: LinearQuantumSystem, trajectory: Trajectory) -> np.ndarray:
    """Running time average (1/(t - t_0)) int_{t_0}^t of the coefficient rows, exactly.

    Between grid points the row is rows[k] exp(A s), so interval k adds
    rows[k] @ W_k with W_k = int_0^h_k exp(As) ds = h_k `_van_loan`(A, h_k, 1):
    one W on a uniform grid, one per interval otherwise.  The value at the
    first grid point is the instantaneous row there.
    """
    rows = trajectory.coefficient_rows
    if rows is None:
        raise ValueError("trajectory has no coefficient rows")
    if rows.shape[1] != sys.space.n:
        raise DimensionError(
            f"trajectory rows have {rows.shape[1]} entries, state dimension is {sys.space.n}"
        )
    t = trajectory.times
    out = np.empty_like(rows)
    out[0] = rows[0]
    if rows.shape[0] == 1:
        return out
    steps = np.diff(t)
    h = _uniform_step(t)
    if h is not None:
        averages = rows[:-1] @ _van_loan(sys.a, h, 1.0)
    else:
        w = np.stack([_van_loan(sys.a, hk, 1.0) for hk in steps])
        averages = np.einsum("ki,kil->kl", rows[:-1], w)
    out[1:] = np.cumsum(averages * steps[:, None], axis=0) / (t[1:] - t[0])[:, None]
    return out


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
    """Least-squares exponent p of errors ~ T^(-p)."""
    safe = np.maximum(errors, 1e-300)
    slope = np.polyfit(np.log(horizons), np.log(safe), 1)[0]
    return float(-slope)


def verify_convergence(design: ObserverDesign, horizons=None) -> ConvergenceReport:
    """Verify the two defining properties of a direct-coupled observer.

    Checks, on the augmented system built from `design`:

    a. the plant output row annihilates the generator (z_p is constant),
       to within the space's exact tolerance;
    b. the time-average error decays over the horizon ladder: strictly
       decreasing with fitted rate >= 0.9, and the closed-form limit
       -C_o R_o^{-1} beta^T = 1 holds to 1e-12;
    c. the observer row oscillates within 1% of 4 omega_o (exact frequency
       from `dominant_frequency`).

    The default ladder is {5, 10, 20, 40, 80} / omega_o.  Always returns a
    report; failed checks are named in `failures` rather than raised.
    """
    sys = augment(PlantSpec(design.c_p), design)
    if horizons is None:
        horizons = tuple(t / design.omega_o for t in DEFAULT_HORIZON_LADDER)
    horizons = tuple(float(t) for t in horizons)
    if len(horizons) < 2 or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizon ladder must be increasing with at least 2 entries")

    c_p_aug, c_o_aug = sys.c[0], sys.c[1]
    exact_tol = sys.space.tol.exact

    row_defect = maxabs(c_p_aug @ sys.a)
    errors = tuple(time_average_error(sys, c_p_aug, c_o_aug, T) for T in horizons)
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
            passed=row_defect <= exact_tol,
            value=row_defect,
            threshold=exact_tol,
            detail="max-abs of C_p,aug @ A_aug",
        ),
        CheckResult(
            name="time-average error decays",
            passed=decreasing and rate >= 0.9 and limit_defect <= exact_tol,
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
