"""Simulation and convergence verification for the augmented system.

Everything here works at the coefficient level: the Heisenberg trajectory
of an output z = C x is fully described by the row C exp(A t), so scalar
claims about operators become checkable statements about rows.  For a valid
design the plant row [C_p, 0, 0] is a left null vector of the generator
(z_p is frozen), while the observer row oscillates at angular frequency
4 omega_o and its running time average converges to the plant row at rate
O(1/T) with an oscillatory prefactor:

    (1/T) int_0^T (C_p,aug - C_o,aug exp(As)) ds  =  O(1/T).

Every row, running average and propagator comes from one closed form in
cos and sin of w t (w^2 = det Om), with weights from `_kernels.weights`:
exact to roundoff at any horizon, with no matrix exponential.  It holds for
the generator `augment` builds from a rank-one R_c, and for any 2 x 2 one in
`propagator`; `_observer_blocks` raises StructureError for any other.  The decay
rate is a property of the R_o = 2 omega_o I construction; the underlying
guarantee is only that the average tends to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (
    EXACT_TOL, LinearQuantumSystem, check_horizons, maxabs, maxabs_of, to_array, to_number,
)
from .errors import DimensionError, InputError, NonFiniteError, StructureError
from .observer import ObserverDesign, augment, normalized_constraint_defect


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Rows C exp(A t_k) of an output row C over a time grid, with their running average.

    `coefficient_rows[k]` is C exp(A t_k) and `running_average[k]` is
    (1/(t_k - t_0)) int_{t_0}^{t_k} C exp(As) ds, the row itself at k = 0;
    both have shape (nt, n).  For a stack of rows C_i, shape (m, n), both
    have shape (m, nt, n) and `coefficient_rows[i, k]` is C_i exp(A t_k).
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

    NonFiniteError if it overflows, as it does for a subnormal omega_o.
    """
    horizons = tuple(t / omega_o for t in (5.0, 10.0, 20.0, 40.0, 80.0))
    if not all(math.isfinite(t) for t in horizons):
        raise NonFiniteError(
            f"default horizon ladder {{5..80}}/omega_o is not finite for omega_o = {omega_o!r}"
        )
    return horizons


def _observer_blocks(a: np.ndarray):
    """(P, D, Om, s = max|Om| or 1, det(Om / s)) of A = [[0, P], [D, Om]].

    StructureError unless A has the structure `augment` builds from a
    rank-one R_c: 4 x 4, a zero plant block, a traceless Om and D P = 0, the
    last two to 1e-14 of max|Om| and of max|D| max|P|.  Then
    A^4 = -det(Om) A^2.
    """
    if a.shape != (4, 4) or a[:2, :2].any():
        raise StructureError("generator is not 4 x 4 with a zero plant block [[0, P], [D, Om]]")
    p, d, om = a[:2, 2:], a[2:, :2], a[2:, 2:]
    (o00, o01), (o10, o11) = om.tolist()
    s = maxabs_of((o00, o01, o10, o11)) or 1.0
    d_scale, p_scale = maxabs(d), maxabs(p)
    dp_zero = not (d_scale and p_scale) or maxabs((d / d_scale) @ (p / p_scale)) <= 1e-14
    if abs(o00 + o11) > 1e-14 * s or not dp_zero:
        raise StructureError(
            "generator [[0, P], [D, Om]] has no closed form: it needs a traceless Om and "
            "D P = 0, which a rank-one R_c gives"
        )
    return p, d, om, s, (o00 / s) * (o11 / s) - (o01 / s) * (o10 / s)


def _closed_form(blocks: tuple, c_rows: np.ndarray, t: np.ndarray):
    """Rows [u0, v0] exp(A t_k) and their running averages from t = 0, each (m, nt, 4).

    With y = s t, the row is [u0, 0] + sum_m y^m f_m R_m and its average
    [u0, 0] + sum_m y^m f_(m+1) R_m, where R_m = [c_m D/s, c_(m+1)] for the
    chain c = (0, v0, b, g Om/s, 0), g = u0 P/s and b = v0 Om/s + g.  Rows
    meet P and D before the division by s: D/s alone overflows when |beta|
    is far above omega_o, while C_o D/s is of the order of C_p.  The weights
    are evaluated once for all m rows [u0, v0] of `c_rows`.  Om = 0 gives no
    time scale, so s = 1 / max(1, t) keeps every y^m at most 1: with y = t,
    a term whose chain row is 0 would read 0 * inf beyond t = 1e102.
    """
    p, d, om, s, det = blocks
    if not om.any():
        s = 1.0 / t.max(initial=1.0)
    om = om / s
    weights = _kernels.weights(det, s * t)
    rows, averages = np.empty((2, len(c_rows), t.size, 4))
    # Filled in place for each row; chain[0] = chain[4] = 0 and base[2:] = 0 throughout.
    chain, r, base = np.zeros((5, 2)), np.empty((4, 4)), np.zeros(4)
    for i, c_row in enumerate(c_rows):
        u0, v0 = c_row[:2], c_row[2:]
        g = u0 @ p / s
        chain[1] = v0
        chain[2] = v0 @ om + g
        chain[3] = g @ om
        r[:, :2] = chain[:4] @ d / s
        r[:, 2:] = chain[1:]
        base[:2] = u0
        rows[i] = base + weights[0] @ r
        averages[i] = base + weights[1] @ r
    return rows, averages


def _rows_and_averages(blocks: tuple, c_rows: np.ndarray, t: np.ndarray):
    """Rows C_i exp(A t_k) and (1/(t_k - t_0)) int_{t_0}^{t_k} C_i exp(As) ds, unchecked.

    `blocks` is `_observer_blocks(A)` and `c_rows` a stack (m, 4); both
    results are (m, nt, 4).  The closed form, restarted from its rows at
    t_0 > 0.  The average at k = 0 is the row itself.
    """
    if t[0] != 0.0:
        c_rows = _closed_form(blocks, c_rows, t[:1])[0][:, 0]
    return _closed_form(blocks, c_rows, t - t[0])


def propagator(sys: LinearQuantumSystem, t) -> np.ndarray:
    """exp(A t) from the closed form, for the two kinds of generator that have one.

    The observer's (`_observer_blocks`) gives the rows of exp(A t) itself.
    Any 2 x 2 one gives e^(tau t) (f_0 I + t f_1 B) with tau = tr(A) / 2 and
    B = A - tau I, since B^2 = -det(B) I; its weights are taken in units of
    s = max|B|.  A negative t propagates -A, which keeps either structure.
    InputError for a t that is not a finite number, StructureError for any
    other generator, NonFiniteError when A t or the result overflows.
    """
    t = to_number("t", t)
    if not math.isfinite(t):
        raise InputError("t", "propagation time must be finite", t)
    a, t = (sys.a, t) if t >= 0.0 else (-sys.a, -t)
    if not math.isfinite(maxabs(a) * t):
        raise NonFiniteError(f"A t overflows at |t| = {t!r}")
    if a.shape == (2, 2):
        tau = (a[0, 0] + a[1, 1]) / 2.0
        b = a - tau * np.eye(2)
        s = maxabs(b) or 1.0
        b = b / s
        rows, _ = _kernels.weights(float(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]), np.array([s * t]))
        e = np.exp(tau * t) * (rows[0, 0] * np.eye(2) + rows[0, 1] * b)
    else:
        e = _closed_form(_observer_blocks(a), np.eye(4), np.array([t]))[0][:, 0]
    if not np.isfinite(e).all():
        raise NonFiniteError(f"exp(A t) overflows at |t| = {t!r}")
    return e


def ccr_defect(sys: LinearQuantumSystem, t) -> float:
    """Commutation-relation drift max|exp(At) Theta exp(A^T t) - Theta| at time t,
    which a realizable closed system keeps at roundoff level for all t."""
    e, theta = propagator(sys, t), sys.space.theta
    return maxabs(e @ theta @ e.T - theta)


def _output_rows(sys: LinearQuantumSystem, c_rows: np.ndarray) -> np.ndarray:
    """`c_rows` as a stack (m, n), m >= 1; a single row (n,) is a stack of one."""
    n = sys.space.n
    if c_rows.ndim == 1:
        if c_rows.shape != (n,):
            raise DimensionError(
                f"output row has {c_rows.shape[0]} entries, state dimension is {n}"
            )
        return c_rows[None]
    if c_rows.ndim != 2 or c_rows.shape[0] == 0 or c_rows.shape[1] != n:
        raise DimensionError(
            f"output rows have shape {c_rows.shape}, expected ({n},) or (m, {n}) with m >= 1"
        )
    return c_rows


def coefficient_trajectory(sys: LinearQuantumSystem, c_row, t_grid) -> Trajectory:
    """Rows C exp(A t_k) and their exact running average over an increasing time grid.

    `c_row` is one output row (n,), giving (nt, n) arrays, or a stack of
    rows (m, n), giving (m, nt, n) arrays whose i-th slice is what row i
    alone gives, bit for bit.  The closed form evaluates its weights once
    for all rows, with no exponential; StructureError for a system that is
    not the observer's (`_observer_blocks`), InputError for a row with a
    non-finite entry.  The grid is a horizon ladder, which may start at
    t = 0, or InputError (`check_horizons`).
    """
    c_row = to_array("c_row", c_row)
    c_rows = _output_rows(sys, c_row)
    if not np.isfinite(c_rows).all():
        raise InputError("c_row", "entries must be finite", c_row.tolist())
    t = to_array("horizons", t_grid).reshape(-1)
    start = 1 if t[:1].tolist() == [0.0] else 0
    # A strictly increasing grid whose ends are positive and finite holds only
    # such times: one vectorized pass accepts it, and `check_horizons` refuses
    # any other with its rule and message.
    times = t[start:]
    if not (
        times.size >= 1 - start
        and (times.size == 0 or 0.0 < times[0] and times[-1] < math.inf)
        and (times[1:] > times[:-1]).all()
    ):
        check_horizons(times, minimum=1 - start)
    rows, averages = _rows_and_averages(_observer_blocks(sys.a), c_rows, t)
    if not (np.isfinite(rows).all() and np.isfinite(averages).all()):
        raise NonFiniteError("trajectory rows overflowed to non-finite values")
    if c_row.ndim == 1:
        rows, averages = rows[0], averages[0]
    return Trajectory(times=t, coefficient_rows=rows, running_average=averages)


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
    c. the observer row oscillates within 1% of 4 omega_o, at
       w = sqrt(det Om) read from Om (0.0 when det Om <= 0).

    The default ladder is `default_horizons(omega_o)`.  A ladder that is
    not at least 2 positive, finite, strictly increasing horizons raises
    InputError (`check_horizons`), and a design whose augmented generator
    lacks the observer's structure (a full-rank R_c) raises StructureError,
    before any error is computed; otherwise this always returns a report,
    and failed checks are named in `failures` rather than raised.
    """
    ladder = default_horizons(design.omega_o) if horizons is None else horizons
    # A generator is read once; a lone number is a ladder of one.
    ladder = tuple(ladder) if np.iterable(ladder) else ladder
    horizons = tuple(check_horizons(ladder, minimum=2))
    grid = np.array((0.0, *horizons))

    sys = augment(design)
    c_p_aug, c_o_aug = sys.c[0], sys.c[1]
    blocks = _observer_blocks(sys.a)

    row_defect = maxabs(c_p_aug @ sys.a)
    _, averages = _rows_and_averages(blocks, c_o_aug[None], grid)
    errors = tuple(float(e) for e in np.abs(c_p_aug - averages[0, 1:]).max(axis=1))
    ratios = tuple(b / a if a > 0.0 else math.inf for a, b in zip(errors, errors[1:]))
    rate = _fit_decay_rate(np.asarray(horizons), np.asarray(errors))

    # |-C_o R_o^{-1} beta^T - 1|, inf when beta = 0 or R_o is not definite
    limit_defect = normalized_constraint_defect(design)

    expected = 4.0 * design.omega_o
    freq = blocks[3] * math.sqrt(max(blocks[4], 0.0))  # w = s sqrt(det(Om / s))
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
