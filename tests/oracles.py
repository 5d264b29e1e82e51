"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the code paths under test: propagators
are integrated with fixed-step RK4 instead of the closed form, the
feedback loop is eliminated with a numerical 2x2 inversion, in doubles or
at 50 digits through mpmath, instead of the closed form on the ratio, the
physical route's open model, loop closure, M and R are formed by numpy
array operations and complex matrix products instead of entry by entry, time
averages come from the exact rotation integral
int_0^T exp(w J s) ds = (exp(w J T) - I) J^{-1} / w or from Van
Loan's block exponential through scipy instead of the closed form, and JSON
reports are laid out by `json.dumps` instead of the one-pass emitter (their
floats still take `fmt_float`, the one float rule).
"""

from __future__ import annotations

import cmath
import json
import math
import re
import uuid

import numpy as np
from scipy.linalg import expm as scipy_expm

from qobserver.cli import fmt_float
from qobserver.core import EXACT_TOL
from qobserver.errors import StructureError

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def rk4_expm(a: np.ndarray, t: float, steps: int | None = None) -> np.ndarray:
    """exp(a t) by classic fixed-step RK4 on M' = a M, M(0) = I."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if t == 0.0:
        return np.eye(n)
    if steps is None:
        scale = max(1.0, float(np.max(np.abs(a))))
        steps = max(2000, int(math.ceil(400 * abs(t) * scale)))
    h = t / steps
    m = np.eye(n)
    for _ in range(steps):
        k1 = a @ m
        k2 = a @ (m + 0.5 * h * k1)
        k3 = a @ (m + 0.5 * h * k2)
        k4 = a @ (m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


def van_loan_rows(a: np.ndarray, c_row: np.ndarray, t: np.ndarray):
    """Rows C exp(A t_k) and (1/(t_k - t_0)) int_{t_0}^{t_k} C exp(As) ds, per point.

    exp([[A h, I], [0, 0]]) = [[exp(Ah), W], [0, I]] with the average
    W = (1/h) int_0^h exp(As) ds (Van Loan, IEEE TAC 23(3), 1978), one
    exponential for each h = t_k - t_0; the average at k = 0 is the row.
    """
    n = a.shape[0]
    start = c_row @ scipy_expm(a * t[0])
    rows, averages = [start], [start]
    for h in t[1:] - t[0]:
        e = scipy_expm(np.block([[a * h, np.eye(n)], [np.zeros((n, 2 * n))]]))
        rows.append(start @ e[:n, :n])
        averages.append(start @ e[:n, n:])
    return np.array(rows), np.array(averages)


def rotation(omega: float, t: float) -> np.ndarray:
    """exp(omega J t) for the 2x2 symplectic J."""
    c, s = math.cos(omega * t), math.sin(omega * t)
    return np.array([[c, s], [-s, c]])


def rotation_observer_row(design, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Row C_o,aug exp(At) and its running average for R_o = 2 omega_o I.

    Then Om = w J with w = 4 omega_o, so exp(Om t) = rotation(w, t) and
    int_0^t exp(Om s) ds = Om^{-1} (exp(Om t) - I); with D = 2 J beta^T C_p,

        C_o,aug exp(At) = [C_o Om^{-1} (exp(Om t) - I) D,  C_o exp(Om t)].

    Only sin and cos of w t enter, so this holds at any horizon.
    """
    omega = 4.0 * design.omega_o
    om_inv = -J2 / omega
    d_mat = 2.0 * J2 @ np.outer(design.beta, design.c_p)
    c_o = design.c_o
    e_t = rotation(omega, t)
    row = np.concatenate([c_o @ om_inv @ (e_t - np.eye(2)) @ d_mat, c_o @ e_t])
    if t == 0.0:
        return row, row
    mean_e = om_inv @ (e_t - np.eye(2)) / t  # (1/t) int_0^t exp(Om s) ds
    average = np.concatenate([c_o @ om_inv @ (mean_e - np.eye(2)) @ d_mat, c_o @ mean_e])
    return row, average


def averaged_error_row(design, T: float) -> np.ndarray:
    """Exact (1/T) int_0^T (C_p,aug - C_o,aug exp(As)) ds for A_p = 0.

    Valid for any design with invertible R_o (including tampered C_o or
    beta = 0): with Om = 2 J R_o and D = 2 J beta^T C_p,

        C_o,aug exp(As) = [C_o Om^{-1} (exp(Om s) - I) D,  C_o exp(Om s)],

    and the average follows from the closed rotation integral.
    """
    om_mat = 2.0 * J2 @ design.r_o
    d_mat = 2.0 * J2 @ np.outer(design.beta, design.c_p)
    om_inv = np.linalg.inv(om_mat)
    e_t = _expm_series(om_mat * T)
    c_o = design.c_o
    delta = e_t - np.eye(2)
    x_p_part = design.c_p - c_o @ om_inv @ ((om_inv @ delta) / T - np.eye(2)) @ d_mat
    x_o_part = -(c_o @ om_inv @ delta) / T
    return np.concatenate([x_p_part, x_o_part])


def _expm_series(a: np.ndarray) -> np.ndarray:
    """Small dense exponential by plain Taylor with 2^k scaling."""
    norm = float(np.max(np.abs(a)))
    s = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    b = a / (2.0**s)
    term = np.eye(a.shape[0])
    acc = np.eye(a.shape[0])
    for k in range(1, 40):
        term = term @ b / k
        acc = acc + term
    for _ in range(s):
        acc = acc @ acc
    return acc


def close_loop_by_inversion(
    gamma: float, epsilon: complex, omega_o: float, theta: float, phi: float
) -> np.ndarray:
    """Loop closure through an explicit numpy matrix inversion.

    Solves the elimination system
        [[cos(th) - 1, -e^{-i phi} sin(th)],
         [e^{i phi} sin(th), cos(th) - 1]] (dA, dB) = sqrt(gamma) (a, b) dt
    numerically and substitutes back into the open drift.
    """
    drift_ab = -np.array([[gamma / 2.0, 0.0], [0.0, gamma / 2.0 + 1j * omega_o]])
    squeeze = np.array([[0.0, epsilon / 2.0], [epsilon / 2.0, 0.0]])
    # cos(th) - 1 as -2 sin(th/2)^2, which keeps its digits as th -> 0
    cos_m1, sin_t = -2.0 * math.sin(theta / 2.0) ** 2, math.sin(theta)
    elim = np.array(
        [
            [cos_m1, -cmath.exp(-1j * phi) * sin_t],
            [cmath.exp(1j * phi) * sin_t, cos_m1],
        ]
    )
    noise_coeff = np.linalg.solve(elim, math.sqrt(gamma) * np.eye(2))
    f_ab = drift_ab - math.sqrt(gamma) * noise_coeff
    return np.block([[f_ab, squeeze], [squeeze.conj(), f_ab.conj()]])


def mp_close_loop(
    gamma: float, epsilon: complex, omega_o: float, theta: float, phi: float
) -> np.ndarray:
    """Loop closure with the elimination system solved by mpmath at 50 digits.

    The system of `close_loop_by_inversion`, taken at the double theta as
    given: cos(theta) - 1 is formed at 50 digits, so its cancellation near
    theta = 0 leaves some 20 digits even at theta = 2e-15, and the drift is
    rounded to complex doubles once, at the end.
    """
    import mpmath  # here, not at the top: perfbench's gate imports this module

    with mpmath.workdps(50):
        g, th, ph = mpmath.mpf(gamma), mpmath.mpf(theta), mpmath.mpf(phi)
        cos_t, sin_t = mpmath.cos(th), mpmath.sin(th)
        elim = mpmath.matrix(
            [
                [cos_t - 1, -mpmath.expj(-ph) * sin_t],
                [mpmath.expj(ph) * sin_t, cos_t - 1],
            ]
        )
        # (dA, dB) = elim^{-1} sqrt(gamma) (a, b) dt enters the drift as -sqrt(gamma) (dA, dB)
        f_ab = mpmath.matrix([[-g / 2, 0], [0, -(g / 2 + 1j * mpmath.mpf(omega_o))]])
        f_ab -= g * mpmath.inverse(elim)
        f_ab = np.array([[complex(f_ab[i, k]) for k in range(2)] for i in range(2)])
    squeeze = np.array([[0.0, epsilon / 2.0], [epsilon / 2.0, 0.0]])
    return np.block([[f_ab, squeeze], [squeeze.conj(), f_ab.conj()]])


# The physical route as 4 x 4 numpy arrays and complex matrix products:
# (a, b, a*, b*) = PHI @ (q_p, p_p, q_o, p_o), and the signature J_PM of the
# doubled-up ordering (a, b | a*, b*).
PHI = np.array(
    [
        [1.0, 1.0j, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0j],
        [1.0, -1.0j, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0j],
    ]
)
J_PM = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def _doubled_up(ab: np.ndarray, squeeze: np.ndarray) -> np.ndarray:
    out = np.empty((4, 4), dtype=complex)
    out[:2, :2] = ab
    out[:2, 2:] = squeeze
    out[2:, :2] = squeeze.conj()
    out[2:, 2:] = ab.conj()
    return out


def numpy_open_ndpa(gamma: float, epsilon: complex, omega_o: float) -> np.ndarray:
    """`ndpa.build_open_ndpa` from 2 x 2 arrays."""
    damp = -np.array([[gamma / 2.0, 0.0], [0.0, gamma / 2.0 + 1j * omega_o]])
    squeeze = np.array([[0.0, epsilon / 2.0], [epsilon / 2.0, 0.0]])
    return _doubled_up(damp, squeeze)


def numpy_close_loop(drift: np.ndarray, gamma: float, eps_ratio: float, phi: float) -> np.ndarray:
    """`ndpa.close_loop` as one 2 x 2 array sum."""
    loop = gamma * eps_ratio * cmath.exp(1j * phi) / 2.0
    correction = np.array([[gamma / 2.0, -loop.conjugate()], [loop, gamma / 2.0]])
    return _doubled_up(drift[:2, :2] + correction, drift[:2, 2:])


def numpy_hamiltonian_from_drift(f: np.ndarray) -> np.ndarray:
    """M = (i/2)(J F - F^dag J) through two complex matrix products."""
    return 0.5j * (J_PM @ f - f.conj().T @ J_PM)


def numpy_quadrature_hamiltonian(m: np.ndarray) -> np.ndarray:
    """R = Phi^dag M Phi through two complex matrix products, with the same
    imaginary-residue check as `ndpa.quadrature_hamiltonian`."""
    r = PHI.conj().T @ m @ PHI
    imag = float(np.max(np.abs(r.imag)))
    if imag > EXACT_TOL * max(1.0, float(np.max(np.abs(m)))):
        raise StructureError(f"quadrature form has imaginary residue {imag:.3e}")
    r = r.real
    return (r + r.T) / 2.0


def emit_json_by_stdlib(obj) -> str:
    """`cli.emit_json` text by `json.dumps(..., indent=2)` with the floats spliced in.

    Numpy arrays become lists, numpy scalars Python ones, complex values
    {"re": ..., "im": ...} and keys `str(k)`.  Every float is swapped for a
    unique placeholder string, the tree is dumped by the standard library,
    and each quoted placeholder is then replaced by `fmt_float` of its float.
    """
    token = uuid.uuid4().hex
    floats = []

    def plain(node):
        if isinstance(node, np.ndarray):
            return plain(node.tolist())
        if isinstance(node, dict):
            return {str(k): plain(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [plain(v) for v in node]
        if isinstance(node, (bool, np.bool_)):
            return bool(node)
        if isinstance(node, (int, np.integer)):
            return int(node)
        if isinstance(node, (float, np.floating)):
            floats.append(float(node))
            return f"{token}-{len(floats) - 1}"
        if isinstance(node, (complex, np.complexfloating)):
            return {"re": plain(node.real), "im": plain(node.imag)}
        return node

    text = json.dumps(plain(obj), indent=2)
    return re.sub(f'"{token}-(\\d+)"', lambda m: fmt_float(floats[int(m[1])]), text) + "\n"
