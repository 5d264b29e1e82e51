"""Mapping the observer design onto an NDPA fed back through a beamsplitter.

A non-degenerate parametric amplifier (NDPA) has two cavity modes a (plant)
and b (observer) with Hamiltonian (i/2)(eps a* b* - eps* a b) + omega_o b*b
and mirror couplings L = [sqrt(gamma) a, sqrt(gamma) b].  Feeding both
output fields back through a beamsplitter with angle theta and phase phi
closes the loop: the noise increments drop out algebraically and the
deterministic doubled-up dynamics

    d/dt (a, b, a*, b*) = F (a, b, a*, b*)

remain, with the off-diagonal loop terms proportional to
alpha = gamma e^{i phi} sin(theta) / (1 - cos(theta)).  The equivalent
quadratic Hamiltonian is recovered as M = (i/2)(J F - F^dag J) with
J = diag(I, -I), and in quadrature coordinates R = Phi^dag M Phi, where Phi
maps (q_p, p_p, q_o, p_o) to (a, b, a*, b*) via a = q_p + i p_p, etc.

The resulting R has the block form [[0, R_c], [R_c^T, 2 omega_o I]] with

    R_c = [[-Im(eps) - Im(alpha),  Re(eps) + Re(alpha)],
           [ Re(eps) - Re(alpha),  Im(eps) - Im(alpha)]],

so the hardware realizes a direct-coupled observer exactly when R_c is
rank one along the plant selector.  Writing eps = |eps| e^{i psi} and
c = C_p1 + i C_p2, that happens iff

    sin(theta) / (1 - cos(theta)) = |eps| / gamma           (magnitude)
    arg(e^{i psi} - e^{-i phi})   = arg(c) - pi/2           (orientation)

which this module solves in closed form, after which beta and C_o follow
from the coupling block.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import DESIGN_TOL, EXACT_TOL, _frozen_array, maxabs, to_number
from .errors import (
    ConsistencyError,
    DesignError,
    FactorizationError,
    InputError,
    PipelineError,
    StructureError,
    ZeroCouplingError,
)
from .observer import (
    ObserverDesign,
    PlantSpec,
    augmented_energy_matrix,
    synthesize_observer,
)

# Trusted squeezing-to-damping ratio for the linearized NDPA model.
EPS_RATIO_TRUSTED_MAX = 0.6

# Quadrature map: (a, b, a*, b*) = PHI @ (q_p, p_p, q_o, p_o).
PHI = np.array(
    [
        [1.0, 1.0j, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0j],
        [1.0, -1.0j, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0j],
    ]
)
PHI.setflags(write=False)

# Signature matrix of the doubled-up ordering (a, b | a*, b*).
J_PM = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
J_PM.setflags(write=False)


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = x - 2.0 * math.pi * round(x / (2.0 * math.pi))
    if w <= -math.pi:
        w += 2.0 * math.pi
    elif w > math.pi:
        w -= 2.0 * math.pi
    return w


@dataclass(frozen=True)
class NdpaParams:
    """Physical amplifier and beamsplitter parameters as `design_ndpa` checked them.

    gamma   mirror-coupling rate (frequency units)
    epsilon complex squeezing parameter, eps = |eps| e^{i psi}
    omega_o detuning of the observer mode b (the a mode is tuned)
    theta   beamsplitter angle in (0, pi)
    phi     beamsplitter phase in (-pi, pi]
    """

    gamma: float
    epsilon: complex
    omega_o: float
    theta: float
    phi: float

    @property
    def eps_ratio(self) -> float:
        return abs(self.epsilon) / self.gamma

    @property
    def linearization_trusted(self) -> bool:
        """True when |eps|/gamma sits inside the trusted range (0, 0.6)."""
        return 0.0 < self.eps_ratio < EPS_RATIO_TRUSTED_MAX


@dataclass(frozen=True, eq=False)
class NdpaDesign:
    """Physical parameters plus the physical route's artifacts (beta and C_o
    are on `DesignResult.observer`)."""

    params: NdpaParams
    alpha: complex
    f: np.ndarray
    m: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _frozen_array(self.f, dtype=complex))
        object.__setattr__(self, "m", _frozen_array(self.m, dtype=complex))
        object.__setattr__(self, "r", _frozen_array(self.r))


@dataclass(frozen=True)
class DesignReport:
    """Residuals and flags collected while running the design pipeline.

    `det_r_c` is det(R_c / max|R_c|): scale-free, so it stays finite for any
    finite block, and 0 up to roundoff when R_c is rank one.
    """

    arg_c: float
    delta: float
    theta_residual: float
    phase_residual: float
    arg_identity_residual: float
    det_r_c: float
    alpha_magnitude_defect: float
    factorization_residual: float
    cross_check_defect: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class DesignResult:
    ndpa: NdpaDesign
    observer: ObserverDesign
    report: DesignReport


# The stages of `design_ndpa`, which is their only caller: each takes values
# it has checked or computed, with their types, and checks only what can
# still go wrong on those.


def solve_theta(eps_ratio: float) -> float:
    """Beamsplitter angle with sin(theta)/(1 - cos(theta)) = eps_ratio > 0.

    On (0, pi) the left side equals cot(theta/2), so the unique solution is
    theta = 2 arctan(1/eps_ratio).  Ratios of 0.6 and above are accepted
    here; `design_ndpa` flags them in `DesignReport.warnings`, by the rule of
    `NdpaParams.linearization_trusted`, since the linearized amplifier model
    degrades there.
    """
    return 2.0 * math.atan(1.0 / eps_ratio)


def solve_phases(arg_c: float, delta: float) -> tuple[float, float]:
    """Pump phase psi and beamsplitter phase phi for a target plant quadrature.

    The orientation condition arg(e^{i psi} - e^{-i phi}) = arg_c - pi/2 has
    a one-parameter family of solutions; it is parametrized here as

        psi = arg_c - pi + delta,    phi = pi - arg_c + delta,

    for which e^{i psi} - e^{-i phi} = 2i sin(delta) e^{i(arg_c - pi)}, so any
    delta in (0, pi) works.  Both angles are returned wrapped to (-pi, pi].
    """
    psi = wrap_angle(arg_c - math.pi + delta)
    phi = wrap_angle(math.pi - arg_c + delta)
    return psi, phi


def build_open_ndpa(gamma: float, epsilon: complex, omega_o: float) -> np.ndarray:
    """Drift of the open (pre-feedback) NDPA in doubled-up (a, b, a*, b*) form.

    On the (a, b) rows the drift is [[0, eps/2], [eps/2, 0]] acting on the
    conjugates minus [[gamma/2, 0], [0, gamma/2 + i omega_o]] acting on
    (a, b); the conjugate rows are the entrywise conjugates.  The couplings
    to the formal noise increments are sqrt(gamma) I in and out; the toolkit
    only ever eliminates those increments algebraically (`close_loop`), it
    never integrates them.
    """
    damp = -np.array([[gamma / 2.0, 0.0], [0.0, gamma / 2.0 + 1j * omega_o]])
    squeeze = np.array([[0.0, epsilon / 2.0], [epsilon / 2.0, 0.0]])
    return _doubled_up(damp, squeeze)


def close_loop(drift: np.ndarray, gamma: float, eps_ratio: float, phi: float) -> np.ndarray:
    """Deterministic drift F after the beamsplitter feedback loop is closed.

    Substituting the beamsplitter relation into the output equation leaves

        [[cos(theta) - 1, -e^{-i phi} sin(theta)],
         [e^{i phi} sin(theta), cos(theta) - 1]] (dA, dB) = sqrt(gamma) (a, b) dt,

    and feeding the solved increments back into the (a, b) drift adds
    (gamma/2) [[1, -r e^{-i phi}], [r e^{i phi}, 1]], r = sin(theta)/(1 - cos(theta)).
    On the design curve r = eps_ratio, which gives the elimination exactly at
    every theta in (0, pi): the damping cancels and the loop terms -alpha*/2
    and alpha/2 remain, alpha = gamma eps_ratio e^{i phi}.
    """
    loop = gamma * eps_ratio * cmath.exp(1j * phi) / 2.0
    correction = np.array([[gamma / 2.0, -loop.conjugate()], [loop, gamma / 2.0]])
    return _doubled_up(drift[:2, :2] + correction, drift[:2, 2:])


def _doubled_up(ab: np.ndarray, squeeze: np.ndarray) -> np.ndarray:
    """The 4x4 [[ab, squeeze], [squeeze*, ab*]] in (a, b, a*, b*) order.

    Filled by quadrant into one preallocated array: `np.block` builds the
    same values at about four times the cost.
    """
    out = np.empty((4, 4), dtype=complex)
    out[:2, :2] = ab
    out[:2, 2:] = squeeze
    out[2:, :2] = squeeze.conj()
    out[2:, 2:] = ab.conj()
    return out


def hamiltonian_from_drift(f: np.ndarray) -> np.ndarray:
    """Doubled-up Hamiltonian matrix M = (i/2)(J F - F^dag J).

    F is the 4x4 drift in (a, b, a*, b*) ordering.  M is exactly Hermitian
    in floating point for any such F: J = diag(1, 1, -1, -1) only flips signs,
    so entry (j, i) is the conjugate of entry (i, j), rounded the same way.
    """
    return 0.5j * (J_PM @ f - f.conj().T @ J_PM)


def quadrature_hamiltonian(m: np.ndarray) -> np.ndarray:
    """Real quadrature energy matrix R = Phi^dag M Phi.

    The imaginary residue is required to stay below EXACT_TOL relative to
    the scale of M; anything larger means M is not a valid doubled-up
    Hamiltonian (e.g. wrong ordering or a non-Hermitian block).
    """
    r = PHI.conj().T @ m @ PHI
    imag = maxabs(r.imag)
    if imag > EXACT_TOL * max(1.0, maxabs(m)):
        raise StructureError(
            f"quadrature form has imaginary residue {imag:.3e}; input is not a "
            "valid doubled-up Hamiltonian"
        )
    r = r.real
    return (r + r.T) / 2.0


def coupling_block(epsilon: complex, alpha: complex) -> np.ndarray:
    """Plant-observer coupling block of R in terms of eps and alpha.

    det R_c = |alpha|^2 - |eps|^2, so the block is rank one exactly on the
    magnitude design curve |alpha| = |eps|.
    """
    return np.array(
        [
            [-epsilon.imag - alpha.imag, epsilon.real + alpha.real],
            [epsilon.real - alpha.real, epsilon.imag - alpha.imag],
        ]
    )


def extract_beta(r_c: np.ndarray, plant: PlantSpec) -> np.ndarray:
    """Factor the 2x2 R_c = C_p^T beta and return beta.

    beta is the least-squares factor (C_p R_c) / |C_p|^2; the factorization
    must reproduce R_c to DESIGN_TOL relative to its size, otherwise the
    design equations were not satisfied.
    """
    c_p = plant.c_p
    scale = maxabs(r_c)
    if scale == 0.0:
        raise ZeroCouplingError("coupling block is zero: observer is decoupled")
    norm_sq = c_p @ c_p
    if norm_sq == 0.0:
        raise DesignError(f"plant output selector {c_p.tolist()} underflows: |C_p|^2 = 0")
    beta = (c_p @ r_c) / norm_sq
    if not np.isfinite(beta).all():
        raise DesignError(f"factor beta = {beta.tolist()} is not finite")
    residual = maxabs(r_c - np.outer(c_p, beta))
    if residual > DESIGN_TOL * scale:
        raise FactorizationError(
            f"coupling block is not rank one along the plant selector "
            f"(residual {residual:.3e} vs {DESIGN_TOL:.1e} * {scale:.3e})"
        )
    return beta


def check_number(name: str, value, high: float = math.inf) -> float:
    """`value` as a float, finite and in (0, high) for high inf or pi, else InputError."""
    value = to_number(name, value)
    if not math.isfinite(value):
        raise InputError(name, "value must be finite", value)
    if not 0.0 < value < high:
        rule = "must be positive" if high == math.inf else "must lie in (0, pi)"
        raise InputError(name, rule, value)
    return value


def check_design_inputs(c_p, omega_o, gamma, eps_ratio, delta=None):
    """(plant, omega_o, gamma, eps_ratio, delta) as `design_ndpa` uses them, each
    checked once, in that order; delta defaults to pi/2.  The rules hold in any
    frequency unit, so the command line checks the values as given."""
    plant = PlantSpec(c_p)
    numbers = {"omega_o": omega_o, "gamma": gamma, "eps_ratio": eps_ratio}
    positives = [check_number(name, value) for name, value in numbers.items()]
    delta = check_number("delta", math.pi / 2.0 if delta is None else delta, math.pi)
    return (plant, *positives, delta)


def design_ndpa(
    c_p,
    omega_o: float,
    gamma: float,
    eps_ratio: float,
    delta: float | None = None,
) -> DesignResult:
    """Full design pipeline from plant selector to hardware parameters.

    Solves the two design equations, forms eps and alpha, reads off beta and
    C_o from the coupling block, and independently rebuilds R through the
    physical route (open model -> loop closure -> M -> quadratures).  The two
    routes must agree to DESIGN_TOL of max|R| or the result is rejected: the
    cross-check tests the loop-closure algebra, which reads the ratio, while
    `theta_residual` tests the angle solve.  All inputs are taken in one
    consistent frequency unit.  An omitted delta is pi/2, which keeps the two
    phases equal when arg_c = 0.  The inputs pass `check_design_inputs`
    before any stage runs, and theta is checked after the cross-check.
    """
    plant, omega_o, gamma, eps_ratio, delta = check_design_inputs(
        c_p, omega_o, gamma, eps_ratio, delta
    )

    def stage(name, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            raise PipelineError(name, str(exc)) from exc

    theta = stage("solve_theta", solve_theta, eps_ratio)
    arg_c = math.atan2(plant.c_p[1], plant.c_p[0])
    psi, phi = stage("solve_phases", solve_phases, arg_c, delta)
    # alpha = gamma e^{i phi} sin(theta)/(1 - cos(theta)) without its
    # quotient, which equals eps_ratio on the design curve and loses the
    # ratio as theta nears pi.
    epsilon = gamma * eps_ratio * cmath.exp(1j * psi)
    alpha = gamma * eps_ratio * cmath.exp(1j * phi)

    r_c = stage("coupling_block", coupling_block, epsilon, alpha)
    beta = stage("extract_beta", extract_beta, r_c, plant)
    observer = stage("synthesize_observer", synthesize_observer, plant, omega_o, beta)

    drift = stage("build_open_ndpa", build_open_ndpa, gamma, epsilon, omega_o)
    f = stage("close_loop", close_loop, drift, gamma, eps_ratio, phi)
    m = stage("hamiltonian_from_drift", hamiltonian_from_drift, f)
    r_physical = stage("quadrature_hamiltonian", quadrature_hamiltonian, m)

    r_abstract = augmented_energy_matrix(observer)
    cross_defect = maxabs(r_physical - r_abstract)
    if cross_defect > DESIGN_TOL * maxabs(r_abstract):
        raise ConsistencyError(
            f"physical route disagrees with abstract design "
            f"(max entry defect {cross_defect:.3e})"
        )
    params = NdpaParams(gamma, epsilon, omega_o, theta, phi)
    if not 0.0 < theta < math.pi:
        raise DesignError(
            f"beamsplitter angle must lie in (0, pi), got {theta}, at squeezing "
            f"ratio {params.eps_ratio:g}; 2 arctan(1/ratio) rounds to pi below about 1.7e-16"
        )

    theta_residual = abs(1.0 / math.tan(theta / 2.0) - eps_ratio)
    phase_residual = abs(
        wrap_angle(
            cmath.phase(cmath.exp(1j * psi) - cmath.exp(-1j * phi))
            - (arg_c - math.pi / 2.0)
        )
    )
    arg_identity_residual = abs(
        wrap_angle(cmath.phase(1j * (epsilon - alpha.conjugate())) - arg_c)
    )

    notes: list[str] = []
    if not params.linearization_trusted:
        notes.append(
            f"squeezing ratio {eps_ratio:g} above trusted range "
            f"(0, {EPS_RATIO_TRUSTED_MAX}); linearized model not trusted"
        )
    if delta != math.pi / 2.0:
        notes.append(
            f"non-default phase offset delta = {delta:g}; the phase pair is a "
            "toolkit convention, not uniquely determined"
        )

    ndpa = NdpaDesign(params=params, alpha=alpha, f=f, m=m, r=r_physical)
    report = DesignReport(
        arg_c=arg_c,
        delta=delta,
        theta_residual=theta_residual,
        phase_residual=phase_residual,
        arg_identity_residual=arg_identity_residual,
        det_r_c=float(np.linalg.det(r_c / maxabs(r_c))),
        alpha_magnitude_defect=abs(abs(alpha) - abs(epsilon)),
        factorization_residual=maxabs(r_c - np.outer(plant.c_p, beta)),
        cross_check_defect=cross_defect,
        warnings=tuple(notes),
    )
    return DesignResult(ndpa=ndpa, observer=observer, report=report)
