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

from .core import DESIGN_TOL, EXACT_TOL, _frozen_array, maxabs
from .errors import (
    ConsistencyError,
    DesignError,
    DimensionError,
    FactorizationError,
    PipelineError,
    SingularBeamsplitterError,
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
    """Physical amplifier and beamsplitter parameters.

    gamma   mirror-coupling rate (frequency units)
    epsilon complex squeezing parameter, eps = |eps| e^{i psi}
    omega_o detuning of the observer mode b (the a mode is tuned)
    theta   beamsplitter angle in (0, pi)
    phi     beamsplitter phase, stored wrapped to (-pi, pi]
    """

    gamma: float
    epsilon: complex
    omega_o: float
    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "epsilon", complex(self.epsilon))
        object.__setattr__(self, "omega_o", float(self.omega_o))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", wrap_angle(float(self.phi)))
        if self.gamma <= 0.0:
            raise DesignError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 < self.theta < math.pi:
            raise DesignError(
                f"beamsplitter angle must lie in (0, pi), got {self.theta}, at squeezing "
                f"ratio {self.eps_ratio:g}; 2 arctan(1/ratio) rounds to pi below about 1.7e-16"
            )

    @property
    def eps_ratio(self) -> float:
        return abs(self.epsilon) / self.gamma

    @property
    def linearization_trusted(self) -> bool:
        """True when |eps|/gamma sits inside the trusted range (0, 0.6)."""
        return 0.0 < self.eps_ratio < EPS_RATIO_TRUSTED_MAX


@dataclass(frozen=True, eq=False)
class OpenNdpaModel:
    """NDPA before loop closure, in doubled-up (a, b, a*, b*) ordering.

    `drift` is the deterministic part of the open dynamics.  Its couplings
    to the formal noise increments are sqrt(gamma) I in and out; the toolkit
    only ever eliminates those increments algebraically (`close_loop`), it
    never integrates them.
    """

    drift: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "drift", _frozen_array(self.drift, dtype=complex))
        object.__setattr__(self, "gamma", float(self.gamma))


@dataclass(frozen=True, eq=False)
class NdpaDesign:
    """Physical parameters plus every derived pipeline artifact."""

    params: NdpaParams
    alpha: complex
    f: np.ndarray
    m: np.ndarray
    r: np.ndarray
    beta: np.ndarray
    c_o: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _frozen_array(self.f, dtype=complex))
        object.__setattr__(self, "m", _frozen_array(self.m, dtype=complex))
        object.__setattr__(self, "r", _frozen_array(self.r))
        object.__setattr__(self, "beta", _frozen_array(np.reshape(self.beta, -1)))
        object.__setattr__(self, "c_o", _frozen_array(np.reshape(self.c_o, -1)))


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


def solve_theta(eps_ratio: float) -> float:
    """Beamsplitter angle with sin(theta)/(1 - cos(theta)) = eps_ratio.

    On (0, pi) the left side equals cot(theta/2), so the unique solution is
    theta = 2 arctan(1/eps_ratio).  Ratios of 0.6 and above are accepted
    here; `design_ndpa` flags them in `DesignReport.warnings`, by the rule of
    `NdpaParams.linearization_trusted`, since the linearized amplifier model
    degrades there.
    """
    eps_ratio = float(eps_ratio)
    if eps_ratio <= 0.0:
        raise DesignError(f"squeezing ratio must be positive, got {eps_ratio}")
    return 2.0 * math.atan(1.0 / eps_ratio)


def solve_phases(arg_c: float, delta: float | None = None) -> tuple[float, float]:
    """Pump phase psi and beamsplitter phase phi for a target plant quadrature.

    The orientation condition arg(e^{i psi} - e^{-i phi}) = arg_c - pi/2 has
    a one-parameter family of solutions; it is parametrized here as

        psi = arg_c - pi + delta,    phi = pi - arg_c + delta,

    for which e^{i psi} - e^{-i phi} = 2i sin(delta) e^{i(arg_c - pi)}, so any
    delta in (0, pi) works.  The default delta = pi/2 keeps the two phases
    equal when arg_c = 0.  Both angles are returned wrapped to (-pi, pi].
    """
    if delta is None:
        delta = math.pi / 2.0
    delta = float(delta)
    arg_c = float(arg_c)
    if not 0.0 < delta < math.pi:
        raise DesignError(
            f"phase offset delta must lie in (0, pi), got {delta} "
            "(sin(delta) must be positive for a nonzero phase difference vector)"
        )
    psi = wrap_angle(arg_c - math.pi + delta)
    phi = wrap_angle(math.pi - arg_c + delta)
    return psi, phi


def alpha_parameter(gamma: float, theta: float, phi: float) -> complex:
    """Loop-coupling amplitude alpha = gamma e^{i phi} sin(theta)/(1 - cos(theta)).

    The quotient is read as cot(theta/2), which loses no digits as theta
    nears 0.
    """
    return gamma * cmath.exp(1j * phi) / math.tan(theta / 2.0)


def build_open_ndpa(gamma: float, epsilon: complex, omega_o: float) -> OpenNdpaModel:
    """Open (pre-feedback) NDPA model in doubled-up form.

    On the (a, b) rows the drift is [[0, eps/2], [eps/2, 0]] acting on the
    conjugates minus [[gamma/2, 0], [0, gamma/2 + i omega_o]] acting on
    (a, b); the conjugate rows are the entrywise conjugates.
    """
    gamma = float(gamma)
    if gamma <= 0.0:
        raise DesignError(f"gamma must be positive, got {gamma}")
    epsilon = complex(epsilon)
    omega_o = float(omega_o)
    damp = -np.array([[gamma / 2.0, 0.0], [0.0, gamma / 2.0 + 1j * omega_o]])
    squeeze = np.array([[0.0, epsilon / 2.0], [epsilon / 2.0, 0.0]])
    return OpenNdpaModel(drift=_doubled_up(damp, squeeze), gamma=gamma)


def close_loop(model: OpenNdpaModel, theta: float, phi: float) -> np.ndarray:
    """Deterministic drift F after the beamsplitter feedback loop is closed.

    Substituting the beamsplitter relation into the output equation leaves

        [[cos(theta) - 1, -e^{-i phi} sin(theta)],
         [e^{i phi} sin(theta), cos(theta) - 1]] (dA, dB) = sqrt(gamma) (a, b) dt,

    whose inverse carries the prefactor sqrt(gamma) / (2 (1 - cos(theta))).
    Feeding the solved increments back into the drift cancels the diagonal
    damping and leaves the loop terms -alpha*/2 and alpha/2 off-diagonal.
    1 - cos(theta) is formed as 2 sin(theta/2)**2, which keeps its digits
    as theta nears 0, where the subtraction cancels.
    """
    theta = float(theta)
    phi = float(phi)
    one_minus_cos = 2.0 * math.sin(theta / 2.0) ** 2
    if one_minus_cos < 1e-9:
        raise SingularBeamsplitterError(
            f"theta = {theta} too close to full transmission; the feedback "
            "elimination is singular"
        )
    sin_t = math.sin(theta)
    # Closed-form inverse of the elimination matrix times -gamma, added to
    # the open (a, b) drift.
    pref = model.gamma / (2.0 * one_minus_cos)
    correction = -pref * np.array(
        [
            [-one_minus_cos, cmath.exp(-1j * phi) * sin_t],
            [-cmath.exp(1j * phi) * sin_t, -one_minus_cos],
        ]
    )
    f_ab = model.drift[:2, :2] + correction
    squeeze = model.drift[:2, 2:]
    return _doubled_up(f_ab, squeeze)


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

    F must use the (a, b, a*, b*) ordering.  M is exactly Hermitian in
    floating point for any 4x4 F: J = diag(1, 1, -1, -1) only flips signs,
    so entry (j, i) is the conjugate of entry (i, j), rounded the same way.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (4, 4):
        raise DimensionError(f"drift must be 4x4 doubled-up, got {f.shape}")
    return 0.5j * (J_PM @ f - f.conj().T @ J_PM)


def quadrature_hamiltonian(m: np.ndarray) -> np.ndarray:
    """Real quadrature energy matrix R = Phi^dag M Phi.

    The imaginary residue is required to stay below EXACT_TOL relative to
    the scale of M; anything larger means M is not a valid doubled-up
    Hamiltonian (e.g. wrong ordering or a non-Hermitian block).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise DimensionError(f"Hamiltonian matrix must be 4x4, got {m.shape}")
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
    epsilon = complex(epsilon)
    alpha = complex(alpha)
    return np.array(
        [
            [-epsilon.imag - alpha.imag, epsilon.real + alpha.real],
            [epsilon.real - alpha.real, epsilon.imag - alpha.imag],
        ]
    )


def extract_beta(r_c: np.ndarray, c_p) -> np.ndarray:
    """Factor R_c = C_p^T beta and return beta.

    beta is the least-squares factor (C_p R_c) / |C_p|^2; the factorization
    must reproduce R_c to DESIGN_TOL relative to its size, otherwise the
    design equations were not satisfied.
    """
    r_c = np.asarray(r_c, dtype=float)
    c_p = np.asarray(c_p, dtype=float).reshape(-1)
    if r_c.shape != (2, 2) or c_p.shape != (2,):
        raise DimensionError("coupling block must be 2x2 and selector length 2")
    if maxabs(c_p) == 0.0:
        raise DesignError("plant output selector is zero")
    scale = maxabs(r_c)
    if scale == 0.0:
        raise ZeroCouplingError("coupling block is zero: observer is decoupled")
    norm_sq = float(c_p @ c_p)
    if norm_sq == 0.0:
        raise DesignError(f"plant output selector {c_p.tolist()} underflows: |C_p|^2 = 0")
    beta = (c_p @ r_c) / norm_sq
    if not np.all(np.isfinite(beta)):
        raise DesignError(f"factor beta = {beta.tolist()} is not finite")
    residual = maxabs(r_c - np.outer(c_p, beta))
    if residual > DESIGN_TOL * scale:
        raise FactorizationError(
            f"coupling block is not rank one along the plant selector "
            f"(residual {residual:.3e} vs {DESIGN_TOL:.1e} * {scale:.3e})"
        )
    return beta


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
    routes must agree to DESIGN_TOL relative per entry or the result is
    rejected.  All inputs are taken in one consistent frequency unit.
    """
    plant = PlantSpec(c_p)
    omega_o = float(omega_o)
    gamma = float(gamma)
    eps_ratio = float(eps_ratio)
    for name, value in (("omega_o", omega_o), ("gamma", gamma), ("squeezing ratio", eps_ratio)):
        if not math.isfinite(value):
            raise DesignError(f"{name} must be finite, got {value}")
        if value <= 0.0:
            raise DesignError(f"{name} must be positive, got {value}")

    delta = math.pi / 2.0 if delta is None else float(delta)

    def stage(name, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            raise PipelineError(name, str(exc)) from exc

    theta = stage("solve_theta", solve_theta, eps_ratio)
    arg_c = math.atan2(plant.c_p[1], plant.c_p[0])
    psi, phi = stage("solve_phases", solve_phases, arg_c, delta)
    # alpha_parameter(gamma, theta, phi) without its quotient, which equals
    # eps_ratio on the design curve and loses the ratio as theta nears pi.
    epsilon = gamma * eps_ratio * cmath.exp(1j * psi)
    alpha = gamma * eps_ratio * cmath.exp(1j * phi)

    r_c = stage("coupling_block", coupling_block, epsilon, alpha)
    beta = stage("extract_beta", extract_beta, r_c, plant.c_p)
    observer = stage("synthesize_observer", synthesize_observer, plant, omega_o, beta)

    model = stage("build_open_ndpa", build_open_ndpa, gamma, epsilon, omega_o)
    f = stage("close_loop", close_loop, model, theta, phi)
    m = stage("hamiltonian_from_drift", hamiltonian_from_drift, f)
    r_physical = stage("quadrature_hamiltonian", quadrature_hamiltonian, m)

    r_abstract = augmented_energy_matrix(observer)
    cross_defect = maxabs(r_physical - r_abstract)
    if cross_defect > DESIGN_TOL * max(1.0, maxabs(r_abstract)):
        raise ConsistencyError(
            f"physical route disagrees with abstract design "
            f"(max entry defect {cross_defect:.3e})"
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

    params = NdpaParams(gamma, epsilon, omega_o, theta, phi)
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

    ndpa = NdpaDesign(
        params=params,
        alpha=alpha,
        f=f,
        m=m,
        r=r_physical,
        beta=beta,
        c_o=observer.c_o,
    )
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
