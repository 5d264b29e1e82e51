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

`design_ndpa` rebuilds R through the physical route on every design, to
cross-check the abstract one.  Phi and J hold only 0, +-1 and +-i, so every
product on that route is exact or one two-term sum: its four stages pass
4 x 4 tuples of Python numbers to each other and form each entry directly,
to the value numpy's complex matrix products give.

`solve_design` is the one design computation, on Python floats: the
products whose rounding reaches a report, the 2-entry dots of
`extract_beta` and `observer.observer_selector` and the determinant of
R_c, are formed to the bit as numpy forms them with OpenBLAS (`core.dot2`,
`det_r_c`), so the module needs no numpy.  `design_ndpa` returns its
`Design` as a `DesignResult` of arrays, built once at that boundary; the
command line reports the floats as they are.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .core import DESIGN_TOL, EXACT_TOL, _fresh, _frozen_array, dot2, maxabs_of, to_number
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
    _coupling_residual,
    augmented_energy_matrix,
    energy_blocks,
    observer_design,
    observer_selector,
)

# Trusted squeezing-to-damping ratio for the linearized NDPA model.
EPS_RATIO_TRUSTED_MAX = 0.6

# A 4 x 4 matrix of the physical route, as a tuple of rows of Python numbers.
# The quadrature map Phi, (a, b, a*, b*) = Phi (q_p, p_p, q_o, p_o), has rows
# (1, i, 0, 0), (0, 0, 1, i), (1, -i, 0, 0) and (0, 0, 1, -i), and
# J = diag(1, 1, -1, -1) is the signature of the ordering (a, b | a*, b*).
Matrix = tuple[tuple[complex, ...], ...]


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


def build_open_ndpa(gamma: float, epsilon: complex, omega_o: float) -> Matrix:
    """Drift of the open (pre-feedback) NDPA in doubled-up (a, b, a*, b*) form.

    On the (a, b) rows the drift is [[0, eps/2], [eps/2, 0]] acting on the
    conjugates minus [[gamma/2, 0], [0, gamma/2 + i omega_o]] acting on
    (a, b); the conjugate rows are the entrywise conjugates.  The couplings
    to the formal noise increments are sqrt(gamma) I in and out; the toolkit
    only ever eliminates those increments algebraically (`close_loop`), it
    never integrates them.
    """
    half, zero, s = complex(gamma / 2.0), complex(0.0), epsilon / 2.0
    damp = (-half, -zero, -zero, -(gamma / 2.0 + 1j * omega_o))
    return _doubled_up(damp, (zero, s, s, zero))


def close_loop(drift: Matrix, gamma: float, eps_ratio: float, phi: float) -> Matrix:
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
    half = complex(gamma / 2.0)
    correction = (half, -loop.conjugate(), loop, half)
    (d00, d01, s00, s01), (d10, d11, s10, s11) = drift[0], drift[1]
    ab = tuple(d + c for d, c in zip((d00, d01, d10, d11), correction))
    return _doubled_up(ab, (s00, s01, s10, s11))


def _doubled_up(ab: tuple, squeeze: tuple) -> Matrix:
    """The 4x4 [[ab, squeeze], [squeeze*, ab*]] in (a, b, a*, b*) order, from the
    2x2 blocks ab and squeeze given row by row as (x00, x01, x10, x11)."""
    a00, a01, a10, a11 = ab
    s00, s01, s10, s11 = squeeze
    return (
        (a00, a01, s00, s01),
        (a10, a11, s10, s11),
        (s00.conjugate(), s01.conjugate(), a00.conjugate(), a01.conjugate()),
        (s10.conjugate(), s11.conjugate(), a10.conjugate(), a11.conjugate()),
    )


def hamiltonian_from_drift(f: Matrix) -> Matrix:
    """Doubled-up Hamiltonian matrix M = (i/2)(J F - F^dag J).

    F is the 4x4 drift in (a, b, a*, b*) ordering.  J = diag(1, 1, -1, -1)
    only flips signs, so (F^dag J)_ij is the conjugate of (J F)_ji, and
    entry (i, j) of M is one difference of J F's entries (i, j) and (j, i)
    times i/2.  Formed that way, entry (j, i) would be the conjugate of entry
    (i, j) in value; M is formed on and above the diagonal and mirrored, so
    it is exactly Hermitian for any F.
    """
    f0, f1, f2, f3 = f
    jf = (f0, f1, [-z for z in f2], [-z for z in f3])
    m = [[0j] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            m[i][j] = 0.5j * (jf[i][j] - jf[j][i].conjugate())
            m[j][i] = m[i][j].conjugate()
    return tuple(map(tuple, m))


def quadrature_hamiltonian(m: Matrix) -> tuple:
    """Real quadrature energy matrix R = Phi^dag M Phi.

    Phi's entries are 0, +-1 and +-i, so each entry of Phi^dag M, and then
    of (Phi^dag M) Phi, is one sum or difference of two entries, formed
    part by part: the value a complex matrix product gives, barring the
    sign of a zero.  The imaginary residue is required to stay below EXACT_TOL
    relative to the scale of M; anything larger means M is not a valid
    doubled-up Hamiltonian (e.g. wrong ordering or a non-Hermitian block).
    """
    # P = Phi^dag M as (re, im) pairs: rows 0..3 of Phi^dag are (1, 0, 1, 0),
    # (-i, 0, i, 0), (0, 1, 0, 1) and (0, -i, 0, i).
    m0, m1, m2, m3 = m
    p = (
        [(x.real + y.real, x.imag + y.imag) for x, y in zip(m0, m2)],
        [(x.imag - y.imag, y.real - x.real) for x, y in zip(m0, m2)],
        [(x.real + y.real, x.imag + y.imag) for x, y in zip(m1, m3)],
        [(x.imag - y.imag, y.real - x.real) for x, y in zip(m1, m3)],
    )
    # R = P Phi: columns 0..3 of Phi are (1, 0, 1, 0), (i, 0, -i, 0), (0, 1, 0, 1)
    # and (0, i, 0, -i).
    re, im = [], []
    for (r0, i0), (r1, i1), (r2, i2), (r3, i3) in p:
        re.append((r0 + r2, i2 - i0, r1 + r3, i3 - i1))
        im += (i0 + i2, r0 - r2, i1 + i3, r1 - r3)
    imag = maxabs_of(im)
    # max(1, |M|) >= 1, so a residue within EXACT_TOL needs no scale
    if imag > EXACT_TOL and imag > EXACT_TOL * max(1.0, maxabs_of([abs(z) for row in m for z in row])):
        raise StructureError(
            f"quadrature form has imaginary residue {imag:.3e}; input is not a "
            "valid doubled-up Hamiltonian"
        )
    return tuple(tuple([(x + y) / 2.0 for x, y in zip(row, col)]) for row, col in zip(re, zip(*re)))


def coupling_block(epsilon: complex, alpha: complex) -> tuple:
    """Plant-observer coupling block of R in terms of eps and alpha, as rows of
    Python floats.

    det R_c = |alpha|^2 - |eps|^2, so the block is rank one exactly on the
    magnitude design curve |alpha| = |eps|.
    """
    return (
        (-epsilon.imag - alpha.imag, epsilon.real + alpha.real),
        (epsilon.real - alpha.real, epsilon.imag - alpha.imag),
    )


def extract_beta(r_c: tuple, c_p: tuple) -> tuple:
    """Factor the 2x2 R_c = C_p^T beta: (beta, residual, scale), on Python floats.

    c_p is a selector as `PlantSpec` checks it.  beta is the least-squares
    factor (C_p R_c) / |C_p|^2, its products each a `dot2`; residual =
    maxabs(R_c - C_p^T beta) and scale = maxabs(R_c).  The factorization must
    reproduce R_c to DESIGN_TOL relative to its size, otherwise the design
    equations were not satisfied.
    """
    (c00, c01), (c10, c11) = r_c
    scale = maxabs_of((c00, c01, c10, c11))
    if scale == 0.0:
        raise ZeroCouplingError("coupling block is zero: observer is decoupled")
    norm_sq = dot2(c_p, c_p)
    if norm_sq == 0.0:
        raise DesignError(f"plant output selector {list(c_p)} underflows: |C_p|^2 = 0")
    beta = (dot2(c_p, (c00, c10)) / norm_sq, dot2(c_p, (c01, c11)) / norm_sq)
    if not (math.isfinite(beta[0]) and math.isfinite(beta[1])):
        raise DesignError(f"factor beta = {list(beta)} is not finite")
    residual = _coupling_residual(r_c, c_p, beta)
    if residual > DESIGN_TOL * scale:
        raise FactorizationError(
            f"coupling block is not rank one along the plant selector "
            f"(residual {residual:.3e} vs {DESIGN_TOL:.1e} * {scale:.3e})"
        )
    return beta, residual, scale


def det_r_c(r_c: tuple, scale: float) -> float:
    """det(R_c / scale) of a finite block, to the bit as numpy's `linalg.det` gives it
    with OpenBLAS.

    That is one LU step with partial pivoting, as LAPACK's getrf takes it,
    then sign * exp(log|u00| + log|u11|): l = c (1/a) and u11 = d - l b
    after the rows are swapped where |c| > |a|.  A pivot below the smallest
    normal number is not divided by, and swaps the second column only, as
    OpenBLAS's getf2 does; a zero pivot or u11 gives 0.
    """
    (a, b), (c, d) = ((x / scale for x in row) for row in r_c)
    swap = abs(c) > abs(a)
    pivot = c if swap else a
    if pivot == 0.0:
        return 0.0
    if abs(pivot) >= sys.float_info.min:
        if swap:
            a, b, c, d = c, d, a, b
        l = c * (1.0 / a)
    else:
        if swap:
            b, d = d, b
        l = c
    u = d - l * b
    if u == 0.0:
        return 0.0
    sign = (-1.0 if swap else 1.0) * (-1.0 if a < 0.0 else 1.0) * (-1.0 if u < 0.0 else 1.0)
    log_a = math.log(abs(a)) if a else -math.inf
    return sign * math.exp(log_a + math.log(abs(u)))


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
    """(c_p, omega_o, gamma, eps_ratio, delta) as `solve_design` takes them, each
    checked once, in that order: c_p as a pair of floats by `PlantSpec`'s rule, the
    numbers as floats; delta defaults to pi/2.  The rules hold in any frequency unit,
    so the command line checks the values as given."""
    c_p = PlantSpec(c_p).c_p
    numbers = {"omega_o": omega_o, "gamma": gamma, "eps_ratio": eps_ratio}
    positives = [check_number(name, value) for name, value in numbers.items()]
    delta = check_number("delta", math.pi / 2.0 if delta is None else delta, math.pi)
    return (c_p, *positives, delta)


class Design(NamedTuple):
    """One design on Python floats, as `solve_design` forms it.

    f and m are the physical route's 4 x 4 tuples of complex numbers and r
    its real R; c_p, beta and c_o are pairs, and r_o and r_c the observer's
    blocks as `observer.energy_blocks` gives them.  `result` gives the same
    design as the `DesignResult` of arrays that `design_ndpa` returns.
    """

    params: NdpaParams
    alpha: complex
    f: Matrix
    m: Matrix
    r: tuple
    c_p: tuple
    beta: tuple
    c_o: tuple
    r_o: tuple
    r_c: tuple
    report: DesignReport

    def result(self) -> DesignResult:
        """The design as numpy arrays: the one place `DesignResult` is built."""
        import numpy as np

        ndpa = _fresh(
            NdpaDesign,
            params=self.params,
            alpha=self.alpha,
            f=np.array(self.f, dtype=complex),
            m=np.array(self.m, dtype=complex),
            r=np.array(self.r, dtype=float),
        )
        observer = observer_design(
            self.c_p, self.params.omega_o, self.r_o, self.r_c, self.beta, self.c_o
        )
        return DesignResult(ndpa=ndpa, observer=observer, report=self.report)


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
    return solve_design(*check_design_inputs(c_p, omega_o, gamma, eps_ratio, delta)).result()


def solve_design(
    c_p: tuple, omega_o: float, gamma: float, eps_ratio: float, delta: float
) -> Design:
    """`design_ndpa`'s pipeline on inputs as `check_design_inputs` returns them, on
    Python floats.  A stage that fails raises PipelineError naming it."""

    def stage(name, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            raise PipelineError(name, str(exc)) from exc

    theta = stage("solve_theta", solve_theta, eps_ratio)
    arg_c = math.atan2(c_p[1], c_p[0])
    psi, phi = stage("solve_phases", solve_phases, arg_c, delta)
    # alpha = gamma e^{i phi} sin(theta)/(1 - cos(theta)) without its
    # quotient, which equals eps_ratio on the design curve and loses the
    # ratio as theta nears pi.
    epsilon = gamma * eps_ratio * cmath.exp(1j * psi)
    alpha = gamma * eps_ratio * cmath.exp(1j * phi)

    block = stage("coupling_block", coupling_block, epsilon, alpha)
    beta, residual, scale = stage("extract_beta", extract_beta, block, c_p)
    c_o = stage("synthesize_observer", observer_selector, omega_o, beta)

    drift = stage("build_open_ndpa", build_open_ndpa, gamma, epsilon, omega_o)
    f = stage("close_loop", close_loop, drift, gamma, eps_ratio, phi)
    m = stage("hamiltonian_from_drift", hamiltonian_from_drift, f)
    r_physical = stage("quadrature_hamiltonian", quadrature_hamiltonian, m)

    r_o, r_c = energy_blocks(c_p, omega_o, beta)
    r_abstract = augmented_energy_matrix(r_c, r_o)
    cross_defect = maxabs_of(
        [x - y for row, want in zip(r_physical, r_abstract) for x, y in zip(row, want)]
    )
    if cross_defect > DESIGN_TOL * maxabs_of([x for row in r_abstract for x in row]):
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

    report = DesignReport(
        arg_c=arg_c,
        delta=delta,
        theta_residual=theta_residual,
        phase_residual=phase_residual,
        arg_identity_residual=arg_identity_residual,
        det_r_c=det_r_c(block, scale),
        alpha_magnitude_defect=abs(abs(alpha) - abs(epsilon)),
        factorization_residual=residual,
        cross_check_defect=cross_defect,
        warnings=tuple(notes),
    )
    return Design(params, alpha, f, m, r_physical, c_p, beta, tuple(c_o), r_o, r_c, report)
