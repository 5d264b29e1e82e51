"""Direct-coupled observer synthesis for a static single-mode plant.

The plant is one oscillator with zero free Hamiltonian (A_p = 0) and a
scalar output z_p = C_p x_p picking one quadrature.  A second oscillator
(the observer) with energy matrix R_o = 2 omega_o I and output z_o = C_o x_o
is attached through the coupling Hamiltonian H_c = x_p^T R_c x_o.  The
design conditions are

    R_o > 0,    R_c = C_p^T beta,    C_o R_o^{-1} beta^T = -1,

the last being C_o beta^T + 2 omega_o = 0 for this R_o.  Under them the
augmented closed system leaves z_p(t) constant while the time average of
z_o(t) converges to z_p.  The observer trades per-instant agreement for
this Cesaro-mean agreement: z_o oscillates forever at angular frequency
4 omega_o around the plant value.

`synthesize_observer` converts its inputs, and `observer_selector` checks
them and forms C_o and `energy_blocks` forms R_o and R_c on Python floats,
the route `ndpa.solve_design` takes.  `observer_design` builds the
`ObserverDesign` arrays from those floats without the constructor's
conversions and copies, which stay for bundles built by hand.  numpy is
imported only where arrays are built or solved.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .core import (
    DESIGN_TOL,
    LinearQuantumSystem,
    SymplecticSpace,
    _fresh,
    _frozen_array,
    dot2,
    maxabs_of,
    to_array,
    to_number,
    to_numbers,
)
from .errors import DesignError, DimensionError, InputError, NonFiniteError


@functools.cache
def _plant_observer() -> SymplecticSpace:
    """The plant-observer phase space that every augmented system shares."""
    return SymplecticSpace(2)


def _ldexp(x: float, k: int) -> float:
    """x 2^k, +-inf where it overflows: `math.ldexp` raises there, `np.ldexp` does not."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


@dataclass(frozen=True, eq=False)
class PlantSpec:
    """Output selector C_p of the static plant (its generator is fixed at 0), as a pair
    of Python floats; the selector's one check: two entries, finite, not both zero."""

    c_p: tuple[float, float]

    def __post_init__(self):
        c_p = to_numbers("cp", self.c_p)
        if len(c_p) != 2:
            raise InputError("cp", "expected two numbers", c_p)
        c0, c1 = c_p
        if not (math.isfinite(c0) and math.isfinite(c1)):
            raise InputError("cp", "entries must be finite", [c0, c1])
        if c0 == 0.0 and c1 == 0.0:
            raise InputError("cp", "plant output selector is zero")
        object.__setattr__(self, "c_p", (c0, c1))


@dataclass(frozen=True, eq=False)
class ObserverDesign:
    """Matrix bundle (C_p, omega_o, R_o, R_c, beta, C_o) of one design.

    Instances are plain value holders: invalid bundles can be built on
    purpose (e.g. beta = 0, or a rescaled C_o) and fed to `validate_observer`
    or used as negative controls in simulations.
    """

    c_p: np.ndarray
    omega_o: float
    r_o: np.ndarray
    r_c: np.ndarray
    beta: np.ndarray
    c_o: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega_o", to_number("omega_o", self.omega_o))
        for name in ("c_p", "beta", "c_o"):
            value = to_array(name, getattr(self, name)).reshape(-1)
            object.__setattr__(self, name, _frozen_array(value))
            if getattr(self, name).shape != (2,):
                raise DimensionError(f"{name} must have 2 entries")
        for name in ("r_o", "r_c"):
            value = to_array(name, getattr(self, name))
            object.__setattr__(self, name, _frozen_array(value))
            if getattr(self, name).shape != (2, 2):
                raise DimensionError(f"{name} must be 2x2")


@dataclass(frozen=True)
class ObserverDiagnostics:
    """Per-condition defects from `validate_observer`."""

    r_o_min_eigenvalue: float
    coupling_defect: float
    constraint_defect: float
    normalized_constraint_defect: float
    beta_is_zero: bool
    passed: bool
    failures: tuple[str, ...]


def synthesize_observer(plant: PlantSpec, omega_o: float, beta) -> ObserverDesign:
    """Observer matrices for a given coupling row beta.

    Uses R_o = 2 omega_o I, R_c = C_p^T beta and the minimum-norm solution
    of C_o beta^T = -2 omega_o, C_o = -2 omega_o beta / |beta|^2, which
    `observer_selector` forms and checks.  Other bundles, any point of the
    solution line or deliberately invalid ones for negative controls, can be
    built through ObserverDesign directly.
    """
    omega_o = to_number("omega_o", omega_o)
    beta = to_numbers("beta", beta)
    if len(beta) != 2:
        raise DimensionError(f"beta must have 2 entries, got {(len(beta),)}")
    c_o = observer_selector(omega_o, beta)
    return observer_design(plant.c_p, omega_o, *energy_blocks(plant.c_p, omega_o, beta), beta, c_o)


def observer_selector(omega_o: float, beta) -> list[float]:
    """C_o = -2 omega_o beta / |beta|^2 on Python floats, for a float omega_o and pair beta.

    InputError for a non-finite omega_o or beta entry, before any arithmetic;
    DesignError for omega_o <= 0 or beta = 0; NonFiniteError when C_o
    overflows (omega_o far above |beta|), DesignError when it underflows to
    subnormal from a normal omega_o (omega_o far below |beta|).
    """
    b0, b1 = beta
    if not math.isfinite(omega_o):
        raise InputError("omega_o", "value must be finite", omega_o)
    if not (math.isfinite(b0) and math.isfinite(b1)):
        raise InputError("beta", "entries must be finite", [b0, b1])
    if omega_o <= 0.0:
        raise DesignError(
            f"omega_o must be positive for a positive definite R_o, got {omega_o}"
        )
    if b0 == 0.0 and b1 == 0.0:
        raise DesignError(
            "beta is zero: no output selector C_o can satisfy C_o beta^T = -2 omega_o"
        )
    # Scaled by 2^k ~ maxabs(beta), |beta|^2 cannot overflow, and in the
    # normal range C_o equals the unscaled formula to the last bit.
    k = math.frexp(max(abs(b0), abs(b1)))[1]
    unit = (math.ldexp(b0, -k), math.ldexp(b1, -k))
    q = -2.0 * omega_o / dot2(unit, unit)
    c_o = [_ldexp(q * u, -k) for u in unit]
    if not all(map(math.isfinite, c_o)):
        raise NonFiniteError(f"C_o = -2 omega_o beta / |beta|^2 overflows: {c_o}")
    # C_o underflows when omega_o is far below |beta|: a subnormal C_o has
    # lost its precision, and R_o^{-1} beta^T, which validation solves for,
    # overflows beside it.  A subnormal omega_o, which the command line
    # accepts as given, keeps the C_o as small as itself.
    if maxabs_of(c_o) < sys.float_info.min <= omega_o:
        raise DesignError(f"C_o = -2 omega_o beta / |beta|^2 underflows to subnormal: {c_o}")
    return c_o


def energy_blocks(c_p, omega_o: float, beta) -> tuple:
    """(R_o, R_c) = (2 omega_o I, C_p^T beta), the observer's energy blocks, as rows of
    Python floats."""
    (p0, p1), (b0, b1) = c_p, beta
    r = 2.0 * omega_o
    return ((r, 0.0), (0.0, r)), ((p0 * b0, p0 * b1), (p1 * b0, p1 * b1))


def observer_design(c_p, omega_o: float, r_o, r_c, beta, c_o) -> ObserverDesign:
    """The `ObserverDesign` of the floats of one design: selector, coupling row and
    output selector as pairs, the blocks as `energy_blocks` gives them.  Built without
    the constructor's conversions."""
    import numpy as np

    return _fresh(
        ObserverDesign,
        c_p=np.array(c_p, dtype=float),
        omega_o=omega_o,
        r_o=np.array(r_o, dtype=float),
        r_c=np.array(r_c, dtype=float),
        beta=np.array(beta, dtype=float),
        c_o=np.array(c_o, dtype=float),
    )


def _coupling_residual(r_c, c_p, beta) -> float:
    """maxabs(R_c - C_p^T beta) from the four products C_p,i beta_j, for rows and pairs
    of Python floats."""
    (c00, c01), (c10, c11) = r_c
    p0, p1 = c_p
    b0, b1 = beta
    return maxabs_of((c00 - p0 * b0, c01 - p0 * b1, c10 - p1 * b0, c11 - p1 * b1))


def _least_eigenvalue(a: float, b: float, d: float) -> float:
    """Least eigenvalue of the symmetric [[a, b], [b, d]], nan if an entry is not finite.

    (a + d)/2 - hypot((a - d)/2, b), taken in units of 2^k ~ max(|a|, |b|, |d|),
    so that no sum overflows and a subnormal diagonal keeps its bits.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(d)):
        return math.nan
    scale = max(abs(a), abs(b), abs(d))
    if scale == 0.0:
        return 0.0
    k = math.frexp(scale)[1]
    a, b, d = math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(d, -k)
    return _ldexp((a + d) / 2.0 - math.hypot((a - d) / 2.0, b), k)


def normalized_constraint_defect(design: ObserverDesign) -> float:
    """|C_o R_o^{-1} beta^T + 1|, inf when beta = 0 or R_o is not positive definite.

    R_o^{-1} beta^T is solved by numpy, since its rounding reaches the
    verify report; the tests that rule it out are read as Python floats.
    """
    import numpy as np

    (o00, _), (o10, o11) = design.r_o.tolist()
    b0, b1 = design.beta.tolist()
    if (b0 == 0.0 and b1 == 0.0) or not _least_eigenvalue(o00, o10, o11) > 0.0:
        return math.inf
    return abs(float(design.c_o @ np.linalg.solve(design.r_o, design.beta)) + 1.0)


def validate_observer(design: ObserverDesign) -> ObserverDiagnostics:
    """Check the three design conditions and report each defect.

    R_o's least eigenvalue comes in closed form from its lower triangle, the
    triangle `np.linalg.eigvalsh` reads; a non-finite R_o is not positive
    definite.  Both defects are held to DESIGN_TOL: the coupling defect
    relative to the size of R_c and the output constraint in its scale-free
    form |C_o R_o^{-1} beta^T + 1|, so the verdict does not depend on the
    frequency unit, as `normalized_constraint_defect` reads it.  The 2 x 2
    blocks are read as Python floats.
    """
    failures: list[str] = []
    (o00, _), (o10, o11) = design.r_o.tolist()
    b0, b1 = design.beta.tolist()
    c0, c1 = design.c_o.tolist()

    min_eig = _least_eigenvalue(o00, o10, o11)
    if not min_eig > 0.0:
        failures.append("observer energy matrix R_o is not positive definite")

    coupling_defect = _coupling_residual(design.r_c.tolist(), design.c_p.tolist(), (b0, b1))
    if coupling_defect > DESIGN_TOL * maxabs_of(design.r_c.ravel().tolist()):
        failures.append("coupling block R_c differs from C_p^T beta")

    beta_is_zero = b0 == 0.0 and b1 == 0.0
    constraint_defect = abs(c0 * b0 + c1 * b1 + 2.0 * design.omega_o)
    if beta_is_zero:
        failures.append("no coupling: beta is zero, observer never sees the plant")
    normalized = normalized_constraint_defect(design)
    if normalized > DESIGN_TOL:
        failures.append("output constraint C_o R_o^{-1} beta^T = -1 violated")

    return ObserverDiagnostics(
        r_o_min_eigenvalue=min_eig,
        coupling_defect=coupling_defect,
        constraint_defect=constraint_defect,
        normalized_constraint_defect=normalized,
        beta_is_zero=beta_is_zero,
        passed=not failures,
        failures=tuple(failures),
    )


def augmented_energy_matrix(r_c, r_o) -> tuple:
    """Joint plant-observer energy matrix R = [[0, R_c], [R_c^T, R_o]], as rows of
    Python floats, from the rows of R_c and R_o."""
    (c00, c01), (c10, c11) = r_c
    (o00, o01), (o10, o11) = r_o
    return ((0.0, 0.0, c00, c01), (0.0, 0.0, c10, c11), (c00, c10, o00, o01), (c01, c11, o10, o11))


def augment(design: ObserverDesign) -> LinearQuantumSystem:
    """Closed two-mode plant-observer system.

    The joint energy matrix is R = [[0, R_c], [R_c^T, R_o]] and the
    generator A = 2 diag(J, J) R.  Output row 0 is the plant selector
    [C_p, 0, 0] and row 1 the observer selector [0, 0, C_o].  The design is
    assembled as given; run `validate_observer` first if you need the
    convergence guarantees.

    A is assembled from its three blocks 2J R_c, 2J R_c^T and 2J sym(R_o),
    sym(X) = (X + X^T)/2, as Python floats.  J only moves and negates
    entries, so A equals 2 (Theta @ sym(R)) through a `QuadraticHamiltonian`
    to the bit: the product there gives +0 for every zero entry, and so does
    the `+ 0.0` here.  As there, NonFiniteError for a non-finite R_c or R_o
    entry as given, and for an A or an output row that overflows.
    """
    (c00, c01), (c10, c11) = design.r_c.tolist()
    (o00, o01), (o10, o11) = design.r_o.tolist()
    if not all(map(math.isfinite, (c00, c01, c10, c11, o00, o01, o10, o11))):
        raise NonFiniteError("energy matrix has non-finite entries")
    # (x + x)/2 = x where the sum is finite, and 2x overflows where it does.
    s01 = (o01 + o10) / 2.0
    a = [
        [0.0, 0.0, 2.0 * c10 + 0.0, 2.0 * c11 + 0.0],
        [0.0, 0.0, -2.0 * c00 + 0.0, -2.0 * c01 + 0.0],
        [2.0 * c01 + 0.0, 2.0 * c11 + 0.0, 2.0 * s01 + 0.0, 2.0 * o11 + 0.0],
        [-2.0 * c00 + 0.0, -2.0 * c10 + 0.0, -2.0 * o00 + 0.0, -2.0 * s01 + 0.0],
    ]
    p0, p1 = design.c_p.tolist()
    q0, q1 = design.c_o.tolist()
    c = [[p0, p1, 0.0, 0.0], [0.0, 0.0, q0, q1]]
    return LinearQuantumSystem(a, c, _plant_observer())
