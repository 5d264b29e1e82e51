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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    DESIGN_TOL,
    LinearQuantumSystem,
    QuadraticHamiltonian,
    SymplecticSpace,
    _frozen_array,
    generator_from_hamiltonian,
    maxabs,
)
from .errors import DesignError, DimensionError, NonFiniteError


@dataclass(frozen=True, eq=False)
class PlantSpec:
    """Output selector C_p of the static plant (its generator is fixed at 0)."""

    c_p: np.ndarray

    def __post_init__(self):
        c_p = np.asarray(self.c_p, dtype=float).reshape(-1)
        if c_p.shape != (2,):
            raise DimensionError(f"plant selector must have 2 entries, got {c_p.shape}")
        if not np.all(np.isfinite(c_p)):
            raise ValueError("plant selector has non-finite entries")
        if maxabs(c_p) == 0.0:
            raise DesignError("plant output selector is zero")
        object.__setattr__(self, "c_p", _frozen_array(c_p))


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
        object.__setattr__(self, "c_p", _frozen_array(np.reshape(self.c_p, -1)))
        object.__setattr__(self, "omega_o", float(self.omega_o))
        object.__setattr__(self, "r_o", _frozen_array(self.r_o))
        object.__setattr__(self, "r_c", _frozen_array(self.r_c))
        object.__setattr__(self, "beta", _frozen_array(np.reshape(self.beta, -1)))
        object.__setattr__(self, "c_o", _frozen_array(np.reshape(self.c_o, -1)))
        for name in ("c_p", "beta", "c_o"):
            if getattr(self, name).shape != (2,):
                raise DimensionError(f"{name} must have 2 entries")
        for name in ("r_o", "r_c"):
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


def synthesize_observer(
    plant: PlantSpec,
    omega_o: float,
    beta,
    c_o=None,
) -> ObserverDesign:
    """Observer matrices for a given coupling row beta.

    Uses R_o = 2 omega_o I and R_c = C_p^T beta.  When `c_o` is omitted the
    minimum-norm solution of C_o beta^T = -2 omega_o is chosen,
    C_o = -2 omega_o beta / |beta|^2; a caller-supplied C_o is accepted but
    must satisfy the same constraint (any point of its solution line works).
    NonFiniteError when the minimum-norm C_o overflows (omega_o far above
    |beta|), DesignError when it underflows to subnormal from a normal
    omega_o (omega_o far below |beta|).  Deliberately invalid bundles for
    negative controls can still be built through ObserverDesign directly.
    """
    omega_o = float(omega_o)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if beta.shape != (2,):
        raise DimensionError(f"beta must have 2 entries, got {beta.shape}")
    if omega_o <= 0.0:
        raise DesignError(
            f"omega_o must be positive for a positive definite R_o, got {omega_o}"
        )
    scale = maxabs(beta)
    if scale == 0.0:
        raise DesignError(
            "beta is zero: no output selector C_o can satisfy C_o beta^T = -2 omega_o"
        )
    if c_o is None:
        # Scaled by 2^k ~ maxabs(beta), |beta|^2 cannot overflow, and in the
        # normal range C_o equals the unscaled formula to the last bit.
        k = math.frexp(scale)[1]
        unit = np.ldexp(beta, -k)
        with np.errstate(over="ignore"):
            c_o = np.ldexp((-2.0 * omega_o / float(unit @ unit)) * unit, -k)
        if not np.all(np.isfinite(c_o)):
            raise NonFiniteError(f"C_o = -2 omega_o beta / |beta|^2 overflows: {c_o.tolist()}")
        # C_o underflows when omega_o is far below |beta|: a subnormal C_o has
        # lost its precision, and R_o^{-1} beta^T, which validation solves
        # for, overflows beside it.  A subnormal omega_o, which the command
        # line accepts as given, keeps the C_o as small as itself.
        if maxabs(c_o) < sys.float_info.min <= omega_o:
            raise DesignError(
                f"C_o = -2 omega_o beta / |beta|^2 underflows to subnormal: {c_o.tolist()}"
            )
    else:
        c_o = np.asarray(c_o, dtype=float).reshape(-1)
        defect = abs(float(c_o @ beta) / (2.0 * omega_o) + 1.0)
        if defect > DESIGN_TOL:
            raise DesignError(
                f"supplied C_o violates C_o beta^T = -2 omega_o "
                f"(normalized defect {defect:.3e})"
            )
    return ObserverDesign(
        c_p=plant.c_p,
        omega_o=omega_o,
        r_o=2.0 * omega_o * np.eye(2),
        r_c=np.outer(plant.c_p, beta),
        beta=beta,
        c_o=c_o,
    )


def validate_observer(design: ObserverDesign) -> ObserverDiagnostics:
    """Check the three design conditions and report each defect.

    Both defects are held to DESIGN_TOL: the coupling defect relative to the
    size of R_c and the output constraint in its scale-free form
    |C_o R_o^{-1} beta^T + 1|, so the verdict does not depend on the
    frequency unit.
    """
    failures: list[str] = []

    min_eig = float(np.min(np.linalg.eigvalsh(design.r_o)))
    if min_eig <= 0.0:
        failures.append("observer energy matrix R_o is not positive definite")

    coupling_defect = maxabs(design.r_c - np.outer(design.c_p, design.beta))
    if coupling_defect > DESIGN_TOL * max(1.0, maxabs(design.r_c)):
        failures.append("coupling block R_c differs from C_p^T beta")

    beta_is_zero = maxabs(design.beta) == 0.0
    constraint_defect = abs(float(design.c_o @ design.beta) + 2.0 * design.omega_o)
    if beta_is_zero:
        failures.append("no coupling: beta is zero, observer never sees the plant")
        normalized = float("inf")
    elif min_eig > 0.0:
        normalized = abs(
            float(design.c_o @ np.linalg.solve(design.r_o, design.beta)) + 1.0
        )
    else:
        normalized = float("inf")
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


def augmented_energy_matrix(design: ObserverDesign) -> np.ndarray:
    """Joint plant-observer energy matrix R = [[0, R_c], [R_c^T, R_o]]."""
    r_aug = np.zeros((4, 4))
    r_aug[:2, 2:] = design.r_c
    r_aug[2:, :2] = design.r_c.T
    r_aug[2:, 2:] = design.r_o
    return r_aug


def augment(design: ObserverDesign) -> LinearQuantumSystem:
    """Closed two-mode plant-observer system.

    The joint energy matrix is R = [[0, R_c], [R_c^T, R_o]] and the
    generator A = 2 diag(J, J) R.  Output row 0 is the plant selector
    [C_p, 0, 0] and row 1 the observer selector [0, 0, C_o].  The design is
    assembled as given; run `validate_observer` first if you need the
    convergence guarantees.
    """
    ham = QuadraticHamiltonian(augmented_energy_matrix(design), SymplecticSpace(2))
    c_p_aug = np.concatenate([design.c_p, np.zeros(2)])
    c_o_aug = np.concatenate([np.zeros(2), design.c_o])
    return generator_from_hamiltonian(ham).with_outputs(np.vstack([c_p_aug, c_o_aug]))
