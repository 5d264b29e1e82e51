"""Closed linear quantum systems in quadrature coordinates.

A closed system of n/2 optical modes evolves as x'(t) = A x(t), where the
vector x stacks position/momentum pairs (q_1, p_1, ..., q_m, p_m).  The
commutation convention is [q, p] = 2i, encoded by the block-diagonal
antisymmetric matrix Theta = diag(J, ..., J) with J = [[0, 1], [-1, 0]].
A generator is physically realizable (preserves the commutation relations
for all time) exactly when A = 2 Theta R for a real symmetric R, i.e. when
the dynamics derive from a quadratic Hamiltonian H = (1/2) x^T R x.

All matrix defect measures use the max-abs entry norm so tolerances stay
dimension independent.  Values here are either dimensionless or expressed
in a caller-chosen frequency unit; the CLI rescales lab-frame rad/s inputs
by a reference frequency before touching this module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import _kernels
from .errors import DimensionError

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J2.setflags(write=False)


def maxabs(m: NDArray) -> float:
    """Max-abs entry norm; zero for empty arrays."""
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def _frozen_array(x, dtype=float) -> np.ndarray:
    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical tolerance `exact` for algebraic identities that should hold
    to machine precision."""

    exact: float = 1e-12


@dataclass(frozen=True, eq=False)
class SymplecticSpace:
    """Phase space of `modes` oscillators with commutation matrix Theta."""

    modes: int
    tol: TolerancePolicy = field(default_factory=TolerancePolicy)
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.modes, int) or self.modes < 1:
            raise DimensionError(
                f"mode count must be a positive integer, got {self.modes!r}"
            )
        n = 2 * self.modes
        theta = np.zeros((n, n))
        for k in range(self.modes):
            theta[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = J2
        object.__setattr__(self, "theta", _frozen_array(theta))

    @property
    def n(self) -> int:
        return 2 * self.modes


def make_symplectic_space(modes: int, tol: TolerancePolicy | None = None) -> SymplecticSpace:
    """Build the phase space for `modes` oscillators (rejects modes < 1)."""
    if tol is None:
        return SymplecticSpace(modes)
    return SymplecticSpace(modes, tol)


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Energy matrix R of H = (1/2) x^T R x.

    R is symmetrized on construction; the asymmetry of the input is kept in
    `asymmetry` and a warning is raised if it exceeds the exact tolerance,
    since a visibly asymmetric R usually means corrupted input.
    """

    r: np.ndarray
    space: SymplecticSpace
    asymmetry: float = field(init=False)

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        n = self.space.n
        if r.shape != (n, n):
            raise DimensionError(
                f"energy matrix shape {r.shape} does not match {n}x{n} phase space"
            )
        if not np.all(np.isfinite(r)):
            raise ValueError("energy matrix has non-finite entries")
        asym = maxabs(r - r.T)
        if asym > self.space.tol.exact:
            warnings.warn(
                f"energy matrix asymmetry {asym:.3e} exceeds "
                f"{self.space.tol.exact:.1e}; symmetrizing",
                UserWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "r", _frozen_array((r + r.T) / 2.0))
        object.__setattr__(self, "asymmetry", asym)


@dataclass(frozen=True, eq=False)
class LinearQuantumSystem:
    """State-space form x' = A x with optional output rows z = C x.

    `hamiltonian` is set when the generator was produced as A = 2 Theta R;
    such systems are physically realizable by construction.
    """

    a: np.ndarray
    c: np.ndarray
    space: SymplecticSpace
    hamiltonian: QuadraticHamiltonian | None = None

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        c = np.array(self.c, dtype=float)
        n = self.space.n
        if a.shape != (n, n):
            raise DimensionError(
                f"generator shape {a.shape} does not match {n}x{n} phase space"
            )
        if c.ndim != 2 or c.shape[1] != n:
            raise DimensionError(
                f"output rows shape {c.shape} incompatible with state dimension {n}"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(c))):
            raise ValueError("system matrices have non-finite entries")
        object.__setattr__(self, "a", _frozen_array(a))
        object.__setattr__(self, "c", _frozen_array(c))

    @property
    def origin(self) -> str:
        return "from_hamiltonian" if self.hamiltonian is not None else "raw"

    def with_outputs(self, c) -> "LinearQuantumSystem":
        """Same dynamics with the given output rows attached."""
        return LinearQuantumSystem(self.a, np.atleast_2d(np.asarray(c, dtype=float)),
                                   self.space, self.hamiltonian)


def generator_from_hamiltonian(h: QuadraticHamiltonian) -> LinearQuantumSystem:
    """Generator A = 2 Theta R of the Heisenberg equations of H = x^T R x / 2.

    Output rows start empty; attach them with `with_outputs`.
    """
    a = 2.0 * (h.space.theta @ h.r)
    c = np.zeros((0, h.space.n))
    return LinearQuantumSystem(a, c, h.space, hamiltonian=h)


def realizability_defect(sys: LinearQuantumSystem) -> float:
    """Max-abs norm of A Theta + Theta A^T.

    Zero exactly when A = 2 Theta R for some symmetric R, i.e. when the
    dynamics preserve the commutation relations.
    """
    theta = sys.space.theta
    return maxabs(sys.a @ theta + theta @ sys.a.T)


def propagator(sys: LinearQuantumSystem, t: float) -> np.ndarray:
    """Propagator exp(A t), accurate to about 1e-12 relative per entry."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t!r}")
    return _kernels.expm(np.ascontiguousarray(sys.a * t))


def ccr_defect(sys: LinearQuantumSystem, t: float) -> float:
    """Commutation-relation drift at time t.

    Returns the max-abs norm of exp(At) Theta exp(A^T t) - Theta, which a
    realizable closed system keeps at roundoff level for all t.
    """
    e = propagator(sys, t)
    theta = sys.space.theta
    return maxabs(e @ theta @ e.T - theta)
