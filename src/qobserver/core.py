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
by a reference frequency before touching this module.  The propagator
exp(A t) and the commutation drift are in `dynamics`, read from the closed
form there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InputError, NonFiniteError

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J2.setflags(write=False)

# Tolerances of the toolkit's checks: EXACT_TOL for algebraic
# identities that hold to roundoff, DESIGN_TOL for the design cross-check,
# the coupling factorization and the observer's design conditions.
EXACT_TOL = 1e-12
DESIGN_TOL = 1e-9


def maxabs(m: np.ndarray) -> float:
    """Max-abs entry norm; zero for empty arrays."""
    if m.size == 0:
        return 0.0
    return float(np.abs(m).max())


def _holds_boolean(value) -> bool:
    """True for a boolean, or a list, tuple or array with a boolean entry at any depth."""
    if isinstance(value, np.ndarray):
        return value.dtype == bool or value.dtype == object and any(map(_holds_boolean, value.flat))
    if isinstance(value, (list, tuple)):
        return any(map(_holds_boolean, value))
    return isinstance(value, (bool, np.bool_))


def to_number(name: str, value, array: bool = False):
    """`value` as a float, or as a float array if `array`, else InputError(name, "expected
    a number", value).  A boolean is not a number and an int past float range reads as
    +-inf, alone or as an entry, for the finiteness checks to refuse as `inf`."""
    if _holds_boolean(value):
        raise InputError(name, "expected a number", value)
    try:
        try:
            return np.asarray(value, dtype=float) if array else float(value)
        except OverflowError:  # only an int past float range, or an array holding one
            if array and np.iterable(value):
                return np.array([to_number(name, v, True) for v in value])
            return to_number(name, np.inf if value > 0 else -np.inf, array)
    except (TypeError, ValueError):
        raise InputError(name, "expected a number", value) from None


def _frozen_array(x, dtype=float) -> np.ndarray:
    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SymplecticSpace:
    """Phase space of `modes` oscillators with commutation matrix Theta."""

    modes: int
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        modes = self.modes
        if isinstance(modes, bool) or not isinstance(modes, (int, np.integer)) or modes < 1:
            raise DimensionError(f"mode count must be a positive integer, got {modes!r}")
        object.__setattr__(self, "modes", int(modes))
        n = 2 * self.modes
        theta = np.zeros((n, n))
        for k in range(self.modes):
            theta[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = J2
        object.__setattr__(self, "theta", _frozen_array(theta))

    @property
    def n(self) -> int:
        return 2 * self.modes


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Energy matrix R of H = (1/2) x^T R x.

    R is symmetrized on construction.  The max-abs asymmetry of the input is
    kept, silently, in `asymmetry`: a value above EXACT_TOL usually means
    corrupted input, and callers that care check it.
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
        if not np.isfinite(r).all():
            raise NonFiniteError("energy matrix has non-finite entries")
        object.__setattr__(self, "r", _frozen_array((r + r.T) / 2.0))
        object.__setattr__(self, "asymmetry", maxabs(r - r.T))


@dataclass(frozen=True, eq=False)
class LinearQuantumSystem:
    """State-space form x' = A x with optional output rows z = C x."""

    a: np.ndarray
    c: np.ndarray
    space: SymplecticSpace

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
        if not (np.isfinite(a).all() and np.isfinite(c).all()):
            raise NonFiniteError("system matrices have non-finite entries")
        object.__setattr__(self, "a", _frozen_array(a))
        object.__setattr__(self, "c", _frozen_array(c))

    def with_outputs(self, c) -> "LinearQuantumSystem":
        """Same dynamics with the given output rows attached."""
        return LinearQuantumSystem(self.a, np.atleast_2d(np.asarray(c, dtype=float)), self.space)


def generator_from_hamiltonian(h: QuadraticHamiltonian) -> LinearQuantumSystem:
    """Generator A = 2 Theta R of the Heisenberg equations of H = x^T R x / 2.

    Such a system is physically realizable by construction.  Output rows
    start empty; attach them with `with_outputs`.
    """
    a = 2.0 * (h.space.theta @ h.r)
    c = np.zeros((0, h.space.n))
    return LinearQuantumSystem(a, c, h.space)


def realizability_defect(sys: LinearQuantumSystem) -> float:
    """Max-abs norm of A Theta + Theta A^T.

    Zero exactly when A = 2 Theta R for some symmetric R, i.e. when the
    dynamics preserve the commutation relations.
    """
    theta = sys.space.theta
    return maxabs(sys.a @ theta + theta @ sys.a.T)
