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

The scalar helpers (`to_number`, `dot2`, `maxabs_of`, and `fmt_float`, the
number format of every report) run on Python floats and load without
numpy; the array types and `to_array` import it when they are first used,
so a `design` run never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DimensionError, InputError, NonFiniteError

# Tolerances of the toolkit's checks: EXACT_TOL for algebraic
# identities that hold to roundoff, DESIGN_TOL for the design cross-check,
# the coupling factorization and the observer's design conditions.
EXACT_TOL = 1e-12
DESIGN_TOL = 1e-9


def maxabs(m) -> float:
    """Max-abs entry norm of an array; zero for empty arrays."""
    if m.size == 0:
        return 0.0
    return float(abs(m).max())


def maxabs_of(values) -> float:
    """`maxabs` of a few Python floats, nan when one is nan as with an array;
    for the entries of 2 x 2 blocks, where building an array costs more."""
    if any(map(math.isnan, values)):
        return math.nan
    return max(map(abs, values), default=0.0)


def dot2(a, b) -> float:
    """a0 b0 + a1 b1 of two pairs of floats, to the bit as numpy's float64 dot gives it.

    That is fma(a1, b1, a0 b0) + 0.0: a0 b0 rounded, then a1 b1 added to it
    with one rounding, and a zero read as +0.0.  Python 3.11 has no
    `math.fma`, so the sum of finite nonzero terms is formed exactly from
    integer ratios, and `int / int` rounds it once; where it overflows it
    reads as +-inf, as `observer._ldexp` does.  An infinite or nan term, or
    a zero one, takes the plain IEEE route, which rounds as the fused one
    there.
    """
    (a0, a1), (b0, b1) = a, b
    p = a0 * b0
    if not (math.isfinite(a1) and math.isfinite(b1)):
        return a1 * b1 + p
    if not math.isfinite(p):
        return p
    if p == 0.0 or a1 == 0.0 or b1 == 0.0:
        return a1 * b1 + p + 0.0
    (n1, d1), (n2, d2) = a1.as_integer_ratio(), b1.as_integer_ratio()
    n0, d0 = p.as_integer_ratio()
    numerator = n1 * n2 * d0 + n0 * d1 * d2
    try:
        return numerator / (d1 * d2 * d0)
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def fmt_float(x: float) -> str:
    """x as the reports spell it: 12 significant digits, lowercase scientific outside
    [1e-4, 1e6); NonFiniteError for a nan or inf."""
    x = float(x)
    # The common case first: a nan fails the comparison, and so does an inf.
    if 1e-4 <= abs(x) < 1e6:
        return f"{x:.12g}"
    if x == 0.0:
        return "0"
    if not math.isfinite(x):
        raise NonFiniteError(f"non-finite value {x!r} in report")
    return f"{x:.11e}"


def _holds_boolean(value) -> bool:
    """True for a boolean, or a list, tuple or array with a boolean entry at any depth.

    A numpy array or scalar is known by its dtype, so numpy need not be loaded.
    """
    if isinstance(value, (list, tuple)):
        return any(map(_holds_boolean, value))
    if isinstance(value, bool):
        return True
    kind = getattr(getattr(value, "dtype", None), "kind", None)
    if kind == "O" and hasattr(value, "flat"):
        return any(map(_holds_boolean, value.flat))
    return kind == "b"


def _float(value) -> float:
    """float(value), +-inf for an int past float range."""
    try:
        return float(value)
    except OverflowError:  # only an int past float range
        return math.inf if value > 0 else -math.inf


def to_number(name: str, value) -> float:
    """`value` as a float, else InputError(name, "expected a number", value).  A boolean
    is not a number and an int past float range reads as +-inf, for the finiteness
    checks to refuse as `inf`."""
    if _holds_boolean(value):
        raise InputError(name, "expected a number", value)
    try:
        return _float(value)
    except (TypeError, ValueError):
        raise InputError(name, "expected a number", value) from None


def to_numbers(name: str, value) -> list:
    """The entries of `value` in order as floats, by `to_number`'s rule for each.

    A list or tuple of Python numbers and text is read entry by entry,
    without numpy; any other value is read as `to_array` reads it, and
    flattened.  InputError(name, "expected a number", value) for a value
    that is not numbers.
    """
    if type(value) in (list, tuple) and all(type(v) in (int, float, str) for v in value):
        try:
            return [_float(v) for v in value]
        except (TypeError, ValueError):
            raise InputError(name, "expected a number", value) from None
    return to_array(name, value).ravel().tolist()


def to_array(name: str, value):
    """`value` as a float array, by `to_number`'s rule for each entry: an int past float
    range, alone or as an entry, reads as +-inf."""
    import numpy as np

    if _holds_boolean(value):
        raise InputError(name, "expected a number", value)
    try:
        try:
            return np.asarray(value, dtype=float)
        except OverflowError:  # only an int past float range, or an array holding one
            if np.iterable(value):
                return np.array([to_array(name, v) for v in value])
            return np.asarray(math.inf if value > 0 else -math.inf)
    except (TypeError, ValueError):
        raise InputError(name, "expected a number", value) from None


def _frozen_array(x, dtype=float):
    import numpy as np

    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _fresh(cls, **fields):
    """An instance of the frozen dataclass `cls` with every field as given, without
    `__post_init__`, its conversions and its copies.  For values a pipeline has just
    computed from checked inputs: each array must be new, of the dtype and shape the
    constructor would give, and is made read-only here."""
    for value in fields.values():
        if hasattr(value, "setflags"):
            value.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class SymplecticSpace:
    """Phase space of `modes` oscillators with commutation matrix Theta."""

    modes: int
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        import numpy as np

        modes = self.modes
        if isinstance(modes, bool) or not isinstance(modes, (int, np.integer)) or modes < 1:
            raise DimensionError(f"mode count must be a positive integer, got {modes!r}")
        object.__setattr__(self, "modes", int(modes))
        n = 2 * self.modes
        theta = np.zeros((n, n))
        for k in range(self.modes):
            theta[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = ((0.0, 1.0), (-1.0, 0.0))
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
        import numpy as np

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
        import numpy as np

        a = _frozen_array(self.a)
        c = _frozen_array(self.c)
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
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    def with_outputs(self, c) -> "LinearQuantumSystem":
        """Same dynamics with the given output rows attached."""
        import numpy as np

        return LinearQuantumSystem(self.a, np.atleast_2d(np.asarray(c, dtype=float)), self.space)


def generator_from_hamiltonian(h: QuadraticHamiltonian) -> LinearQuantumSystem:
    """Generator A = 2 Theta R of the Heisenberg equations of H = x^T R x / 2.

    Such a system is physically realizable by construction.  Output rows
    start empty; attach them with `with_outputs`.
    """
    import numpy as np

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
