"""Closed linear quantum systems in quadrature coordinates.

A closed system of n/2 optical modes evolves as x'(t) = A x(t), where the
vector x stacks position/momentum pairs (q_1, p_1, ..., q_m, p_m).  The
commutation convention is [q, p] = 2i, encoded by the block-diagonal
antisymmetric matrix Theta = diag(J, ..., J) with J = [[0, 1], [-1, 0]].
A generator is physically realizable (preserves the commutation relations
for all time) exactly when A = 2 Theta R for a real symmetric R, i.e. when
the dynamics derive from a quadratic Hamiltonian H = (1/2) x^T R x.  The
library forms one such A, the observer's, in `observer.augment`.

All matrix defect measures use the max-abs entry norm so tolerances stay
dimension independent.  Values here are either dimensionless or expressed
in a caller-chosen frequency unit; the CLI rescales lab-frame rad/s inputs
by a reference frequency before touching this module.  The propagator
exp(A t) and the commutation drift are in `dynamics`, read from the closed
form there.

The scalar helpers (`to_number`, `fma`, `dot2`, `maxabs_of`,
`check_horizons`, and `fmt_float`, the number format of every report) run
on Python floats and load without numpy; the array types and `to_array`
import it when they are first used, so a `design` or `verify` run never
loads it.  A system matrix that numpy cannot read as floats goes to
`to_array`, the one conversion rule.
"""

from __future__ import annotations

import math
import operator
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


def fma(a: float, b: float, c: float) -> float:
    """a b + c with one rounding, as C's `fma` gives it; Python 3.11 has no `math.fma`.

    Where no step can overflow or underflow, a b is split exactly into
    p + e (Dekker's product on Veltkamp's halves) and `math.fsum` rounds
    p + e + c once.  Elsewhere, with finite nonzero factors and a finite c,
    the exact sum is formed from integer ratios and `int / int` rounds it;
    where it overflows it reads as +-inf, as `observer._ldexp` does.  A zero
    factor makes the product exact and a zero c leaves one rounding, so both
    take the plain IEEE route, as does an infinite or nan factor.  A
    non-finite c with finite factors is the result.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c
    if not math.isfinite(c):
        return c
    if a == 0.0 or b == 0.0:
        return a * b + c
    if c == 0.0:
        return a * b
    p = a * b
    if 1e-280 < abs(p) < 1e290 and abs(a) < 1e290 and abs(b) < 1e290 and abs(c) < 1e300:
        x = 134217729.0 * a  # 2^27 + 1
        ah = x - (x - a)
        al = a - ah
        x = 134217729.0 * b
        bh = x - (x - b)
        bl = b - bh
        return math.fsum((p, ((ah * bh - p) + ah * bl + al * bh) + al * bl, c))
    (n1, d1), (n2, d2), (n0, d0) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    numerator = n1 * n2 * d0 + n0 * d1 * d2
    try:
        return numerator / (d1 * d2 * d0)
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def dot2(a, b) -> float:
    """a0 b0 + a1 b1 of two pairs of floats, to the bit as numpy's float64 dot gives it:
    fma(a1, b1, a0 b0) + 0.0, a0 b0 rounded, then a1 b1 added to it with one rounding,
    and a zero read as +0.0."""
    (a0, a1), (b0, b1) = a, b
    return fma(a1, b1, a0 * b0) + 0.0


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
    if type(value) is float:  # the common entry, without the lookups below
        return False
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


def to_array(name: str, value, frozen: bool = False):
    """`value` as a float array, by `to_number`'s rule for each entry: an int past float
    range, alone or as an entry, reads as +-inf.  With `frozen`, a read-only array of
    its own: one conversion that is also the one copy, never the caller's array."""
    import numpy as np

    if _holds_boolean(value):
        raise InputError(name, "expected a number", value)
    try:
        try:
            arr = (np.array if frozen else np.asarray)(value, dtype=float)
        except OverflowError:  # only an int past float range, or an array holding one
            if np.iterable(value):
                arr = np.array([to_array(name, v) for v in value])
            else:
                arr = np.asarray(math.inf if value > 0 else -math.inf)
    except (TypeError, ValueError):
        raise InputError(name, "expected a number", value) from None
    if frozen:
        arr.setflags(write=False)
    return arr


def check_horizons(horizons, minimum: int = 1) -> list:
    """`horizons` as a list of floats: positive, finite, strictly increasing times, at
    least `minimum` (0, 1 or verify's 2) of them, else InputError; the one ladder check."""
    t = to_numbers("horizons", horizons)
    # Every comparison with a nan is false, so a strictly increasing t holds
    # none, and its ends bound it: a long grid is scanned once.
    increasing = all(map(operator.lt, t, t[1:]))
    if not all(0.0 < x < math.inf for x in (t[:1] + t[-1:] if increasing else t)):
        raise InputError("horizons", "all horizons must be positive and finite")
    if not increasing:
        raise InputError("horizons", "horizons must be strictly increasing")
    if len(t) < minimum:
        rule = "verify needs at least two horizons" if t else "empty list"
        raise InputError("horizons", rule)
    return t


def _frozen_array(name: str, value):
    """`value` as a read-only float array of its own, by `to_array`'s rule where numpy's
    fails: InputError for a boolean or text entry, DimensionError for rows of unequal
    lengths."""
    import numpy as np

    if _holds_boolean(value):
        raise InputError(name, "expected a number", value)
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        lengths = _unequal_rows(value)
        if lengths:
            raise DimensionError(f"{name}: rows of lengths {lengths} do not form a matrix") from None
        return to_array(name, value, frozen=True)
    arr.setflags(write=False)
    return arr


def _unequal_rows(value):
    """The row lengths at the first depth where nested lists, tuples or arrays differ
    (None for an entry that is none of them), or None where all rows match."""
    level = [value]
    while level:
        lengths = [
            len(v) if isinstance(v, (list, tuple)) or getattr(v, "ndim", 0) else None
            for v in level
        ]
        if len(set(lengths)) > 1:
            return lengths
        if lengths[0] is None:
            return None
        level = [x for v in level for x in v]
    return None


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
        object.__setattr__(self, "theta", _frozen_array("theta", theta))

    @property
    def n(self) -> int:
        return 2 * self.modes


@dataclass(frozen=True, eq=False)
class LinearQuantumSystem:
    """State-space form x' = A x with optional output rows z = C x."""

    a: np.ndarray
    c: np.ndarray
    space: SymplecticSpace

    def __post_init__(self):
        import numpy as np

        a = _frozen_array("a", self.a)
        c = _frozen_array("c", self.c)
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
