"""ASCII text of numeric tables, the cells of `trajectory.csv`.

`fmt_table` spells a 2-d float table row by row, each cell as
`core.fmt_float` spells it, byte for byte, with a vectorized kernel over
blocks of rows.  This module imports numpy; the command line imports it
only when a `simulate` request writes its CSV.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, NamedTuple

import numpy as np

from .core import fmt_float
from .errors import DimensionError, NonFiniteError

# Rows per block of `fmt_table`, sized for the cache: at 512 rows of 13
# cells each of the kernel's float temporaries holds 53 KB.  On a 2-vCPU
# x86-64 host (48 KB L1d and 2 MB L2 per core), the 2001 x 13 tables of 10
# `simulate` requests took, as the mean of each table's min of 30 runs,
# 3.8 ms at 512 rows, 3.5 at 1024, 4.4 at 256, 5.5 at 128 and 5.0 in one
# block; whole `simulate` requests were fastest at 512.  These timings hold
# while the allocator hands a block's temporaries memory the process already
# holds, no minor page fault per block (`tests/faults.py` reads the faults
# per request).  Where the heap's history makes them come from fresh pages,
# a 512-row block took about 950-1070 us instead of about 700 us.
TABLE_BLOCK_ROWS = 512
# Cells whose fraction beyond the 12th digit is this close to 1/2 go to
# `fmt_float`.
# The kernel's product is off by less than 2**-52 * 10**12, about 2.2e-4,
# so every cell it rounds itself lies on the side of the tie that it reads.
TIE_TOLERANCE = 2.0**-11
# Exponents k of the powers 10**k: 11 minus the two-digit decimal exponents
# of the cells the kernel spells, one more each way for a log10 that rounds.
_POWER_MIN, _POWER_MAX = 11 - 100, 11 + 100


class _Tables(NamedTuple):
    glyphs: np.ndarray
    offsets: dict
    power: np.ndarray
    divisor: np.ndarray
    scale: np.ndarray


@functools.cache
def _format_tables() -> _Tables:
    """Glyphs, their section offsets and powers of ten of `fmt_table`, on first use.

    A glyph is 4 bytes of text; nul bytes are padding, dropped after the
    block is joined.  offsets maps each section's name to the index of its
    first glyph.  power holds 10**k correctly rounded, for k in
    _POWER_MIN.._POWER_MAX.  divisor and scale hold, per fixed-notation
    exponent -4..6 (0 also for a scientific cell), the divisor that leaves
    the integer part of a 12-digit significand and the scale that
    left-aligns the rest into 15 fractional digits.
    """
    n = np.arange(10000)
    digits = 48 + np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    zero = digits == 48
    leading_zero = np.logical_and.accumulate(zero, axis=1)
    leading = np.where(leading_zero & (np.arange(4) < 3), 0, digits)
    trailing = np.where(np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1], 0, digits)

    def col(value, rows):
        return np.full((rows, 1), value)

    sections = {
        "digits": digits,  # "dddd"
        "leading": leading,  # leading zeros as nul, at least one digit kept
        "trailing": trailing,  # trailing zeros as nul, 0 all nul
        "point": np.hstack([col(ord("."), 1000), digits[:1000, 1:]]),  # "." and 3 digits
        # the same with trailing zeros as nul, 0 all nul
        "point_trailing": np.hstack([
            np.where(n[:1000, None] > 0, ord("."), 0), trailing[:1000, 1:]
        ]),
        # 2 x 1000: no sign or "-", then 3 digits with leading zeros as nul
        "sign_high": np.vstack([
            np.hstack([col(sign, 1000), np.where(leading_zero, 0, digits)[:1000, 1:]])
            for sign in (0, ord("-"))
        ]),
        # 2 x 100: "e", exponent sign "+" or "-", 2 digits
        "exponent": np.vstack([
            np.hstack([col(ord("e"), 100), col(ord(c), 100), digits[:100, 2:]]) for c in "+-"
        ]),
        "comma": np.array([[ord(","), 0, 0, 0]]),
        "newline": np.array([[ord("\n"), 0, 0, 0]]),
    }
    offsets = dict(zip(sections, itertools.accumulate(map(len, sections.values()), initial=0)))
    glyphs = np.vstack(list(sections.values())).astype(np.uint8).view(np.uint32).ravel()

    # A quotient of ints, and an int converted to float, is correctly rounded.
    exponents = range(_POWER_MIN, _POWER_MAX + 1)
    power = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in exponents])
    divisor = 10.0 ** np.array([12, 12, 12, 12, 11, 10, 9, 8, 7, 6, 5])
    return _Tables(glyphs, offsets, power, divisor, 10.0 ** np.arange(11))


def fmt_table(table: np.ndarray) -> Iterator[bytes]:
    """ASCII text of the rows of `fmt_float` cells, comma-separated, in blocks.

    The text matches `fmt_float` cell by cell, byte for byte.  Every cell is
    checked to be finite before this returns, so a caller can open its file
    after the call.  Each block of TABLE_BLOCK_ROWS rows is one `bytes` with
    one row per line, each line ending in b"\n", ready to be written to a
    binary file.  The kernel spells the cells whose exponent has two
    digits.  The nonzero cells outside that range, and those the kernel
    leaves undecided, within TIE_TOLERANCE of a rounding tie or next to a
    power of ten where log10 rounds up, are spelled by `fmt_float` itself,
    in one `_fallback_text` call per block.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] == 0:
        raise DimensionError(f"expected a 2-d table with columns, got shape {table.shape}")
    finite = np.isfinite(table)
    if not finite.all():
        raise NonFiniteError(f"non-finite value {float(table[~finite][0])!r} in report")
    starts = range(0, table.shape[0], TABLE_BLOCK_ROWS)
    return (_fmt_block(table[k:k + TABLE_BLOCK_ROWS]) for k in starts)


def _fmt_block(block: np.ndarray) -> bytes:
    """Finite rows as ASCII lines: 7 glyphs per cell, padding dropped at the end."""
    values = block.ravel()
    magnitude = np.abs(values)
    # %.11e spells an exponent of three digits, which has no glyph; a carry
    # or a log10 that rounds can still reach one.
    exact = (magnitude >= 1e-99) & (magnitude < 1e100)
    digits, exp10, undecided = _decimal12(np.where(exact, magnitude, 1.0))
    undecided |= np.abs(exp10) > 99
    # Zeros and the cells left to `fmt_float` are laid out with significand
    # 0 and exponent 0, and `fmt_float` then overwrites its cells.
    digits[~exact | undecided] = 0.0
    exp10[undecided] = 0
    tables = _format_tables()
    glyph = np.empty((values.size, 7), dtype=np.intp)
    # %.12g spells a nonzero |x| in [1e-4, 1e6) in fixed notation.
    scientific = exact & ((magnitude < 1e-4) | (magnitude >= 1e6))
    for j, column in enumerate(_glyphs(digits, exp10, values < 0, scientific, tables)):
        glyph[:, j] = column
    glyph[:, 6] = tables.offsets["comma"]
    glyph.reshape(*block.shape, 7)[:, -1, 6] = tables.offsets["newline"]
    text = tables.glyphs[glyph]

    cells = np.flatnonzero(undecided | ~exact & (magnitude > 0))
    if cells.size:
        text[cells, :6] = _fallback_text(values[cells]).view(np.uint32).reshape(-1, 6)
    return text.tobytes().translate(None, b"\0")


def _fallback_text(values: np.ndarray) -> np.ndarray:
    """`fmt_float` text of nonzero cells, nul-padded to 24 bytes."""
    return np.array([fmt_float(x) for x in values.tolist()], dtype="S24")


def _decimal12(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Significands, exponents and undecided cells of magnitudes in [1e-99, 1e100).

    Each magnitude rounds half-to-even to significand * 10**(exponent - 11)
    with 10**11 <= significand < 10**12, unless it is undecided: within
    TIE_TOLERANCE of a tie, or scaled outside [10**11, 10**12] by a log10
    that rounded across an integer.  The significand is a float holding an
    integer, read from one product with a correctly rounded power of ten.
    """
    exp10 = np.floor(np.log10(magnitude)).astype(np.int64)
    product = magnitude * _format_tables().power[11 - exp10 - _POWER_MIN]
    whole = np.floor(product)
    fraction = product - whole
    digits = whole + (fraction > 0.5)
    undecided = (np.abs(fraction - 0.5) < TIE_TOLERANCE) | (digits > 1e12) | (product < 1e11)
    carry = digits == 1e12
    digits[carry] = 1e11
    exp10 += carry
    return digits, exp10, undecided


def _divmod(n: np.ndarray, d) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of integers below 2**53 held as floats, exact."""
    quotient = np.floor(n / d)
    return quotient, n - quotient * d


def _glyphs(digits, exp10, negative, scientific, tables: _Tables) -> list:
    """Glyph columns of a cell: sign, 7 integer and 15 fraction digits.

    A %.12g cell drops its leading and trailing zeros.  A %.11e cell is its
    significand at exponent 0, one integer digit and 11 decimals with every
    zero kept, and its exponent takes the place of the last 4 decimals,
    which are 0 there.
    """
    shift = np.where(scientific, 0, exp10) + 4
    whole, fraction = _divmod(digits, tables.divisor[shift])
    fraction *= tables.scale[shift]
    high, low = _divmod(whole, 1e4)
    point, rest = _divmod(fraction, 1e12)
    first, rest8 = _divmod(rest, 1e8)
    second, third = _divmod(rest8, 1e4)
    at = tables.offsets
    digit, trailing = at["digits"], at["trailing"]
    return [
        at["sign_high"] + 1000 * negative + high,
        np.where(high > 0, digit, at["leading"]) + low,
        np.where((rest > 0) | scientific, at["point"], at["point_trailing"]) + point,
        np.where((rest8 > 0) | scientific, digit, trailing) + first,
        np.where((third > 0) | scientific, digit, trailing) + second,
        np.where(scientific, at["exponent"] + 100 * (exp10 < 0) + np.abs(exp10), trailing + third),
    ]
