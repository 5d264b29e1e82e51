"""Command-line front end: design, simulate, verify, reproduce-example.

Inputs arrive as a JSON config file and/or flag overrides.  Frequencies may
be given in rad/s (they are rescaled by a reference frequency, by default
omega_o, so the internal problem is O(1)) or directly as nondimensional
numbers.  Horizon values are always nondimensional (units of one over the
reference frequency).  Reports are emitted as JSON with fixed field order
and a fixed 12-significant-digit float format so identical configs produce
byte-identical files; trajectories are emitted as plot-ready CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import __version__
from .core import to_number
from .dynamics import check_horizons, coefficient_trajectory, default_horizons, verify_convergence
from .errors import DimensionError, InputError, NonFiniteError, PipelineError, QObserverError
from .ndpa import DesignResult, check_design_inputs, check_number, design_ndpa
from .observer import augment

# Command -> one-line description for `--help`.
COMMANDS = {
    "design": "solve the design equations and emit design.json",
    "simulate": "design plus plot-ready trajectory.csv",
    "verify": "design plus convergence verification report.json",
    "reproduce-example": "run the reference design and diff against golden values",
}
UNIT_CHOICES = ("nondimensional", "rad/s")
FORMAT_CHOICES = ("json", "csv")
SIMULATE_POINTS = 2001

RATE_NOTE = (
    "the O(1/T) decay rate is a toolkit-derived property of the "
    "R_o = 2*omega_o*I construction; the underlying guarantee is only that "
    "the time average tends to zero"
)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    command: str
    cp: tuple[float, float] = (1.0, 0.0)
    omega_o: float = 1.0
    gamma: float = 1.0
    eps_ratio: float = 0.1
    units: str = "nondimensional"
    omega_ref: float | None = None
    delta: float | None = None
    horizons: tuple[float, ...] | None = None
    out: Path = Path("qobserver-out")
    format: tuple[str, ...] = ("json",)


# --------------------------------------------------------------------------
# Deterministic JSON emission
# --------------------------------------------------------------------------

def _fixed_notation(magnitude):
    """True where a nonzero |x| prints as %.12g: in [1e-4, 1e6).

    Works elementwise on an array, for `fmt_table`; `fmt_float` spells the
    same rule as one chained comparison.
    """
    return (magnitude >= 1e-4) & (magnitude < 1e6)


def fmt_float(x: float) -> str:
    """12 significant digits; lowercase scientific outside [1e-4, 1e6)."""
    x = float(x)
    # The common case first: a nan fails the comparison, and so does an inf.
    if 1e-4 <= abs(x) < 1e6:
        return f"{x:.12g}"
    if x == 0.0:
        return "0"
    if not math.isfinite(x):
        raise NonFiniteError(f"non-finite value {x!r} in report")
    return f"{x:.11e}"


# Rows per block of `fmt_table`, sized for the cache: at 512 rows of 13
# cells each of the kernel's float temporaries holds 53 KB.  On a 2-vCPU
# x86-64 host (48 KB L1d and 2 MB L2 per core), the 2001 x 13 tables of 10
# `simulate` requests took, as the mean of each table's min of 30 runs,
# 3.8 ms at 512 rows, 3.5 at 1024, 4.4 at 256, 5.5 at 128 and 5.0 in one
# block; whole `simulate` requests were fastest at 512.
TABLE_BLOCK_ROWS = 512
# Cells whose fraction beyond the 12th digit is this close to 1/2 go to
# `fmt_float`.
# The kernel's product is off by less than 2**-52 * 10**12, about 2.2e-4,
# so every cell it rounds itself lies on the side of the tie that it reads.
TIE_TOLERANCE = 2.0**-11
# The smallest magnitude the kernel rounds; below it 10**(11 - exponent)
# overflows, and the nonzero cells go to `fmt_float`.
KERNEL_MIN = 1e-296
# Exponents k of the powers 10**k: 11 minus the decimal exponents from the
# largest float to KERNEL_MIN's, less one for a log10 that rounds down.
_POWER_MIN, _POWER_MAX = -297, 308

# Offsets of the glyph sections in `_format_tables().glyphs`.  A glyph is
# 4 bytes of text; nul bytes are padding, dropped after the block is joined.
_DIGITS = 0  # 10000: "dddd"
_LEADING = 10000  # 10000: leading zeros as nul, at least one digit kept
_TRAILING = 20000  # 10000: trailing zeros as nul, 0 all nul
_POINT = 30000  # 1000: "." and 3 digits
_POINT_TRAILING = 31000  # 1000: the same with trailing zeros as nul, 0 all nul
_SIGN_HIGH = 32000  # 2 x 1000: sign, then 3 digits with leading zeros as nul
_EXPONENT = 34000  # 2 x 100: "e", exponent sign, 2 digits
_COMMA, _NEWLINE = 34200, 34201
# Per fixed-notation exponent -4..6, 0 also for a scientific cell: the
# divisor that leaves the integer part of a 12-digit significand, and the
# scale that left-aligns the rest into 15 fractional digits.
_FIXED_DIVISOR = 10.0 ** np.array([12, 12, 12, 12, 11, 10, 9, 8, 7, 6, 5])
_FIXED_SCALE = 10.0 ** np.arange(11)


class _Tables(NamedTuple):
    glyphs: np.ndarray
    power: np.ndarray


@functools.cache
def _format_tables() -> _Tables:
    """Glyphs and powers of ten of `fmt_table`, on first use.

    power holds 10**k correctly rounded, for k in _POWER_MIN.._POWER_MAX.
    """
    n = np.arange(10000)
    digits = 48 + np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    zero = digits == 48
    leading_zero = np.logical_and.accumulate(zero, axis=1)
    leading = np.where(leading_zero & (np.arange(4) < 3), 0, digits)
    trailing = np.where(np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1], 0, digits)

    def col(value, rows):
        return np.full((rows, 1), value)

    sections = [
        digits, leading, trailing,
        np.hstack([col(ord("."), 1000), digits[:1000, 1:]]),
        np.hstack([np.where(n[:1000, None] > 0, ord("."), 0), trailing[:1000, 1:]]),
        *(np.hstack([col(sign, 1000), np.where(leading_zero, 0, digits)[:1000, 1:]])
          for sign in (0, ord("-"))),
        *(np.hstack([col(ord("e"), 100), col(ord(c), 100), digits[:100, 2:]]) for c in "+-"),
        np.array([[ord(","), 0, 0, 0], [ord("\n"), 0, 0, 0]]),
    ]
    glyphs = np.vstack(sections).astype(np.uint8).view(np.uint32).ravel()

    # A quotient of ints, and an int converted to float, is correctly rounded.
    exponents = range(_POWER_MIN, _POWER_MAX + 1)
    power = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in exponents])
    return _Tables(glyphs, power)


def fmt_table(table: np.ndarray) -> Iterator[bytes]:
    """ASCII text of the rows of `fmt_float` cells, comma-separated, in blocks.

    The text matches `fmt_float` cell by cell, byte for byte.  Every cell is
    checked to be finite before this returns, so a caller can open its file
    after the call.  Each block of TABLE_BLOCK_ROWS rows is one `bytes` with
    one row per line, each line ending in b"\n", ready to be written to a
    binary file.  The cells the kernel leaves undecided, those within
    TIE_TOLERANCE of a rounding tie, next to a power of ten where log10
    rounds up or with an exponent of three digits, and the nonzero
    magnitudes below KERNEL_MIN, are spelled by `fmt_float` itself, in one
    `_fallback_text` call per block.
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
    exact = magnitude >= KERNEL_MIN
    digits, exp10, undecided = _decimal12(np.where(exact, magnitude, 1.0))
    # %.11e spells an exponent of three digits, which has no glyph.
    undecided |= np.abs(exp10) > 99
    # Zeros and the cells left to `fmt_float` are laid out with significand
    # 0 and exponent 0, and `fmt_float` then overwrites its cells.
    digits[~exact | undecided] = 0.0
    exp10[undecided] = 0
    glyph = np.empty((values.size, 7), dtype=np.intp)
    scientific = exact & ~_fixed_notation(magnitude)
    for j, column in enumerate(_glyphs(digits, exp10, values < 0, scientific)):
        glyph[:, j] = column
    glyph[:, 6] = _COMMA
    glyph.reshape(*block.shape, 7)[:, -1, 6] = _NEWLINE
    text = _format_tables().glyphs[glyph]

    cells = np.flatnonzero(undecided | ~exact & (magnitude > 0))
    if cells.size:
        text[cells, :6] = _fallback_text(values[cells]).view(np.uint32).reshape(-1, 6)
    return text.tobytes().translate(None, b"\0")


def _fallback_text(values: np.ndarray) -> np.ndarray:
    """`fmt_float` text of nonzero cells, nul-padded to 24 bytes."""
    return np.array([fmt_float(x) for x in values.tolist()], dtype="S24")


def _decimal12(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Significands, exponents and undecided cells of magnitudes >= KERNEL_MIN.

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


def _glyphs(digits, exp10, negative, scientific) -> list:
    """Glyph columns of a cell: sign, 7 integer and 15 fraction digits.

    A %.12g cell drops its leading and trailing zeros.  A %.11e cell is its
    significand at exponent 0, one integer digit and 11 decimals with every
    zero kept, and its exponent takes the place of the last 4 decimals,
    which are 0 there.
    """
    shift = np.where(scientific, 0, exp10) + 4
    whole, fraction = _divmod(digits, _FIXED_DIVISOR[shift])
    fraction *= _FIXED_SCALE[shift]
    high, low = _divmod(whole, 1e4)
    point, rest = _divmod(fraction, 1e12)
    first, rest8 = _divmod(rest, 1e8)
    second, third = _divmod(rest8, 1e4)
    return [
        _SIGN_HIGH + 1000 * negative + high,
        np.where(high > 0, _DIGITS, _LEADING) + low,
        np.where((rest > 0) | scientific, _POINT, _POINT_TRAILING) + point,
        np.where((rest8 > 0) | scientific, _DIGITS, _TRAILING) + first,
        np.where((third > 0) | scientific, _DIGITS, _TRAILING) + second,
        np.where(scientific, _EXPONENT + 100 * (exp10 < 0) + np.abs(exp10), _TRAILING + third),
    ]


def emit_json(obj) -> str:
    """Serialize nested data: two-space indent, one item per line, `{}`/`[]` if empty.

    Keys are `str(k)`; keys and strings get the ASCII escapes of `json.dumps`.
    Floats are written by `fmt_float`, a numpy array as its nested lists and
    a complex number as {"re": ..., "im": ...}.  A nan or inf at any depth raises
    `NonFiniteError`; any other type raises `TypeError` naming it, whichever
    comes first in the document.

    One `_flatten` pass splits the payload into its shape and its leaves, a
    float64 array taking one shape token and all its entries at once.  The
    shape's `%s` layout is built once and cached (`_layout`, at most
    LAYOUT_CACHE_SIZE shapes), and one `%` fill puts each leaf's text into
    its slot.
    """
    shape, leaves = [], []
    try:
        _flatten(obj, shape, leaves)
    except TypeError:
        _texts(leaves)  # a nan or inf before the node named is the first fault
        raise
    return _layout(tuple(shape)) % tuple(_texts(leaves))


# Shape tokens of `_flatten`, besides a key (a str), a float64 array's shape
# (a tuple) and a leaf's slot (None).
_DICT, _LIST, _END = 0, 1, 2
# Distinct payload shapes whose layouts are kept; 300 requests of a
# benchmark workload meet two to six.
LAYOUT_CACHE_SIZE = 64


def _flatten(node, shape: list, leaves: list) -> None:
    """Append node's shape tokens to `shape` and its leaves to `leaves`, in document order.

    A leaf is a float, to be spelled by `fmt_float`, or the finished text
    of any other scalar.
    """
    kind = type(node)  # exact types first; the isinstance chain takes the rest
    if kind is float:
        shape.append(None)
        leaves.append(node)
    elif kind is dict or isinstance(node, dict):
        shape.append(_DICT)
        for key, value in node.items():
            shape.append(str(key))
            _flatten(value, shape, leaves)
        shape.append(_END)
    elif kind is list or kind is tuple or isinstance(node, (list, tuple)):
        shape.append(_LIST)
        for value in node:
            _flatten(value, shape, leaves)
        shape.append(_END)
    elif isinstance(node, np.ndarray):
        # a subclass may ravel to more than one dimension, as np.matrix does
        if kind is np.ndarray and node.dtype == np.float64:
            shape.append(node.shape)
            leaves.extend(node.ravel().tolist())
        else:
            _flatten(node.tolist(), shape, leaves)
    elif node is None or isinstance(node, (bool, np.bool_)):
        shape.append(None)
        leaves.append("null" if node is None else "true" if node else "false")
    elif isinstance(node, str):
        shape.append(None)
        leaves.append(_quote(node))
    elif isinstance(node, (int, np.integer)):
        shape.append(None)
        leaves.append(str(int(node)))
    elif isinstance(node, (float, np.floating)):
        shape.append(None)
        leaves.append(float(node))
    else:
        if not isinstance(node, (complex, np.complexfloating)):
            raise TypeError(f"cannot serialize {type(node)!r}")
        shape.extend((_DICT, "re", None, "im", None, _END))
        leaves.extend((float(node.real), float(node.imag)))


def _texts(leaves: list) -> list:
    """The text of each leaf: floats through `fmt_float`, the rest as they are."""
    return [fmt_float(x) if type(x) is float else x for x in leaves]


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _layout(shape: tuple) -> str:
    """The `emit_json` text of a shape, with a `%s` per leaf and every literal `%` doubled."""
    tokens = iter(shape)
    out = []
    put = out.append

    def value(token, pad: str) -> None:
        if token is None:
            put("%s")
        elif type(token) is tuple:
            put(array(token, pad))
        else:
            container(token, pad)

    def container(kind: int, pad: str) -> None:
        opening, closing = "{}" if kind == _DICT else "[]"
        lead, inner = opening + "\n", pad + "  "
        for token in tokens:
            if token == _END:
                break
            put(lead + inner)
            lead = ",\n"
            if kind == _DICT:
                put(_quote(token).replace("%", "%%") + ": ")
                token = next(tokens)
            value(token, inner)
        put(f"\n{pad}{closing}" if lead == ",\n" else opening + closing)

    def array(dims: tuple, pad: str) -> str:
        if not dims:
            return "%s"
        if dims[0] == 0:
            return "[]"
        inner = pad + "  "
        item = inner + array(dims[1:], inner)
        return "[\n" + ",\n".join([item] * dims[0]) + f"\n{pad}]"

    value(next(tokens), "")
    return "".join(out) + "\n"


def _angle(rad: float) -> dict:
    return {"rad": float(rad), "deg": float(math.degrees(rad))}


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

def _split(value, where: str, convert, expected: str) -> tuple:
    """Items of '1,2' / '1 2' text or of a JSON list (no other type), each run through convert."""
    parts = value.replace(",", " ").split() if isinstance(value, str) else value
    try:
        if isinstance(parts, list):
            return tuple(convert(p) for p in parts)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{where}: expected {expected}, got {value!r}")


def _parse_number(value, where: str) -> float:
    try:
        return to_number(where, value)
    except InputError as exc:
        raise ConfigError(str(exc)) from None


_entry = functools.partial(to_number, "entry")
_parse_selector = functools.partial(_split, convert=_entry, expected="two numbers")
_parse_horizons = functools.partial(_split, convert=_entry, expected="a list of numbers")


def _parse_units(value, where: str) -> str:
    if value not in UNIT_CHOICES:
        raise ConfigError(f"{where}: units must be one of {UNIT_CHOICES}, got {value!r}")
    return value


def _parse_out(value, where: str) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a directory path, got {value!r}")
    return Path(value)


def _parse_formats(value, where: str) -> tuple[str, ...]:
    parts = _split(value, where, str, "a list of formats")
    for p in parts:
        if p not in FORMAT_CHOICES:
            raise ConfigError(f"{where}: unknown format {p!r} (choose from {FORMAT_CHOICES})")
    if not parts:
        raise ConfigError(f"{where}: at least one format required")
    # stable order, no duplicates
    return tuple(f for f in FORMAT_CHOICES if f in parts)


# Config key -> (parser, help text), in the order values are read and flags
# listed.  The flag is "--" + key with "_" turned into "-"; IO_KEYS are the
# flags every command takes, the others the physics of a design, which
# reproduce-example fixes.  The parsers only convert; see `load_config`.
FIELDS = {
    "cp": (_parse_selector, "plant output selector, e.g. '1,0'"),
    "omega_o": (_parse_number, "observer detuning"),
    "gamma": (_parse_number, "mirror coupling rate"),
    "eps_ratio": (_parse_number, "|epsilon|/gamma"),
    "delta": (_parse_number, "phase family offset in (0, pi)"),
    "units": (_parse_units, "units of omega_o and gamma: nondimensional or rad/s"),
    "omega_ref": (_parse_number, "reference frequency of rad/s inputs (default omega_o)"),
    "horizons": (_parse_horizons, "nondimensional horizon ladder, e.g. '5,10,20'"),
    "out": (_parse_out, "output directory (default qobserver-out)"),
    "format": (_parse_formats, "comma-separated subset of json,csv"),
}
IO_KEYS = ("out", "format")
IO_ONLY_RULE = "reproduce-example takes only --out and --format"


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_config_file(path) -> dict:
    if not path:
        return {}
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:  # a NUL byte in the path
        raise ConfigError(f"{path}: cannot read ({exc})") from None
    try:
        data = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    except ValueError:  # from int(), past its digit limit
        limit = sys.get_int_max_str_digits()
        raise ConfigError(f"{path}: invalid JSON (an integer has more than {limit} digits)") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for key in data:
        if key not in FIELDS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return data


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file and flag overrides into a validated RunConfig.

    Every value is converted first, in FIELDS order; then the library checks
    the physics inputs as given, before any rescaling; then `_validate_config`
    applies the rules only the command line has.  An error names where the
    value came from: the flag or the config key.
    """
    if args.command == "reproduce-example":
        for key in ("config", *FIELDS):
            if key not in IO_KEYS and getattr(args, key) is not None:
                raise ConfigError(f"{_flag(key)}: {IO_ONLY_RULE}")
    cfg = RunConfig(command=args.command)
    if args.command == "simulate":
        cfg.format = ("json", "csv")
    file_data = _read_config_file(args.config)
    sources, given = {}, {}
    for key, (parse, _) in FIELDS.items():
        value, where = getattr(args, key), _flag(key)
        if value is None:
            value, where = file_data.get(key), f"config key {key!r}"
        if value is not None:
            setattr(cfg, key, parse(value, where))
            sources[key], given[key] = where, value
    try:
        check_design_inputs(cfg.cp, cfg.omega_o, cfg.gamma, cfg.eps_ratio, cfg.delta)
        if cfg.omega_ref is not None:
            check_number("omega_ref", cfg.omega_ref)
        if cfg.horizons is not None:
            check_horizons(cfg.horizons, minimum=2 if cfg.command == "verify" else 1)
    except InputError as exc:
        raise ConfigError(f"{sources[exc.name]}: {exc.rule}{_got(exc, given[exc.name])}") from None
    _validate_config(cfg, sources)
    return cfg


def _got(exc: InputError, given) -> str:
    """", got <value>": flag text as given unless it reads as a finite number, any other
    value as read, so a JSON 10**400 shows as inf."""
    number = isinstance(exc.value, float) and math.isfinite(exc.value)
    shown = given if isinstance(given, str) and not number else exc.value
    return "" if exc.value is None else f", got {shown!r}"


def _validate_config(cfg: RunConfig, sources: dict[str, str]) -> None:
    """Rules that span fields; `sources` names where each given value came from."""
    if cfg.command in ("design", "verify") and "json" not in cfg.format:
        raise ConfigError(f"{sources['format']}: {cfg.command} produces JSON; include 'json'")
    # `run` creates the output directory: its nearest existing path must be one
    nearest = next(path for path in (cfg.out, *cfg.out.parents) if path.exists())
    if not nearest.is_dir():
        raise ConfigError(f"{sources.get('out', '--out')}: {str(nearest)!r} is not a directory")
    # design_ndpa gets omega_o / scale and gamma / scale: finite, nonzero, normal if given so
    scale, scale_key = _scale_factor(cfg), "omega_ref" if cfg.omega_ref is not None else "omega_o"
    for key in ("omega_o", "gamma") if scale != 1.0 else ():
        ratio = getattr(cfg, key) / scale
        if not 0.0 < ratio < math.inf or ratio < sys.float_info.min <= getattr(cfg, key):
            names = " / ".join(sources.get(k, f"default {k}") for k in (key, scale_key))
            raise ConfigError(
                f"{names}: {key} / {scale_key} must be finite and at least "
                f"{sys.float_info.min!r}, got {ratio}"
            )


# --------------------------------------------------------------------------
# Report payloads
# --------------------------------------------------------------------------

def _scale_factor(cfg: RunConfig) -> float:
    """Reference frequency used to nondimensionalize rad/s inputs."""
    if cfg.units == "rad/s":
        return cfg.omega_ref if cfg.omega_ref is not None else cfg.omega_o
    return 1.0


def _units_payload(cfg: RunConfig, scale: float) -> dict:
    return {
        "input": cfg.units,
        "reference_frequency": scale,
        "note": "internal values are nondimensional; time is in units of "
        "1/reference_frequency",
    }


def design_payload(cfg: RunConfig, result: DesignResult, scale: float) -> dict:
    ndpa, obs, rep = result.ndpa, result.observer, result.report
    p = ndpa.params
    return {
        "command": cfg.command,
        "toolkit_version": __version__,
        "units": _units_payload(cfg, scale),
        "inputs": {
            "c_p": list(cfg.cp),
            "omega_o": cfg.omega_o,
            "gamma": cfg.gamma,
            "eps_ratio": cfg.eps_ratio,
            "delta": rep.delta,
        },
        "angles": {
            "theta": _angle(p.theta),
            "psi": _angle(math.atan2(p.epsilon.imag, p.epsilon.real)),
            "phi": _angle(p.phi),
            "arg_c": _angle(rep.arg_c),
            "delta": _angle(rep.delta),
        },
        "nondimensional": {
            "gamma": p.gamma,
            "omega_o": p.omega_o,
            "epsilon": p.epsilon,
            "alpha": ndpa.alpha,
            "beta": obs.beta,
            "c_o": obs.c_o,
            "r_c": obs.r_c,
            "r_o": obs.r_o,
            "r": ndpa.r,
            "f": {"re": ndpa.f.real, "im": ndpa.f.imag},
            "m": {"re": ndpa.m.real, "im": ndpa.m.imag},
        },
        "dimensional": {
            "gamma": p.gamma * scale,
            "omega_o": p.omega_o * scale,
            "epsilon": p.epsilon * scale,
            "alpha": ndpa.alpha * scale,
            "beta": obs.beta * scale,
            "c_o": obs.c_o,
            "r_c": obs.r_c * scale,
            "r_o": obs.r_o * scale,
        },
        "checks": {
            "linearization_trusted": p.linearization_trusted,
            "cross_check_defect": rep.cross_check_defect,
            "det_r_c": rep.det_r_c,
            "theta_residual": rep.theta_residual,
            "phase_residual": rep.phase_residual,
            "arg_identity_residual": rep.arg_identity_residual,
            "alpha_magnitude_defect": rep.alpha_magnitude_defect,
            "factorization_residual": rep.factorization_residual,
        },
        "warnings": list(rep.warnings),
    }


def _fields(obj) -> dict:
    """A dataclass's fields in declared order, values as they are (no deep copy)."""
    return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}


def verify_payload(cfg: RunConfig, result: DesignResult, report, scale: float) -> dict:
    return {
        "command": "verify",
        "toolkit_version": __version__,
        "units": _units_payload(cfg, scale),
        "design": {
            "beta": result.observer.beta,
            "c_o": result.observer.c_o,
            "omega_o": result.observer.omega_o,
        },
        "convergence": {
            **_fields(report),
            "checks": [_fields(check) for check in report.checks],
            "rate_note": RATE_NOTE,
        },
        "warnings": list(result.report.warnings),
    }


def write_trajectory_csv(path: Path, sys_aug, t_max: float) -> None:
    """CSV of z_p and z_o coefficient rows and the running z_o average.

    Both rows come from one `coefficient_trajectory` call, so the closed
    form's weights are evaluated once per table; the ASCII blocks of
    `fmt_table` go to the file as they are.
    """
    grid = np.linspace(0.0, t_max, SIMULATE_POINTS)
    traj = coefficient_trajectory(sys_aug, sys_aug.c, grid)
    header = ["t"] + [
        f"{row}_{n}" for row in ("zp", "zo", "zo_avg") for n in ("qp", "pp", "qo", "po")
    ]
    table = np.empty((SIMULATE_POINTS, 13))
    table[:, 0] = grid
    table[:, 1:5] = traj.coefficient_rows[0]
    table[:, 5:9] = traj.coefficient_rows[1]
    table[:, 9:] = traj.running_average[1]
    blocks = fmt_table(table)
    with path.open("wb") as out:
        out.write(",".join(header).encode("ascii") + b"\n")
        for block in blocks:
            out.write(block)


# --------------------------------------------------------------------------
# Golden values of the reference design (position quadrature,
# gamma = omega_o = 1e8 rad/s, |eps|/gamma = 0.1)
# --------------------------------------------------------------------------

REFERENCE_CONFIG = RunConfig(
    command="reproduce-example",
    cp=(1.0, 0.0),
    omega_o=1e8,
    gamma=1e8,
    eps_ratio=0.1,
    units="rad/s",
)

# (name, golden value, absolute tolerance); tolerance 0 means bit-exact.
# A name is <field>_<part> of the design payload: an angle and its unit, or a
# dimensional value and its re/im part or the digits of its index.
GOLDEN = (
    ("theta_deg", 168.58, 0.05),
    ("psi_rad", -math.pi / 2.0, 0.0),
    ("phi_rad", -math.pi / 2.0, 0.0),
    ("epsilon_re", 0.0, 1e-12 * 1e7),
    ("epsilon_im", -1e7, 1e-12 * 1e7),
    ("r_c_00", 2e7, 1e-12 * 2e7),
    ("r_c_01", 0.0, 1e-12 * 2e7),
    ("r_c_10", 0.0, 1e-12 * 2e7),
    ("r_c_11", 0.0, 1e-12 * 2e7),
    ("beta_0", 2e7, 1e-9 * 2e7),
    ("beta_1", 0.0, 1e-9 * 2e7),
    ("c_o_0", -10.0, 1e-9 * 10.0),
    ("c_o_1", 0.0, 1e-9 * 10.0),
)


def _golden_value(payload: dict, name: str) -> float:
    field, part = name.rsplit("_", 1)
    if field in payload["angles"]:
        return payload["angles"][field][part]
    value = payload["dimensional"][field]
    if isinstance(value, complex):
        return value.real if part == "re" else value.imag
    return float(value[tuple(int(digit) for digit in part)])


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    if cfg.command == "reproduce-example":
        cfg = dataclasses.replace(REFERENCE_CONFIG, out=cfg.out, format=cfg.format)
    scale = _scale_factor(cfg)
    result = design_ndpa(cfg.cp, cfg.omega_o / scale, cfg.gamma / scale, cfg.eps_ratio, cfg.delta)
    status = 0

    payload = design_payload(cfg, result, scale)
    if "json" in cfg.format:
        (cfg.out / "design.json").write_bytes(emit_json(payload).encode("ascii"))

    if cfg.command == "verify":
        report = verify_convergence(result.observer, horizons=cfg.horizons)
        report_json = emit_json(verify_payload(cfg, result, report, scale))
        (cfg.out / "report.json").write_bytes(report_json.encode("ascii"))
        print(
            f"verify: passed={report.passed} fitted_rate={report.fitted_rate:.4f} "
            f"frequency={report.oscillation_frequency_estimate:.6g}"
        )
    elif cfg.command == "simulate":
        if "csv" in cfg.format:
            sys_aug = augment(result.observer)
            ladder = cfg.horizons or default_horizons(result.observer.omega_o)
            write_trajectory_csv(cfg.out / "trajectory.csv", sys_aug, max(ladder))
    elif cfg.command == "reproduce-example":
        status = _check_golden(payload)
    for message in result.report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return status


def _check_golden(payload: dict) -> int:
    mismatches = []
    for name, golden, tol in GOLDEN:
        got = _golden_value(payload, name)
        ok = got == golden if tol == 0.0 else abs(got - golden) <= tol
        status = "ok" if ok else "MISMATCH"
        print(f"reproduce-example {status:8s} {name} = {got!r} (golden {golden!r}, tol {tol:g})")
        if not ok:
            mismatches.append(name)
    if mismatches:
        print(f"reproduce-example FAILED: {', '.join(mismatches)}", file=sys.stderr)
        return 3
    print("reproduce-example PASSED")
    return 0


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser for every command, shared by every caller.

    Built on the first call and returned on every later one, so `main` pays
    for its thirteen arguments once per process.  `parse_args` leaves it
    unchanged, and it looks up `sys.stdout` and `sys.stderr` only when it
    prints.  Callers must not mutate it.  `load_config` applies the
    per-command rules.
    """
    parser = argparse.ArgumentParser(
        prog="qobserver",
        description="Design and verify direct-coupled coherent quantum observers.",
        epilog="commands:\n"
        + "".join(f"  {name:19s} {text}\n" for name, text in COMMANDS.items())
        + f"\n{IO_ONLY_RULE}.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, help="what to run; see commands below")
    parser.add_argument("--config", help="JSON config file")
    for key, (_, help_text) in FIELDS.items():
        parser.add_argument(_flag(key), help=help_text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        # The one place numpy floating-point warnings are silenced: overflow
        # yields inf or nan, which the finite checks turn into a typed error.
        with np.errstate(all="ignore"):
            return run(cfg)
    except PipelineError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 1
    except QObserverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
