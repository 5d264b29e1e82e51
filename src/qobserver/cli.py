"""Command-line front end: design, simulate, verify, reproduce-example.

Inputs arrive as a JSON config file and/or flag overrides.  Frequencies may
be given in rad/s (they are rescaled by a reference frequency, by default
omega_o, so the internal problem is O(1)) or directly as nondimensional
numbers.  Horizon values are always nondimensional (units of one over the
reference frequency).  Reports are emitted as JSON with fixed field order
and a fixed 12-significant-digit float format so identical configs produce
byte-identical files; trajectories are emitted as plot-ready CSV.

`design` and `reproduce-example` run on Python floats and never load numpy:
this module and the modules it imports load without it.  `verify` and
`simulate` import numpy, and `dynamics`, when their request starts; the CSV
text of `simulate` comes from `csvformat`.  A well-formed command line is
read without argparse, which only `build_parser` imports.
"""

from __future__ import annotations

import dataclasses
import errno
import functools
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import __version__
from .core import check_horizons, fmt_float, to_number
from .errors import InputError, PipelineError, QObserverError
from .ndpa import Design, check_design_inputs, check_number, solve_design
from .observer import augment

if TYPE_CHECKING:
    import argparse

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

def emit_json(obj) -> str:
    """Serialize nested data: two-space indent, one item per line, `{}`/`[]` if empty.

    Keys are `str(k)`; keys and strings get the ASCII escapes of `json.dumps`.
    Floats are written by `fmt_float`, a numpy array or a `Grid` as its
    nested lists and a complex number as {"re": ..., "im": ...}.  A nan or inf
    at any depth raises `NonFiniteError`; any other type raises `TypeError`
    naming it, whichever comes first in the document.

    One `_flatten` pass splits the payload into its shape and the text of
    its leaves, a `Grid` or a float64 array taking one shape token and all
    its entries at once.  The shape's `%s` layout is built once and cached
    (`_layout`, at most LAYOUT_CACHE_SIZE shapes), and one `%` fill puts
    each leaf's text into its slot.
    """
    shape, texts = [], []
    _flatten(obj, shape, texts)
    return _layout(tuple(shape)) % tuple(texts)


class Grid(NamedTuple):
    """A vector or matrix of Python floats in a payload: its shape and its entries in
    row order.  `emit_json` writes it as the nested lists of an array of that shape."""

    shape: tuple[int, ...]
    values: Sequence[float]


# Shape tokens of `_flatten`, besides a key (a str), the shape of a Grid or a
# float64 array (a tuple) and a leaf's slot (None).
_DICT, _LIST, _END = 0, 1, 2
# Distinct payload shapes whose layouts are kept; 300 requests of a
# benchmark workload meet two to six.
LAYOUT_CACHE_SIZE = 64


def _flatten(node, shape: list, texts: list) -> None:
    """Append node's shape tokens to `shape` and its leaves' text to `texts`, in document order."""
    if isinstance(node, float):  # the common leaf first; np.float64 is a float
        shape.append(None)
        texts.append(fmt_float(node))
    elif isinstance(node, dict):
        shape.append(_DICT)
        for key, value in node.items():
            shape.append(str(key))
            _flatten(value, shape, texts)
        shape.append(_END)
    elif type(node) is Grid:
        shape.append(node.shape)
        texts.extend(map(fmt_float, node.values))
    elif isinstance(node, (list, tuple)):
        shape.append(_LIST)
        for value in node:
            _flatten(value, shape, texts)
        shape.append(_END)
    elif node is None or isinstance(node, bool):
        shape.append(None)
        texts.append("null" if node is None else "true" if node else "false")
    elif isinstance(node, str):
        shape.append(None)
        texts.append(_quote(node))
    elif isinstance(node, int):
        shape.append(None)
        texts.append(str(int(node)))
    elif isinstance(node, complex):  # np.complex128 is a complex
        shape.extend((_DICT, "re", None, "im", None, _END))
        texts.extend((fmt_float(node.real), fmt_float(node.imag)))
    else:
        _flatten_numpy(node, shape, texts)


def _flatten_numpy(node, shape: list, texts: list) -> None:
    """`_flatten` of a numpy array or scalar that no Python type covers; TypeError for
    any other value.  Such a value exists only once numpy is loaded."""
    np = sys.modules.get("numpy")
    if np is None:
        raise TypeError(f"cannot serialize {type(node)!r}")
    if isinstance(node, np.ndarray):
        # a subclass may ravel to more than one dimension, as np.matrix does
        if type(node) is np.ndarray and node.dtype == np.float64:
            shape.append(node.shape)
            texts.extend(map(fmt_float, node.ravel().tolist()))
        else:
            _flatten(node.tolist(), shape, texts)
    elif isinstance(node, (np.bool_, np.integer)):
        _flatten(node.item(), shape, texts)
    elif isinstance(node, np.floating):
        shape.append(None)
        texts.append(fmt_float(node))
    elif isinstance(node, np.complexfloating):
        shape.extend((_DICT, "re", None, "im", None, _END))
        texts.extend((fmt_float(node.real), fmt_float(node.imag)))
    else:
        raise TypeError(f"cannot serialize {type(node)!r}")


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


def load_config(args: argparse.Namespace | SimpleNamespace) -> RunConfig:
    """Merge config file and flag overrides into a validated RunConfig.

    Every value is converted first, in FIELDS order; then the library checks
    the physics inputs as given, before any rescaling; then `_validate_config`
    applies the rules only the command line has.  An error names where the
    value came from: the flag or the config key.  `reproduce-example` takes
    the reference design's values.  The physics fields hold the values as
    `check_design_inputs` returned them, delta pi/2 if it was not given, so
    that `run` designs from them without checking them again.
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
    if args.command == "reproduce-example":
        cfg = dataclasses.replace(REFERENCE_CONFIG, out=cfg.out, format=cfg.format)
    try:
        cfg.cp, cfg.omega_o, cfg.gamma, cfg.eps_ratio, cfg.delta = check_design_inputs(
            cfg.cp, cfg.omega_o, cfg.gamma, cfg.eps_ratio, cfg.delta
        )
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


def _stat_mode(path: Path, where: str) -> int:
    """`path`'s st_mode, 0 when nothing is there (or a file is where a directory should
    be); a link that leads nowhere reads as a link, which `run` cannot create a
    directory over.  ConfigError for a path the OS cannot use, such as a name too
    long or one with a NUL byte."""
    try:
        return os.stat(path).st_mode
    except OSError as exc:
        if exc.errno in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP):
            return stat.S_IFLNK if os.path.lexists(path) else 0
        reason = exc.strerror
    except ValueError as exc:
        reason = str(exc)
    raise ConfigError(f"{where}: cannot use {str(path)!r} ({reason})")


def _validate_config(cfg: RunConfig, sources: dict[str, str]) -> None:
    """Rules that span fields; `sources` names where each given value came from."""
    if cfg.command in ("design", "verify") and "json" not in cfg.format:
        raise ConfigError(f"{sources['format']}: {cfg.command} produces JSON; include 'json'")
    # `run` creates the output directory: its nearest existing path must be one
    where = sources.get("out", "--out")
    for nearest in itertools.chain([cfg.out], cfg.out.parents):
        mode = _stat_mode(nearest, where)
        if mode:
            break
    if not stat.S_ISDIR(mode):
        raise ConfigError(f"{where}: {str(nearest)!r} is not a directory")
    # the design gets omega_o / scale and gamma / scale: finite, nonzero, normal if given so
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


def design_payload(cfg: RunConfig, design: Design, scale: float) -> dict:
    """The `design.json` document of a design on Python floats; its vectors and
    matrices are Grids."""
    p, rep = design.params, design.report
    r_c = [x for row in design.r_c for x in row]
    r_o = [x for row in design.r_o for x in row]
    f = [z for row in design.f for z in row]
    m = [z for row in design.m for z in row]
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
            "alpha": design.alpha,
            "beta": Grid((2,), design.beta),
            "c_o": Grid((2,), design.c_o),
            "r_c": Grid((2, 2), r_c),
            "r_o": Grid((2, 2), r_o),
            "r": Grid((4, 4), [x for row in design.r for x in row]),
            "f": {"re": Grid((4, 4), [z.real for z in f]), "im": Grid((4, 4), [z.imag for z in f])},
            "m": {"re": Grid((4, 4), [z.real for z in m]), "im": Grid((4, 4), [z.imag for z in m])},
        },
        "dimensional": {
            "gamma": p.gamma * scale,
            "omega_o": p.omega_o * scale,
            "epsilon": p.epsilon * scale,
            "alpha": design.alpha * scale,
            "beta": Grid((2,), [b * scale for b in design.beta]),
            "c_o": Grid((2,), design.c_o),
            "r_c": Grid((2, 2), [x * scale for x in r_c]),
            "r_o": Grid((2, 2), [x * scale for x in r_o]),
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


def verify_payload(cfg: RunConfig, design: Design, report, scale: float) -> dict:
    """The `report.json` document of a design on Python floats and its
    ConvergenceReport; beta and C_o are Grids."""
    return {
        "command": "verify",
        "toolkit_version": __version__,
        "units": _units_payload(cfg, scale),
        "design": {
            "beta": Grid((2,), design.beta),
            "c_o": Grid((2,), design.c_o),
            "omega_o": design.params.omega_o,
        },
        "convergence": {
            **_fields(report),
            "checks": [_fields(check) for check in report.checks],
            "rate_note": RATE_NOTE,
        },
        "warnings": list(design.report.warnings),
    }


def write_trajectory_csv(path: Path, sys_aug, t_max: float) -> None:
    """CSV of z_p and z_o coefficient rows and the running z_o average.

    Both rows come from one `coefficient_trajectory` call, so the closed
    form's weights are evaluated once per table; the ASCII blocks of
    `fmt_table` go to the file as they are.
    """
    import numpy as np

    from .csvformat import fmt_table
    from .dynamics import coefficient_trajectory

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
    index = 0
    for digit, size in zip(part, value.shape):
        index = index * size + int(digit)
    return value.values[index]


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def run(cfg: RunConfig) -> int:
    """Execute one command of a config as `load_config` returns it; returns the
    process exit status."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    scale = _scale_factor(cfg)
    design = solve_design(cfg.cp, cfg.omega_o / scale, cfg.gamma / scale, cfg.eps_ratio, cfg.delta)
    status = 0

    payload = design_payload(cfg, design, scale)
    if "json" in cfg.format:
        (cfg.out / "design.json").write_bytes(emit_json(payload).encode("ascii"))

    if cfg.command in ("verify", "simulate"):
        _run_numerics(cfg, design, scale)
    elif cfg.command == "reproduce-example":
        status = _check_golden(payload)
    for message in design.report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return status


def _run_numerics(cfg: RunConfig, design: Design, scale: float) -> None:
    """The part of `verify` and `simulate` past the design, on the observer's numpy
    arrays: the only part of the design either reads."""
    import numpy as np

    from .dynamics import default_horizons, verify_convergence

    observer = design.observer()
    # The one place numpy floating-point warnings are silenced: overflow
    # yields inf or nan, which the finite checks turn into a typed error.
    with np.errstate(all="ignore"):
        if cfg.command == "verify":
            report = verify_convergence(observer, horizons=cfg.horizons)
            report_json = emit_json(verify_payload(cfg, design, report, scale))
            (cfg.out / "report.json").write_bytes(report_json.encode("ascii"))
            print(
                f"verify: passed={report.passed} fitted_rate={report.fitted_rate:.4f} "
                f"frequency={report.oscillation_frequency_estimate:.6g}"
            )
        elif "csv" in cfg.format:
            sys_aug = augment(observer)
            ladder = cfg.horizons or default_horizons(observer.omega_o)
            write_trajectory_csv(cfg.out / "trajectory.csv", sys_aug, max(ladder))


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

# Long option -> namespace key: the options `build_parser` adds, but --help.
OPTION_KEYS = {_flag(key): key for key in ("config", *FIELDS)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser for every command, shared by every caller.

    Built on the first call and returned on every later one.  `main` calls
    it only for a command line that `_plain_args` does not read, so a
    process that sees only well-formed ones never builds it or imports
    argparse.  `parse_args` leaves it unchanged, and it looks up
    `sys.stdout` and `sys.stderr` only when it prints.  Callers must not
    mutate it.  `load_config` applies the per-command rules.
    """
    import argparse

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


def _plain_args(argv) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, read in one pass, for
    an argv whose parse is fixed; None for any other.

    That argv is a list or tuple of str: a command, then only `--name=value`
    tokens and `--name value` pairs whose value does not start with "-",
    each `--name` one of OPTION_KEYS exactly, as argparse reads them.  A
    repeated option keeps its last value.  The `=` form's value may be
    anything but "--", which argparse reads as an empty list.  Every key is
    present, None where its option is not given.
    """
    if type(argv) not in (list, tuple) or not argv:
        return None
    command, *tokens = argv
    if type(command) is not str or command not in COMMANDS:
        return None
    values = dict.fromkeys(OPTION_KEYS.values())
    tokens = iter(tokens)
    for token in tokens:
        if type(token) is not str:
            return None
        flag, eq, value = token.partition("=")
        key = OPTION_KEYS.get(flag)
        if key is None:
            return None
        if not eq:
            value = next(tokens, None)
            if type(value) is not str or value.startswith("-"):
                return None
        elif value == "--":
            return None
        values[key] = value
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    """Run one command line (default `sys.argv[1:]`); returns the exit status.

    `_plain_args` reads a well-formed argv.  Any other, such as a help
    request, an abbreviated option, a separate value that starts with "-"
    or a parser error, goes to `build_parser().parse_args` as it is, which
    prints and exits as argparse does.  Both give the same namespace for
    every argv the plain pass reads, so the outcome does not depend on the
    path.
    """
    args = _plain_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except PipelineError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 1
    except QObserverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
