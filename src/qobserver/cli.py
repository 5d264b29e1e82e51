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
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .dynamics import coefficient_trajectory, default_horizons, verify_convergence
from .errors import NonFiniteError, PipelineError, QObserverError
from .ndpa import DesignResult, design_ndpa
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

    Works on a float and elementwise on an array, so `fmt_float` and
    `fmt_table` share the one rule.
    """
    return (magnitude >= 1e-4) & (magnitude < 1e6)


def fmt_float(x: float) -> str:
    """12 significant digits; lowercase scientific outside [1e-4, 1e6)."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteError(f"non-finite value {x!r} in report")
    if x == 0.0:
        return "0"
    return f"{x:.12g}" if _fixed_notation(abs(x)) else f"{x:.11e}"


# Cell text by kind: 0 zero, 1 fixed, 2 scientific; see `fmt_table`.
_CELL_FORMATS = ("0", "%.12g", "%.11e")
# Rows per `%` in `fmt_table`.  A `%` needs every cell of its block as a
# Python float at once; 256 rows of 13 cells keep that near 3300 floats,
# where one `%` over a 2001-row table would hold 26000.
TABLE_BLOCK_ROWS = 256


def fmt_table(table: np.ndarray) -> Iterator[str]:
    """Text of the rows of `fmt_float` cells, comma-separated, in blocks.

    Every cell is checked to be finite before this returns, so a caller can
    open its file after the call.  Each block of TABLE_BLOCK_ROWS rows is one
    string with one row per line.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] > 39:
        raise ValueError(f"expected a table of at most 39 columns, got shape {table.shape}")
    finite = np.isfinite(table)
    if not finite.all():
        raise NonFiniteError(f"non-finite value {float(table[~finite][0])!r} in report")
    starts = range(0, table.shape[0], TABLE_BLOCK_ROWS)
    return (_fmt_block(table[k:k + TABLE_BLOCK_ROWS]) for k in starts)


def _fmt_block(block: np.ndarray) -> str:
    """Finite rows formatted with one `%`.

    Each cell is classified with numpy as zero, fixed or scientific, the
    row patterns of kinds are read as base-3 codes (an int64 holds 39
    columns), and one row format string is built per distinct code.
    """
    kinds = np.where(block == 0.0, 0, np.where(_fixed_notation(np.abs(block)), 1, 2))
    codes = kinds @ 3 ** np.arange(block.shape[1])
    _, first, which = np.unique(codes, return_index=True, return_inverse=True)
    row_formats = [",".join(_CELL_FORMATS[c] for c in kinds[k]) for k in first]
    return "\n".join([row_formats[i] for i in which]) % tuple(block[kinds != 0].tolist())


def emit_json(obj) -> str:
    """Serialize nested dict/list/scalar data with stable formatting.

    A numpy array is rendered as its nested lists, and a complex number as
    {"re": ..., "im": ...}.
    """

    def render(node, indent: int) -> str:
        pad = "  " * indent
        inner = "  " * (indent + 1)
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = [
                f'{inner}{json.dumps(str(k))}: {render(v, indent + 1)}'
                for k, v in node.items()
            ]
            return "{\n" + ",\n".join(items) + f"\n{pad}}}"
        if isinstance(node, (list, tuple)):
            if len(node) == 0:
                return "[]"
            items = [f"{inner}{render(v, indent + 1)}" for v in node]
            return "[\n" + ",\n".join(items) + f"\n{pad}]"
        if isinstance(node, bool) or isinstance(node, np.bool_):
            return "true" if node else "false"
        if node is None:
            return "null"
        if isinstance(node, str):
            return json.dumps(node)
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            return fmt_float(float(node))
        if isinstance(node, (complex, np.complexfloating)):
            return render({"re": node.real, "im": node.imag}, indent)
        if isinstance(node, np.ndarray):
            return render(node.tolist(), indent)
        raise TypeError(f"cannot serialize {type(node)!r}")

    return render(obj, 0) + "\n"


def _angle(rad: float) -> dict:
    return {"rad": float(rad), "deg": float(math.degrees(rad))}


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

def _split(value, where: str, convert, expected: str) -> tuple:
    """Items of '1,2' / '1 2' text or of a JSON list, each run through convert."""
    parts = value.replace(",", " ").split() if isinstance(value, str) else value
    try:
        return tuple(convert(p) for p in parts)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected {expected}, got {value!r}") from None


def _number(ok, rule: str):
    """Parser of one finite number x that must satisfy ok(x), else `rule`."""

    def parse(value, where: str) -> float:
        try:
            x = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: expected a number, got {value!r}") from None
        if not math.isfinite(x):
            raise ConfigError(f"{where}: value must be finite, got {value!r}")
        if not ok(x):
            raise ConfigError(f"{where}: {rule}, got {x}")
        return x

    return parse


_parse_positive = _number(lambda x: x > 0.0, "must be positive")
_parse_delta = _number(lambda x: 0.0 < x < math.pi, "must lie in (0, pi)")


def _parse_selector(value, where: str) -> tuple[float, float]:
    pair = _split(value, where, float, "two numbers")
    if len(pair) != 2:
        raise ConfigError(f"{where}: expected two numbers, got {value!r}")
    if not all(math.isfinite(x) for x in pair):
        raise ConfigError(f"{where}: entries must be finite, got {value!r}")
    if pair == (0.0, 0.0):
        raise ConfigError(f"{where}: plant output selector is zero")
    return pair


def _parse_horizons(value, where: str) -> tuple[float, ...]:
    ladder = _split(value, where, float, "a list of numbers")
    if not ladder:
        raise ConfigError(f"{where}: empty list")
    if not all(math.isfinite(t) and t > 0.0 for t in ladder):
        raise ConfigError(f"{where}: all horizons must be positive and finite")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"{where}: horizons must be strictly increasing")
    return ladder


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


# Config key -> (parser and validator, help text), in the order values are
# read and flags listed.  The flag is "--" + key with "_" turned into "-";
# IO_KEYS are the flags every command takes, the others the physics of a
# design, which reproduce-example fixes.
FIELDS = {
    "cp": (_parse_selector, "plant output selector, e.g. '1,0'"),
    "omega_o": (_parse_positive, "observer detuning"),
    "gamma": (_parse_positive, "mirror coupling rate"),
    "eps_ratio": (_parse_positive, "|epsilon|/gamma"),
    "delta": (_parse_delta, "phase family offset in (0, pi)"),
    "units": (_parse_units, "units of omega_o and gamma: nondimensional or rad/s"),
    "omega_ref": (_parse_positive, "reference frequency of rad/s inputs (default omega_o)"),
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
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for key in data:
        if key not in FIELDS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return data


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file and flag overrides into a validated RunConfig.

    Each value is parsed and checked once, by its field's parser, and an
    error names where the value came from: the flag or the config key.
    """
    if args.command == "reproduce-example":
        for key in ("config", *FIELDS):
            if key not in IO_KEYS and getattr(args, key) is not None:
                raise ConfigError(f"{_flag(key)}: {IO_ONLY_RULE}")
    cfg = RunConfig(command=args.command)
    if args.command == "simulate":
        cfg.format = ("json", "csv")
    file_data = _read_config_file(args.config)
    sources = {}
    for key, (parse, _) in FIELDS.items():
        value, where = getattr(args, key), _flag(key)
        if value is None:
            value, where = file_data.get(key), f"config key {key!r}"
        if value is not None:
            setattr(cfg, key, parse(value, where))
            sources[key] = where
    _validate_config(cfg, sources)
    return cfg


def _validate_config(cfg: RunConfig, sources: dict[str, str]) -> None:
    """Rules that span fields; `sources` names where each given value came from."""
    if cfg.command in ("design", "verify") and "json" not in cfg.format:
        raise ConfigError(f"{sources['format']}: {cfg.command} produces JSON; include 'json'")
    if cfg.command == "verify" and cfg.horizons is not None and len(cfg.horizons) < 2:
        raise ConfigError(f"{sources['horizons']}: verify needs at least two horizons")
    # design_ndpa gets omega_o and gamma divided by the reference frequency
    scale, scale_key = _scale_factor(cfg), "omega_ref" if cfg.omega_ref is not None else "omega_o"
    for key in ("omega_o", "gamma"):
        ratio = getattr(cfg, key) / scale
        if not 0.0 < ratio < math.inf:
            names = " / ".join(sources.get(k, f"default {k}") for k in (key, scale_key))
            raise ConfigError(
                f"{names}: {key} / {scale_key} must be finite and nonzero, got {ratio}"
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
            "beta": ndpa.beta,
            "c_o": ndpa.c_o,
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
            "beta": ndpa.beta * scale,
            "c_o": ndpa.c_o,
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


def verify_payload(cfg: RunConfig, result: DesignResult, report, scale: float) -> dict:
    return {
        "command": "verify",
        "toolkit_version": __version__,
        "units": _units_payload(cfg, scale),
        "design": {
            "beta": result.ndpa.beta,
            "c_o": result.ndpa.c_o,
            "omega_o": result.observer.omega_o,
        },
        "convergence": {
            "horizons": list(report.horizons),
            "errors": list(report.errors),
            "ratios": list(report.ratios),
            "fitted_rate": report.fitted_rate,
            "oscillation_frequency_estimate": report.oscillation_frequency_estimate,
            "expected_frequency": report.expected_frequency,
            "output_row_defect": report.output_row_defect,
            "averaged_limit_defect": report.averaged_limit_defect,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "value": c.value,
                    "threshold": c.threshold,
                    "detail": c.detail,
                }
                for c in report.checks
            ],
            "passed": report.passed,
            "failures": list(report.failures),
            "rate_note": RATE_NOTE,
        },
        "warnings": list(result.report.warnings),
    }


def write_trajectory_csv(path: Path, sys_aug, t_max: float) -> None:
    """CSV of z_p and z_o coefficient rows and the running z_o average."""
    grid = np.linspace(0.0, t_max, SIMULATE_POINTS)
    traj_p = coefficient_trajectory(sys_aug, sys_aug.c[0], grid)
    traj_o = coefficient_trajectory(sys_aug, sys_aug.c[1], grid)
    header = ["t"] + [
        f"{row}_{n}" for row in ("zp", "zo", "zo_avg") for n in ("qp", "pp", "qo", "po")
    ]
    table = np.column_stack(
        [grid, traj_p.coefficient_rows, traj_o.coefficient_rows, traj_o.running_average]
    )
    blocks = fmt_table(table)
    with path.open("w", newline="\n") as out:
        out.write(",".join(header) + "\n")
        for block in blocks:
            out.write(block + "\n")


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


def reference_values(result: DesignResult, scale: float) -> dict[str, float]:
    p = result.ndpa.params
    eps_si = p.epsilon * scale
    r_c_si = result.observer.r_c * scale
    beta_si = result.ndpa.beta * scale
    return {
        "theta_deg": math.degrees(p.theta),
        "psi_rad": math.atan2(p.epsilon.imag, p.epsilon.real),
        "phi_rad": p.phi,
        "epsilon_re": float(eps_si.real),
        "epsilon_im": float(eps_si.imag),
        "r_c_00": float(r_c_si[0, 0]),
        "r_c_01": float(r_c_si[0, 1]),
        "r_c_10": float(r_c_si[1, 0]),
        "r_c_11": float(r_c_si[1, 1]),
        "beta_0": float(beta_si[0]),
        "beta_1": float(beta_si[1]),
        "c_o_0": float(result.ndpa.c_o[0]),
        "c_o_1": float(result.ndpa.c_o[1]),
    }


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    if cfg.command == "reproduce-example":
        cfg = dataclasses.replace(REFERENCE_CONFIG, out=cfg.out, format=cfg.format)
    scale = _scale_factor(cfg)
    result = design_ndpa(
        np.asarray(cfg.cp), cfg.omega_o / scale, cfg.gamma / scale, cfg.eps_ratio, cfg.delta
    )
    status = 0

    if "json" in cfg.format:
        payload = design_payload(cfg, result, scale)
        (cfg.out / "design.json").write_text(emit_json(payload))

    if cfg.command == "verify":
        report = verify_convergence(result.observer, horizons=cfg.horizons)
        payload = verify_payload(cfg, result, report, scale)
        (cfg.out / "report.json").write_text(emit_json(payload))
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
        status = _check_golden(result, scale)
    for message in result.report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return status


def _check_golden(result: DesignResult, scale: float) -> int:
    values = reference_values(result, scale)
    mismatches = []
    for name, golden, tol in GOLDEN:
        got = values[name]
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

def build_parser() -> argparse.ArgumentParser:
    """One parser for every command; `load_config` applies the per-command rules."""
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
