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

import numpy as np

from . import __version__
from .dynamics import (
    DEFAULT_HORIZON_LADDER,
    coefficient_trajectory,
    running_average,
    verify_convergence,
)
from .errors import PipelineError, QObserverError
from .ndpa import DesignResult, design_ndpa
from .observer import PlantSpec, augment

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
    plant_c_p: tuple[float, float] = (1.0, 0.0)
    omega_o: float = 1.0
    gamma: float = 1.0
    eps_ratio: float = 0.1
    units: str = "nondimensional"
    omega_ref: float | None = None
    delta: float | None = None
    horizons: tuple[float, ...] | None = None
    output_dir: Path = Path("qobserver-out")
    formats: tuple[str, ...] = ("json",)


# --------------------------------------------------------------------------
# Deterministic JSON emission
# --------------------------------------------------------------------------

def fmt_float(x: float) -> str:
    """12 significant digits; lowercase scientific outside [1e-4, 1e6)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in report")
    if x == 0.0:
        return "0"
    ax = abs(x)
    if ax < 1e-4 or ax >= 1e6:
        return f"{x:.11e}"
    return f"{x:.12g}"


def emit_json(obj) -> str:
    """Serialize nested dict/list/scalar data with stable formatting."""

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
        raise TypeError(f"cannot serialize {type(node)!r}")

    return render(obj, 0) + "\n"


def _mat(m: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(m, dtype=float)]


def _vec(v: np.ndarray) -> list:
    return [float(x) for x in np.asarray(v, dtype=float).reshape(-1)]


def _cplx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _cmat(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": _mat(m.real), "im": _mat(m.imag)}


def _angle(rad: float) -> dict:
    return {"rad": float(rad), "deg": float(math.degrees(rad))}


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

_CONFIG_KEYS = {
    "cp", "omega_o", "gamma", "eps_ratio", "units", "omega_ref",
    "delta", "horizons", "out", "format",
}


def _parse_pair(text, where: str) -> tuple[float, float]:
    if isinstance(text, str):
        parts = [p for p in text.replace(",", " ").split() if p]
    else:
        parts = list(text)
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected two numbers, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected two numbers, got {text!r}") from None


def _parse_floats(text, where: str) -> tuple[float, ...]:
    if isinstance(text, str):
        parts = [p for p in text.replace(",", " ").split() if p]
    else:
        parts = list(text)
    try:
        values = tuple(float(p) for p in parts)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a list of numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{where}: empty list")
    return values


def _parse_formats(text, where: str) -> tuple[str, ...]:
    if isinstance(text, str):
        parts = [p.strip() for p in text.split(",") if p.strip()]
    else:
        parts = [str(p) for p in text]
    for p in parts:
        if p not in FORMAT_CHOICES:
            raise ConfigError(f"{where}: unknown format {p!r} (choose from {FORMAT_CHOICES})")
    if not parts:
        raise ConfigError(f"{where}: at least one format required")
    # stable order, no duplicates
    return tuple(f for f in FORMAT_CHOICES if f in parts)


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file and flag overrides into a validated RunConfig."""
    cfg = RunConfig(command=args.command)
    if args.command == "simulate":
        cfg.formats = ("json", "csv")

    file_data = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_data = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{config_path}: invalid JSON ({exc})") from None
        if not isinstance(file_data, dict):
            raise ConfigError(f"{config_path}: top level must be a JSON object")
        for key in file_data:
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{config_path}: unknown config key {key!r}")

    def pick(flag_name: str, file_key: str):
        flag_value = getattr(args, flag_name, None)
        if flag_value is not None:
            return flag_value, f"--{flag_name.replace('_', '-')}"
        if file_key in file_data:
            return file_data[file_key], f"config key {file_key!r}"
        return None, None

    value, where = pick("cp", "cp")
    if value is not None:
        cfg.plant_c_p = _parse_pair(value, where)
    value, where = pick("omega_o", "omega_o")
    if value is not None:
        cfg.omega_o = _as_float(value, where)
    value, where = pick("gamma", "gamma")
    if value is not None:
        cfg.gamma = _as_float(value, where)
    value, where = pick("eps_ratio", "eps_ratio")
    if value is not None:
        cfg.eps_ratio = _as_float(value, where)
    value, where = pick("units", "units")
    if value is not None:
        if value not in UNIT_CHOICES:
            raise ConfigError(f"{where}: units must be one of {UNIT_CHOICES}, got {value!r}")
        cfg.units = value
    value, where = pick("omega_ref", "omega_ref")
    if value is not None:
        cfg.omega_ref = _as_float(value, where)
    value, where = pick("delta", "delta")
    if value is not None:
        cfg.delta = _as_float(value, where)
    value, where = pick("horizons", "horizons")
    if value is not None:
        cfg.horizons = _parse_floats(value, where)
    value, where = pick("out", "out")
    if value is not None:
        cfg.output_dir = Path(value)
    value, where = pick("format", "format")
    if value is not None:
        cfg.formats = _parse_formats(value, where)

    _validate_config(cfg)
    return cfg


def _as_float(value, where: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{where}: value must be finite, got {value!r}")
    return x


def _validate_config(cfg: RunConfig) -> None:
    if cfg.command == "reproduce-example":
        return
    if cfg.plant_c_p == (0.0, 0.0):
        raise ConfigError("--cp: plant output selector is zero")
    if cfg.omega_o <= 0.0:
        raise ConfigError(f"--omega-o: must be positive, got {cfg.omega_o}")
    if cfg.gamma <= 0.0:
        raise ConfigError(f"--gamma: must be positive, got {cfg.gamma}")
    if cfg.eps_ratio <= 0.0:
        raise ConfigError(f"--eps-ratio: must be positive, got {cfg.eps_ratio}")
    if cfg.delta is not None and not 0.0 < cfg.delta < math.pi:
        raise ConfigError(f"--delta: must lie in (0, pi), got {cfg.delta}")
    if cfg.omega_ref is not None and cfg.omega_ref <= 0.0:
        raise ConfigError(f"--omega-ref: must be positive, got {cfg.omega_ref}")
    if cfg.horizons is not None:
        if not all(math.isfinite(t) and t > 0.0 for t in cfg.horizons):
            raise ConfigError("--horizons: all horizons must be positive and finite")
        if any(b <= a for a, b in zip(cfg.horizons, cfg.horizons[1:])):
            raise ConfigError("--horizons: horizons must be strictly increasing")
    if cfg.command in ("design", "verify") and "json" not in cfg.formats:
        raise ConfigError(f"--format: {cfg.command} produces JSON; include 'json'")


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
            "c_p": list(cfg.plant_c_p),
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
            "epsilon": _cplx(p.epsilon),
            "alpha": _cplx(ndpa.alpha),
            "beta": _vec(ndpa.beta),
            "c_o": _vec(ndpa.c_o),
            "r_c": _mat(obs.r_c),
            "r_o": _mat(obs.r_o),
            "r": _mat(ndpa.r),
            "f": _cmat(ndpa.f),
            "m": _cmat(ndpa.m),
        },
        "dimensional": {
            "gamma": p.gamma * scale,
            "omega_o": p.omega_o * scale,
            "epsilon": _cplx(p.epsilon * scale),
            "alpha": _cplx(ndpa.alpha * scale),
            "beta": _vec(ndpa.beta * scale),
            "c_o": _vec(ndpa.c_o),
            "r_c": _mat(obs.r_c * scale),
            "r_o": _mat(obs.r_o * scale),
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
            "beta": _vec(result.ndpa.beta),
            "c_o": _vec(result.ndpa.c_o),
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
    avg_o = running_average(traj_o)
    names = ("qp", "pp", "qo", "po")
    header = (
        ["t"]
        + [f"zp_{n}" for n in names]
        + [f"zo_{n}" for n in names]
        + [f"zo_avg_{n}" for n in names]
    )
    lines = [",".join(header)]
    for k in range(grid.size):
        cells = (
            [grid[k]]
            + list(traj_p.coefficient_rows[k])
            + list(traj_o.coefficient_rows[k])
            + list(avg_o[k])
        )
        lines.append(",".join(fmt_float(c) for c in cells))
    path.write_text("\n".join(lines) + "\n", newline="\n")


# --------------------------------------------------------------------------
# Golden values of the reference design (position quadrature,
# gamma = omega_o = 1e8 rad/s, |eps|/gamma = 0.1)
# --------------------------------------------------------------------------

REFERENCE_CONFIG = RunConfig(
    command="reproduce-example",
    plant_c_p=(1.0, 0.0),
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

def _run_design(cfg: RunConfig) -> DesignResult:
    scale = _scale_factor(cfg)
    return design_ndpa(
        np.asarray(cfg.plant_c_p),
        cfg.omega_o / scale,
        cfg.gamma / scale,
        cfg.eps_ratio,
        cfg.delta,
    )


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if cfg.command == "reproduce-example":
        cfg = dataclasses.replace(
            REFERENCE_CONFIG, output_dir=cfg.output_dir, formats=cfg.formats
        )
    scale = _scale_factor(cfg)
    result = _run_design(cfg)
    status = 0

    if "json" in cfg.formats:
        payload = design_payload(cfg, result, scale)
        (cfg.output_dir / "design.json").write_text(emit_json(payload))

    if cfg.command == "verify":
        report = verify_convergence(result.observer, horizons=cfg.horizons)
        payload = verify_payload(cfg, result, report, scale)
        (cfg.output_dir / "report.json").write_text(emit_json(payload))
        print(
            f"verify: passed={report.passed} fitted_rate={report.fitted_rate:.4f} "
            f"frequency={report.oscillation_frequency_estimate:.6g}"
        )
    elif cfg.command == "simulate":
        if "csv" in cfg.formats:
            sys_aug = augment(PlantSpec(np.asarray(cfg.plant_c_p)), result.observer)
            ladder = cfg.horizons or tuple(
                t / result.observer.omega_o for t in DEFAULT_HORIZON_LADDER
            )
            write_trajectory_csv(cfg.output_dir / "trajectory.csv", sys_aug, max(ladder))
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
    parser = argparse.ArgumentParser(
        prog="qobserver",
        description="Design and verify direct-coupled coherent quantum observers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    physics = argparse.ArgumentParser(add_help=False)
    physics.add_argument("--config", help="JSON config file")
    physics.add_argument("--cp", help="plant output selector, e.g. '1,0'")
    physics.add_argument("--omega-o", dest="omega_o", help="observer detuning")
    physics.add_argument("--gamma", help="mirror coupling rate")
    physics.add_argument("--eps-ratio", dest="eps_ratio", help="|epsilon|/gamma")
    physics.add_argument("--delta", help="phase family offset in (0, pi)")
    physics.add_argument(
        "--units", choices=UNIT_CHOICES, default=None,
        help="units of omega_o and gamma",
    )
    physics.add_argument(
        "--omega-ref", dest="omega_ref",
        help="reference frequency for nondimensionalization (default omega_o)",
    )
    physics.add_argument("--horizons", help="nondimensional horizon ladder, e.g. '5,10,20'")

    io_flags = argparse.ArgumentParser(add_help=False)
    io_flags.add_argument("--out", help="output directory (default qobserver-out)")
    io_flags.add_argument("--format", help="comma-separated subset of json,csv")

    sub.add_parser(
        "design", parents=[physics, io_flags],
        help="solve the design equations and emit design.json",
    )
    sub.add_parser(
        "simulate", parents=[physics, io_flags],
        help="design plus plot-ready trajectory.csv",
    )
    sub.add_parser(
        "verify", parents=[physics, io_flags],
        help="design plus convergence verification report.json",
    )
    sub.add_parser(
        "reproduce-example", parents=[io_flags],
        help="run the reference design and diff against golden values",
    )
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
        return run(cfg)
    except PipelineError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 1
    except QObserverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
