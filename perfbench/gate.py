"""Correctness gate applied to every benchmark request.

A request fails when it raises out of `qobserver.cli.main`, prints a
traceback, returns an exit code outside {0, 1, 2, 3}, or leaves a JSON file
that does not parse to finite numbers.  A request that exits 0 must also
agree with routes other than the code under test:

* `design.json` satisfies the two design equations, and its drift F, its
  Hamiltonian M and its energy matrix R match the loop closure computed by
  `oracles.close_loop_by_inversion` (an explicit numerical inversion);
* `report.json` errors match the rotation integral
  `oracles.averaged_error_row`;
* `trajectory.csv` rows match `scipy.linalg.expm` at sampled times, and the
  running average matches the exact integral within the trapezoid bound.
"""

from __future__ import annotations

import cmath
import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

from workloads import DEFAULT_LADDER, internal_omega

EXIT_CODES = (0, 1, 2, 3)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
THETA = np.kron(np.eye(2), J2)
# (a, b, a*, b*) = PHI @ (q_p, p_p, q_o, p_o) and the doubled-up signature.
PHI = np.array(
    [[1, 1j, 0, 0], [0, 0, 1, 1j], [1, -1j, 0, 0], [0, 0, 1, -1j]], dtype=complex
)
J_PM = np.diag([1.0, 1.0, -1.0, -1.0])
CSV_COLUMNS = ["t"] + [
    f"{row}_{q}" for row in ("zp", "zo", "zo_avg") for q in ("qp", "pp", "qo", "po")
]


class GateError(Exception):
    """An output disagrees with its reference."""


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str | None = None


def load_oracles(root: Path):
    """Import `tests/oracles.py` of the checkout under test."""
    spec = importlib.util.spec_from_file_location(
        "qobserver_oracles", root / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _reject_constant(text: str):
    raise ValueError(f"non-finite constant {text}")


def _close(name: str, got, want, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        raise GateError(f"{name}: shape {got.shape}, expected {want.shape}")
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    defect = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not defect <= atol + rtol * max(1.0, scale):
        raise GateError(f"{name}: defect {defect:.3e} (reference scale {scale:.3e})")


def _cmat(node) -> np.ndarray:
    return np.asarray(node["re"]) + 1j * np.asarray(node["im"])


def _wrap(x: float) -> float:
    return math.remainder(x, 2.0 * math.pi)


class Gate:
    def __init__(self, oracles):
        self.oracles = oracles

    def check(self, request, code, stdout: str, stderr: str, error, out_dir: Path) -> Verdict:
        if error is not None:
            return Verdict(False, f"raised {type(error).__name__}: {error}")
        if "Traceback (most recent call last)" in stderr:
            return Verdict(False, "traceback on stderr")
        if code not in EXIT_CODES:
            return Verdict(False, f"exit code {code!r}")
        docs = {}
        for path in sorted(out_dir.glob("*.json")):
            try:
                docs[path.name] = json.loads(
                    path.read_text(),
                    parse_float=_finite_float,
                    parse_constant=_reject_constant,
                )
            except ValueError as exc:
                return Verdict(False, f"{path.name}: {exc}")
        if code != 0:
            return Verdict(True)
        command = request.argv[0]
        try:
            if "design.json" not in docs:
                raise GateError("design.json missing")
            design = docs["design.json"]
            self.check_design(design, request.params)
            if command == "verify":
                if "report.json" not in docs:
                    raise GateError("report.json missing")
                self.check_verify(docs["report.json"], design, request.params, stdout)
            elif command == "simulate":
                csv = out_dir / "trajectory.csv"
                if not csv.is_file():
                    raise GateError("trajectory.csv missing")
                self.check_csv(csv.read_text(), design, request.params)
        except (GateError, KeyError, TypeError, ValueError) as exc:
            return Verdict(False, f"{command} output: {type(exc).__name__}: {exc}")
        return Verdict(True)

    def check_design(self, doc: dict, params: dict) -> None:
        c_p = np.asarray(params["cp"], dtype=float)
        scale = params["omega_o"] if params["units"] == "rad/s" else 1.0
        omega, gamma, ratio = params["omega_o"] / scale, params["gamma"] / scale, params["eps_ratio"]
        inputs, nd = doc["inputs"], doc["nondimensional"]
        _close("inputs.c_p", inputs["c_p"], c_p, 1e-11)
        for key in ("omega_o", "gamma", "eps_ratio"):
            _close(f"inputs.{key}", inputs[key], params[key], 1e-11)
        _close("nondimensional rates", [nd["omega_o"], nd["gamma"]], [omega, gamma], 1e-11)

        theta = doc["angles"]["theta"]["rad"]
        psi = doc["angles"]["psi"]["rad"]
        phi = doc["angles"]["phi"]["rad"]
        if not 0.0 < theta < math.pi:
            raise GateError(f"theta {theta} outside (0, pi)")
        if abs(math.sin(theta) - ratio * (1.0 - math.cos(theta))) > 1e-9 * max(1.0, ratio):
            raise GateError("magnitude equation sin(theta)/(1 - cos(theta)) = |eps|/gamma violated")
        arg_c = math.atan2(c_p[1], c_p[0])
        orientation = cmath.phase(cmath.exp(1j * psi) - cmath.exp(-1j * phi))
        if abs(_wrap(orientation - (arg_c - math.pi / 2.0))) > 1e-9:
            raise GateError("orientation equation arg(e^{i psi} - e^{-i phi}) = arg(c) - pi/2 violated")
        epsilon = complex(nd["epsilon"]["re"], nd["epsilon"]["im"])
        _close("|epsilon|", abs(epsilon), gamma * ratio, 1e-10)
        if abs(_wrap(cmath.phase(epsilon) - psi)) > 1e-9:
            raise GateError("arg(epsilon) differs from psi")

        f = self.oracles.close_loop_by_inversion(gamma, epsilon, omega, theta, phi)
        m = 0.5j * (J_PM @ f - f.conj().T @ J_PM)
        r_physical = (PHI.conj().T @ m @ PHI).real
        beta, c_o = np.asarray(nd["beta"]), np.asarray(nd["c_o"])
        r_abstract = abstract_r(c_p, beta, omega)
        _close("f vs close_loop_by_inversion", _cmat(nd["f"]), f, 1e-8)
        _close("m", _cmat(nd["m"]), m, 1e-8)
        _close("r vs physical route", nd["r"], r_physical, 1e-8)
        _close("r vs abstract design", nd["r"], r_abstract, 1e-8)
        _close("r_c", nd["r_c"], np.outer(c_p, beta), 1e-9)
        _close("r_o", nd["r_o"], 2.0 * omega * np.eye(2), 1e-11)
        _close("C_o beta^T + 2 omega_o", float(c_o @ beta), -2.0 * omega, 1e-9)

    def check_verify(self, report: dict, design: dict, params: dict, stdout: str) -> None:
        nd, rd, conv = design["nondimensional"], report["design"], report["convergence"]
        _close("report design", rd["beta"] + rd["c_o"] + [rd["omega_o"]],
               nd["beta"] + nd["c_o"] + [nd["omega_o"]], 1e-11)
        omega = nd["omega_o"]
        want = params["horizons"] or tuple(t / internal_omega(params) for t in DEFAULT_LADDER)
        _close("horizons", conv["horizons"], want, 1e-11)
        observer = SimpleNamespace(
            c_p=np.asarray(params["cp"], dtype=float),
            r_o=2.0 * omega * np.eye(2),
            beta=np.asarray(nd["beta"]),
            c_o=np.asarray(nd["c_o"]),
        )
        oracle = [
            float(np.max(np.abs(self.oracles.averaged_error_row(observer, t))))
            for t in conv["horizons"]
        ]
        # Adaptive Simpson sums a row scan whose roundoff grows with its step
        # count and with |exp(As)|, both proportional to T: at T ~ 350-600
        # its errors sat 1e-9 absolute (1e-6 relative) from the rotation
        # integral, and an error near zero keeps only the absolute part.
        scale = max(1.0, float(np.max(np.abs(observer.c_o))))
        for t, got, want in zip(conv["horizons"], conv["errors"], oracle, strict=True):
            if not abs(got - want) <= 1e-5 * want + 1e-13 * t * t * scale:
                raise GateError(f"time-average error at T={t}: {got!r}, rotation integral {want!r}")
        _close("expected frequency", conv["expected_frequency"], 4.0 * omega, 1e-11)
        failed = [c["name"] for c in conv["checks"] if not c["passed"]]
        if conv["passed"] != (not failed) or conv["failures"] != failed:
            raise GateError("passed/failures disagree with the individual checks")
        if f"verify: passed={conv['passed']}" not in stdout:
            raise GateError("summary line missing or disagrees with report.json")

    def check_csv(self, text: str, design: dict, params: dict) -> None:
        lines = text.splitlines()
        if not lines or lines[0].split(",") != CSV_COLUMNS:
            raise GateError("unexpected CSV header")
        rows = lines[1:]
        n = len(rows)
        if n < 2:
            raise GateError(f"{n} CSV rows")
        nd = design["nondimensional"]
        c_p = np.asarray(params["cp"], dtype=float)
        beta, c_o, omega = np.asarray(nd["beta"]), np.asarray(nd["c_o"]), nd["omega_o"]
        a = 2.0 * THETA @ abstract_r(c_p, beta, omega)
        zp_row = np.concatenate([c_p, np.zeros(2)])
        zo_row = np.concatenate([np.zeros(2), c_o])
        horizons = params["horizons"] or tuple(t / internal_omega(params) for t in DEFAULT_LADDER)
        t_max = max(horizons)
        h = t_max / (n - 1)
        # |z_o''| <= |C_o| 4 omega (2 |beta| |C_p| + 4 omega) because the
        # observer block exp(4 omega J s) is a rotation; trapezoid rule bound.
        curvature = np.linalg.norm(c_o) * 4.0 * omega * (
            2.0 * np.linalg.norm(beta) * np.linalg.norm(c_p) + 4.0 * omega
        )
        trapezoid = h * h * curvature / 12.0
        block = np.zeros((8, 8))
        block[:4, :4] = a
        block[:4, 4:] = np.eye(4)
        for k in sorted({0, 1, n // 7, n // 3, n // 2, (2 * n) // 3, n - 2, n - 1}):
            cells = [_finite_float(c) for c in rows[k].split(",")]
            if len(cells) != len(CSV_COLUMNS):
                raise GateError(f"row {k}: {len(cells)} cells")
            t = cells[0]
            _close(f"row {k} time", t, k * h, 1e-11, 1e-12 * t_max)
            e = expm(a * t)
            # exp(At) grows linearly in t (the plant's conjugate quadrature
            # drifts), and the roundoff of a scan grows with it.
            growth = 1e-8 * max(1.0, float(np.max(np.abs(e))))
            tol_p = growth * max(1.0, float(np.max(np.abs(zp_row))))
            tol = growth * max(1.0, float(np.max(np.abs(zo_row))))
            _close(f"row {k} z_p vs expm", cells[1:5], zp_row @ e, 0.0, tol_p)
            _close(f"row {k} z_o vs expm", cells[5:9], zo_row @ e, 0.0, tol)
            avg = zo_row if t == 0.0 else zo_row @ expm(block * t)[:4, 4:] / t
            _close(f"row {k} running average vs exact integral", cells[9:13], avg,
                   0.0, trapezoid + tol)


def abstract_r(c_p, beta, omega: float) -> np.ndarray:
    """Energy matrix [[0, C_p^T beta], [beta^T C_p, 2 omega I]] of a design."""
    r_c = np.outer(c_p, beta)
    return np.block([[np.zeros((2, 2)), r_c], [r_c.T, 2.0 * omega * np.eye(2)]])
