"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.

Criterion 4 asserts, verbatim, that the time-average errors over the pinned
horizon ladder {5, 10, 20, 40, 80} decrease with successive ratios inside
[0.3, 0.7].  The exact dynamics do not satisfy that band: the error is
(2.5/T) * max(|sin 4T|, 1 - cos 4T), an O(1/T) envelope modulated by an
oscillation the fixed ladder samples at arbitrary phase (exact ratios
0.913, 0.333, 0.890, 0.108).  The decay itself, the fitted rate and the
closed-form limit all hold and are asserted first; the ratio-band assertion
is kept as stated and is expected to fail.  See the README section "One
expected acceptance failure" for the full analysis.
"""

import cmath
import math
import time

import numpy as np
import pytest

from qobserver import (
    DesignError,
    LinearQuantumSystem,
    PlantSpec,
    augment,
    ccr_defect,
    SymplecticSpace,
    design_ndpa,
    propagator,
    synthesize_observer,
    verify_convergence,
)
from qobserver.cli import main as cli_main
from qobserver.ndpa import build_open_ndpa, close_loop
from oracles import close_loop_by_inversion, rk4_expm, rotation

import dataclasses


def verdict(number: int, passed: bool, name: str, detail: str = ""):
    flag = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number} [{flag}] {name}"
    if detail:
        line += f": {detail}"
    print(line, flush=True)


def random_pipeline_draw(rng):
    arg_c = float(rng.uniform(-math.pi, math.pi))
    magnitude = float(10 ** rng.uniform(-0.3, 0.3))
    c_p = [magnitude * math.cos(arg_c), magnitude * math.sin(arg_c)]
    omega = float(10 ** rng.uniform(-1, 1))
    gamma = float(10 ** rng.uniform(-1, 1))
    ratio = float(rng.uniform(0.01, 0.6))
    delta = float(rng.choice([math.pi / 4, math.pi / 2, 3 * math.pi / 4]))
    return c_p, omega, gamma, ratio, delta


def test_criterion_1_example_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    code = cli_main(["reproduce-example", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start

    result = design_ndpa([1.0, 0.0], 1.0, 1.0, 0.1)
    theta_deg = math.degrees(result.params.theta)
    psi = math.atan2(result.params.epsilon.imag, result.params.epsilon.real)
    phi = result.params.phi
    eps_si = result.params.epsilon * 1e8
    r_c_si = np.outer([1.0, 0.0], result.beta) * 1e8
    beta_si = np.asarray(result.beta) * 1e8
    c_o = np.asarray(result.c_o)

    checks = {
        "exit_code": code == 0,
        "theta": abs(theta_deg - 168.58) <= 0.05,
        "psi_exact": psi == -math.pi / 2.0,
        "phi_exact": phi == -math.pi / 2.0,
        "epsilon": abs(eps_si - (-1e7j)) <= 1e-12 * 1e7,
        "r_c": np.max(np.abs(r_c_si - np.array([[2e7, 0.0], [0.0, 0.0]])))
        <= 1e-12 * 2e7,
        "beta": np.max(np.abs(beta_si - np.array([2e7, 0.0]))) <= 1e-9 * 2e7,
        "c_o": np.max(np.abs(c_o - np.array([-10.0, 0.0]))) <= 1e-9 * 10.0,
        "runtime": elapsed < 1.0,
    }
    with capsys.disabled():
        verdict(
            1,
            all(checks.values()),
            "example reproduction",
            f"theta={theta_deg:.4f} deg, runtime={elapsed:.3f} s",
        )
    assert all(checks.values()), f"failed sub-checks: {[k for k, v in checks.items() if not v]}"


def test_criterion_2_pipeline_consistency(capsys):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_cross = 0.0
    worst_det = 0.0
    for _ in range(100):
        c_p, omega, gamma, ratio, delta = random_pipeline_draw(rng)
        result = design_ndpa(c_p, omega, gamma, ratio, delta)
        r_abstract = np.zeros((4, 4))
        r_c = np.outer(c_p, result.beta)
        r_abstract[:2, 2:] = r_c
        r_abstract[2:, :2] = r_c.T
        r_abstract[2:, 2:] = 2.0 * omega * np.eye(2)
        cross = float(np.max(np.abs(np.asarray(result.r) - r_abstract)))
        worst_cross = max(worst_cross, cross)
        # det_r_c is the determinant of R_c scaled by its max-abs entry, so
        # its bound is a plain roundoff bound, not one in units of R_c^2.
        worst_det = max(worst_det, abs(result.report.det_r_c))
        assert cross <= 1e-9
        assert abs(result.report.det_r_c) <= 1e-14
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    with capsys.disabled():
        verdict(
            2,
            ok,
            "pipeline consistency (100 draws)",
            f"worst cross defect={worst_cross:.2e}, worst |det_r_c|={worst_det:.2e}, "
            f"runtime={elapsed:.2f} s",
        )
    assert ok, f"runtime {elapsed:.2f} s exceeds 10 s"


def test_criterion_3_plant_output_constant(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    designs = [synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])]
    while len(designs) < 101:
        c_p = rng.normal(size=2)
        beta = rng.normal(size=2)
        if np.max(np.abs(c_p)) == 0.0 or np.max(np.abs(beta)) == 0.0:
            continue
        designs.append(
            synthesize_observer(PlantSpec(c_p), float(rng.uniform(0.2, 5.0)), beta)
        )
    for design in designs:
        sys = augment(design)
        worst = max(worst, float(np.max(np.abs(sys.c[0] @ sys.a))))
    ok = worst <= 1e-12
    with capsys.disabled():
        verdict(3, ok, "plant output row constant (100 random + example)",
                f"worst defect={worst:.2e}")
    assert ok


def test_criterion_4_time_average_convergence(capsys):
    design = synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])
    start = time.perf_counter()
    report = verify_convergence(design, horizons=(5.0, 10.0, 20.0, 40.0, 80.0))
    elapsed = time.perf_counter() - start

    errors = report.errors
    ratios = report.ratios
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    limit_ok = report.averaged_limit_defect <= 1e-12
    band_ok = all(0.3 <= r <= 0.7 for r in ratios)
    runtime_ok = elapsed < 30.0

    with capsys.disabled():
        verdict(
            4,
            decreasing and limit_ok and band_ok and runtime_ok,
            "time-averaged convergence on the example design",
            f"errors={[f'{e:.4f}' for e in errors]}, "
            f"ratios={[f'{r:.3f}' for r in ratios]}, "
            f"limit defect={report.averaged_limit_defect:.2e}, "
            f"runtime={elapsed:.2f} s",
        )
    assert decreasing, f"errors not strictly decreasing: {errors}"
    assert limit_ok, f"closed-form limit defect {report.averaged_limit_defect}"
    assert runtime_ok, f"runtime {elapsed:.2f} s exceeds 30 s"
    assert band_ok, (
        f"successive error ratios {ratios} leave the stated band [0.3, 0.7]. "
        "This is a property of the exact dynamics, not of the implementation: "
        "error(T) = (2.5/T) * max(|sin 4T|, 1 - cos 4T) on this design, so the "
        "pinned ladder {5, 10, 20, 40, 80} samples the oscillatory prefactor at "
        "arbitrary phases (exact ratios 0.913, 0.333, 0.890, 0.108). The O(1/T) "
        "envelope, strict decrease, fitted rate >= 0.9 and the closed-form limit "
        "all hold (see the other assertions of this test and verify_convergence)."
    )


def test_criterion_5_ccr_preservation(capsys):
    # Random designs are drawn in the weak-coupling regime (|beta| <= |c|,
    # omega_o = 1) that the nondimensionalization targets: the coupling makes
    # exp(At) grow linearly in t, and an absolute 1e-9 bound at T = 80 is
    # only meaningful while the propagator entries stay moderate.
    rng = np.random.default_rng(5)
    designs = [synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])]
    for _ in range(20):
        arg_c = float(rng.uniform(-math.pi, math.pi))
        c_p = [math.cos(arg_c), math.sin(arg_c)]
        gamma = float(10 ** rng.uniform(-0.5, 0.5))
        delta = float(rng.choice([math.pi / 4, math.pi / 2, 3 * math.pi / 4]))
        r_max = min(0.6, 1.0 / (2.0 * gamma * math.sin(delta)))
        ratio = float(rng.uniform(0.01, r_max))
        designs.append(design_ndpa(c_p, 1.0, gamma, ratio, delta).observer())
    grid = np.linspace(0.0, 80.0, 50)
    worst = 0.0
    for design in designs:
        sys = augment(design)
        for t in grid:
            worst = max(worst, ccr_defect(sys, float(t)))
    ok = worst <= 1e-9
    with capsys.disabled():
        verdict(5, ok, "commutation relations preserved to T=80",
                f"worst defect={worst:.2e} (example + 20 random designs)")
    assert ok


def test_criterion_6_oracle_equivalence(capsys):
    # propagator against fixed-step RK4 integration
    design = synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])
    sys_aug = augment(design)
    worst_prop = 0.0
    for t in (0.1, 0.5, 2.0, 5.0):
        worst_prop = max(
            worst_prop,
            float(np.max(np.abs(propagator(sys_aug, t) - rk4_expm(sys_aug.a, t)))),
        )
    one_mode = LinearQuantumSystem(1.7 * np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                   np.zeros((0, 2)), SymplecticSpace(1))
    for t in (0.5, 3.0):
        worst_prop = max(
            worst_prop,
            float(np.max(np.abs(propagator(one_mode, t) - rotation(1.7, t)))),
            float(np.max(np.abs(propagator(one_mode, t) - rk4_expm(one_mode.a, t)))),
        )
    prop_ok = worst_prop <= 1e-9

    # loop closure against numerical inversion
    rng = np.random.default_rng(6)
    worst_loop = 0.0
    for _ in range(50):
        gamma = float(10 ** rng.uniform(-1, 1))
        eps = gamma * rng.uniform(0.01, 0.6) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        omega = float(10 ** rng.uniform(-1, 1))
        theta = float(rng.uniform(0.1, math.pi - 1e-3))
        phi = float(rng.uniform(-math.pi, math.pi))
        f = np.array(
            close_loop(build_open_ndpa(gamma, eps, omega), gamma, 1.0 / math.tan(theta / 2.0), phi)
        )
        f_oracle = close_loop_by_inversion(gamma, eps, omega, theta, phi)
        worst_loop = max(
            worst_loop,
            float(np.max(np.abs(f - f_oracle))) / max(1.0, float(np.max(np.abs(f)))),
        )
    loop_ok = worst_loop <= 1e-12

    with capsys.disabled():
        verdict(6, prop_ok and loop_ok, "oracle equivalence",
                f"propagator vs RK4 defect={worst_prop:.2e}, "
                f"loop closure vs inversion defect={worst_loop:.2e}")
    assert prop_ok and loop_ok


def test_criterion_7_negative_controls(capsys):
    design = synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])
    tampered = dataclasses.replace(design, c_o=2.0 * design.c_o)
    report = verify_convergence(tampered)
    plateau = abs(report.errors[-1] - 1.0) <= 0.05
    detected = (not report.passed) and ("time-average error decays" in report.failures)

    with pytest.raises(DesignError):
        synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.0, 0.0])
    rejected = True

    ok = plateau and detected and rejected
    with capsys.disabled():
        verdict(7, ok, "negative controls",
                f"scaled C_o plateau at {report.errors[-1]:.3f} (expected 1), "
                f"detected={detected}, beta=0 rejected={rejected}")
    assert ok
