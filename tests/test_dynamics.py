import dataclasses
import math

import numpy as np
import pytest

from qobserver import (
    DimensionError,
    PlantSpec,
    augment,
    ccr_defect,
    coefficient_trajectory,
    design_ndpa,
    dominant_frequency,
    propagator,
    running_average,
    simulate_means,
    synthesize_observer,
    time_average_error,
    verify_convergence,
)
from qobserver import _kernels, dynamics
from oracles import averaged_error_row, rotation

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.fixture(scope="module")
def example():
    design = synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])
    return design, augment(PlantSpec([1.0, 0.0]), design)


def closed_form_observer_row(design, t):
    """[c_o Om^{-1}(e^{Om t} - I) D, c_o e^{Om t}] for the 2 omega_o I observer."""
    omega = 4.0 * design.omega_o
    e_t = rotation(omega, t)
    om_inv = -J / omega
    d_mat = 2.0 * J @ np.outer(design.beta, design.c_p)
    left = design.c_o @ om_inv @ (e_t - np.eye(2)) @ d_mat
    return np.concatenate([left, design.c_o @ e_t])


class TestCoefficientTrajectory:
    def test_plant_row_is_constant(self, example):
        design, sys = example
        grid = np.linspace(0.0, 40.0, 501)
        traj = coefficient_trajectory(sys, sys.c[0], grid)
        np.testing.assert_allclose(
            traj.coefficient_rows, np.tile(sys.c[0], (grid.size, 1)), atol=1e-12
        )

    def test_zero_generator_rows_constant(self):
        design = synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])
        design = dataclasses.replace(
            design, r_c=np.zeros((2, 2)), r_o=np.zeros((2, 2)), beta=np.zeros(2)
        )
        sys = augment(PlantSpec([1.0, 0.0]), design)
        traj = coefficient_trajectory(sys, sys.c[1], np.linspace(0.0, 5.0, 11))
        np.testing.assert_array_equal(traj.coefficient_rows, np.tile(sys.c[1], (11, 1)))

    def test_observer_row_matches_closed_form(self, example):
        design, sys = example
        grid = np.linspace(0.0, 80.0, 1601)
        traj = coefficient_trajectory(sys, sys.c[1], grid)
        expected = np.vstack([closed_form_observer_row(design, t) for t in grid])
        np.testing.assert_allclose(traj.coefficient_rows, expected, atol=1e-9)

    def test_observer_row_period(self, example):
        design, sys = example
        period = math.pi / (2.0 * design.omega_o)
        t0 = 3.3
        row_a = coefficient_trajectory(sys, sys.c[1], [t0]).coefficient_rows[0]
        row_b = coefficient_trajectory(sys, sys.c[1], [t0 + period]).coefficient_rows[0]
        np.testing.assert_allclose(row_a, row_b, atol=1e-12)

    def test_irregular_grid_matches_per_point(self, example):
        _, sys = example
        grid = np.array([0.0, 0.1, 0.4, 1.0, 3.7])
        traj = coefficient_trajectory(sys, sys.c[1], grid)
        for k, t in enumerate(grid):
            np.testing.assert_allclose(
                traj.coefficient_rows[k], sys.c[1] @ propagator(sys, t), atol=1e-13
            )

    def test_bad_grids_rejected(self, example):
        _, sys = example
        with pytest.raises(ValueError):
            coefficient_trajectory(sys, sys.c[0], [])
        with pytest.raises(ValueError):
            coefficient_trajectory(sys, sys.c[0], [0.0, 1.0, 0.5])

    def test_row_dimension_checked(self, example):
        _, sys = example
        with pytest.raises(DimensionError):
            coefficient_trajectory(sys, [1.0, 0.0], [0.0, 1.0])


class TestTimeAverageError:
    def test_matches_closed_form_oracle(self, example):
        design, sys = example
        for t_hor in (3.0, 7.0, 11.5, 40.0):
            value = time_average_error(sys, sys.c[0], sys.c[1], t_hor)
            oracle = float(np.max(np.abs(averaged_error_row(design, t_hor))))
            assert value == pytest.approx(oracle, abs=1e-8)

    def test_long_horizon_decay(self, example):
        design, sys = example
        err5 = time_average_error(sys, sys.c[0], sys.c[1], 5.0)
        err50 = time_average_error(sys, sys.c[0], sys.c[1], 50.0)
        assert err50 <= 0.11 * err5

    def test_one_over_t_envelope(self, example):
        # T * error(T) stays bounded by the design constant
        design, sys = example
        bound = 0.0
        for t_hor in np.linspace(2.0, 90.0, 23):
            bound = max(bound, t_hor * time_average_error(sys, sys.c[0], sys.c[1], t_hor))
        assert bound <= 2.0 * 2.5 + 1e-6

    def test_exact_period_multiples_vanish(self, example):
        design, sys = example
        period = math.pi / (2.0 * design.omega_o)
        for k in (4, 20):
            value = time_average_error(sys, sys.c[0], sys.c[1], k * period)
            assert value <= 1e-7

    def test_decoupled_design_plateaus(self):
        design = synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])
        broken = dataclasses.replace(design, beta=np.zeros(2), r_c=np.zeros((2, 2)))
        sys = augment(PlantSpec([1.0, 0.0]), broken)
        values = [time_average_error(sys, sys.c[0], sys.c[1], t) for t in (20.0, 40.0, 80.0)]
        for v in values:
            assert v == pytest.approx(1.0, abs=0.3)
        assert values[-1] > 0.5  # no convergence

    def test_nonpositive_horizon_rejected(self, example):
        _, sys = example
        for t_hor in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                time_average_error(sys, sys.c[0], sys.c[1], t_hor)

    def test_many_periods_match_oracle(self):
        # a lab-scale generator at T = 80 and nondimensional horizons of 1e5
        # and 1e6 span ~6e4 to ~5e9 periods; each is still one exponential
        cases = ((1e8, [2e7, 0.0], 80.0), (1.0, [0.2, 0.0], 1e5), (1.0, [0.2, 0.0], 1e6))
        for omega_o, beta, t_hor in cases:
            design = synthesize_observer(PlantSpec([1.0, 0.0]), omega_o, beta)
            sys = augment(PlantSpec([1.0, 0.0]), design)
            value = time_average_error(sys, sys.c[0], sys.c[1], t_hor)
            oracle = float(np.max(np.abs(averaged_error_row(design, t_hor))))
            assert value == pytest.approx(oracle, rel=1e-12)


class TestVerifyConvergence:
    def test_example_design_passes(self, example):
        design, _ = example
        report = verify_convergence(design)
        assert report.passed
        assert report.output_row_defect <= 1e-12
        assert report.averaged_limit_defect <= 1e-12
        assert report.fitted_rate >= 0.9
        assert all(b < a for a, b in zip(report.errors, report.errors[1:]))
        assert report.oscillation_frequency_estimate == pytest.approx(4.0, rel=1e-12)
        assert report.horizons == (5.0, 10.0, 20.0, 40.0, 80.0)

    def test_scaled_c_o_detected(self, example):
        design, _ = example
        tampered = dataclasses.replace(design, c_o=2.0 * design.c_o)
        report = verify_convergence(tampered)
        assert not report.passed
        assert "time-average error decays" in report.failures
        # averaged observer row tends to 2 z_p, so the error plateaus at |C_p|
        assert report.errors[-1] == pytest.approx(1.0, abs=0.05)
        assert report.fitted_rate < 0.5

    def test_omega_scaling_moves_frequency(self):
        design = synthesize_observer(PlantSpec([1.0, 0.0]), 2.0, [0.4, 0.0])
        report = verify_convergence(design)
        assert report.expected_frequency == pytest.approx(8.0)
        assert report.oscillation_frequency_estimate == pytest.approx(8.0, rel=1e-12)
        assert report.horizons == tuple(t / 2.0 for t in (5.0, 10.0, 20.0, 40.0, 80.0))

    def test_ccr_preserved_on_grid(self, example):
        _, sys = example
        for t in np.linspace(0.0, 80.0, 50):
            assert ccr_defect(sys, t) <= 1e-9

    def test_bad_ladder_rejected(self, example):
        design, _ = example
        with pytest.raises(ValueError):
            verify_convergence(design, horizons=[5.0])
        with pytest.raises(ValueError):
            verify_convergence(design, horizons=[5.0, 4.0])

    def test_runs_no_trajectory(self, example, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("verify_convergence simulated a trajectory")

        monkeypatch.setattr(_kernels, "row_scan", boom)
        monkeypatch.setattr(dynamics, "coefficient_trajectory", boom)
        design, _ = example
        assert verify_convergence(design).passed

    def test_detuned_observer_fails_frequency_check(self, example):
        # R_o = 2 rho I oscillates at 4 rho; 2.4% off must not read as within 1%
        design, _ = example
        detuned = dataclasses.replace(design, r_o=2.0 * 0.976 * np.eye(2))
        report = verify_convergence(detuned)
        assert report.oscillation_frequency_estimate == pytest.approx(3.904, rel=1e-12)
        assert "observer oscillation frequency" in report.failures

    def test_slightly_detuned_observer_passes_frequency_check(self, example):
        design, _ = example
        detuned = dataclasses.replace(design, r_o=2.0 * 1.005 * np.eye(2))
        report = verify_convergence(detuned)
        assert report.oscillation_frequency_estimate == pytest.approx(4.02, rel=1e-12)
        assert "observer oscillation frequency" not in report.failures


class TestSimulateMeans:
    def test_zero_initial_state(self, example):
        _, sys = example
        traj = simulate_means(sys, np.zeros(4), np.linspace(0.0, 10.0, 101))
        np.testing.assert_array_equal(traj.mean_values, np.zeros((101, 2)))

    def test_plant_position_excited(self, example):
        # z_p mean frozen at 1; running average of z_o mean converges to it
        _, sys = example
        grid = np.linspace(0.0, 50.0, 4001)
        traj = simulate_means(sys, [1.0, 0.0, 0.0, 0.0], grid)
        np.testing.assert_allclose(traj.mean_values[:, 0], np.ones(grid.size), atol=1e-10)
        z_o = traj.mean_values[:, 1]
        np.testing.assert_allclose(z_o, 1.0 - np.cos(4.0 * grid), atol=1e-9)
        running = np.cumsum(0.5 * np.diff(grid) * (z_o[1:] + z_o[:-1])) / grid[1:]
        assert running[-1] == pytest.approx(1.0, abs=0.01)

    def test_conjugate_quadrature_backaction(self, example):
        # exciting the measured quadrature drives the conjugate one linearly:
        # p_p(t) = |beta|^2/(2 omega_o) * z_p(0) * ... = 0.04 t - 0.01 sin(4t)
        _, sys = example
        sys_pp = sys.with_outputs([[0.0, 1.0, 0.0, 0.0]])
        grid = np.linspace(0.0, 40.0, 2001)
        traj = simulate_means(sys_pp, [1.0, 0.0, 0.0, 0.0], grid)
        expected = 0.04 * grid - 0.01 * np.sin(4.0 * grid)
        np.testing.assert_allclose(traj.mean_values[:, 0], expected, atol=1e-9)

    def test_conjugate_excitation_stays_silent(self, example):
        # a mean only in the unmeasured quadrature never reaches the observer
        _, sys = example
        grid = np.linspace(0.0, 20.0, 201)
        traj = simulate_means(sys, [0.0, 1.0, 0.0, 0.0], grid)
        np.testing.assert_allclose(traj.mean_values, np.zeros((201, 2)), atol=1e-12)

    def test_consistency_with_coefficient_rows(self, example):
        _, sys = example
        grid = np.linspace(0.0, 7.0, 57)
        x0 = np.array([0.3, -1.2, 0.7, 0.05])
        traj = simulate_means(sys, x0, grid)
        for idx in range(2):
            rows = coefficient_trajectory(sys, sys.c[idx], grid).coefficient_rows
            np.testing.assert_allclose(traj.mean_values[:, idx], rows @ x0, atol=1e-12)

    def test_dimension_mismatch(self, example):
        _, sys = example
        with pytest.raises(DimensionError):
            simulate_means(sys, [1.0, 0.0], [0.0, 1.0])


class TestRunningAverage:
    @staticmethod
    def assert_matches_oracle(design, sys, grid):
        traj = coefficient_trajectory(sys, sys.c[1], grid)
        avg = running_average(sys, traj)
        for k in np.unique(np.linspace(1, grid.size - 1, 40).astype(int)):
            expected = sys.c[0] - averaged_error_row(design, grid[k])
            np.testing.assert_allclose(avg[k], expected, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(avg[0], traj.coefficient_rows[0])

    def test_matches_closed_form(self, example):
        design, sys = example
        self.assert_matches_oracle(design, sys, np.linspace(0.0, 30.0, 6001))

    def test_matches_closed_form_on_nonuniform_grid(self, example):
        design, sys = example
        steps = np.random.default_rng(6).uniform(0.001, 0.1, 400)
        self.assert_matches_oracle(design, sys, np.concatenate([[0.0], np.cumsum(steps)]))

    def test_first_point_is_instantaneous(self, example):
        _, sys = example
        traj = coefficient_trajectory(sys, sys.c[1], np.linspace(0.0, 1.0, 11))
        avg = running_average(sys, traj)
        np.testing.assert_array_equal(avg[0], traj.coefficient_rows[0])

    def test_row_dimension_checked(self, example):
        _, sys = example
        traj = dynamics.Trajectory(times=np.array([0.0, 1.0]), coefficient_rows=np.eye(2))
        with pytest.raises(DimensionError):
            running_average(sys, traj)


class TestDominantFrequency:
    def test_detects_off_expected_signal(self):
        # a design at omega_o = 2 reads 8, whatever a caller expects
        design = synthesize_observer(PlantSpec([1.0, 0.0]), 2.0, [0.4, 0.0])
        sys = augment(PlantSpec([1.0, 0.0]), design)
        assert dominant_frequency(sys, sys.c[1]) == pytest.approx(8.0, rel=1e-12)

    def test_valid_designs_oscillate_at_four_omega_o(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            arg_c = float(rng.uniform(-math.pi, math.pi))
            omega = float(10 ** rng.uniform(-2, 8))
            result = design_ndpa(
                [math.cos(arg_c), math.sin(arg_c)], omega,
                float(10 ** rng.uniform(-1, 1)) * omega, float(rng.uniform(0.01, 0.6)),
            )
            sys = augment(PlantSpec(result.observer.c_p), result.observer)
            freq = dominant_frequency(sys, sys.c[1])
            assert freq == pytest.approx(4.0 * omega, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1e-300, 1e150])
    def test_independent_of_row_scale(self, example, scale):
        _, sys = example
        unscaled = dominant_frequency(sys, sys.c[1])
        assert dominant_frequency(sys, scale * sys.c[1]) == pytest.approx(unscaled, rel=1e-15)

    def test_non_oscillating_rows_read_zero(self, example):
        _, sys = example
        assert dominant_frequency(sys, sys.c[0]) == 0.0  # frozen plant row
        assert dominant_frequency(sys, np.zeros(4)) == 0.0

    def test_indefinite_observer_reads_zero(self, example):
        # R_o = diag(2, -2) makes the observer hyperbolic: no oscillation
        design, _ = example
        indefinite = dataclasses.replace(design, r_o=np.diag([2.0, -2.0]))
        sys = augment(PlantSpec(design.c_p), indefinite)
        assert dominant_frequency(sys, sys.c[1]) == 0.0
        report = verify_convergence(indefinite)
        check = next(c for c in report.checks if c.name == "observer oscillation frequency")
        assert not check.passed
        assert (check.value, check.threshold) == (0.0, 4.0)
        assert check.detail == "relative deviation 1.000e+00 from 4*omega_o"
        assert all(math.isfinite(v) for v in report.errors + report.ratios)

    def test_row_dimension_checked(self, example):
        _, sys = example
        with pytest.raises(DimensionError):
            dominant_frequency(sys, [1.0, 0.0])
