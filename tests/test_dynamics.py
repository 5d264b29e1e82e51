import dataclasses
import math

import numpy as np
import pytest

from qobserver import (
    DimensionError,
    NonFiniteError,
    PlantSpec,
    augment,
    ccr_defect,
    coefficient_trajectory,
    design_ndpa,
    dominant_frequency,
    propagator,
    simulate_means,
    synthesize_observer,
    time_average_error,
    verify_convergence,
)
from qobserver import _kernels, dynamics
from qobserver.core import maxabs
from oracles import averaged_error_row, rotation_observer_row


@pytest.fixture(scope="module")
def example():
    design = synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])
    return design, augment(design)


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
        sys = augment(design)
        traj = coefficient_trajectory(sys, sys.c[1], np.linspace(0.0, 5.0, 11))
        np.testing.assert_array_equal(traj.coefficient_rows, np.tile(sys.c[1], (11, 1)))

    def test_observer_row_matches_closed_form(self, example):
        design, sys = example
        grid = np.linspace(0.0, 80.0, 1601)
        traj = coefficient_trajectory(sys, sys.c[1], grid)
        expected = np.vstack([rotation_observer_row(design, t)[0] for t in grid])
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

    def test_uniform_full_rank_grid_matches_propagator(self, example):
        # the Van Loan scan, step by step, against one propagator per point
        sys = augment(full_rank_design(example[0]))
        grid = np.linspace(0.0, 40.0, 2001)
        traj = coefficient_trajectory(sys, sys.c[1], grid)
        for k in range(0, grid.size, 50):
            expected = sys.c[1] @ propagator(sys, grid[k])
            atol = 1e-11 * max(1.0, maxabs(expected))
            np.testing.assert_allclose(traj.coefficient_rows[k], expected, rtol=0.0, atol=atol)

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
        sys = augment(broken)
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
            sys = augment(design)
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

    def test_bad_ladder_rejected(self, example, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("an error was computed on a bad ladder")

        monkeypatch.setattr(dynamics, "_rows_and_averages", boom)
        design, _ = example
        ladders = ([5.0], [5.0, 4.0], [-1.0, 1.0], [0.0, 1.0], [1.0, math.inf], [1.0, math.nan])
        for ladder in ladders:
            with pytest.raises(ValueError):
                verify_convergence(design, horizons=ladder)

    def test_overflowing_default_ladder_is_typed(self, example):
        design, _ = example
        assert dynamics.default_horizons(2.0) == (2.5, 5.0, 10.0, 20.0, 40.0)
        with pytest.raises(NonFiniteError, match="default horizon ladder"):
            verify_convergence(dataclasses.replace(design, omega_o=1e-310))

    def test_runs_no_trajectory(self, example, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("verify_convergence simulated a trajectory")

        monkeypatch.setattr(dynamics, "_van_loan_rows", boom)
        monkeypatch.setattr(dynamics, "coefficient_trajectory", boom)
        design, _ = example
        assert verify_convergence(design).passed

    def test_tests_the_structure_once(self, example, monkeypatch):
        calls = []
        observer_blocks = dynamics._observer_blocks
        monkeypatch.setattr(
            dynamics, "_observer_blocks", lambda a: calls.append(1) or observer_blocks(a)
        )
        design, _ = example
        assert verify_convergence(design).passed
        assert verify_convergence(full_rank_design(design)).failures
        assert len(calls) == 2

    def test_runs_no_exponential(self, example, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("verify_convergence ran a matrix exponential")

        monkeypatch.setattr(_kernels, "expm", boom)
        design, _ = example
        assert verify_convergence(design).passed
        tampered = verify_convergence(dataclasses.replace(design, c_o=2.0 * design.c_o))
        assert tampered.failures == ("time-average error decays",)
        detuned = verify_convergence(dataclasses.replace(design, r_o=2.0 * 0.976 * np.eye(2)))
        assert detuned.failures == (
            "time-average error decays", "observer oscillation frequency"
        )

    def test_reference_errors_are_exact(self, example):
        # the README's closed form (2.5 / T) max(|sin 4T|, 1 - cos 4T)
        design, _ = example
        horizons = (5.0, 7.3, 10.0, 20.0, 40.0, 80.0, 1e3, 1e5)
        report = verify_convergence(design, horizons)
        for t_hor, err in zip(horizons, report.errors):
            exact = 2.5 / t_hor * max(abs(math.sin(4.0 * t_hor)), 1.0 - math.cos(4.0 * t_hor))
            assert err == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_fit_decay_rate_matches_polyfit(self):
        rng = np.random.default_rng(11)
        for k in range(60):
            n = int(rng.integers(2, 9))
            horizons = np.cumsum(rng.uniform(0.01, 50.0, n))
            errors = 10.0 ** rng.uniform(-12.0, 2.0, n)
            if k % 3 == 0:
                errors[rng.integers(n)] = 0.0  # read at the 1e-300 floor
            floored = np.log(np.maximum(errors, 1e-300))
            expected = -np.polyfit(np.log(horizons), floored, 1)[0]
            rate = dynamics._fit_decay_rate(horizons, errors)
            assert rate == pytest.approx(expected, rel=1e-12, abs=0.0)

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


LADDER_VARIANTS = {
    "reference": {},
    "tampered_c_o": {"c_o": np.array([-20.0, 0.0])},  # 2 C_o
    "nondiagonal_r_o": {"r_o": np.array([[2.0, 0.3], [0.3, 1.5]])},
    "indefinite_r_o": {"r_o": np.diag([2.0, -2.0])},
    "singular_r_o": {"r_o": np.diag([2.0, 0.0])},  # w = 0: the series branch
    "zero_beta": {"beta": np.zeros(2), "r_c": np.zeros((2, 2))},
}


class TestClosedForm:
    """The observer systems' closed form against the Van Loan route, for any row."""

    @pytest.mark.parametrize("name", [*LADDER_VARIANTS, "zero_r_o"])
    def test_matches_van_loan(self, example, name):
        changes = {"r_o": np.zeros((2, 2))} if name == "zero_r_o" else LADDER_VARIANTS[name]
        sys = augment(dataclasses.replace(example[0], **changes))
        blocks = dynamics._observer_blocks(sys.a)
        assert blocks is not None
        # both parts of the row nonzero; times on the series and direct branches
        c_row = np.array([0.7, -0.4, 1.3, 0.2])
        top = 0.5 if name == "indefinite_r_o" else 1.0
        grid = np.concatenate([[0.0], np.logspace(-3.0, top, 40)])
        got = dynamics._rows_and_averages(sys.a, blocks, c_row, grid)
        want = dynamics._van_loan_rows(sys.a, c_row, grid)
        for closed, van_loan in zip(got, want):
            scale = max(1.0, maxabs(van_loan))
            np.testing.assert_allclose(closed, van_loan, rtol=0.0, atol=1e-12 * scale)


def full_rank_design(design):
    """`design` with a full-rank coupling block, which only a library caller can build."""
    return dataclasses.replace(design, r_c=np.array([[0.2, 0.05], [0.1, 0.3]]))


class TestLadderErrors:
    """`verify_convergence` errors against Van Loan and the rotation-integral oracle."""

    @pytest.mark.parametrize("name", LADDER_VARIANTS)
    def test_closed_form_matches_other_routes(self, example, name):
        design = dataclasses.replace(example[0], **LADDER_VARIANTS[name])
        sys = augment(design)
        # hyperbolic: past 4 T = 700 sinh overflows
        top = 2.0 if name == "indefinite_r_o" else 6.0
        horizons = tuple(np.logspace(-4.0, top, 31))
        errors = verify_convergence(design, horizons).errors
        for t_hor, err in zip(horizons, errors):
            # the two other routes lose about 1e-14 of the phase 4 T each
            close = pytest.approx(err, rel=1e-12 * max(1.0, t_hor), abs=0.0)
            _, averages = dynamics._van_loan_rows(sys.a, sys.c[1], np.array([0.0, t_hor]))
            assert maxabs(sys.c[0] - averages[-1]) == close
            if name != "singular_r_o":  # the oracle inverts R_o
                assert maxabs(averaged_error_row(design, t_hor)) == close

    def test_full_rank_coupling_takes_van_loan(self, example):
        design = full_rank_design(example[0])
        sys = augment(design)
        report = verify_convergence(design)
        assert dynamics._observer_blocks(sys.a) is None
        assert report.errors == tuple(
            time_average_error(sys, sys.c[0], sys.c[1], t) for t in report.horizons
        )


class TestSimulateMeans:
    def test_zero_initial_state(self, example):
        _, sys = example
        means = simulate_means(sys, np.zeros(4), np.linspace(0.0, 10.0, 101))
        np.testing.assert_array_equal(means, np.zeros((101, 2)))

    def test_plant_position_excited(self, example):
        # z_p mean frozen at 1; running average of z_o mean converges to it
        _, sys = example
        grid = np.linspace(0.0, 50.0, 4001)
        means = simulate_means(sys, [1.0, 0.0, 0.0, 0.0], grid)
        np.testing.assert_allclose(means[:, 0], np.ones(grid.size), atol=1e-10)
        z_o = means[:, 1]
        np.testing.assert_allclose(z_o, 1.0 - np.cos(4.0 * grid), atol=1e-9)
        running = np.cumsum(0.5 * np.diff(grid) * (z_o[1:] + z_o[:-1])) / grid[1:]
        assert running[-1] == pytest.approx(1.0, abs=0.01)

    def test_conjugate_quadrature_backaction(self, example):
        # exciting the measured quadrature drives the conjugate one linearly:
        # p_p(t) = |beta|^2/(2 omega_o) * z_p(0) * ... = 0.04 t - 0.01 sin(4t)
        _, sys = example
        sys_pp = sys.with_outputs([[0.0, 1.0, 0.0, 0.0]])
        grid = np.linspace(0.0, 40.0, 2001)
        means = simulate_means(sys_pp, [1.0, 0.0, 0.0, 0.0], grid)
        expected = 0.04 * grid - 0.01 * np.sin(4.0 * grid)
        np.testing.assert_allclose(means[:, 0], expected, atol=1e-9)

    def test_conjugate_excitation_stays_silent(self, example):
        # a mean only in the unmeasured quadrature never reaches the observer
        _, sys = example
        grid = np.linspace(0.0, 20.0, 201)
        means = simulate_means(sys, [0.0, 1.0, 0.0, 0.0], grid)
        np.testing.assert_allclose(means, np.zeros((201, 2)), atol=1e-12)

    def test_consistency_with_coefficient_rows(self, example):
        _, sys = example
        grid = np.linspace(0.0, 7.0, 57)
        x0 = np.array([0.3, -1.2, 0.7, 0.05])
        means = simulate_means(sys, x0, grid)
        assert means.shape == (grid.size, 2)
        for idx in range(2):
            rows = coefficient_trajectory(sys, sys.c[idx], grid).coefficient_rows
            np.testing.assert_allclose(means[:, idx], rows @ x0, atol=1e-12)

    def test_dimension_mismatch(self, example):
        _, sys = example
        with pytest.raises(DimensionError):
            simulate_means(sys, [1.0, 0.0], [0.0, 1.0])


class TestRunningAverage:
    @staticmethod
    def assert_matches_oracle(design, sys, grid):
        # (1/(T - t_0)) int_t_0^T = (T avg(T) - t_0 avg(t_0)) / (T - t_0)
        traj = coefficient_trajectory(sys, sys.c[1], grid)

        def integral(t_hor):
            return t_hor * (sys.c[0] - averaged_error_row(design, t_hor)) if t_hor else 0.0

        t_0 = grid[0]
        for k in np.unique(np.linspace(1, grid.size - 1, 40).astype(int)):
            expected = (integral(grid[k]) - integral(t_0)) / (grid[k] - t_0)
            np.testing.assert_allclose(traj.running_average[k], expected, rtol=0.0, atol=1e-12)
        row_0 = rotation_observer_row(design, t_0)[0]
        np.testing.assert_allclose(traj.coefficient_rows[0], row_0, atol=1e-13)
        np.testing.assert_array_equal(traj.running_average[0], traj.coefficient_rows[0])

    def test_matches_closed_form(self, example):
        design, sys = example
        self.assert_matches_oracle(design, sys, np.linspace(0.0, 30.0, 6001))

    def test_matches_closed_form_on_nonuniform_grid(self, example):
        design, sys = example
        steps = np.random.default_rng(6).uniform(0.001, 0.1, 400)
        self.assert_matches_oracle(design, sys, np.concatenate([[0.0], np.cumsum(steps)]))

    def test_grid_from_later_start(self, example):
        design, sys = example
        self.assert_matches_oracle(design, sys, np.linspace(2.5, 30.0, 2001))

    def test_nonuniform_grid_from_later_start(self, example):
        design, sys = example
        steps = np.random.default_rng(8).uniform(0.001, 0.1, 300)
        grid = 2.5 + np.concatenate([[0.0], np.cumsum(steps)])
        self.assert_matches_oracle(design, sys, grid)

    def test_first_point_is_instantaneous(self, example):
        _, sys = example
        traj = coefficient_trajectory(sys, sys.c[1], np.linspace(0.0, 1.0, 11))
        np.testing.assert_array_equal(traj.running_average[0], traj.coefficient_rows[0])

    def test_uniform_grid_takes_one_exponential(self, example, monkeypatch):
        # none for the observer system, one Van Loan exponential for any other
        design, sys = example
        calls = []
        expm = _kernels.expm

        def counted(a):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(_kernels, "expm", counted)
        grid = np.linspace(0.0, 80.0, 2001)
        coefficient_trajectory(sys, sys.c[1], grid)
        assert calls == []
        full_rank = augment(full_rank_design(design))
        coefficient_trajectory(full_rank, full_rank.c[1], grid)
        assert calls == [(8, 8)]



class TestDominantFrequency:
    def test_detects_off_expected_signal(self):
        # a design at omega_o = 2 reads 8, whatever a caller expects
        design = synthesize_observer(PlantSpec([1.0, 0.0]), 2.0, [0.4, 0.0])
        sys = augment(design)
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
            sys = augment(result.observer)
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
        sys = augment(indefinite)
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
