import dataclasses
import math

import numpy as np
import pytest

from qobserver import (
    DimensionError,
    LinearQuantumSystem,
    NonFiniteError,
    PlantSpec,
    StructureError,
    augment,
    ccr_defect,
    coefficient_trajectory,
    design_ndpa,
    propagator,
    synthesize_observer,
    verify_convergence,
)
from qobserver import _kernels, dynamics
from qobserver.core import check_horizons, maxabs
from qobserver.errors import InputError
from oracles import averaged_error_row, hamiltonian_system, rotation_observer_row, van_loan_rows


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

    def test_full_rank_coupling_raises(self, example):
        sys = augment(full_rank_design(example[0]))
        with pytest.raises(StructureError, match="rank-one R_c"):
            coefficient_trajectory(sys, sys.c[1], np.linspace(0.0, 40.0, 2001))
        one_mode = hamiltonian_system(np.eye(2))
        with pytest.raises(StructureError, match="not 4 x 4"):
            coefficient_trajectory(one_mode, [1.0, 0.0], [0.0, 1.0])

    def test_bad_grids_rejected(self, example):
        _, sys = example
        with pytest.raises(ValueError):
            coefficient_trajectory(sys, sys.c[0], [])
        with pytest.raises(ValueError):
            coefficient_trajectory(sys, sys.c[0], [0.0, 1.0, 0.5])

    @pytest.mark.parametrize("grid", [
        [], [0.0], [-0.0, 1.0], [5.0], [0.0, 1.0, 2.0], [1e-320, 2e-320],
        [math.nan], [0.0, math.nan], [0.0, 1.0, math.nan], [math.nan, 1.0], [1.0, math.nan, 2.0],
        [0.0, math.inf], [0.0, 1.0, math.inf], [-math.inf, 1.0], [math.inf], [0.0, -math.inf],
        [0.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 1.0], [0.0, -1.0], [1.0, 1.0], [0.0, 1.0, 1.0, 2.0],
        [0.0, 2.0, 1.0], [3.0, 2.0, math.nan], [0.0, 1.0, -0.0],
        np.linspace(0.0, 40.0, 2001), np.linspace(0.0, 5e-324, 2001),
        np.linspace(0.0, 3e-321, 2001), np.linspace(0.0, 9e-321, 2001),
        np.linspace(1e-321, 2e-321, 2001), np.linspace(1e-320, 2e-320, 5),
    ])
    def test_grid_check_refuses_as_check_horizons(self, example, grid):
        """A grid's check ends as `check_horizons` ends on it, past a leading t = 0: the
        same InputError and message, or none."""
        _, sys = example

        def outcome(call):
            try:
                call()
            except InputError as exc:
                return type(exc), str(exc)
            return None

        t = np.asarray(grid, dtype=float)
        start = 1 if t[:1].tolist() == [0.0] else 0
        want = outcome(lambda: check_horizons(t[start:], minimum=1 - start))
        assert outcome(lambda: coefficient_trajectory(sys, sys.c[1], grid)) == want

    def test_coincident_grid_points_refused(self, example):
        # `simulate`'s linspace grid holds equal neighbours where t_max is subnormal
        _, sys = example
        grid = np.linspace(0.0, 3e-321, 2001)
        assert (grid[1:] == grid[:-1]).any()
        with pytest.raises(InputError, match="all horizons must be positive and finite"):
            coefficient_trajectory(sys, sys.c[1], grid)

    def test_row_dimension_checked(self, example):
        _, sys = example
        with pytest.raises(DimensionError):
            coefficient_trajectory(sys, [1.0, 0.0], [0.0, 1.0])


class TestTimeAverageError:
    """The report's errors max|(1/T) int_0^T (C_p,aug - C_o,aug exp(As)) ds| over a ladder."""

    def test_matches_closed_form_oracle(self, example):
        design, _ = example
        horizons = (3.0, 7.0, 11.5, 40.0)
        for t_hor, value in zip(horizons, verify_convergence(design, horizons).errors):
            oracle = float(np.max(np.abs(averaged_error_row(design, t_hor))))
            assert value == pytest.approx(oracle, abs=1e-8)

    def test_long_horizon_decay(self, example):
        design, _ = example
        err5, err50 = verify_convergence(design, (5.0, 50.0)).errors
        assert err50 <= 0.11 * err5

    def test_one_over_t_envelope(self, example):
        # T * error(T) stays bounded by the design constant
        design, _ = example
        horizons = np.linspace(2.0, 90.0, 23)
        errors = verify_convergence(design, horizons).errors
        assert max(horizons * np.array(errors)) <= 2.0 * 2.5 + 1e-6

    def test_exact_period_multiples_vanish(self, example):
        design, _ = example
        period = math.pi / (2.0 * design.omega_o)
        for value in verify_convergence(design, (4 * period, 20 * period)).errors:
            assert value <= 1e-7

    def test_decoupled_design_plateaus(self):
        design = synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])
        broken = dataclasses.replace(design, beta=np.zeros(2), r_c=np.zeros((2, 2)))
        values = verify_convergence(broken, (20.0, 40.0, 80.0)).errors
        for v in values:
            assert v == pytest.approx(1.0, abs=0.3)
        assert values[-1] > 0.5  # no convergence

    def test_many_periods_match_oracle(self):
        # a lab-scale generator at T = 80 and nondimensional horizons of 1e5
        # and 1e6 span ~6e4 to ~5e9 periods
        cases = ((1e8, [2e7, 0.0], 80.0), (1.0, [0.2, 0.0], 1e5), (1.0, [0.2, 0.0], 1e6))
        for omega_o, beta, t_hor in cases:
            design = synthesize_observer(PlantSpec([1.0, 0.0]), omega_o, beta)
            value = verify_convergence(design, (t_hor / 2.0, t_hor)).errors[-1]
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
        with pytest.raises(StructureError):
            verify_convergence(full_rank_design(design))
        assert len(calls) == 2

    def test_runs_no_exponential(self, example, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("verify_convergence ran the propagator")

        monkeypatch.setattr(dynamics, "propagator", boom)
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
    """The observer systems' closed form against the Van Loan oracle, for any row."""

    @pytest.mark.parametrize("name", [*LADDER_VARIANTS, "zero_r_o"])
    def test_matches_van_loan(self, example, name):
        changes = {"r_o": np.zeros((2, 2))} if name == "zero_r_o" else LADDER_VARIANTS[name]
        sys = augment(dataclasses.replace(example[0], **changes))
        blocks = dynamics._observer_blocks(sys.a)  # StructureError if a control lost it
        # both parts of the row nonzero; times on the series and direct branches
        c_row = np.array([0.7, -0.4, 1.3, 0.2])
        top = 0.5 if name == "indefinite_r_o" else 1.0
        grid = np.concatenate([[0.0], np.logspace(-3.0, top, 40)])
        got = dynamics._rows_and_averages(blocks, c_row[None], grid)
        want = van_loan_rows(sys.a, c_row, grid)
        for (closed,), van_loan in zip(got, want):
            scale = max(1.0, maxabs(van_loan))
            np.testing.assert_allclose(closed, van_loan, rtol=0.0, atol=1e-12 * scale)


def bits(a) -> np.ndarray:
    return np.asarray(a).view(np.int64)


class TestStackedRows:
    """A stack of rows gives each row the bits that it gives alone."""

    @staticmethod
    def assert_stack_matches_rows(sys, c_rows, grid):
        stacked = coefficient_trajectory(sys, c_rows, grid)
        assert stacked.coefficient_rows.shape == (len(c_rows), len(grid), 4)
        assert stacked.running_average.shape == (len(c_rows), len(grid), 4)
        for i, c_row in enumerate(c_rows):
            alone = coefficient_trajectory(sys, c_row, grid)
            np.testing.assert_array_equal(
                bits(stacked.coefficient_rows[i]), bits(alone.coefficient_rows)
            )
            np.testing.assert_array_equal(
                bits(stacked.running_average[i]), bits(alone.running_average)
            )

    def test_random_designs_from_the_workload_domain(self):
        # the benchmark's domain, nondimensional; a third row off the outputs
        rng = np.random.default_rng(18)
        for k in range(30):
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            omega = float(rng.uniform(0.5, 2.0))
            delta = float(rng.uniform(0.05, math.pi - 0.05)) if k % 4 == 0 else None
            result = design_ndpa(
                [math.cos(angle), math.sin(angle)], omega, float(rng.uniform(0.5, 2.0)),
                0.6 * (1.0 - float(rng.random())), delta,
            )
            sys = augment(result.observer)
            c_rows = np.vstack([sys.c, rng.normal(size=4)])
            grid = np.linspace(0.0, 80.0 / omega * 4.0 ** rng.random(), 2001)
            self.assert_stack_matches_rows(sys, c_rows, grid)
            self.assert_stack_matches_rows(sys, c_rows, grid + float(rng.uniform(0.1, 5.0)))

    def test_hyperbolic_control(self, example):
        # det Om < 0: the closed form takes cosh and sinh
        sys = augment(dataclasses.replace(example[0], **LADDER_VARIANTS["indefinite_r_o"]))
        assert dynamics._observer_blocks(sys.a)[4] < 0.0
        c_rows = np.vstack([sys.c, [0.7, -0.4, 1.3, 0.2]])
        for grid in (np.linspace(0.0, 2.0, 401), np.linspace(0.3, 2.0, 401)):
            self.assert_stack_matches_rows(sys, c_rows, grid)

    @pytest.mark.parametrize("shape", [(0, 4), (2, 3), (2, 2, 4), ()])
    def test_stack_shape_checked(self, example, shape):
        _, sys = example
        with pytest.raises(DimensionError):
            coefficient_trajectory(sys, np.ones(shape), [0.0, 1.0])

    @pytest.mark.parametrize("name", ["reference", "indefinite_r_o"])
    def test_series_boundary(self, example, name):
        # root * y == 1.0 takes the series, the next float above it cos or cosh
        sys = augment(dataclasses.replace(example[0], **LADDER_VARIANTS[name]))
        _, _, _, s, det = dynamics._observer_blocks(sys.a)
        assert (s, abs(det)) == (4.0, 1.0)  # root = 1 and y = 4 t, exactly
        grid = np.array([0.0, 0.25, np.nextafter(0.25, 1.0)])
        y = s * grid
        assert y[1] == 1.0 and y[2] == np.nextafter(1.0, 2.0)
        rows, averages = _kernels.weights(det, y)
        # f_m at x^2 = det y^2 for y = 0 and 1, by the series in the shape weights uses
        series = (det * y[:2, None] ** 2) ** np.arange(len(_kernels.SERIES)) @ _kernels.SERIES
        np.testing.assert_array_equal(bits(rows[1]), bits(series[1, :4]))
        np.testing.assert_array_equal(bits(averages[1]), bits(series[1, 1:]))
        f0, f1 = (np.cos, np.sin) if det > 0.0 else (np.cosh, np.sinh)
        assert bits(rows[2, 0]) == bits(f0(y[2:])[0])
        assert bits(averages[2, 0]) == bits((f1(y[2:]) / y[2:])[0])

        c_row = np.array([0.7, -0.4, 1.3, 0.2])
        traj = coefficient_trajectory(sys, c_row, grid)
        want = van_loan_rows(sys.a, c_row, grid)
        for closed, van_loan in zip((traj.coefficient_rows, traj.running_average), want):
            np.testing.assert_allclose(closed, van_loan, rtol=0.0, atol=1e-12 * maxabs(van_loan))


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
            _, averages = van_loan_rows(sys.a, sys.c[1], np.array([0.0, t_hor]))
            assert maxabs(sys.c[0] - averages[-1]) == close
            if name != "singular_r_o":  # the oracle inverts R_o
                assert maxabs(averaged_error_row(design, t_hor)) == close

    def test_full_rank_coupling_raises(self, example, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("an error was computed without the observer's structure")

        monkeypatch.setattr(dynamics, "_rows_and_averages", boom)
        with pytest.raises(StructureError, match="rank-one R_c"):
            verify_convergence(full_rank_design(example[0]))


def means(sys, x0, grid) -> np.ndarray:
    """Means z_i(t_k) = C_i exp(A t_k) x0 of every output row, shape (nt, m)."""
    rows = [coefficient_trajectory(sys, c, grid).coefficient_rows for c in sys.c]
    return np.column_stack([r @ x0 for r in rows])


class TestSimulateMeans:
    def test_zero_initial_state(self, example):
        _, sys = example
        np.testing.assert_array_equal(
            means(sys, np.zeros(4), np.linspace(0.0, 10.0, 101)), np.zeros((101, 2))
        )

    def test_plant_position_excited(self, example):
        # z_p mean frozen at 1; running average of z_o mean converges to it
        _, sys = example
        grid = np.linspace(0.0, 50.0, 4001)
        z = means(sys, np.array([1.0, 0.0, 0.0, 0.0]), grid)
        np.testing.assert_allclose(z[:, 0], np.ones(grid.size), atol=1e-10)
        z_o = z[:, 1]
        np.testing.assert_allclose(z_o, 1.0 - np.cos(4.0 * grid), atol=1e-9)
        running = np.cumsum(0.5 * np.diff(grid) * (z_o[1:] + z_o[:-1])) / grid[1:]
        assert running[-1] == pytest.approx(1.0, abs=0.01)

    def test_conjugate_quadrature_backaction(self, example):
        # exciting the measured quadrature drives the conjugate one linearly:
        # p_p(t) = |beta|^2/(2 omega_o) * z_p(0) * ... = 0.04 t - 0.01 sin(4t)
        _, sys = example
        sys_pp = LinearQuantumSystem(sys.a, [[0.0, 1.0, 0.0, 0.0]], sys.space)
        grid = np.linspace(0.0, 40.0, 2001)
        z = means(sys_pp, np.array([1.0, 0.0, 0.0, 0.0]), grid)
        expected = 0.04 * grid - 0.01 * np.sin(4.0 * grid)
        np.testing.assert_allclose(z[:, 0], expected, atol=1e-9)

    def test_conjugate_excitation_stays_silent(self, example):
        # a mean only in the unmeasured quadrature never reaches the observer
        _, sys = example
        grid = np.linspace(0.0, 20.0, 201)
        z = means(sys, np.array([0.0, 1.0, 0.0, 0.0]), grid)
        np.testing.assert_allclose(z, np.zeros((201, 2)), atol=1e-12)

    def test_consistency_with_coefficient_rows(self, example):
        # the means from coefficient rows against C exp(At) x0 by the propagator
        _, sys = example
        grid = np.linspace(0.0, 7.0, 57)
        x0 = np.array([0.3, -1.2, 0.7, 0.05])
        z = means(sys, x0, grid)
        assert z.shape == (grid.size, 2)
        for k, t in enumerate(grid):
            np.testing.assert_allclose(z[k], sys.c @ propagator(sys, t) @ x0, atol=1e-12)


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

    def test_takes_no_exponential(self, example, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("coefficient_trajectory ran the propagator")

        monkeypatch.setattr(dynamics, "propagator", boom)
        _, sys = example
        for grid in (np.linspace(0.0, 80.0, 2001), np.linspace(2.5, 30.0, 11), [0.1, 0.4, 3.7]):
            coefficient_trajectory(sys, sys.c[1], grid)


class TestDominantFrequency:
    """The report's oscillation frequency w = sqrt(det Om), read from the generator."""

    def test_detects_off_expected_signal(self, example):
        # the generator of omega_o = 1 oscillates at 4, whatever omega_o the design claims
        design, _ = example
        report = verify_convergence(dataclasses.replace(design, omega_o=2.0))
        assert report.expected_frequency == 8.0
        assert report.oscillation_frequency_estimate == pytest.approx(4.0, rel=1e-12)
        assert "observer oscillation frequency" in report.failures

    def test_valid_designs_oscillate_at_four_omega_o(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            arg_c = float(rng.uniform(-math.pi, math.pi))
            omega = float(10 ** rng.uniform(-2, 8))
            result = design_ndpa(
                [math.cos(arg_c), math.sin(arg_c)], omega,
                float(10 ** rng.uniform(-1, 1)) * omega, float(rng.uniform(0.01, 0.6)),
            )
            freq = verify_convergence(result.observer).oscillation_frequency_estimate
            assert freq == pytest.approx(4.0 * omega, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1e-300, 1e150])
    def test_independent_of_row_scale(self, example, scale):
        design, _ = example
        scaled = dataclasses.replace(design, c_o=scale * design.c_o)
        unscaled = verify_convergence(design).oscillation_frequency_estimate
        freq = verify_convergence(scaled).oscillation_frequency_estimate
        assert freq == pytest.approx(unscaled, rel=1e-15)

    def test_non_oscillating_rows_read_zero(self, example):
        # det Om = 0: the observer row drifts or stays, it does not oscillate
        for r_o in (np.diag([2.0, 0.0]), np.zeros((2, 2))):
            report = verify_convergence(dataclasses.replace(example[0], r_o=r_o))
            assert report.oscillation_frequency_estimate == 0.0
            assert "observer oscillation frequency" in report.failures

    def test_indefinite_observer_reads_zero(self, example):
        # R_o = diag(2, -2) makes the observer hyperbolic: no oscillation
        design, _ = example
        report = verify_convergence(dataclasses.replace(design, r_o=np.diag([2.0, -2.0])))
        check = next(c for c in report.checks if c.name == "observer oscillation frequency")
        assert not check.passed
        assert (check.value, check.threshold) == (0.0, 4.0)
        assert check.detail == "relative deviation 1.000e+00 from 4*omega_o"
        assert all(math.isfinite(v) for v in report.errors + report.ratios)
