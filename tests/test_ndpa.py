import cmath
import math
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from qobserver import (
    DesignError,
    FactorizationError,
    InputError,
    PlantSpec,
    QObserverError,
    StructureError,
    ZeroCouplingError,
    design_ndpa,
    synthesize_observer,
    verify_convergence,
    wrap_angle,
)
from qobserver import ndpa
from qobserver.ndpa import (
    build_open_ndpa,
    close_loop,
    coupling_block,
    extract_beta,
    hamiltonian_from_drift,
    quadrature_hamiltonian,
    solve_phases,
    solve_theta,
)
from oracles import (
    close_loop_by_inversion,
    mp_close_loop,
    numpy_close_loop,
    numpy_hamiltonian_from_drift,
    numpy_open_ndpa,
    numpy_quadrature_hamiltonian,
)


J_PM = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def ratio_residual(theta, eps_ratio):
    return abs(math.sin(theta) / (1.0 - math.cos(theta)) - eps_ratio)


class TestSolveTheta:
    def test_reference_ratio(self):
        theta = solve_theta(0.1)
        assert math.degrees(theta) == pytest.approx(168.58, abs=0.01)
        assert ratio_residual(theta, 0.1) <= 1e-12

    def test_small_ratio_approaches_pi(self):
        assert solve_theta(1e-9) == pytest.approx(math.pi, abs=1e-6)

    def test_unit_ratio_is_right_angle(self):
        theta = solve_theta(1.0)
        assert theta == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert ratio_residual(theta, 1.0) <= 1e-12

    def test_untrusted_ratio_solves_without_warning(self):
        # the untrusted range is flagged in DesignReport.warnings only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = solve_theta(0.7)
        assert ratio_residual(theta, 0.7) <= 1e-12

    def test_residual_over_log_grid(self):
        for r in np.logspace(-3, math.log10(0.6), 40):
            assert ratio_residual(solve_theta(float(r)), float(r)) <= 1e-12


class TestSolvePhases:
    def test_position_quadrature_default(self):
        result = design_ndpa([1.0, 0.0], 1.0, 1.0, 0.1)
        assert cmath.phase(result.params.epsilon) == -math.pi / 2.0
        assert result.params.phi == -math.pi / 2.0
        assert result.report.delta == math.pi / 2.0

    def test_momentum_quadrature(self):
        psi, phi = solve_phases(math.pi / 2.0, math.pi / 2.0)
        assert psi == pytest.approx(0.0, abs=1e-15)
        assert phi == pytest.approx(math.pi, abs=1e-15)
        # direct evaluation: arg(e^{i 0} - e^{-i pi}) = arg(2) = 0 = pi/2 - pi/2
        value = cmath.phase(cmath.exp(1j * psi) - cmath.exp(-1j * phi))
        assert value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("delta", [math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0])
    def test_orientation_condition_on_grid(self, delta):
        for arg_c in np.linspace(-math.pi, math.pi, 100, endpoint=False) + math.pi / 100:
            psi, phi = solve_phases(float(arg_c), delta)
            resid = wrap_angle(
                cmath.phase(cmath.exp(1j * psi) - cmath.exp(-1j * phi))
                - (arg_c - math.pi / 2.0)
            )
            assert abs(resid) <= 1e-12


class TestOpenModel:
    def test_drift_blocks(self):
        drift = np.array(build_open_ndpa(2.0, 0.3 - 0.1j, 1.5))
        np.testing.assert_allclose(np.diag(drift[:2, :2]), [-1.0, -1.0 - 1.5j])
        np.testing.assert_allclose(drift[:2, 2:], [[0.0, 0.15 - 0.05j], [0.15 - 0.05j, 0.0]])
        np.testing.assert_allclose(drift[2:, 2:], drift[:2, :2].conj())

    def test_zero_squeezing_decouples(self):
        drift = np.array(build_open_ndpa(1.0, 0j, 1.0))
        assert np.max(np.abs(drift[:2, 2:])) == 0.0


class TestCloseLoop:
    def test_reference_entries(self):
        f = np.array(close_loop(build_open_ndpa(1.0, -0.1j, 1.0), 1.0, 0.1, -math.pi / 2.0))
        assert f[0, 1] == pytest.approx(-0.05j, abs=1e-15)
        assert f[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert f[1, 1] == pytest.approx(-1.0j, abs=1e-15)
        assert f[3, 3] == pytest.approx(1.0j, abs=1e-15)
        assert f[0, 3] == pytest.approx(-0.05j, abs=1e-15)

    def test_theta_pi_kills_loop_terms(self):
        # theta = pi is the ratio 0
        f = close_loop(build_open_ndpa(1.0, 0j, 2.0), 1.0, 0.0, 0.7)
        expected = np.diag([0.0, -2.0j, 0.0, 2.0j])
        np.testing.assert_allclose(f, expected, atol=1e-15)

    def test_matches_inversion_oracle(self):
        # The oracle inverts the elimination at theta in 50-digit arithmetic;
        # close_loop reads the ratio cot(theta/2).  Beside the drawn angles,
        # the ratios 10^k, k = -12..15, take theta from within 2e-12 of pi
        # down to 2e-15, where cos(theta) - 1 in doubles has lost every digit.
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(21)
        for _ in range(50):
            gamma = float(10 ** rng.uniform(-1, 1))
            eps = gamma * rng.uniform(0.01, 0.6) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            omega = float(10 ** rng.uniform(-1, 1))
            theta = float(rng.uniform(0.1, math.pi - 1e-3))
            phi = float(rng.uniform(-math.pi, math.pi))
            for ratio in (1.0 / math.tan(theta / 2.0), *(10.0**k for k in range(-12, 16))):
                f = close_loop(build_open_ndpa(gamma, eps, omega), gamma, ratio, phi)
                f_oracle = mp_close_loop(gamma, eps, omega, solve_theta(ratio), phi)
                assert np.max(np.abs(f - f_oracle)) <= 1e-12 * max(1.0, np.max(np.abs(f)))

    @pytest.mark.parametrize("ratio", [10.0**k for k in range(4, 10)])
    def test_inversion_oracle_keeps_the_damping_at_large_ratios(self, ratio):
        # The double-precision oracle of perfbench's gate and criterion 6
        # forms cos(theta) - 1 as -2 sin(theta/2)^2, so its damping cancels
        # as at 50 digits.  The diagonal, of size gamma and omega_o, is held
        # to gamma, not to max|F| ~ gamma ratio / 2; worst measured defect
        # 3.9e-16 gamma (by subtraction: 8.1e-10 gamma at 1e4, gamma/2 at 1e9).
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(23)
        theta = solve_theta(ratio)
        for _ in range(20):
            gamma = float(10 ** rng.uniform(-1, 1))
            eps = gamma * ratio * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            omega = float(10 ** rng.uniform(-1, 1))
            phi = float(rng.uniform(-math.pi, math.pi))
            defect = np.abs(
                close_loop_by_inversion(gamma, eps, omega, theta, phi)
                - mp_close_loop(gamma, eps, omega, theta, phi)
            )
            assert np.max(np.diag(defect)) <= 4e-15 * gamma
            assert np.max(defect) <= 1e-14 * gamma * ratio

    @pytest.mark.parametrize("ratio", [1e-300, 1e-9, 0.1, 1e9, 1e300])
    def test_loop_terms_are_exact_at_every_ratio(self, ratio):
        # no angle is formed, so the damping cancels and the loop terms are
        # -alpha*/2 and alpha/2 to the bit, at either end of (0, pi)
        gamma, phi = 3.0, 0.7
        alpha = gamma * ratio * cmath.exp(1j * phi)
        f = close_loop(build_open_ndpa(gamma, 0.5j, 2.0), gamma, ratio, phi)
        assert (f[0][0], f[1][1], f[0][1], f[1][0]) == (0.0, -2.0j, -alpha.conjugate() / 2.0, alpha / 2.0)


class TestHamiltonianFromDrift:
    def test_detuning_entry(self):
        f = close_loop(build_open_ndpa(1.0, -0.1j, 1.0), 1.0, 0.1, -math.pi / 2.0)
        m = np.array(hamiltonian_from_drift(f))
        assert m[1, 1] == pytest.approx(1.0, abs=1e-15)
        assert m[3, 3] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-15

    def test_zero_drift(self):
        zero = np.zeros((4, 4), dtype=complex)
        np.testing.assert_array_equal(hamiltonian_from_drift(zero), zero)

    def test_round_trip_recovers_hamiltonian(self):
        # undamped drift F = -i J M0 must give back M0 for Hermitian M0
        rng = np.random.default_rng(17)
        for _ in range(20):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m0 = (raw + raw.conj().T) / 2.0
            f = -1j * J_PM @ m0
            np.testing.assert_allclose(hamiltonian_from_drift(f), m0, atol=1e-14)

    def test_exactly_hermitian_on_extreme_drifts(self):
        # Entry magnitudes from 1e-320 to 1e308; one draw in seven carries an
        # inf or nan entry.  Equality is exact (+0 == -0), nan where mirrored.
        rng = np.random.default_rng(29)
        specials = (complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.nan, 1.0))
        nonfinite = 0
        for _ in range(4000):
            signs = rng.choice([-1.0, 1.0], size=(2, 4, 4))
            parts = signs * 10.0 ** rng.uniform(-320, 308, size=(2, 4, 4))
            f = parts[0] + 1j * parts[1]
            if rng.random() < 1.0 / 7.0:
                f[tuple(rng.integers(4, size=2))] = specials[rng.integers(len(specials))]
            with np.errstate(all="ignore"):
                m = np.array(hamiltonian_from_drift(f.tolist()))
            nonfinite += not np.isfinite(m).all()
            assert np.array_equal(m, m.conj().T, equal_nan=True)
        assert nonfinite > 0


class TestQuadratureHamiltonian:
    def test_reference_block_form(self):
        f = close_loop(build_open_ndpa(1.0, -0.1j, 1.0), 1.0, 0.1, -math.pi / 2.0)
        r = quadrature_hamiltonian(hamiltonian_from_drift(f))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = 0.2
        expected[2:, 2:] = 2.0 * np.eye(2)
        np.testing.assert_allclose(r, expected, atol=1e-12)

    def test_uniform_detuning(self):
        omega = 0.7
        r = quadrature_hamiltonian(omega * np.eye(4, dtype=complex))
        np.testing.assert_allclose(r, 2.0 * omega * np.eye(4), atol=1e-15)

    def test_zero(self):
        np.testing.assert_array_equal(
            quadrature_hamiltonian(np.zeros((4, 4), dtype=complex)), np.zeros((4, 4))
        )

    def test_invalid_structure_rejected(self):
        # Hermitian but not doubled-up: a^dag a with no mirror term
        bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(StructureError):
            quadrature_hamiltonian(bad)


def log_uniform(low: float, high: float):
    """10^e with e uniform in [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


# gamma and omega_o over 1e+-300, subnormal, or near the top of the float range
POSITIVE = st.one_of(
    log_uniform(-300.0, 300.0),
    st.floats(5e-324, 2.2250738585072014e-308, exclude_max=True),
    st.floats(1e307, 1.7976931348623157e308),
)
PHASE = st.floats(-math.pi, math.pi)


def same_bits(got, want) -> bool:
    """Equal to the bit, float by float, a nan matching any nan."""
    got = np.asarray(got).view(np.float64)
    want = np.asarray(want).view(np.float64)
    nan = np.isnan(got)
    return np.array_equal(nan, np.isnan(want)) and np.array_equal(
        got[~nan].view(np.uint64), want[~nan].view(np.uint64)
    )


def same_values(got, want) -> bool:
    """Equal float by float, where +0 equals -0 and a nan matches a nan."""
    got = np.asarray(got).view(np.float64)
    return np.array_equal(got, np.asarray(want).view(np.float64), equal_nan=True)


def matrix_or_refusal(stage, arg):
    try:
        return np.array(stage(arg))
    except QObserverError as exc:
        return type(exc)


class TestRouteMatchesMatrixProducts:
    """The physical route's stages against the numpy array operations and complex
    matrix products they replace (`oracles.numpy_*`).

    Phi and J hold only 0, +-1 and +-i, so every product on the route is exact
    or one two-term sum, and the entries agree in value; F is formed by the
    same operations and agrees to the bit.  A numpy product spreads a
    non-finite entry of an operand over whole rows (0 * inf = nan), which the
    entrywise stages do not, so M is compared where F is finite and R where M
    is; design_ndpa refuses every input whose F is not finite at extract_beta.
    """

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        gamma=POSITIVE, omega_o=POSITIVE, ratio=log_uniform(-12.0, 15.0), psi=PHASE, phi=PHASE
    )
    def test_stages_match_the_matrix_products(self, gamma, omega_o, ratio, psi, phi):
        epsilon = gamma * ratio * cmath.exp(1j * psi)  # as design_ndpa forms it
        with np.errstate(all="ignore"):
            want_f = numpy_close_loop(numpy_open_ndpa(gamma, epsilon, omega_o), gamma, ratio, phi)
            want_m = numpy_hamiltonian_from_drift(want_f)
            want_r = matrix_or_refusal(numpy_quadrature_hamiltonian, want_m)
        f = close_loop(build_open_ndpa(gamma, epsilon, omega_o), gamma, ratio, phi)
        m = hamiltonian_from_drift(f)
        r = matrix_or_refusal(quadrature_hamiltonian, m)
        assert same_bits(f, want_f)
        if isinstance(r, type) or isinstance(want_r, type):
            assert r is want_r
        if np.isfinite(want_f).all():
            assert same_values(m, want_m)
            if np.isfinite(want_m).all() and not isinstance(r, type):
                assert same_values(r, want_r)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        c_p=st.lists(
            st.tuples(st.sampled_from([1.0, -1.0]), log_uniform(-100.0, 100.0)).map(
                lambda p: p[0] * p[1]
            ),
            min_size=2,
            max_size=2,
        ),
        omega_o=log_uniform(-150.0, 150.0),
        gamma=log_uniform(-150.0, 150.0),
        ratio=log_uniform(-12.0, 15.0),
        delta=st.floats(0.01, 3.13),
    )
    def test_design_builds_the_public_observer(self, c_p, omega_o, gamma, ratio, delta):
        try:
            result = design_ndpa(c_p, omega_o, gamma, ratio, delta)
        except QObserverError:
            return
        got = result.observer()
        want = synthesize_observer(PlantSpec(c_p), omega_o, got.beta)
        assert type(got.omega_o) is float and got.omega_o == want.omega_o
        for name in ("c_p", "r_o", "r_c", "beta", "c_o"):
            value = getattr(got, name)
            assert value.dtype == getattr(want, name).dtype and not value.flags.writeable
            assert same_bits(value, getattr(want, name)), name
        for name, kind in (("f", complex), ("m", complex), ("r", float)):
            rows = getattr(result, name)
            assert type(rows) is tuple and len(rows) == 4, name
            assert all(type(row) is tuple and list(map(type, row)) == [kind] * 4 for row in rows), name


class TestCouplingBlock:
    def test_reference_values(self):
        r_c = coupling_block(-1e7j, -1e7j)
        np.testing.assert_allclose(r_c, [[2e7, 0.0], [0.0, 0.0]], atol=0.0)

    def test_zero(self):
        np.testing.assert_array_equal(coupling_block(0j, 0j), np.zeros((2, 2)))

    def test_determinant_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            eps = complex(rng.normal(), rng.normal())
            alpha = complex(rng.normal(), rng.normal())
            det = np.linalg.det(coupling_block(eps, alpha))
            expected = abs(alpha) ** 2 - abs(eps) ** 2
            assert det == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))

    def test_rank_one_on_design_curve(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            mag = float(10 ** rng.uniform(-2, 2))
            eps = mag * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            alpha = mag * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            det = np.linalg.det(coupling_block(eps, alpha))
            assert abs(det) <= 1e-9 * mag**2


class TestExtractBeta:
    def test_reference(self):
        beta, residual, scale = extract_beta(((2e7, 0.0), (0.0, 0.0)), (1.0, 0.0))
        np.testing.assert_allclose(beta, [2e7, 0.0], atol=0.0)
        assert (residual, scale) == (0.0, 2e7)

    def test_zero_block_rejected(self):
        with pytest.raises(ZeroCouplingError):
            extract_beta(((0.0, 0.0), (0.0, 0.0)), (1.0, 0.0))

    def test_round_trip(self):
        c_p = (0.6, 0.8)
        r_c = np.outer(c_p, [3.0, -4.0]).tolist()
        np.testing.assert_allclose(extract_beta(r_c, c_p)[0], [3.0, -4.0], rtol=1e-12)

    def test_full_rank_rejected(self):
        with pytest.raises(FactorizationError):
            extract_beta(((1.0, 0.0), (0.0, 1.0)), (1.0, 0.0))

    def test_underflowing_selector_rejected(self):
        # |C_p|^2 = 1e-400 rounds to 0, which would make beta infinite
        with pytest.raises(DesignError, match="underflows"):
            extract_beta(np.outer([1e-200, 0.0], [0.2, 0.0]).tolist(), (1e-200, 0.0))


class TestDesignPipeline:
    def test_reference_example_si(self):
        result = design_ndpa([1.0, 0.0], 1e8, 1e8, 0.1)
        p = result.params
        assert math.degrees(p.theta) == pytest.approx(168.58, abs=0.01)
        assert math.atan2(p.epsilon.imag, p.epsilon.real) == -math.pi / 2.0
        assert p.phi == -math.pi / 2.0
        assert p.epsilon.real == pytest.approx(0.0, abs=1e-12 * 1e7)
        assert p.epsilon.imag == pytest.approx(-1e7, rel=1e-12)
        np.testing.assert_allclose(result.beta, [2e7, 0.0], atol=1e-9 * 2e7)
        np.testing.assert_allclose(result.c_o, [-10.0, 0.0], atol=1e-9 * 10.0)
        assert result.alpha == pytest.approx(-1e7j, abs=1e-12 * 1e7)
        assert not result.report.warnings

    @pytest.mark.parametrize("inputs", [
        ([1.0, 0.0], 1.0, 1.0, 0.1),
        ([0.3, -0.8], 2.0, 1.5, 0.3, 2.0),  # a non-default delta
        ([1, 0], 1e8, 1e8, 0.7),  # an untrusted ratio, integer entries
        ((0.6, -0.8), 1.0, 3.0, 1e-9, math.pi / 4.0),
    ])
    def test_design_ndpa_returns_the_solved_design(self, inputs):
        result = design_ndpa(*inputs)
        assert type(result) is ndpa.Design
        assert result == ndpa.solve_design(*ndpa.check_design_inputs(*inputs))

    def test_momentum_quadrature(self):
        result = design_ndpa([0.0, 1.0], 1.0, 1.0, 0.1)
        assert result.report.arg_c == pytest.approx(math.pi / 2.0)
        assert result.report.cross_check_defect <= 1e-9

    def test_untrusted_ratio_warns_and_succeeds(self):
        result = design_ndpa([1.0, 0.0], 1.0, 1.0, 0.7)
        assert len(result.report.warnings) == 1
        assert "above trusted range" in result.report.warnings[0]
        assert not result.params.linearization_trusted
        assert result.report.cross_check_defect <= 1e-9

    def test_alpha_magnitude_matches_epsilon(self):
        result = design_ndpa([1.0, 0.0], 1.0, 1.0, 0.25)
        assert result.report.alpha_magnitude_defect <= 1e-12

    @pytest.mark.parametrize("ratio", [1e-6, 1e-9, 1e-12, 1e-15])
    def test_small_ratios_design_and_verify(self, ratio):
        # theta is near pi, where sin(theta)/(1 - cos(theta)) loses the ratio;
        # alpha = gamma * ratio * e^{i phi} keeps R_c rank one
        result = design_ndpa([0.6, -0.8], 1.0, 3.0, ratio, 2.0)
        alpha = result.alpha
        assert cmath.phase(alpha) == pytest.approx(result.params.phi, abs=1e-15)
        assert abs(alpha) == pytest.approx(3.0 * ratio, rel=1e-15)
        assert abs(result.report.det_r_c) <= 1e-15
        assert result.report.cross_check_defect <= 1e-15
        assert verify_convergence(result.observer()).passed

    @pytest.mark.parametrize("k", [*range(15), 100, 200])
    def test_large_ratios_design_and_verify(self, k):
        # theta nears 0, where 1 - cos(theta) loses its digits; the loop
        # closure reads the ratio instead, up to 1e14 here
        ratio = 10.0 ** (4 + 0.05 * k)
        result = design_ndpa([1.0, 0.0], 1.0, 1.0, ratio)
        assert result.report.cross_check_defect <= 1e-15 * ratio
        assert result.report.theta_residual <= 1e-15 * ratio
        assert verify_convergence(result.observer()).passed

    def test_ratio_whose_angle_rounds_to_pi_names_the_ratio(self):
        with pytest.raises(DesignError, match=r"at squeezing ratio 1e-17; .* rounds to pi"):
            design_ndpa([1.0, 0.0], 1.0, 1.0, 1e-17)

    def test_r_block_form(self):
        result = design_ndpa([0.3, -0.8], 2.0, 1.5, 0.3)
        r = np.asarray(result.r)
        np.testing.assert_allclose(r[:2, :2], np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(r[2:, 2:], 2.0 * 2.0 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(r[:2, 2:], np.outer([0.3, -0.8], result.beta), atol=1e-12)

    @pytest.mark.parametrize("delta", [math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0])
    def test_cross_check_random_draws(self, delta):
        rng = np.random.default_rng(hash(delta) % 2**32)
        for _ in range(30):
            arg_c = float(rng.uniform(-math.pi, math.pi))
            c_p = [math.cos(arg_c), math.sin(arg_c)]
            omega = float(10 ** rng.uniform(-1, 1))
            gamma = float(10 ** rng.uniform(-1, 1))
            ratio = float(rng.uniform(0.01, 0.6))
            result = design_ndpa(c_p, omega, gamma, ratio, delta)
            scale = max(1.0, float(np.max(np.abs(result.r))))
            assert result.report.cross_check_defect <= 1e-9 * scale
            assert result.report.arg_identity_residual <= 1e-9

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InputError, match="^cp: plant output selector is zero$"):
            design_ndpa([0.0, 0.0], 1.0, 1.0, 0.1)
        with pytest.raises(InputError, match=r"^omega_o: must be positive, got -1\.0$"):
            design_ndpa([1.0, 0.0], -1.0, 1.0, 0.1)
        with pytest.raises(InputError, match=r"^gamma: must be positive, got 0\.0$"):
            design_ndpa([1.0, 0.0], 1.0, 0.0, 0.1)
        with pytest.raises(InputError, match=r"^eps_ratio: must be positive, got -0\.1$"):
            design_ndpa([1.0, 0.0], 1.0, 1.0, -0.1)

    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for name in ("omega_o", "gamma", "eps_ratio")
            for value in (math.nan, math.inf, -math.inf)
        ]
        + [("delta", value) for value in (math.nan, math.inf, 0.0, math.pi, -0.3, 4.0)],
    )
    def test_nonfinite_inputs_rejected_before_any_stage(self, monkeypatch, name, value):
        # and a delta outside (0, pi), which solve_phases no longer checks
        def boom(*args, **kwargs):
            raise AssertionError("a design stage ran on an input outside its domain")

        monkeypatch.setattr(ndpa, "solve_theta", boom)
        inputs = {"omega_o": 1.0, "gamma": 1.0, "eps_ratio": 0.1, name: value}
        with pytest.raises(InputError, match=r"must be finite|must lie in \(0, pi\)") as caught:
            design_ndpa([1.0, 0.0], **inputs)
        assert caught.value.name == name


class TestAngles:
    def test_wrap_angle_range(self):
        for x in np.linspace(-20.0, 20.0, 500):
            w = wrap_angle(float(x))
            assert -math.pi < w <= math.pi
            assert abs(wrap_angle(w - x)) <= 1e-9

    def test_wrap_angle_boundaries(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3.0 * math.pi / 2.0) == -math.pi / 2.0
        # the rounded multiple of 2 pi leaves this one just above pi
        assert -math.pi < wrap_angle(-1995.0 * math.pi) < -math.pi + 1e-9
