import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from deadline import deadline
from qobserver import (
    DimensionError,
    LinearQuantumSystem,
    NonFiniteError,
    QuadraticHamiltonian,
    StructureError,
    ccr_defect,
    SymplecticSpace,
    generator_from_hamiltonian,
    maxabs,
    propagator,
    realizability_defect,
)
from oracles import rk4_expm, rotation

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def one_mode_system(r):
    space = SymplecticSpace(1)
    return generator_from_hamiltonian(QuadraticHamiltonian(np.asarray(r, float), space))


def example_augmented():
    """Two-mode system of the reference design, nondimensionalized."""
    space = SymplecticSpace(2)
    r_c = np.outer([1.0, 0.0], [0.2, 0.0])
    r = np.zeros((4, 4))
    r[:2, 2:] = r_c
    r[2:, :2] = r_c.T
    r[2:, 2:] = 2.0 * np.eye(2)
    return generator_from_hamiltonian(QuadraticHamiltonian(r, space))


def test_maxabs_of_an_empty_array_is_zero():
    assert maxabs(np.zeros(0)) == 0.0
    assert type(maxabs(np.zeros(0))) is float


class TestSymplecticSpace:
    def test_one_mode_is_j(self):
        space = SymplecticSpace(1)
        assert np.array_equal(space.theta, J)

    def test_two_modes_block_diagonal(self):
        space = SymplecticSpace(2)
        expected = np.zeros((4, 4))
        expected[:2, :2] = J
        expected[2:, 2:] = J
        assert space.theta.shape == (4, 4)
        assert np.array_equal(space.theta, expected)

    def test_zero_modes_rejected(self):
        with pytest.raises(DimensionError):
            SymplecticSpace(0)

    def test_boolean_mode_count_rejected(self):
        with pytest.raises(DimensionError, match="got True"):
            SymplecticSpace(True)

    def test_numpy_integer_mode_count_accepted(self):
        space = SymplecticSpace(np.int64(2))
        assert type(space.modes) is int and space.modes == 2
        assert np.array_equal(space.theta, SymplecticSpace(2).theta)

    @pytest.mark.parametrize("modes", [1, 2, 3, 5])
    def test_theta_invariants_exact(self, modes):
        theta = SymplecticSpace(modes).theta
        assert np.array_equal(theta.T, -theta)
        assert np.array_equal(theta @ theta, -np.eye(2 * modes))

    def test_theta_is_read_only(self):
        space = SymplecticSpace(1)
        with pytest.raises(ValueError):
            space.theta[0, 0] = 5.0


class TestQuadraticHamiltonian:
    def test_symmetrized_and_asymmetry_recorded(self):
        space = SymplecticSpace(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = QuadraticHamiltonian(np.array([[1.0, 0.5], [0.2, 1.0]]), space)
        assert np.array_equal(h.r, h.r.T)
        assert h.asymmetry == pytest.approx(0.3)

    def test_clean_input_no_warning(self):
        space = SymplecticSpace(1)
        h = QuadraticHamiltonian(2.0 * np.eye(2), space)
        assert h.asymmetry == 0.0

    def test_dimension_mismatch(self):
        space = SymplecticSpace(2)
        with pytest.raises(DimensionError):
            QuadraticHamiltonian(np.eye(2), space)


class TestGenerator:
    def test_one_mode_harmonic(self):
        # R = 2 I gives A = 2 Theta R = 4 J
        sys = one_mode_system(2.0 * np.eye(2))
        assert np.array_equal(sys.a, 4.0 * J)

    def test_static_plant(self):
        sys = one_mode_system(np.zeros((2, 2)))
        assert np.array_equal(sys.a, np.zeros((2, 2)))

    def test_two_mode_blocks(self):
        # A = 2 diag(J, J) R reproduced block by block
        r_c = np.array([[0.2, 0.0], [0.0, 0.0]])
        sys = example_augmented()
        assert np.array_equal(sys.a[:2, 2:], 2.0 * J @ r_c)
        assert np.array_equal(sys.a[2:, :2], 2.0 * J @ r_c.T)
        assert np.array_equal(sys.a[2:, 2:], 4.0 * J)
        assert np.array_equal(sys.a[:2, :2], np.zeros((2, 2)))


class TestRealizability:
    def test_hamiltonian_generated_is_exact_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r = rng.normal(size=(4, 4))
            space = SymplecticSpace(2)
            sys = generator_from_hamiltonian(QuadraticHamiltonian((r + r.T) / 2, space))
            assert realizability_defect(sys) <= 1e-15 * max(1.0, np.max(np.abs(sys.a)))

    def test_pure_decay_defect_two(self):
        space = SymplecticSpace(1)
        sys = LinearQuantumSystem(np.eye(2), np.zeros((0, 2)), space)
        assert realizability_defect(sys) == pytest.approx(2.0)

    def test_zero_generator(self):
        space = SymplecticSpace(1)
        sys = LinearQuantumSystem(np.zeros((2, 2)), np.zeros((0, 2)), space)
        assert realizability_defect(sys) == 0.0


class TestPropagator:
    def test_identity_at_zero_dynamics(self):
        space = SymplecticSpace(1)
        sys = LinearQuantumSystem(np.zeros((2, 2)), np.zeros((0, 2)), space)
        for t in (0.0, 1.0, -3.5, 17.0):
            assert np.array_equal(propagator(sys, t), np.eye(2))

    @pytest.mark.parametrize("omega", [1.0, 1.3, 4.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 7.7])
    def test_rotation_closed_form(self, omega, t):
        space = SymplecticSpace(1)
        sys = LinearQuantumSystem(omega * J, np.zeros((0, 2)), space)
        np.testing.assert_allclose(propagator(sys, t), rotation(omega, t), atol=1e-13)

    def test_small_time_expansion(self):
        sys = example_augmented()
        t = 1e-3
        e = propagator(sys, t)
        linear = np.eye(4) + sys.a * t
        assert np.max(np.abs(e - linear)) <= 1.0 * (np.max(np.abs(sys.a)) * t) ** 2

    @pytest.mark.parametrize("t", [0.01, 0.5, 2.0, 5.0])
    def test_matches_rk4_oracle(self, t):
        sys = example_augmented()
        np.testing.assert_allclose(propagator(sys, t), rk4_expm(sys.a, t), atol=1e-9)

    def test_matches_scipy_on_random_generators(self):
        # one-mode generators have a closed form; general two-mode ones have
        # none and are refused
        rng = np.random.default_rng(11)
        for _ in range(5):
            r = rng.normal(size=(2, 2))
            sys = one_mode_system((r + r.T) / 2)
            for t in (0.3, 2.1):
                np.testing.assert_allclose(
                    propagator(sys, t), scipy_expm(sys.a * t), atol=1e-11, rtol=1e-11
                )
            r = rng.normal(size=(4, 4))
            sys = generator_from_hamiltonian(QuadraticHamiltonian((r + r.T) / 2, SymplecticSpace(2)))
            with pytest.raises(StructureError):
                propagator(sys, 0.3)

    def test_semigroup_property(self):
        sys = example_augmented()
        for s, t in [(0.5, 1.25), (2.0, 3.0), (10.0, 7.5)]:
            prod = propagator(sys, s) @ propagator(sys, t)
            np.testing.assert_allclose(propagator(sys, s + t), prod, atol=1e-10)

    def test_nonfinite_time_rejected(self):
        sys = example_augmented()
        with pytest.raises(ValueError):
            propagator(sys, np.inf)
        with pytest.raises(ValueError):
            propagator(sys, np.nan)

    def test_overflowing_argument_neither_hangs_nor_raises_overflow(self):
        # A t is inf for the augmented system (max|A| = 4); for A = J it is
        # finite, and its 1025 squarings no longer start from 2.0**1025
        unit = LinearQuantumSystem(J, np.zeros((0, 2)), SymplecticSpace(1))
        with deadline(10), np.errstate(all="ignore"):
            with pytest.raises(NonFiniteError):
                propagator(example_augmented(), 1e308)
            assert propagator(unit, 1e308).shape == (2, 2)

    def test_overflowing_argument_is_refused_before_the_weights(self):
        # Without the A t guard, cos and sin of an infinite argument would warn
        # ("invalid value encountered in cos"), an error under this suite's
        # warning filter; the guard keeps the library free of warnings.
        huge = LinearQuantumSystem(1e300 * J, np.zeros((0, 2)), SymplecticSpace(1))
        with pytest.raises(NonFiniteError, match=r"^A t overflows at \|t\| = 10000000000\.0$"):
            propagator(huge, 1e10)

    def test_generators_without_om_at_huge_times(self):
        # Om = 0 gives no time scale; weights y^m of t itself overflow beyond
        # 1e102 against chain rows that are exactly 0
        space = SymplecticSpace(2)
        zero = LinearQuantumSystem(np.zeros((4, 4)), np.zeros((0, 4)), space)
        for t in (1e110, 1e300, -1e300):
            assert np.array_equal(propagator(zero, t), np.eye(4))
        a = np.zeros((4, 4))
        a[:2, 2:], a[2:, :2] = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]
        nilpotent = LinearQuantumSystem(a, np.zeros((0, 4)), space)  # D P = 0: exp(At) = I + At
        for t in (1e110, -1e110):
            np.testing.assert_allclose(
                propagator(nilpotent, t), np.eye(4) + a * t, rtol=4 * np.finfo(float).eps, atol=0
            )


class TestCcrDefect:
    def test_zero_at_time_zero(self):
        assert ccr_defect(example_augmented(), 0.0) == 0.0

    def test_realizable_log_grid(self):
        # positive definite R keeps the flow oscillatory, so the propagator
        # stays bounded out to t = 100 and the defect stays at roundoff; a
        # general two-mode generator has no closed form and is refused
        systems = [example_augmented()]
        rng = np.random.default_rng(13)
        for _ in range(3):
            s = rng.normal(size=(2, 2))
            systems.append(one_mode_system(s @ s.T / 2))
            s = rng.normal(size=(4, 4))
            general = generator_from_hamiltonian(QuadraticHamiltonian(s @ s.T / 2, SymplecticSpace(2)))
            with pytest.raises(StructureError):
                ccr_defect(general, 1.0)
        for sys in systems:
            for t in np.logspace(-3, 2, 26):
                assert ccr_defect(sys, t) <= 1e-9

    def test_pure_decay_value(self):
        # exp(I t) Theta exp(I t) = e^{2t} Theta, so defect is e^2 - 1 at t = 1
        space = SymplecticSpace(1)
        sys = LinearQuantumSystem(np.eye(2), np.zeros((0, 2)), space)
        assert ccr_defect(sys, 1.0) == pytest.approx(math.exp(2.0) - 1.0, rel=1e-12)
