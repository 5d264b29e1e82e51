"""The closed form's weights in `qobserver._kernels`, and exp(A t) as `propagator`
builds it from them: the observer's 4 x 4 generator, any 2 x 2 generator, and a
StructureError for every other."""

import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from deadline import deadline
from qobserver import (
    InputError, LinearQuantumSystem, NonFiniteError, PlantSpec, StructureError, SymplecticSpace,
    augment, core, propagator, synthesize_observer,
)
from qobserver import _kernels
from oracles import hamiltonian_system

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def system(a):
    a = np.asarray(a, dtype=float)
    return LinearQuantumSystem(a, np.zeros((0, a.shape[0])), SymplecticSpace(a.shape[0] // 2))


def random_generators(count, seed):
    """2 x 2 generators, traceless (a one-mode Hamiltonian's) and not."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        a = rng.normal(size=(2, 2)) * 10 ** rng.uniform(-2, 1)
        out.append(a - np.trace(a) / 2.0 * np.eye(2) if k % 2 else a)
    return out


def random_designs(count, seed):
    """Augmented observer systems with |C_p|, omega_o and |beta| log-uniform in 1e-3..1e3."""
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        c, omega_o, b = 10 ** rng.uniform(-3, 3, 3)
        arg_c, arg_b = rng.uniform(-math.pi, math.pi, 2)
        c_p = [c * math.cos(arg_c), c * math.sin(arg_c)]
        beta = [b * math.cos(arg_b), b * math.sin(arg_b)]
        systems.append(augment(synthesize_observer(PlantSpec(c_p), omega_o, beta)))
    return systems


def series_f(z, m, mpmath):
    """f_m at x^2 = z, sum_k (-z)^k / (2k + m)!, at the working precision of mpmath."""
    term, total, k = 1 / mpmath.factorial(m), 0, 0
    while k * k <= abs(z) or abs(term) > mpmath.eps * abs(total):
        total, k = total + term, k + 1
        term *= -z / ((2 * k + m - 1) * (2 * k + m))
    return total


class TestWeights:
    @pytest.mark.parametrize("det", [1.0, 0.37, -1.0, -2.5, 0.0, 1e-30])
    def test_match_the_series_at_sixty_digits(self, det):
        # y^m f_m and y^m f_(m+1), m = 0..3, on both sides of the switch at |x| = 1
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        top = 30.0 / math.sqrt(abs(det)) if det else 30.0
        y = np.concatenate([[0.0], np.geomspace(1e-6, top, 40)])
        rows, averages = _kernels.weights(det, y)
        for k, y_k in enumerate(y):
            f = [series_f(mpmath.mpf(det) * mpmath.mpf(y_k) ** 2, m, mpmath) for m in range(5)]
            for got, shift in ((rows[k], 0), (averages[k], 1)):
                want = np.array([float(mpmath.mpf(y_k) ** m * f[m + shift]) for m in range(4)])
                assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("det", [1.0, -0.5])
    def test_averages_integrate_the_rows(self, det):
        # y * average_m(y) = int_0^y row_m(s) ds, by 40-point Gauss-Legendre
        nodes, w = np.polynomial.legendre.leggauss(40)  # nodes ascending, as weights needs
        for y in (0.3, 1.7, 6.0):
            rows, _ = _kernels.weights(det, y * (nodes + 1.0) / 2.0)
            _, averages = _kernels.weights(det, np.array([y]))
            np.testing.assert_allclose(y * averages[0], y / 2.0 * w @ rows, rtol=1e-13)

    def test_zero_det_is_the_polynomial(self):
        y = np.array([0.0, 0.5, 2.0, 1e3])
        rows, averages = _kernels.weights(0.0, y)
        powers = y[:, None] ** np.arange(4)
        np.testing.assert_allclose(rows, powers / [1, 1, 2, 6], rtol=1e-15)
        np.testing.assert_allclose(averages, powers / [1, 2, 6, 24], rtol=1e-15)


class TestExpm:
    """exp(A t) as `propagator` computes it, the library's one matrix exponential."""

    def test_zero_matrix(self):
        for n in (2, 4):
            for t in (0.0, 2.5, -17.0):
                np.testing.assert_array_equal(propagator(system(np.zeros((n, n))), t), np.eye(n))

    @pytest.mark.parametrize("n", [2, 4])
    def test_against_scipy(self, n):
        # at |A| t <= 20, relative to max|exp(At)|: 2 x 2 generators within 1e-11, since
        # scipy's own error reaches 3.3e-12 there (against 50-digit mpmath), and observer
        # designs within ROADMAP item 7's 3.4e-13, measured over 2000 designs
        rng = np.random.default_rng(n)
        if n == 2:
            systems, bound = [system(a) for a in random_generators(40, seed=n)], 1e-11
        else:
            systems, bound = random_designs(200, seed=n), 3.4e-13
        for sys in systems:
            for t in rng.uniform(0.0, 20.0, 4) / np.max(np.abs(sys.a)):
                want = scipy_expm(sys.a * t)
                assert np.max(np.abs(propagator(sys, t) - want)) <= bound * np.max(np.abs(want))

    def test_two_by_two_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(5)
        for a in random_generators(40, seed=5):
            for t in rng.uniform(0.0, 20.0, 2) / np.max(np.abs(a)):
                want = np.array(mpmath.expm(mpmath.matrix(a.tolist()) * t).tolist(), dtype=float)
                got = propagator(system(a), t)
                assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want))

    def test_negative_time_is_the_inverse(self):
        systems = [system(a) for a in random_generators(6, seed=7)] + random_designs(6, seed=7)
        for sys in systems:
            for t in (0.3, 2.0):
                t = t / np.max(np.abs(sys.a))
                want = scipy_expm(-sys.a * t)
                assert np.max(np.abs(propagator(sys, -t) - want)) <= 1e-13 * np.max(np.abs(want))
                n = sys.space.n
                np.testing.assert_allclose(propagator(sys, -t) @ propagator(sys, t), np.eye(n),
                                           atol=1e-13)

    def test_long_times_match_mpmath(self):
        # The design of ROADMAP item 7, where scaling and squaring of a Taylor
        # series was off by 1.9e8 and 5.5e105 of max|exp(At)|
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        sys = augment(synthesize_observer(
            PlantSpec([-1.0392571047529968, 1.6403754882158161]), 0.03232928049401393,
            [-91.33858634984519, 18.000977836840207],
        ))
        for t in (144.6, 1445.6):
            want = np.array((mpmath.expm(mpmath.matrix(sys.a.tolist()) * t)).tolist(), dtype=float)
            assert np.max(np.abs(propagator(sys, t) - want)) <= 1e-9 * np.max(np.abs(want))

    def test_large_norm_argument(self):
        got = propagator(system(4.0 * J), 80.0)
        np.testing.assert_allclose(got, scipy_expm(320.0 * J), atol=1e-13)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_input_is_typed(self, bad):
        with deadline(10), pytest.raises(InputError, match="t: propagation time must be finite"):
            propagator(system(J), bad)

    def test_largest_finite_input_returns(self):
        # y = s t stays finite: the weights are taken in units of s = max|A|
        with deadline(10):
            e = propagator(system(J), 1e308)
        np.testing.assert_allclose(e @ e.T, np.eye(2), atol=1e-15)

    def test_overflow_is_typed(self):
        with deadline(10), np.errstate(all="ignore"):
            # cosh and e^(tau t) overflow, A t overflows
            for a, t in (([[0.0, 1.0], [1.0, 0.0]], 1e3), (np.eye(2), 1e3), (1e300 * J, 1e10),
                         (random_designs(1, seed=1)[0].a, 1e308)):
                with pytest.raises(NonFiniteError):
                    propagator(system(a), t)

    def test_other_generators_raise_structure_error(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            r = rng.normal(size=(2 * n, 2 * n))
            sys = hamiltonian_system(r + r.T)
            with pytest.raises(StructureError):
                propagator(sys, 0.5)

    def test_core_runs_no_kernel(self):
        assert not hasattr(core, "_kernels") and not hasattr(core, "propagator")
