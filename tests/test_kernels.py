import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from deadline import deadline
from qobserver import NonFiniteError, _kernels, dynamics


def random_matrices(count, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, n)) * 10 ** rng.uniform(-2, 1) for _ in range(count)]


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(_kernels.expm(np.zeros((3, 3))), np.eye(3))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_against_scipy(self, n):
        for a in random_matrices(10, n, seed=n):
            expected = scipy_expm(a)
            scale = max(1.0, np.max(np.abs(expected)))
            got = _kernels.expm(np.ascontiguousarray(a))
            assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    def test_large_norm_argument(self):
        a = np.array([[0.0, 4.0], [-4.0, 0.0]]) * 80.0
        got = _kernels.expm(a)
        expected = scipy_expm(a)
        assert np.max(np.abs(got - expected)) <= 1e-11

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_input_is_typed(self, bad):
        a = np.zeros((2, 2))
        a[0, 1] = bad
        with deadline(10), pytest.raises(NonFiniteError):
            _kernels.expm(a)

    def test_largest_finite_input_returns(self):
        # 2**-s with s = 1026: no loop to find s and no 2.0**s to overflow
        a = np.array([[0.0, 1.7e308], [-1.7e308, 0.0]])
        with deadline(10), np.errstate(all="ignore"):
            assert _kernels.expm(a).shape == (2, 2)


class TestScans:
    # the uniform-grid scan of dynamics' Van Loan route, row by row against
    # repeated products of one step exp(A h)
    def test_row_scan_matches_direct(self):
        rng = np.random.default_rng(0)
        a = 0.5 * rng.normal(size=(4, 4))
        row0 = rng.normal(size=4)
        grid = np.linspace(0.0, 1.0, 51)
        rows, averages = dynamics._van_loan_rows(a, row0, grid)
        step = _kernels.expm(a * (grid[1] - grid[0]))
        acc = row0.copy()
        for k in range(51):
            np.testing.assert_allclose(rows[k], acc, rtol=0.0, atol=1e-13)
            acc = acc @ step
        np.testing.assert_array_equal(averages[0], row0)

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 2000])
    def test_blocked_row_scan_matches_direct_powers(self, count):
        # count + 1 points: 0 and 1 take the per-point route, the rest the scan
        rng = np.random.default_rng(count)
        a = rng.normal(size=(4, 4))
        a = a - a.T  # skew: rows keep their size
        row0 = rng.normal(size=4)
        grid = 0.04 * np.arange(count + 1)
        rows, averages = dynamics._van_loan_rows(a, row0, grid)
        assert rows.shape == averages.shape == (count + 1, 4)
        np.testing.assert_array_equal(rows[0], row0)
        step = _kernels.expm(0.04 * a)
        direct = [row0 @ np.linalg.matrix_power(step, k) for k in range(count + 1)]
        np.testing.assert_allclose(rows, direct, rtol=0.0, atol=1e-12)
