import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from qobserver import _kernels


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


class TestScans:
    def test_row_scan_matches_direct(self):
        rng = np.random.default_rng(0)
        step = np.eye(4) + 0.01 * rng.normal(size=(4, 4))
        row0 = rng.normal(size=4)
        rows = _kernels.row_scan(row0, step, 50)
        acc = row0.copy()
        for k in range(51):
            np.testing.assert_allclose(rows[k], acc, atol=1e-13)
            acc = acc @ step

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 2000])
    def test_blocked_row_scan_matches_direct_powers(self, count):
        # count + 1 rows: 64 fill one block exactly, 65 and 66 spill into a second
        rng = np.random.default_rng(count)
        a = rng.normal(size=(4, 4))
        step = scipy_expm(0.04 * (a - a.T))  # orthogonal: rows keep their size
        row0 = rng.normal(size=4)
        rows = _kernels.row_scan(row0, step, count)
        assert rows.shape == (count + 1, 4)
        np.testing.assert_array_equal(rows[0], row0)
        direct = [row0 @ np.linalg.matrix_power(step, k) for k in range(count + 1)]
        np.testing.assert_allclose(rows, direct, rtol=0.0, atol=1e-12)
