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
