import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from deadline import deadline
from qobserver import NonFiniteError, _kernels


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

