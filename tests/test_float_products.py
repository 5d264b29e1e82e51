"""The design path forms on Python floats the products whose rounding reaches a
report; each must equal numpy's float64 result bit for bit: `core.dot2` against
the 2-entry dot (|C_p|^2 and |unit|^2) and the vector-matrix product (C_p R_c),
and `ndpa.det_r_c` against `np.linalg.det` of R_c scaled by its max-abs entry."""

import math

import numpy as np
import pytest

from qobserver.core import dot2, maxabs_of
from qobserver.ndpa import det_r_c

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Magnitudes near 1, the whole finite range, multiples of the least subnormal,
# entries whose products overflow, and zeros of both signs.
FINITE = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**20), 2**20).map(lambda k: k * 5e-324),
    st.floats(1e150, 1.7976931348623157e308).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([0.0, -0.0]),
)
ENTRY = st.one_of(FINITE, st.sampled_from([math.inf, -math.inf, math.nan]))


def pair(entry):
    return st.tuples(entry, entry)


def bits(values) -> list:
    """uint64 views, so that a -0.0 against a +0.0 differs.  Every nan reads alike: the
    sign of a nan differs between the routes, and the design refuses a nan beta."""
    array = np.array(values, dtype=float)
    views = array.view(np.uint64).tolist()
    return [None if math.isnan(x) else b for x, b in zip(array.tolist(), views)]


@hypothesis.settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@hypothesis.given(a=pair(ENTRY), b=pair(ENTRY), c=pair(ENTRY))
def test_dot2_matches_numpy_products(a, b, c):
    vector = np.array(a)
    matrix = np.array([[b[0], c[0]], [b[1], c[1]]])  # C-ordered, as R_c is
    with np.errstate(all="ignore"):
        want = [vector @ vector, vector @ np.array(b), *(vector @ matrix)]
    got = [dot2(a, a), dot2(a, b), dot2(a, b), dot2(a, c)]
    assert bits(got) == bits(want)


@hypothesis.settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@hypothesis.given(r_c=st.tuples(pair(FINITE), pair(FINITE)))
def test_det_r_c_matches_numpy_det(r_c):
    scale = maxabs_of([x for row in r_c for x in row])
    hypothesis.assume(scale > 0.0)
    block = np.array(r_c)
    with np.errstate(all="ignore"):
        want = np.linalg.det(block / np.abs(block).max())
    assert bits([det_r_c(r_c, scale)]) == bits([want])


@pytest.mark.parametrize("r_c, want", [
    (((1.0, 0.0), (0.0, 0.0)), 0.0),  # rank one: u11 = 0
    (((0.0, 1.0), (0.0, 0.5)), 0.0),  # zero pivot
    # pivots below the least normal: neither divided by nor swapped with the first column
    (((5e-324, -1.0), (5e-324, -0.5)), -5e-324),
    (((-1e-323, 1.0), (5e-324, -0.75)), 1e-323),
    (((1e-320, 1.0), (-3e-320, 0.5)), -1e-320),
    (((0.0, 1.0), (-2e-318, 0.5)), -0.0),
])
def test_det_r_c_of_singular_and_subnormal_pivots(r_c, want):
    with np.errstate(all="ignore"):
        assert bits([det_r_c(r_c, 1.0)]) == bits([want]) == bits([np.linalg.det(np.array(r_c))])
