"""`augment` assembles A = 2 diag(J, J) R block by block on Python floats; it
must give the generator of the Hamiltonian route (`oracles.hamiltonian_system`,
A = 2 Theta sym(R) by numpy products) to the bit, and refuse the same designs
with the same text, without a numpy warning."""

import math

import numpy as np
import pytest

from oracles import hamiltonian_system
from qobserver import NonFiniteError, ObserverDesign, augment
from qobserver.observer import augmented_energy_matrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FINITE = st.floats(allow_nan=False, allow_infinity=False)
MODERATE = st.floats(-1e6, 1e6)
# Above 8.9e307 an entry doubles to inf, in R + R^T and in 2 Theta R alike.
HUGE = st.floats(8.99e307, 1.7976931348623157e308).flatmap(lambda x: st.sampled_from([x, -x]))
NONFINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# Multiples of the least subnormal: (x + y)/2 rounds where x + y is odd.
SUBNORMAL = st.integers(-(2**20), 2**20).map(lambda k: k * 5e-324)


def square(entry):
    return st.lists(entry, min_size=4, max_size=4).map(lambda v: [v[:2], v[2:]])


def pair(entry):
    return st.lists(entry, min_size=2, max_size=2)


def rank_one(u, v):
    return [[u[0] * v[0], u[0] * v[1]], [u[1] * v[0], u[1] * v[1]]]


R_C = st.one_of(
    st.builds(rank_one, pair(MODERATE), pair(MODERATE)),
    square(MODERATE),  # rank two
    square(FINITE),
    square(st.one_of(MODERATE, HUGE)),
    square(st.one_of(MODERATE, NONFINITE)),
)
R_O = st.one_of(
    MODERATE.map(lambda w: [[2.0 * w, 0.0], [0.0, 2.0 * w]]),
    square(MODERATE),  # not symmetric
    square(FINITE),
    # off-diagonals whose sum overflows, or whose half-sum rounds
    st.tuples(MODERATE, HUGE, MODERATE).map(lambda v: [[v[0], v[1]], [v[1], v[2]]]),
    st.tuples(MODERATE, SUBNORMAL, SUBNORMAL, MODERATE).map(lambda v: [v[:2], v[2:]]),
    square(st.one_of(MODERATE, NONFINITE)),
)
ROW = st.one_of(pair(MODERATE), pair(FINITE), pair(st.one_of(MODERATE, NONFINITE)))


def hamiltonian_route(design):
    """The generator through `oracles.hamiltonian_system`, with the output rows
    [C_p, 0, 0] and [0, 0, C_o]."""
    rows = np.zeros((2, 4))
    rows[0, :2], rows[1, 2:] = design.c_p, design.c_o
    with np.errstate(all="ignore"):
        r = augmented_energy_matrix(design.r_c.tolist(), design.r_o.tolist())
        return hamiltonian_system(r, rows)


def outcome(route, design):
    """The system, or the text of its NonFiniteError."""
    try:
        return route(design)
    except NonFiniteError as exc:
        return str(exc)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(c_p=ROW, r_c=R_C, r_o=R_O, c_o=ROW)
def test_augment_matches_the_hamiltonian_route_to_the_bit(c_p, r_c, r_o, c_o):
    design = ObserverDesign(c_p=c_p, omega_o=1.0, r_o=r_o, r_c=r_c, beta=[1.0, 0.0], c_o=c_o)
    got, want = outcome(augment, design), outcome(hamiltonian_route, design)
    if isinstance(want, str):
        assert got == want
        return
    # uint64 views compare the bits, so a -0.0 against a +0.0 fails too
    np.testing.assert_array_equal(got.a.view(np.uint64), want.a.view(np.uint64))
    np.testing.assert_array_equal(got.c.view(np.uint64), want.c.view(np.uint64))
    assert got.space.modes == 2
