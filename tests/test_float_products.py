"""The design and verify paths form on Python floats the products whose rounding
reaches a report; each must equal numpy's float64 result bit for bit: `core.dot2`
against the 2-entry dot (|C_p|^2 and |unit|^2) and the vector-matrix product
(C_p R_c), `ndpa.det_r_c` against `np.linalg.det` of R_c scaled by its max-abs
entry, `observer._solve2` against `np.linalg.solve`, and the verify figures of
`dynamics.convergence_report` against the vectorized closed form.  `core.fma`,
under all of them, must round a b + c once, as the exact sum in fractions does."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qobserver import augment, dynamics
from qobserver.core import dot2, fma, maxabs, maxabs_of
from qobserver.errors import QObserverError
from qobserver.ndpa import det_r_c, solve_design
from qobserver.observer import _solve2

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


def fused(a, b, c) -> float:
    """IEEE fma(a, b, c), from the exact value where every term is finite."""
    if not all(map(math.isfinite, (a, b, c))):
        return c if math.isfinite(a) and math.isfinite(b) else a * b + c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:  # an exact zero sum is +0, or -0 when both terms are -0
        negative = math.copysign(1.0, a) * math.copysign(1.0, b) < 0 and math.copysign(1.0, c) < 0
        return -0.0 if (a == 0.0 or b == 0.0) and negative else 0.0
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


# Products near the bounds of fma's split route, and sums that cancel to a few ulps
# or land on a rounding tie.
EDGES = st.sampled_from([1e-280, 1e290, 1e300, 2.0**-1022, 2.0**-969, 1.7976931348623157e308])


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(a=ENTRY, b=ENTRY, c=ENTRY, edge=EDGES, near=st.integers(-3, 3),
                  kind=st.sampled_from(["free", "cancel", "edge"]))
def test_fma_rounds_once(a, b, c, edge, near, kind):
    if kind == "cancel" and math.isfinite(a * b):  # c = -a b, moved by a few half-ulps
        c = -(a * b) + near * math.ulp(a * b) / 2.0
    elif kind == "edge" and math.isfinite(a) and a != 0.0:
        b = edge / a
    assert bits([fma(a, b, c)]) == bits([fused(a, b, c)])


# Zeros and magnitudes in 1e-100..1e100, where no step of the solve is subnormal:
# numpy's LAPACK reads some subnormal steps as zero.
SOLVE_ENTRY = st.one_of(
    st.floats(-3.0, 3.0, allow_subnormal=False),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-100.0, 100.0)).map(
        lambda sign_exponent: sign_exponent[0] * 10.0 ** sign_exponent[1]
    ),
    st.sampled_from([0.0, -0.0]),
)


@hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
@hypothesis.given(a=st.tuples(pair(SOLVE_ENTRY), pair(SOLVE_ENTRY)), b=pair(SOLVE_ENTRY))
@hypothesis.example(a=((0.0, 1.0), (-0.0, 2.0)), b=(1.0, 1.0))  # no first pivot
@hypothesis.example(a=((1.0, 2.0), (2.0, 4.0)), b=(1.0, 1.0))  # no second pivot
@hypothesis.example(a=((1.0, 2.0), (3.0, 4.0)), b=(1.0, -1.0))  # rows swapped
def test_solve2_matches_numpy_solve(a, b):
    with np.errstate(all="ignore"):
        try:
            want = np.linalg.solve(np.array(a), np.array(b))
        except np.linalg.LinAlgError:  # a zero pivot
            want = None
    got = _solve2(a, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert bits(got) == bits(want)


def test_mean_is_numpys_pairwise_mean():
    # sequential below 8 terms, 8 partial sums up to 128, halves beyond
    rng = np.random.default_rng(3)
    for n in range(1, 300):
        values = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)).tolist()
        assert bits([dynamics._mean(values)]) == bits([np.mean(values)])


def unit_ulps(got: float, want: float) -> float:
    return abs(got - want) / math.ulp(want) if got != want else 0.0


@st.composite
def verify_requests(draw):
    """A design over a wide domain and a ladder: the default one, or 2-64 horizons,
    half of them starting in the closed form's series branch."""
    exponent = st.floats(-1.0, 1.0)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    size = 10.0 ** (100.0 * draw(exponent))
    omega, gamma = (10.0 ** (6.0 * draw(exponent)) for _ in range(2))
    ratio = 10.0 ** draw(st.floats(-12.0, 4.5))
    if draw(st.integers(0, 9)) < 4:
        ladder = dynamics.default_horizons(omega)
    else:
        start = draw(st.one_of(st.floats(1e-3, 0.3), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)))
        steps = draw(st.lists(st.floats(-3.0, 1.0), min_size=1, max_size=63))
        ladder = [start / omega]
        for step in steps:
            ladder.append(ladder[-1] * (1.0 + 10.0**step))
    return (size * math.cos(angle), size * math.sin(angle)), omega, gamma, ratio, tuple(ladder)


def numpy_figures(design, horizons):
    """The verify figures as numpy forms them: the observer row's averages from the
    vectorized closed form, C_p,aug @ A, R_o^{-1} beta^T by `np.linalg.solve`, and the
    fit's sums on the centred logs, taken by `math.log` as the float route takes them."""
    sys = augment(design.observer())
    blocks = dynamics._observer_blocks(sys.a)
    grid = np.array((0.0, *horizons))
    _, averages = dynamics._rows_and_averages(blocks, sys.c[1][None], grid)
    errors = np.abs(sys.c[0] - averages[0, 1:]).max(axis=1)
    x = np.array([math.log(t) for t in horizons])
    x -= x.mean()
    y = np.array([math.log(max(e, 1e-300)) for e in errors.tolist()])
    y -= y.mean()
    rate = float(-(x @ y) / (x @ x))
    c_o, r_o, beta = np.array(design.c_o), np.array(design.r_o), np.array(design.beta)
    limit = abs(float(c_o @ np.linalg.solve(r_o, beta)) + 1.0)
    return errors.tolist(), maxabs(sys.c[0] @ sys.a), limit, (rate, x, y), blocks


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(request=verify_requests())
def test_verify_figures_match_the_vectorized_closed_form(request):
    cp, omega, gamma, ratio, horizons = request
    try:
        design = solve_design(cp, omega, gamma, ratio, math.pi / 2.0)
    except QObserverError:
        hypothesis.reject()
    with np.errstate(all="ignore"):
        errors, row_defect, limit, (rate, x, y), blocks = numpy_figures(design, horizons)
    report = dynamics.convergence_report(
        design.c_p, design.params.omega_o, design.r_o, design.r_c, design.beta, design.c_o,
        horizons,
    )
    assert bits([report.output_row_defect, report.averaged_limit_defect]) == bits([row_defect, limit])
    _, _, _, s, det = blocks
    series = [math.sqrt(abs(det)) * (s * t) <= 1.0 for t in horizons]
    for got, want, in_series in zip(report.errors, errors, series):
        if in_series:
            assert unit_ulps(got, want) <= 1.0
        else:
            assert bits([got]) == bits([want])
    # On the same errors and logs, the fit is numpy's to the bit while numpy's BLAS
    # sums its dot products in order, below 16 terms; beyond, to their roundoff.
    n = len(horizons)
    if any(series):
        return
    if n < 16:
        assert bits([report.fitted_rate]) == bits([rate])
    else:
        spread = float(np.linalg.norm(y) / np.linalg.norm(x))
        assert abs(report.fitted_rate - rate) <= 4.0 * n * 2.0**-52 * (spread + abs(rate))


@pytest.mark.parametrize("r_o, horizons", [
    (None, (1.0, 1e308)),  # s T overflows: every weight reads nan
    (((2.0, 0.0), (0.0, -2.0)), (1.0, 100.0, 200.0)),  # det Om < 0: cosh overflows at 200
])
def test_verify_errors_past_overflow_match_the_closed_form(r_o, horizons):
    design = solve_design((1.0, 0.0), 1.0, 1.0, 0.1, math.pi / 2.0)
    design = design._replace(r_o=r_o or design.r_o)
    with np.errstate(all="ignore"):
        errors = numpy_figures(design, horizons)[0]
    report = dynamics.convergence_report(
        design.c_p, 1.0, design.r_o, design.r_c, design.beta, design.c_o, horizons
    )
    assert [math.isfinite(e) for e in report.errors] == [math.isfinite(e) for e in errors]
    assert not math.isfinite(errors[-1])
    for got, want in zip(report.errors, errors):
        # math.cosh and math.sinh differ from numpy's in the last bit on some arguments
        assert bits([got]) == bits([want]) if not math.isfinite(want) else unit_ulps(got, want) <= 2.0
