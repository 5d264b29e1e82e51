"""Exact scale invariance: scaling omega_o and gamma together by k = 2^j is exact
in binary floating point, barring overflow and underflow, so a scale-free design
gives the same outcome at both scales and its frequency-valued fields scaled by k
to the bit."""

import numpy as np
import pytest

from qobserver import Design, PipelineError, QObserverError, design_ndpa

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def log_uniform(low: float, high: float):
    """10^e with e uniform in [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0 ** e)


SIGNED = st.tuples(st.sampled_from([1.0, -1.0]), log_uniform(-6.0, 6.0)).map(lambda p: p[0] * p[1])


def outcome(c_p, omega_o, gamma, eps_ratio):
    """The design, or the type and stage of its refusal."""
    try:
        return design_ndpa(c_p, omega_o, gamma, eps_ratio)
    except QObserverError as exc:
        return type(exc), exc.stage if isinstance(exc, PipelineError) else None


# The sweep domain: C_p entries, omega_o and gamma log-uniform in 1e-6..1e6, the
# ratio in 1e-12..10^4.5, and |j| < 60, so that no scaled value leaves the normal
# range.
@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    c_p=st.lists(SIGNED, min_size=2, max_size=2),
    omega_o=log_uniform(-6.0, 6.0),
    gamma=log_uniform(-6.0, 6.0),
    eps_ratio=log_uniform(-12.0, 4.5),
    j=st.integers(-59, 59),
)
def test_design_scales_bit_for_bit(c_p, omega_o, gamma, eps_ratio, j):
    k = 2.0 ** j
    base = outcome(c_p, omega_o, gamma, eps_ratio)
    scaled = outcome(c_p, k * omega_o, k * gamma, eps_ratio)
    if not (isinstance(base, Design) and isinstance(scaled, Design)):
        assert scaled == base
        return
    for field in ("beta", "r_c", "r_o"):
        np.testing.assert_array_equal(getattr(scaled.observer(), field), k * getattr(base.observer(), field))
    for field in ("f", "m", "r"):
        np.testing.assert_array_equal(getattr(scaled, field), k * np.asarray(getattr(base, field)))
    assert scaled.alpha == k * base.alpha
    assert scaled.report.cross_check_defect == k * base.report.cross_check_defect
    np.testing.assert_array_equal(scaled.observer().c_o, base.observer().c_o)
    assert scaled.params.theta == base.params.theta
