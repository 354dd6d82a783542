"""Property-based tests for waveform invariants (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.waveforms import PWL, Pulse, merge_transition_spots
from tests import waveform_oracle as oracle

# -- strategies -----------------------------------------------------------------

pulse_params = st.builds(
    dict,
    v1=st.floats(-1e-2, 1e-2),
    v2=st.floats(-1e-2, 1e-2),
    t_delay=st.floats(0.0, 5e-10),
    t_rise=st.floats(1e-12, 1e-10),
    t_width=st.floats(0.0, 5e-10),
    t_fall=st.floats(1e-12, 1e-10),
)


@st.composite
def pwl_points(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    times = sorted(draw(st.lists(
        st.floats(0.0, 1e-8, allow_nan=False), min_size=n, max_size=n,
        unique=True,
    )))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return list(zip(times, values))


# -- pulse invariants ------------------------------------------------------------


@given(params=pulse_params, t=st.floats(0.0, 2e-9))
def test_pulse_value_bounded_by_levels(params, t):
    p = Pulse(**params)
    lo, hi = min(p.v1, p.v2), max(p.v1, p.v2)
    assert lo - 1e-12 <= p.value(t) <= hi + 1e-12


@given(params=pulse_params)
def test_pulse_transition_spots_sorted_unique(params):
    p = Pulse(**params)
    spots = p.transition_spots(2e-9)
    assert spots == sorted(spots)
    assert len(set(spots)) == len(spots)
    assert spots[0] == 0.0


@given(params=pulse_params)
@settings(max_examples=50)
def test_pulse_linear_between_spots(params):
    """Between consecutive transition spots the pulse must be linear."""
    p = Pulse(**params)
    spots = p.transition_spots(2e-9) + [2e-9]
    for t0, t1 in zip(spots, spots[1:]):
        if t1 - t0 < 1e-13:
            continue
        mid = 0.5 * (t0 + t1)
        interp = 0.5 * (p.value(t0) + p.value(t1))
        assert math.isclose(p.value(mid), interp,
                            rel_tol=1e-6, abs_tol=1e-12)


@given(params=pulse_params)
@settings(max_examples=50)
def test_pulse_values_array_consistent(params):
    p = Pulse(**params)
    ts = np.linspace(0.0, 2e-9, 31)
    vec = p.values_array(ts)
    scalar = np.array([oracle.value(p, float(t)) for t in ts])
    assert np.allclose(vec, scalar, atol=1e-12)


# -- PWL invariants ---------------------------------------------------------------


@given(points=pwl_points())
def test_pwl_value_within_hull(points):
    w = PWL(points)
    values = [v for _, v in points]
    lo, hi = min(values), max(values)
    for t in np.linspace(0.0, 1.2e-8, 13):
        assert lo - 1e-9 <= w.value(float(t)) <= hi + 1e-9


@given(points=pwl_points())
def test_pwl_values_array_matches_oracle(points):
    w = PWL(points)
    ts = np.linspace(-1e-9, 1.2e-8, 29)
    scalar = [oracle.value(w, float(t)) for t in ts]
    assert np.allclose(w.values_array(ts), scalar, rtol=1e-12, atol=1e-12)


@given(points=pwl_points())
def test_pwl_spots_subset_of_breakpoints(points):
    w = PWL(points)
    spots = set(w.transition_spots(1e-8))
    allowed = {0.0} | {t for t, _ in points}
    assert spots <= allowed


# -- merge invariants ----------------------------------------------------------------


@given(lists=st.lists(
    st.lists(st.floats(0.0, 1e-8), min_size=0, max_size=6),
    min_size=0, max_size=5,
))
def test_merge_sorted_and_superset_modulo_tolerance(lists):
    merged = merge_transition_spots(lists)
    assert merged == sorted(merged)
    for spots in lists:
        for t in spots:
            assert any(math.isclose(t, m, rel_tol=1e-12, abs_tol=1e-30)
                       for m in merged)
