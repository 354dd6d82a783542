"""Unit tests for waveform models and transition-spot extraction."""

import math

import numpy as np
import pytest

from repro.circuit.waveforms import (
    DC,
    PWL,
    BumpShape,
    Pulse,
    Waveform,
    merge_transition_spots,
    sample_waveforms,
)
from tests import waveform_oracle as oracle


def segment_slope(w, t0: float, t1: float) -> float:
    """The finite-difference slope of ``w`` on ``[t0, t1]``: the slope
    form the solvers use (``MNASystem.b_slope_fd``)."""
    return (w.value(t1) - w.value(t0)) / (t1 - t0)


class TestDC:
    def test_value_is_constant(self):
        w = DC(1.8)
        assert w.value(0.0) == 1.8
        assert w.value(1e-6) == 1.8

    def test_slope_is_zero(self):
        assert segment_slope(DC(5.0), 1e-9, 2e-9) == 0.0

    def test_transition_spots_only_origin(self):
        assert DC(1.0).transition_spots(1e-8) == [0.0]

    def test_is_constant(self):
        assert DC(0.0).is_constant()

    def test_values_array(self):
        out = DC(2.5).values_array(np.array([0.0, 1e-9, 5e-9]))
        assert np.all(out == 2.5)


class TestPWL:
    def test_interpolates_between_breakpoints(self):
        w = PWL([(0.0, 0.0), (1e-9, 1.0)])
        assert w.value(5e-10) == pytest.approx(0.5)

    def test_holds_outside_range(self):
        w = PWL([(1e-9, 2.0), (2e-9, 4.0)])
        assert w.value(0.0) == 2.0
        assert w.value(1e-8) == 4.0

    def test_slope_inside_segment(self):
        w = PWL([(0.0, 0.0), (1e-9, 1.0), (2e-9, 1.0)])
        assert segment_slope(w, 2e-10, 5e-10) == pytest.approx(1e9)
        assert segment_slope(w, 1.2e-9, 1.5e-9) == 0.0

    def test_slope_outside_is_zero(self):
        w = PWL([(1e-9, 0.0), (2e-9, 1.0)])
        assert segment_slope(w, 0.2e-9, 0.5e-9) == 0.0
        assert segment_slope(w, 3e-9, 4e-9) == 0.0

    def test_transition_spots_at_slope_changes(self):
        w = PWL([(0.0, 0.0), (1e-9, 1.0), (2e-9, 1.0), (3e-9, 0.0)])
        spots = w.transition_spots(1e-8)
        assert spots == [0.0, 1e-9, 2e-9, 3e-9]

    def test_no_spot_for_continued_slope(self):
        # Middle breakpoint lies on the same line: no slope change there.
        w = PWL([(0.0, 0.0), (1e-9, 1.0), (2e-9, 2.0)])
        spots = w.transition_spots(1e-8)
        assert 1e-9 not in spots

    def test_slope_right_sided_at_exact_breakpoints(self):
        """From each spot to the next, the finite difference is the
        segment's own slope: a spot's value belongs to both segments."""
        w = PWL([(0.0, 0.0), (1e-9, 1.0), (2e-9, 1.0), (3e-9, 0.0)])
        assert segment_slope(w, 1e-9, 2e-9) == 0.0    # flat segment
        assert segment_slope(w, 2e-9, 3e-9) == pytest.approx(-1e9)
        assert segment_slope(w, 3e-9, 4e-9) == 0.0    # past-final hold

    def test_slope_snaps_ulp_noise_onto_breakpoints(self):
        """A segment whose start is an ulp off its breakpoint must still
        read that segment's slope.

        Spot lists and evaluation times are built through different
        arithmetic; the finite difference to the next spot absorbs the
        ulp, where an analytic right-sided slope would not.
        """
        w = PWL([(0.0, 0.0), (1e-9, 1.0), (2e-9, 1.0), (3e-9, 0.0)])
        for bp, nxt in ((1e-9, 2e-9), (2e-9, 3e-9), (3e-9, 4e-9)):
            exact = segment_slope(w, bp, nxt)
            for start in (np.nextafter(bp, 0.0), np.nextafter(bp, np.inf)):
                assert segment_slope(w, float(start), nxt) == pytest.approx(
                    exact, abs=1e-3
                )

    def test_transition_spot_after_negative_breakpoint_not_missed(self):
        """A ramp starting before t=0 still ends at an in-window spot."""
        w = PWL([(-1e-9, 0.0), (1e-9, 1.0), (2e-9, 1.0)])
        spots = w.transition_spots(1e-8)
        assert 1e-9 in spots          # slope changes 5e8 -> 0 here
        assert all(s >= 0.0 for s in spots)

    def test_transition_spots_stop_at_horizon(self):
        w = PWL([(0.0, 0.0), (1e-9, 1.0), (5e-9, 0.0)])
        assert w.transition_spots(2e-9) == [0.0, 1e-9]

    def test_requires_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PWL([(0.0, 0.0), (0.0, 1.0)])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            PWL([])

    def test_values_array_matches_scalar(self):
        w = PWL([(0.0, 0.0), (1e-9, 1.0), (3e-9, -1.0)])
        ts = np.linspace(0, 4e-9, 17)
        assert np.allclose(w.values_array(ts), [oracle.value(w, t) for t in ts])

    def test_is_constant_false(self):
        assert not PWL([(0.0, 0.0), (1e-9, 1.0)]).is_constant()


class TestPulse:
    def pulse(self, **kw):
        defaults = dict(v1=0.0, v2=1e-3, t_delay=1e-10, t_rise=5e-11,
                        t_width=2e-10, t_fall=5e-11)
        defaults.update(kw)
        return Pulse(**defaults)

    def test_levels(self):
        p = self.pulse()
        assert p.value(0.0) == 0.0
        assert p.value(2e-10) == pytest.approx(1e-3)   # inside flat top
        assert p.value(1e-9) == 0.0                    # after the bump

    def test_ramp_midpoints(self):
        p = self.pulse()
        assert p.value(1.25e-10) == pytest.approx(5e-4)  # half rise

    def test_transition_spots(self):
        p = self.pulse()
        spots = p.transition_spots(1e-9)
        assert spots[0] == 0.0
        assert len(spots) == 5  # 0 + four bump corners
        assert spots[1] == pytest.approx(1e-10)
        assert spots[-1] == pytest.approx(4e-10)

    def test_slope_right_sided_at_spots(self):
        """From each transition spot to the next, the finite difference
        is the *next* segment's slope."""
        p = self.pulse()
        spots = p.transition_spots(1e-9) + [1e-9]
        rise = 1e-3 / 5e-11
        expected = [0.0, rise, 0.0, -rise, 0.0]
        got = [segment_slope(p, a, b) for a, b in zip(spots, spots[1:])]
        assert got == pytest.approx(expected, abs=1e-3)

    def test_periodic_fold(self):
        p = self.pulse(t_period=1e-9)
        assert p.value(1e-9 + 2e-10) == pytest.approx(p.value(2e-10))
        spots = p.transition_spots(2.5e-9)
        assert any(math.isclose(s, 1e-9 + 1e-10) for s in spots)

    def test_periodic_slope_right_sided_at_fold(self):
        """t_delay + k*t_period can fold to an ulp below the period;
        the segment from there must still be the next bump's rise."""
        p = self.pulse(t_period=1e-9)
        rise = (1e-3 - 0.0) / 5e-11
        for k in (1, 2, 3):
            spot = p.t_delay + k * p.t_period
            assert segment_slope(p, spot, spot + p.t_rise) == pytest.approx(rise)
            assert p.value(spot) == pytest.approx(p.value(p.t_delay))

    def test_period_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than one bump"):
            self.pulse(t_period=1e-11)

    def test_nonpositive_ramps_rejected(self):
        with pytest.raises(ValueError):
            self.pulse(t_rise=0.0)

    def test_bump_shape_key(self):
        p = self.pulse()
        shape = p.bump_shape()
        assert shape == BumpShape(1e-10, 5e-11, 5e-11, 2e-10)
        assert shape.key() == (1e-10, 5e-11, 5e-11, 2e-10)

    def test_values_array_matches_scalar(self):
        p = self.pulse(t_period=8e-10)
        ts = np.linspace(0, 3e-9, 53)
        assert np.allclose(p.values_array(ts),
                           [oracle.value(p, t) for t in ts], atol=1e-12)

    def test_is_constant_when_levels_equal(self):
        assert self.pulse(v2=0.0).is_constant()
        assert not self.pulse().is_constant()


class TestMergeTransitionSpots:
    def test_union_and_dedup(self):
        merged = merge_transition_spots([[0.0, 1e-9], [0.0, 2e-9, 1e-9]])
        assert merged == [0.0, 1e-9, 2e-9]

    def test_near_duplicates_collapse(self):
        a = 1e-10 + 5e-11
        b = 1.5e-10
        merged = merge_transition_spots([[a], [b]])
        assert len(merged) == 1

    def test_empty_input(self):
        assert merge_transition_spots([]) == [0.0]


class TestValuesArrayParity:
    """Every concrete waveform's ``values_array`` vs the scalar oracle."""

    WAVEFORMS = [
        DC(1.7),
        PWL([(0.0, 0.0), (1e-10, 2e-3), (3e-10, 2e-3), (4e-10, 0.0)]),
        Pulse(0.0, 1e-3, 1e-10, 2e-11, 1e-10, 3e-11),
        Pulse(1e-4, 2e-3, 5e-11, 1e-11, 8e-11, 2e-11, t_period=3e-10),
    ]

    def test_exact_parity_on_dense_grid(self):
        ts = np.linspace(-1e-10, 1.2e-9, 457)
        for w in self.WAVEFORMS:
            vec = w.values_array(ts)
            scalar = np.array([oracle.value(w, float(t)) for t in ts])
            np.testing.assert_allclose(vec, scalar, rtol=0.0, atol=1e-15)
            assert vec.shape == ts.shape

    def test_parity_at_transition_spots(self):
        """Breakpoints are the risky spots (ulp snapping, fmod folding)."""
        for w in self.WAVEFORMS:
            spots = np.array(w.transition_spots(1e-9))
            vec = w.values_array(spots)
            scalar = np.array([oracle.value(w, float(t)) for t in spots])
            np.testing.assert_allclose(vec, scalar, rtol=0.0, atol=1e-15)

    def test_parity_ulp_around_spots_and_past_final(self):
        """Ulp-perturbed breakpoints and the past-final hold region —
        where scalar snapping and the cached-table path could drift."""
        for w in self.WAVEFORMS:
            spots = np.array(w.transition_spots(1e-9))
            probe = np.concatenate([
                np.nextafter(spots, -np.inf),
                np.nextafter(spots, np.inf),
                spots[-1] + np.array([1e-10, 1e-9, 1e-6, 1.0]),  # past final
            ])
            vec = w.values_array(probe)
            scalar = np.array([oracle.value(w, float(t)) for t in probe])
            np.testing.assert_allclose(vec, scalar, rtol=0.0, atol=1e-15)

    def test_value_is_one_point_values_array(self):
        """value(t) and values_array read the same bits, at every time."""
        ts = np.linspace(-1e-10, 1.2e-9, 97)
        for w in self.WAVEFORMS:
            one = np.array([w.value(float(t)) for t in ts])
            assert one.tobytes() == w.values_array(ts).tobytes()

    def test_sample_waveforms_is_values_array(self):
        ts = np.linspace(-1e-10, 1.2e-9, 97)
        rows = sample_waveforms(self.WAVEFORMS, ts)
        for w, row in zip(self.WAVEFORMS, rows):
            assert row.tobytes() == w.values_array(ts).tobytes()

    def test_repeated_calls_share_cached_tables(self):
        w = PWL([(0.0, 0.0), (1e-10, 2e-3)])
        a = w.values_array(np.array([0.0, 5e-11]))
        b = w.values_array(np.array([0.0, 5e-11]))
        np.testing.assert_array_equal(a, b)
        assert w._interp_table is w._interp_table  # cached, not rebuilt

    def test_subclass_without_values_array_is_rejected(self):
        class Ramp(Waveform):
            pass

        with pytest.raises(NotImplementedError):
            Ramp().value(1.0)
