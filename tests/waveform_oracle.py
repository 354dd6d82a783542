"""Scalar waveform formulas: the oracle for ``values_array``.

The library evaluates a waveform one way, ``values_array`` (``np.interp``
on its breakpoints, a constant fill for ``DC``), and
``sample_waveforms`` reproduces it bit for bit.  The formulas here are
written independently of that, one time point at a time, straight from
the SPICE definitions: ``test_waveforms`` and
``test_property_waveforms`` check ``values_array`` against them to a
tolerance, as ``stamp_oracle`` does for the stamp and
``superpose_oracle`` for the scenario sum.
"""

from __future__ import annotations

import bisect
import math

from repro.circuit.waveforms import DC, PWL, Pulse, Waveform

__all__ = ["value"]

#: Relative tolerance of the ulp snaps onto breakpoints.
_RTOL = 1e-12


def value(w: Waveform, t: float) -> float:
    """The value of ``w`` at time ``t`` by its scalar formula."""
    if isinstance(w, DC):
        return w.level
    if isinstance(w, PWL):
        return pwl_value(w, t)
    if isinstance(w, Pulse):
        return pulse_value(w, t)
    raise TypeError(f"no scalar formula for {type(w).__name__}")


def pwl_value(w: PWL, t: float) -> float:
    """SPICE PWL: hold the first value before, the last value after."""
    pts = w.points
    if t <= pts[0][0]:
        return pts[0][1]
    if t >= pts[-1][0]:
        return pts[-1][1]
    i = bisect.bisect_right([tp for tp, _ in pts], t) - 1
    t0, v0 = pts[i]
    t1, v1 = pts[i + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def pulse_value(p: Pulse, t: float) -> float:
    """SPICE PULSE: fold ``t`` onto one bump, then evaluate the bump."""
    return _bump_value(p, _fold(p, t))


def _snap(p: Pulse, tau: float) -> float:
    """Snap ``tau`` onto an adjacent bump breakpoint.

    Transition-spot times are built as sums like ``t_delay + t_rise``
    while evaluation computes ``tau = t − t_delay``; the two can
    disagree by an ulp.
    """
    for bp in (
        0.0,
        p.t_rise,
        p.t_rise + p.t_width,
        p.t_rise + p.t_width + p.t_fall,
    ):
        if math.isclose(tau, bp, rel_tol=_RTOL, abs_tol=0.0):
            return bp
    return tau


def _bump_value(p: Pulse, tau: float) -> float:
    """Value of one bump, with ``tau`` measured from ``t_delay``."""
    tau = _snap(p, tau)
    if tau <= 0.0:
        return p.v1
    if tau < p.t_rise:
        return p.v1 + (p.v2 - p.v1) * tau / p.t_rise
    tau -= p.t_rise
    if tau < p.t_width:
        return p.v2
    tau -= p.t_width
    if tau < p.t_fall:
        return p.v2 + (p.v1 - p.v2) * tau / p.t_fall
    return p.v1


def _fold(p: Pulse, t: float) -> float:
    """Map absolute time to bump-local time ``tau``."""
    tau = t - p.t_delay
    if p.t_period is not None and tau >= 0.0:
        tau = math.fmod(tau, p.t_period)
        # A spot time built as t_delay + k*t_period can fold to an ulp
        # *below* the period instead of 0: that is the next bump's start.
        if math.isclose(tau, p.t_period, rel_tol=_RTOL, abs_tol=0.0):
            tau = 0.0
    return tau
