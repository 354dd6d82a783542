"""Input-source waveform models.

MATEX's whole decomposition story is driven by the *shape* of the input
waveforms: every time point at which the slope of an input changes is a
*transition spot* (TS, paper Sec. 2.2).  Between two consecutive transition
spots an input is linear, which is exactly the assumption under which the
exponential-time-differencing update (paper Eq. 5) is analytic.

This module provides the waveform classes used throughout the simulator:

``DC``
    A constant value; no transition spots.
``PWL``
    Piecewise-linear waveform given by ``(time, value)`` breakpoints, the
    classic SPICE ``PWL(...)`` source.
``Pulse``
    The classic SPICE ``PULSE(...)`` source.  Power-grid current loads are
    "characterised as pulse inputs" (paper Sec. 2.1); the pulse parameters
    ``(t_delay, t_rise, t_width, t_fall)`` define the "bump shape" used to
    group sources in the distributed decomposition (paper Fig. 3).

All waveforms expose:

* ``values_array(times)`` — the values on an array of times, the one
  per-waveform evaluation (``np.interp`` on the waveform's breakpoints,
  a constant fill for :class:`DC`);
* ``value(t)``        — the value at time ``t``: a one-point
  ``values_array``;
* ``transition_spots(t_end)`` — sorted times in ``[0, t_end]`` where the
  slope changes (the Local Transition Spots of this source).

MATEX needs input *values* only, on the transition-spot grid: a segment's
slope is the finite difference of its end values
(:meth:`repro.circuit.mna.MNASystem.b_slope_fd`), exact on a linear
segment.  :func:`sample_waveforms` samples many waveforms on one grid,
bit for bit as their ``values_array``; the scalar formulas live on only
as the tests' oracle (``tests/waveform_oracle.py``).  The one other
evaluator is the parameter table behind
:meth:`repro.circuit.mna.MNASystem.input_vector`, for one time point
(its docstring says why it stays).

Times and values are plain floats in SI units (seconds, amps, volts).

A :class:`Pulse` memoises its transition spots per ``t_end`` and
:meth:`Pulse.scaled` hands that memo to its copy, because a pulse's
spots read only its timing fields: a rescaled scenario re-uses the spots
its compiled plan computed.  A :class:`PWL`'s spots follow its *slopes*
(a zero factor collapses them), so a scaled PWL computes its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

__all__ = ["Waveform", "DC", "PWL", "Pulse", "BumpShape", "sample_waveforms"]

#: Relative tolerance used when merging nearly-identical transition times.
_TIME_RTOL = 1e-12


def _dedup_sorted(times: list[float], atol: float = 0.0) -> list[float]:
    """Remove near-duplicate entries from a sorted list of times."""
    out: list[float] = []
    for t in times:
        if out and math.isclose(t, out[-1], rel_tol=_TIME_RTOL, abs_tol=atol):
            continue
        out.append(t)
    return out


class Waveform:
    """Abstract base class for all input waveforms."""

    def value(self, t: float) -> float:
        """Return the waveform value at time ``t`` (a one-point
        :meth:`values_array`, so both read the same bits)."""
        import numpy as np

        return float(self.values_array(np.array([t], dtype=float))[0])

    def transition_spots(self, t_end: float) -> list[float]:
        """Return sorted slope-change times within ``[0, t_end]``.

        Time ``0.0`` is always included: the simulation start is a
        transition spot by convention (paper Fig. 1 marks t=0/DC).
        """
        raise NotImplementedError

    def values_array(self, times) -> "np.ndarray":
        """The waveform's values on a numpy array of times (same shape).

        The one per-waveform evaluation: :meth:`value` and
        :func:`sample_waveforms` read it, and every concrete waveform
        implements it (constant fill / ``np.interp``).
        """
        raise NotImplementedError

    def is_constant(self) -> bool:
        """True when the waveform never changes (used for DC-only nodes)."""
        return False

    def scaled(self, factor: float) -> "Waveform":
        """This waveform with every *value* multiplied by ``factor``.

        The time geometry (delays, breakpoints, transition spots) is
        untouched — scaling a source never moves its transition spots,
        which is what lets a :class:`repro.plan.Scenario` rescale inputs
        against a compiled plan without invalidating its frozen
        grid/schedules.  Concrete waveforms override this; third-party
        subclasses that do not are rejected with a clear error instead
        of being silently mis-scaled.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement scaled(); "
            f"scenario source scaling needs a waveform that knows how to "
            f"rescale its values"
        )


@dataclass(frozen=True)
class DC(Waveform):
    """Constant waveform (supply voltages, DC loads)."""

    level: float = 0.0

    def transition_spots(self, t_end: float) -> list[float]:
        return [0.0]

    def is_constant(self) -> bool:
        return True

    def scaled(self, factor: float) -> "DC":
        return DC(level=self.level * float(factor))

    def values_array(self, times):
        import numpy as np

        return np.full(np.asarray(times).shape, self.level, dtype=float)


@dataclass(frozen=True)
class PWL(Waveform):
    """Piecewise-linear waveform defined by breakpoints.

    Parameters
    ----------
    points:
        Sequence of ``(time, value)`` pairs with strictly increasing times.
        Before the first breakpoint the waveform holds the first value;
        after the last breakpoint it holds the last value (SPICE semantics).
    """

    points: tuple[tuple[float, float], ...]

    def __init__(self, points: Sequence[tuple[float, float]]):
        pts = tuple((float(t), float(v)) for t, v in points)
        if not pts:
            raise ValueError("PWL requires at least one breakpoint")
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if t1 <= t0:
                raise ValueError(
                    f"PWL breakpoint times must be strictly increasing, "
                    f"got {t0!r} then {t1!r}"
                )
        object.__setattr__(self, "points", pts)

    @cached_property
    def _interp_table(self):
        import numpy as np

        xp = np.array([t for t, _ in self.points])
        fp = np.array([v for _, v in self.points])
        return xp, fp

    def values_array(self, times):
        import numpy as np

        xp, fp = self._interp_table
        return np.interp(np.asarray(times, dtype=float), xp, fp)

    def scaled(self, factor: float) -> "PWL":
        f = float(factor)
        return PWL([(t, v * f) for t, v in self.points])

    def transition_spots(self, t_end: float) -> list[float]:
        spots = [0.0]
        prev_slope = 0.0
        # Slope changes can only happen at breakpoints (and the value can
        # step only via a slope change here, since PWL is continuous).
        # Breakpoints outside [0, t_end] contribute no spot, but their
        # slope change must still be tracked: a waveform whose ramp
        # starts before t=0 would otherwise compare the first in-window
        # breakpoint against the pre-ramp slope and silently skip it.
        for i, (t, _) in enumerate(self.points):
            if t > t_end:
                break
            if i + 1 < len(self.points):
                t1, v1 = self.points[i + 1]
                t0, v0 = self.points[i]
                new_slope = (v1 - v0) / (t1 - t0)
            else:
                new_slope = 0.0
            if t >= 0.0 and not math.isclose(
                new_slope, prev_slope, rel_tol=1e-12, abs_tol=0.0
            ):
                spots.append(t)
            prev_slope = new_slope
        return _dedup_sorted(sorted(spots))


@dataclass(frozen=True)
class BumpShape:
    """The pulse-shape key used to group sources (paper Fig. 3).

    Two pulse sources belong to the same group when they share the same
    ``(t_delay, t_rise, t_fall, t_width)`` tuple — their Local Transition
    Spots coincide, so a single computing node can simulate the whole group
    while generating Krylov subspaces only at those shared spots.
    """

    t_delay: float
    t_rise: float
    t_fall: float
    t_width: float

    def key(self) -> tuple[float, float, float, float]:
        """Hashable grouping key."""
        return (self.t_delay, self.t_rise, self.t_fall, self.t_width)


@dataclass(frozen=True)
class Pulse(Waveform):
    """SPICE ``PULSE(v1 v2 td tr tw tf period)`` waveform.

    The waveform starts at ``v1``, stays there until ``t_delay``, ramps to
    ``v2`` over ``t_rise``, holds for ``t_width``, ramps back over
    ``t_fall``, and (if ``t_period`` is given) repeats.

    Note the argument order follows the paper's Fig. 3 nomenclature
    ``(t_delay, t_rise, t_width, t_fall, t_period)`` rather than raw SPICE.
    """

    v1: float
    v2: float
    t_delay: float
    t_rise: float
    t_width: float
    t_fall: float
    t_period: float | None = None

    def __post_init__(self):
        if self.t_rise <= 0.0 or self.t_fall <= 0.0:
            raise ValueError("Pulse rise/fall times must be positive")
        if self.t_width < 0.0 or self.t_delay < 0.0:
            raise ValueError("Pulse delay/width must be non-negative")
        if self.t_period is not None:
            min_period = self.t_rise + self.t_width + self.t_fall
            if self.t_period < min_period:
                raise ValueError(
                    f"t_period={self.t_period} shorter than one bump "
                    f"({min_period})"
                )

    def _breakpoints(self):
        """One bump's corner times, measured from ``t_delay``."""
        import numpy as np

        return np.array([
            0.0,
            self.t_rise,
            self.t_rise + self.t_width,
            self.t_rise + self.t_width + self.t_fall,
        ])

    def _levels(self):
        """The pulse's values at :meth:`_breakpoints`."""
        import numpy as np

        return np.array([self.v1, self.v2, self.v2, self.v1])

    def _folded(self, t):
        """Bump-local times ``tau`` of the times array ``t``."""
        import numpy as np

        tau = t - self.t_delay
        if self.t_period is not None:
            positive = tau >= 0.0
            tau = np.where(positive, np.fmod(tau, self.t_period), tau)
        return tau

    def values_array(self, times):
        import numpy as np

        tau = self._folded(np.asarray(times, dtype=float))
        return np.interp(
            tau, self._breakpoints(), self._levels(), left=self.v1, right=self.v1
        )

    def transition_spots(self, t_end: float) -> list[float]:
        # Memoised per t_end; the memo is shared with scaled() copies.
        memo = self.__dict__.setdefault("_spots", {})
        spots = memo.get(t_end)
        if spots is None:
            spots = memo[t_end] = self._compute_spots(t_end)
        return list(spots)

    def _compute_spots(self, t_end: float) -> list[float]:
        spots = [0.0]
        bump = [0.0, self.t_rise, self.t_rise + self.t_width,
                self.t_rise + self.t_width + self.t_fall]
        k = 0
        while True:
            if self.t_period is None and k > 0:
                break
            base = self.t_delay + (k * self.t_period if self.t_period else 0.0)
            if base > t_end:
                break
            for off in bump:
                t = base + off
                if 0.0 <= t <= t_end:
                    spots.append(t)
            k += 1
        return _dedup_sorted(sorted(spots))

    def is_constant(self) -> bool:
        return self.v1 == self.v2

    def scaled(self, factor: float) -> "Pulse":
        """Equal to ``Pulse(v1*f, v2*f, <same timing>)``, built at copy
        cost: the seven fields are set directly (``__post_init__`` still
        checks them) and the copy shares this pulse's spot memo, since
        a pulse's spots read only its timing fields.  Each copy
        evaluates its own ``v1``/``v2`` (:meth:`_levels`).
        """
        f = float(factor)
        new = object.__new__(Pulse)
        new.__dict__.update(
            v1=self.v1 * f, v2=self.v2 * f,
            t_delay=self.t_delay, t_rise=self.t_rise,
            t_width=self.t_width, t_fall=self.t_fall,
            t_period=self.t_period,
            _spots=self.__dict__.setdefault("_spots", {}),
        )
        new.__post_init__()
        return new

    # -- MATEX-specific helpers -----------------------------------------------

    def bump_shape(self) -> BumpShape:
        """Return the grouping key of this pulse (paper Fig. 3)."""
        return BumpShape(
            t_delay=self.t_delay,
            t_rise=self.t_rise,
            t_fall=self.t_fall,
            t_width=self.t_width,
        )

    def split_bumps(self, t_end: float) -> list["Pulse"]:
        """Split into single-bump pulses (paper Fig. 3 decomposition).

        Each repetition of the bump inside ``[0, t_end)`` becomes its own
        non-periodic pulse with baseline 0 and amplitude ``v2 − v1``, so

            u(t) − u(0)  =  Σ_k  bump_k(t)      for t in [0, t_end)

        (the deviation form used by the distributed scheduler).  A
        non-periodic pulse returns a single-element list.
        """
        amplitude = self.v2 - self.v1
        bumps: list[Pulse] = []
        k = 0
        while True:
            delay = self.t_delay + (
                k * self.t_period if self.t_period is not None else 0.0
            )
            if delay >= t_end:
                break
            bumps.append(
                Pulse(
                    v1=0.0, v2=amplitude,
                    t_delay=delay, t_rise=self.t_rise,
                    t_width=self.t_width, t_fall=self.t_fall,
                )
            )
            if self.t_period is None:
                break
            k += 1
        return bumps


def sample_waveforms(waves: Sequence[Waveform], times) -> "np.ndarray":
    """``values_array(times)`` of each waveform, one row each, in one pass.

    Pulses that share their timing (a group's loads, a scenario's scaled
    copies) share their folded times and breakpoints, and each is one
    call, with its own levels, of the compiled kernel that
    :meth:`Pulse.values_array`'s ``np.interp`` calls — the same samples,
    bit for bit, without the per-call wrappers.  Other waveforms sample
    themselves.
    """
    import numpy as np
    from numpy._core.multiarray import interp

    t = np.asarray(times, dtype=float)
    grids: dict[tuple, tuple] = {}
    rows = []
    for w in waves:
        if type(w) is Pulse:
            timing = (w.t_delay, w.t_rise, w.t_width, w.t_fall, w.t_period)
            grid = grids.get(timing)
            if grid is None:
                grid = grids[timing] = w._folded(t), w._breakpoints()
            rows.append(interp(*grid, w._levels(), w.v1, w.v1))
        else:
            rows.append(w.values_array(t))
    return np.array(rows).reshape(len(rows), t.size)


def merge_transition_spots(
    spot_lists: Sequence[Sequence[float]], atol: float = 0.0
) -> list[float]:
    """Union of several transition-spot lists (the paper's GTS operator).

    Parameters
    ----------
    spot_lists:
        One list of transition spots per input source.
    atol:
        Absolute tolerance under which two spots are considered identical.
    """
    merged: list[float] = sorted(t for spots in spot_lists for t in spots)
    if not merged:
        return [0.0]
    return _dedup_sorted(merged, atol=atol)
