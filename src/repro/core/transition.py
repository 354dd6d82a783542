"""Transition-spot bookkeeping (paper Sec. 3.1 definitions).

* **LTS** (Local Transition Spot): slope-change times of *one* input
  source — or, after decomposition, of one *group* of sources.
* **GTS** (Global Transition Spot): the union of all LTS.
* **Snapshot**: GTS points that are *not* LTS of the local group — the
  points a MATEX node must still evaluate (for the final superposition)
  but can serve from the most recent Krylov basis by rescaling ``h``.

:class:`TransitionSchedule` materialises this for one solver run: the
ordered marching points, with a flag telling Alg. 2 whether each point
starts a new input segment (generate a Krylov basis) or is a snapshot
(reuse).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.circuit.mna import MNASystem

__all__ = ["TransitionSchedule", "build_schedule"]

#: Relative tolerance for matching a GTS point against an LTS point.
_MATCH_RTOL = 1e-9


@dataclass(frozen=True)
class TransitionSchedule:
    """Marching schedule of one MATEX node.

    Attributes
    ----------
    points:
        Sorted global transition spots in ``[0, t_end]``, always starting
        at 0 and ending at ``t_end``.
    is_lts:
        Parallel flags: ``is_lts[i]`` is true when ``points[i]`` is a
        local transition spot of the node's own source group, i.e. the
        input slope changes there and a fresh Krylov subspace is needed.
    t_end:
        Simulation horizon.
    """

    points: tuple[float, ...]
    is_lts: tuple[bool, ...]
    t_end: float

    def __post_init__(self):
        if len(self.points) != len(self.is_lts):
            raise ValueError("points and is_lts must have equal length")
        if not self.points:
            raise ValueError("schedule needs at least one point")

    @property
    def n_lts(self) -> int:
        """Number of Krylov-generation points (paper's ``k`` in Eq. 12)."""
        return sum(self.is_lts)

    @property
    def n_points(self) -> int:
        """Number of GTS points (paper's ``K`` in Eq. 11)."""
        return len(self.points)

    @cached_property
    def segment_starts(self) -> list[int]:
        """Points that open a marching segment: point 0 and every later
        LTS but the last point.  Computed once per schedule, so a
        compiled plan's schedules carry it to every scenario."""
        return [
            i for i in range(len(self.points) - 1) if i == 0 or self.is_lts[i]
        ]

    def segments(self) -> list[tuple[float, float, bool]]:
        """Steps as ``(t_from, t_to, from_is_lts)`` triples."""
        return [
            (t0, t1, lts)
            for t0, t1, lts in zip(self.points, self.points[1:], self.is_lts)
        ]


def _match_sorted_many(haystack: Sequence[float], needles: Sequence[float]):
    """Which ``needles`` lie in sorted ``haystack``, to a relative
    tolerance.

    A needle matches when one of its bisection neighbours ``a`` passes
    ``math.isclose(a, needle, rel_tol=_MATCH_RTOL, abs_tol=1e-30)``,
    that is ``|a−b| ≤ max(rtol·max(|a|,|b|), atol)``; every needle is
    tested at once (decomposed runs call this once per node task with
    ~10² grid points).
    """
    import numpy as np

    hs = np.asarray(haystack, dtype=float)
    nd = np.asarray(needles, dtype=float)
    out = np.zeros(nd.shape, dtype=bool)
    if hs.size == 0:
        return out
    i = np.searchsorted(hs, nd, side="left")
    for off in (-1, 0, 1):
        j = i + off
        valid = (j >= 0) & (j < hs.size)
        a = np.take(hs, j, mode="clip")
        close = np.abs(a - nd) <= np.maximum(
            _MATCH_RTOL * np.maximum(np.abs(a), np.abs(nd)), 1e-30
        )
        out |= valid & close
    return out


def build_schedule(
    system: MNASystem,
    t_end: float,
    local_inputs: Sequence[int] | None = None,
    global_points: Sequence[float] | None = None,
    waveform_overrides: dict | None = None,
    *,
    grid: tuple[float, ...] | None = None,
) -> TransitionSchedule:
    """Build the LTS/GTS schedule for a (possibly decomposed) solver run.

    Parameters
    ----------
    system:
        Assembled MNA system.
    t_end:
        Simulation horizon (> 0).
    local_inputs:
        The input columns this node owns.  ``None`` means *all* inputs —
        the non-decomposed case, where every GTS point is an LTS.
    global_points:
        Pre-computed GTS (so the scheduler computes them once and every
        node shares the identical grid for superposition).  Computed from
        the full system when omitted.
    grid:
        Instead of ``global_points`` (passing both is a ``ValueError``):
        the ``points`` of a schedule ``build_schedule`` already made, so
        sorted, inside ``[0, t_end]`` and ending on both; it is marched
        as is, unvalidated (a compiled plan validates its shared grid
        once, not once per group).
    waveform_overrides:
        Optional ``{column: waveform}`` replacements (split-bump
        decomposition); the local transition spots come from the
        replacement waveforms.

    Returns
    -------
    TransitionSchedule
        Marching points with per-point LTS flags.  Point 0.0 is always an
        LTS (the initial basis must be generated).
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if grid is not None and global_points is not None:
        raise ValueError("pass global_points or grid, not both")
    if waveform_overrides:
        system = system.rebind_sources(overrides=waveform_overrides)

    if grid is not None:
        gts = grid
    elif global_points is None:
        gts = tuple(system.global_transition_spots(t_end))
    else:
        gts = sorted(float(t) for t in global_points if 0.0 <= t <= t_end)
        if not gts or gts[0] > 0.0:
            gts.insert(0, 0.0)
        if gts[-1] < t_end:
            gts.append(t_end)
        gts = tuple(gts)

    if local_inputs is None:
        return TransitionSchedule(gts, (True,) * len(gts), t_end)

    # Collect the raw slope-change times of the local group only; the
    # horizon t_end is a marching point but not a slope change, so it
    # counts as LTS only if some local waveform really transitions there.
    raw_lts = set()
    for k in local_inputs:
        raw_lts.update(system.local_transition_spots(k, t_end))
    lts_sorted = sorted(raw_lts)

    flags = _match_sorted_many(lts_sorted, gts).tolist()
    flags[0] = True  # the initial basis is always generated at t = 0
    return TransitionSchedule(gts, tuple(flags), t_end)
