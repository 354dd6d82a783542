"""Whole-block superposition: the tests' oracle for the scenario sum.

:class:`repro.core.superposition.ScenarioTotals` adds node trajectories
to a scenario total chunk by chunk as they are marched, resuming from a
carrier when one already holds the leading nodes.  This module keeps
the plain definition those sums must reproduce bit for bit:
``x_dc + Σ_k y_k`` over whole node blocks, in list order, with its own
arithmetic — a dense block is added whole, a factored one (anything
with ``spans``) as ``A @ B`` per ``(row0, A, B)`` span.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def superpose_states(
    dc_state: np.ndarray,
    times: Sequence[np.ndarray],
    states: Sequence,
) -> np.ndarray:
    """``x_dc + Σ_k y_k`` over whole blocks, **in list order**.

    Starts from ``dc_state`` tiled over the grid and adds each
    ``(K × dim)`` block of ``states``.  ``times`` holds each block's
    time grid; all must equal the first.
    """
    if not states:
        raise ValueError("superpose needs at least one node result")
    for t in times[1:]:
        if t.shape != times[0].shape or not np.allclose(
            t, times[0], rtol=1e-12, atol=0.0
        ):
            raise ValueError("node results are not aligned on a common time grid")
    total = np.tile(np.asarray(dc_state, dtype=float), (len(times[0]), 1))
    for block in states:
        spans = getattr(block, "spans", None)
        for row0, a, b in [(0, None, block)] if spans is None else spans:
            rows = b if a is None else a @ b
            total[row0:row0 + len(rows)] += rows
    return total
