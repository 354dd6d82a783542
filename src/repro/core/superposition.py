"""Superposition of distributed sub-task results (paper Sec. 3.2).

The PDN is linear, so the response to ``u = Σ_k u_k`` decomposes.  The
scheduler uses the *deviation* form, which keeps every node's initial
condition trivially zero:

1. DC analysis once: ``G x_dc = B u(0)``.
2. Node ``k`` simulates ``C y'_k = -G y_k + B (u_k(t) − u_k(0))`` with
   ``y_k(0) = 0`` (that is :class:`~repro.core.solver.MatexSolver` in
   ``deviation_mode``).
3. Superpose on the shared GTS grid: ``x(t) = x_dc + Σ_k y_k(t)``.

Step 3 is the only cross-node communication — the "write back" of the
paper's Fig. 4.  Its arithmetic lives in :func:`superpose_states`, the
one accumulation routine both the scheduler-side :func:`superpose` and
the pool workers' in-place reduction
(:mod:`repro.dist.executors`) run — floating-point addition is not
associative, so "the same sum" has to mean the same routine adding the
same blocks in the same order.

It is also where a node's trajectory first becomes dense.  The block
runner answers with *factors* (:class:`~repro.dist.messages.FactoredStates`)
and the write-back only ever needs the sum over nodes: each span is one
small GEMM folded straight into the scenario total, task after task,
span after span, so the 122 MB of per-node ``(145 × 1058)`` blocks a
pg1t scenario used to materialise are never written, and forming the
rows is part of ``superpose_seconds``.  An in-place ``dgemm(β=1)`` into
the total and the two-step ``+= A @ B`` used here differ in the last
ulp, which is why there is exactly one fold.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.results import TransientResult
from repro.core.stats import SolverStats

__all__ = [
    "SUPERPOSED_METHOD",
    "superpose",
    "superpose_states",
    "merge_node_stats",
]

#: ``TransientResult.method`` label of a superposed full-system result.
SUPERPOSED_METHOD = "matex-distributed"


def superpose_states(
    dc_state: np.ndarray,
    times: Sequence[np.ndarray],
    states: Sequence[np.ndarray],
) -> np.ndarray:
    """``x_dc + Σ_k y_k``: the accumulation kernel of :func:`superpose`.

    Starts from ``dc_state`` tiled over the grid and adds the
    ``(K × dim)`` blocks of ``states`` **in list order** — the order is
    part of the contract, because it fixes the result's bits.  A dense
    block is added whole; a factored block (anything with ``spans``) is
    folded span by span as ``total[row0:row0 + K] += A @ B`` — the only
    place a factored trajectory meets a sum (``A @ B`` formed into one
    reused C-ordered buffer the size of the longest span, then added in
    place: the same GEMM call, the same two-step ``+=``, and no
    ``(K × dim)`` buffer for huge pages to back).  ``times`` holds each
    block's time grid; all must equal the first (the scheduler hands
    every node the same GTS schedule).
    """
    if not states:
        raise ValueError("superpose needs at least one node result")
    reference = times[0]
    for t in times[1:]:
        # Nodes share the scheduler's grid, so the bytewise test settles
        # almost every call; the tolerant one only sees grids that differ.
        if np.array_equal(t, reference):
            continue
        if t.shape != reference.shape or not np.allclose(
            t, reference, rtol=1e-12, atol=0.0
        ):
            raise ValueError(
                "node results are not aligned on a common time grid; "
                "pass the scheduler's shared schedule to every node"
            )
    total = np.tile(np.asarray(dc_state, dtype=float), (len(reference), 1))
    buf = np.empty((0, total.shape[1]))
    for block in states:
        spans = getattr(block, "spans", None)
        if spans is None:
            total += block
            continue
        for row0, a, b in spans:
            if a is not None and len(a) > len(buf):
                buf = np.empty((len(a), total.shape[1]))
            rows = b if a is None else np.matmul(a, b, out=buf[:len(a)])
            seg = total[row0:row0 + len(rows)]
            np.add(seg, rows, out=seg)
    return total


def merge_node_stats(node_stats: Iterable[SolverStats]) -> SolverStats:
    """The combined result's statistics: node stats merged in node order."""
    merged = SolverStats()
    for stats in node_stats:
        merged = merged.merge(stats)
    return merged


def superpose(
    dc_state: np.ndarray,
    node_results: list,
    method: str = SUPERPOSED_METHOD,
    system=None,
) -> TransientResult:
    """Sum per-node deviation responses onto the DC operating point.

    Parameters
    ----------
    dc_state:
        The DC operating point ``x_dc``.
    node_results:
        Per-node deviation trajectories: :class:`TransientResult` or
        :class:`~repro.dist.messages.NodeResult` objects (``times``,
        ``states``, ``stats``) — the latter keep their factored
        ``states``, which a ``TransientResult`` would densify.  All must
        share the identical time grid (the scheduler hands every node
        the same GTS schedule).
    method:
        Label recorded on the combined result.
    system:
        The simulated system; defaults to the first result's.

    Returns
    -------
    TransientResult
        The full-system trajectory; statistics are merged across nodes
        (wall-clock aggregation for the paper's max-over-nodes timing is
        done by the scheduler, which knows per-node runtimes).
    """
    total = superpose_states(
        dc_state,
        [r.times for r in node_results],
        [r.states for r in node_results],
    )
    reference = node_results[0]
    return TransientResult(
        system=reference.system if system is None else system,
        times=reference.times.copy(),
        states=total,
        stats=merge_node_stats(r.stats for r in node_results),
        method=method,
    )
