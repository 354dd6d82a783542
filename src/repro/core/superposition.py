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
paper's Fig. 4.  Every element of the sum is ``x_dc`` plus each node's
contribution **in node order** — floating-point addition is not
associative, so "the same sum" has to mean the same blocks added in the
same order, and every span is added by one routine (:func:`_add_span`).

It is also where a node's trajectory first becomes dense.  The block
runner answers with *factors*, one ``(row0, A, B)`` span per Krylov
basis, and the write-back only ever needs the sum over nodes: each span
is one small GEMM added straight into the scenario total, so the
per-node ``(K × dim)`` blocks are never written and forming the rows is
part of ``superpose_seconds``.  An in-place ``dgemm(β=1)`` into the
total and the two-step ``+= A @ B`` used here differ in the last ulp,
which is why there is exactly one fold.

That fold is :class:`ScenarioTotals`, the running sums of a
submission's scenarios.  As soon as a lockstep chunk has marched, an
executor hands it the chunk's node results, and it adds them to their
scenarios' totals in node order and drops their factors.  A run
therefore holds one trajectory per scenario plus one chunk's factors,
not every node's: at width 1 a chunk is one node.  It then builds the
*carriers* — a scenario's first result holding its total, with
``covers`` naming the summed nodes.  :func:`superpose` is the same fold
for one scenario: it starts from a carrier (or from ``x_dc``) and adds
the node results after it, factored or dense.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from repro.core.results import TransientResult
from repro.core.stats import SolverStats

__all__ = [
    "SUPERPOSED_METHOD",
    "ScenarioTotals",
    "superpose",
    "merge_node_stats",
]

#: ``TransientResult.method`` label of a superposed full-system result.
SUPERPOSED_METHOD = "matex-distributed"


def _add_span(total: np.ndarray, span, buf: np.ndarray) -> np.ndarray:
    """``total[row0:row0 + K] += A @ B`` (or ``+= rows`` when ``A`` is
    ``None``): the one place a factored trajectory meets a sum.

    ``A @ B`` is formed into ``buf``, one reused C-ordered buffer grown
    to the longest span (no ``(K × dim)`` buffer for huge pages to
    back), then added in place.  Returns the buffer, possibly grown.
    """
    row0, a, b = span
    if a is not None and len(a) > len(buf):
        buf = np.empty((len(a), total.shape[1]))
    rows = b if a is None else np.matmul(a, b, out=buf[:len(a)])
    seg = total[row0:row0 + len(rows)]
    np.add(seg, rows, out=seg)
    return buf


def _check_grid(reference: np.ndarray, t: np.ndarray) -> None:
    """Every node of a scenario must share the first one's time grid."""
    # Nodes share the scheduler's grid, so the bytewise test settles
    # almost every call; the tolerant one only sees grids that differ.
    if np.array_equal(t, reference):
        return
    if t.shape != reference.shape or not np.allclose(
        t, reference, rtol=1e-12, atol=0.0
    ):
        raise ValueError(
            "node results are not aligned on a common time grid; "
            "pass the scheduler's shared schedule to every node"
        )


def merge_node_stats(node_stats: Iterable[SolverStats]) -> SolverStats:
    """The combined result's statistics: node stats merged in node order
    (counters and the posterior ledger add; see :class:`SolverStats`)."""
    merged = SolverStats()
    for stats in node_stats:
        merged = merged.merge(stats)
    return merged


def superpose(
    dc_state: np.ndarray,
    node_results: list,
    system=None,
) -> TransientResult:
    """One scenario's total ``x_dc + Σ_k y_k`` from its node results.

    Parameters
    ----------
    dc_state:
        The DC operating point ``x_dc``.
    node_results:
        The scenario's node results in node order:
        :class:`TransientResult` or
        :class:`~repro.dist.messages.NodeResult` objects (``times``,
        ``states``, ``stats``).  If the first is a carrier — its
        ``covers`` names the leading results already summed onto
        ``x_dc`` into its ``states`` — the total starts from it;
        otherwise from ``x_dc``.  Either way the remaining results are
        added in node order by :class:`ScenarioTotals`, so every element
        sees the same additions in the same order wherever the sum was
        started.  All must share the identical time grid.
    system:
        The simulated system; defaults to the first result's.

    Returns
    -------
    TransientResult
        The full-system trajectory; statistics are merged across nodes
        (wall-clock aggregation for the paper's max-over-nodes timing is
        done by the scheduler, which knows per-node runtimes).  A
        carrier that covers every node is returned as its own states.
    """
    if not node_results:
        raise ValueError("superpose needs at least one node result")
    first = node_results[0]
    done = len(getattr(first, "covers", ()))
    totals = ScenarioTotals([(0, len(node_results), dc_state)])
    if done:
        totals.resume(0, first)
    totals.add(done, node_results[done:])
    return TransientResult(
        system=first.system if system is None else system,
        times=first.times.copy(),
        states=totals.total(0),
        stats=merge_node_stats(r.stats for r in node_results),
        method=SUPERPOSED_METHOD,
    )


class ScenarioTotals:
    """Running sums ``x_dc + Σ_k y_k`` of a submission's scenarios, fed
    one marched chunk at a time.

    Parameters
    ----------
    scenarios:
        ``(lo, count, dc_state)`` per scenario: its nodes ``0 … count −
        1`` are the results at positions ``lo … lo + count − 1`` of the
        submission (a pool chunk sums the leading nodes of a scenario
        that continues in the next chunk).  A scenario starts from
        ``dc_state`` tiled over its first node's grid, or from a carrier
        (:meth:`resume`).

    Attributes
    ----------
    peak_held_bytes:
        The most node-factor bytes one :meth:`add` was handed to sum (a
        count, not RSS): one chunk's worth, the largest single node's
        factors at width 1.
    """

    def __init__(self, scenarios: Sequence[tuple[int, int, np.ndarray]]):
        self._scenarios = list(scenarios)
        self._where = {
            lo + k: j
            for j, (lo, count, _dc) in enumerate(self._scenarios)
            for k in range(count)
        }
        self._totals: list = [None] * len(self._scenarios)
        self._times: list = [None] * len(self._scenarios)
        self._seconds = [0.0] * len(self._scenarios)
        self._borrowed: set[int] = set()
        self._buf = np.empty((0, 0))
        self.peak_held_bytes = 0

    def resume(self, j: int, carrier) -> None:
        """Start scenario ``j`` from ``carrier``, whose ``states`` hold
        the sum of its leading (``covers``) nodes.

        The states are borrowed, not copied: the carrier is the caller's
        message (possibly a shared-memory view), so they are copied only
        before the first node is added to them.
        """
        self._totals[j] = carrier.states
        self._times[j] = carrier.times
        self._borrowed.add(j)

    def total(self, j: int) -> np.ndarray:
        """Scenario ``j``'s sum so far."""
        return self._totals[j]

    def add(self, first: int, results: Sequence) -> list:
        """Add a marched chunk — the results at positions ``first,
        first + 1, …`` — to the scenario totals, in node order.

        A factored result is added span by span, a dense block as one
        span of plain rows.  Returns the results with every summed
        node's factors replaced by an empty ``(0, dim)`` block; dense
        results (the caller's own arrays) and results outside every
        scenario are returned as they are.  A node whose grid differs
        from its scenario's first node raises ``ValueError``.
        """
        out, held = [], 0
        for pos, res in enumerate(results, first):
            j = self._where.get(pos)
            if j is None:
                out.append(res)
                continue
            t0 = time.perf_counter()
            total = self._totals[j]
            if total is None:
                dc = np.asarray(self._scenarios[j][2], dtype=float)
                total = self._totals[j] = np.tile(dc, (len(res.times), 1))
                self._times[j] = res.times
            else:
                _check_grid(self._times[j], res.times)
                if j in self._borrowed:
                    self._borrowed.discard(j)
                    total = self._totals[j] = np.array(total)
            spans = getattr(res.states, "spans", None)
            for span in ((0, None, res.states),) if spans is None else spans:
                self._buf = _add_span(total, span, self._buf)
            held += res.states.nbytes
            self._seconds[j] += time.perf_counter() - t0
            if spans is not None:
                res = replace(res, states=np.empty((0, total.shape[1])))
            out.append(res)
        self.peak_held_bytes = max(self.peak_held_bytes, held)
        return out

    def carriers(self, results: Sequence) -> list:
        """``results`` (the submission's, as :meth:`add` returned them)
        with each scenario's first result carrying its total: ``covers``
        names the summed nodes, ``superpose_seconds`` is their sum's
        time."""
        results = list(results)
        for (lo, count, _dc), total, seconds in zip(
            self._scenarios, self._totals, self._seconds
        ):
            share = results[lo:lo + count]
            results[lo] = replace(
                share[0],
                states=total,
                covers=tuple(r.task_id for r in share),
                superpose_seconds=seconds,
                peak_held_bytes=self.peak_held_bytes,
            )
        return results
