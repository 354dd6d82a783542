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

The fold has two entry points:

* :class:`SpanFold` is the march's span destination.  Node ``k``'s span
  is added as soon as nodes ``0 … k−1`` have folded its rows;
  until then it waits in node ``k``'s queue.  A run therefore holds one
  trajectory per scenario plus the spans still waiting, not every
  node's factors.  At width 1 no span is ever blocked.
* :func:`superpose` finishes a scenario from node results: it resumes
  from a *carrier* (a result whose ``covers`` says which leading nodes
  are already summed into its ``states``) or starts from ``x_dc``, and
  adds the remaining nodes' blocks.  :func:`superpose_states` is the
  same fold over plain blocks.
"""

from __future__ import annotations

import time
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.results import TransientResult
from repro.core.stats import SolverStats

__all__ = [
    "SUPERPOSED_METHOD",
    "SpanFold",
    "superpose",
    "superpose_states",
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


def _check_grids(times: Sequence[np.ndarray]) -> None:
    """Every node of a scenario must share the first one's time grid."""
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


def _fold_blocks(total: np.ndarray, states: Iterable) -> np.ndarray:
    """Add ``(K × dim)`` blocks onto ``total`` in order: a dense block
    whole, a factored one (anything with ``spans``) span by span."""
    buf = np.empty((0, total.shape[1]))
    for block in states:
        spans = getattr(block, "spans", None)
        if spans is None:
            total += block
            continue
        for span in spans:
            buf = _add_span(total, span, buf)
    return total


def superpose_states(
    dc_state: np.ndarray,
    times: Sequence[np.ndarray],
    states: Sequence[np.ndarray],
) -> np.ndarray:
    """``x_dc + Σ_k y_k`` over whole blocks, **in list order**.

    Starts from ``dc_state`` tiled over the grid and adds each
    ``(K × dim)`` block of ``states`` — the order is part of the
    contract, because it fixes the result's bits.  ``times`` holds each
    block's time grid; all must equal the first.
    """
    if not states:
        raise ValueError("superpose needs at least one node result")
    _check_grids(times)
    total = np.tile(np.asarray(dc_state, dtype=float), (len(times[0]), 1))
    return _fold_blocks(total, states)


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
    method: str = SUPERPOSED_METHOD,
    system=None,
) -> TransientResult:
    """Finish one scenario's sum from its node results.

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
        ``x_dc`` into its ``states`` — the fold resumes from it;
        otherwise it starts from ``x_dc``.  Either way the remaining
        results' blocks (factored ones stay factored) are added in
        order, so every element sees the same additions in the same
        order wherever the fold was started.  All must share the
        identical time grid.
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
    if not node_results:
        raise ValueError("superpose needs at least one node result")
    first = node_results[0]
    done = len(getattr(first, "covers", ()))
    if done:
        rest = node_results[done:]
        # The fold that built the carrier checked the grids it covers.
        _check_grids([first.times] + [r.times for r in rest])
        # A resumed carrier is copied, not added to in place: it is the
        # caller's message (possibly a shared-memory view).
        total = np.array(first.states) if rest else first.states
        total = _fold_blocks(total, (r.states for r in rest))
    else:
        total = superpose_states(
            dc_state,
            [r.times for r in node_results],
            [r.states for r in node_results],
        )
    return TransientResult(
        system=first.system if system is None else system,
        times=first.times.copy(),
        states=total,
        stats=merge_node_stats(r.stats for r in node_results),
        method=method,
    )


class _Queued(NamedTuple):
    end: int
    span: tuple
    nbytes: int


class _ScenarioSum:
    """One scenario's running sum and its nodes' fold frontiers.

    ``frontier[k]``: node ``k`` will add nothing below this row (its
    last closed span's end, or a quiescent segment's).  ``ready[k]``:
    every node before ``k`` has added — or is cleared to add —
    everything below this row: the minimum, over ``j < k``, of ``j``'s
    frontier or of its first queued span not yet cleared.  ``cleared[k]``
    counts node ``k``'s leading queued spans that are cleared but wait
    for the total: while several nodes march at once (``marching``), it
    is allocated only once the cleared spans (``cleared_bytes``) are at
    least as large as it is.
    """

    def __init__(self, lo: int, count: int, dc_state: np.ndarray):
        self.lo, self.count, self.dc_state = lo, count, dc_state
        self.times: np.ndarray | None = None
        self.total: np.ndarray | None = None
        self.frontier = [0] * count
        self.ready = [0] * count
        self.queues: list[list[_Queued]] = [[] for _ in range(count)]
        self.cleared = [0] * count
        self.cleared_bytes = 0
        self.marching = 0
        self.seconds = 0.0

    @property
    def total_bytes(self) -> int:
        """Bytes of the dense ``(K × dim)`` total."""
        return len(self.times) * len(self.dc_state) * 8

    def folded(self, k: int) -> int:
        """Rows below this are added, or cleared to add, for node ``k``."""
        q, c = self.queues[k], self.cleared[k]
        return q[c].span[0] if c < len(q) else self.frontier[k]


class _NodeSink:
    """Node ``k``'s span destination inside a :class:`SpanFold`."""

    __slots__ = ("fold", "sum", "k")

    def __init__(self, fold: "SpanFold", scenario: _ScenarioSum, k: int):
        self.fold, self.sum, self.k = fold, scenario, k

    def append(self, span: tuple) -> None:
        """A closed ``(row0, A, B)`` span (``A`` may be ``None``)."""
        self.fold._emit(self.sum, self.k, span)

    def advance(self, row: int) -> None:
        """The node adds nothing below ``row`` (a quiescent segment)."""
        self.fold._advance(self.sum, self.k, row)


class SpanFold:
    """Scenario sums ``x_dc + Σ_k y_k``, folded as a march closes spans.

    Parameters
    ----------
    scenarios:
        ``(lo, count, dc_state)`` per scenario: its nodes ``0 …
        count − 1`` are the tasks at positions ``lo … lo + count − 1``
        of the submission this fold serves (a pool chunk folds the
        leading nodes of a scenario that continues in the next chunk).

    :meth:`sink` hands the march one destination per folded task.  A
    span is *cleared* once every earlier node of its scenario has added
    or cleared those rows, and queues until then; a cleared span is
    added to the scenario's total at once.  The total itself, a dense
    ``(K × dim)`` block, is allocated as soon as a node marches alone
    (at width 1 nothing can wait behind it).  While several of the
    scenario's nodes march in lockstep it is allocated only once the
    spans cleared to go into it are at least as large, so a round whose
    spans are mostly blocked never holds the total on top of them; the
    cleared spans are then added in node order.  Either way the
    additions into every element come in node order, as in
    :func:`superpose_states`, and the result is bit-for-bit the same.

    Attributes
    ----------
    seconds:
        Wall time spent folding (adding and queue bookkeeping).  The
        march subtracts it from its own time: it is write-back,
        ``superpose_seconds``, not a node's ``transient_seconds``.
    held_bytes, peak_held_bytes:
        Bytes of spans queued now / at most, a count (not RSS).  At
        width 1 every earlier node has finished before a node starts,
        so no span ever waits and the peak is 0.
    """

    def __init__(self, scenarios: Sequence[tuple[int, int, np.ndarray]]):
        self.scenarios = [_ScenarioSum(*s) for s in scenarios]
        self._where = {
            sc.lo + k: (sc, k) for sc in self.scenarios for k in range(sc.count)
        }
        self._buf = np.empty((0, 0))
        self.seconds = 0.0
        self.held_bytes = 0
        self.peak_held_bytes = 0

    def sink(self, pos: int, times: np.ndarray) -> _NodeSink | None:
        """The span destination of the task at ``pos`` marching on
        ``times`` (``None``: this fold does not sum that task)."""
        where = self._where.get(pos)
        if where is None:
            return None
        sc, k = where
        if sc.times is None:
            sc.times = times
            sc.ready[0] = len(times)
        else:
            _check_grids([sc.times, times])
        sc.marching += 1
        return _NodeSink(self, sc, k)

    def totals(self) -> list[tuple[int, int, np.ndarray, float]]:
        """``(lo, count, total, seconds)`` per scenario, once every node
        has reached the end of the grid and every span is added."""
        out = []
        for sc in self.scenarios:
            n_rows = -1 if sc.times is None else len(sc.times)
            if sc.total is None and n_rows > 0:
                t0 = time.perf_counter()
                self._allocate(sc)
                self._charge(sc, t0)
            if any(f != n_rows for f in sc.frontier) or any(sc.queues):
                raise RuntimeError(
                    f"scenario at position {sc.lo}: the march did not "
                    f"close every node's spans through the last grid point"
                )
            out.append((sc.lo, sc.count, sc.total, sc.seconds))
        return out

    # -- the fold ------------------------------------------------------------

    def _emit(self, sc: _ScenarioSum, k: int, span: tuple) -> None:
        t0 = time.perf_counter()
        row0, a, b = span
        end = row0 + len(b if a is None else a)
        folded = sc.folded(k)
        self._move(sc, k, end)
        q = sc.queues[k]
        if sc.total is None and sc.marching <= 1:
            self._allocate(sc)
        if sc.total is not None and not q and end <= sc.ready[k]:
            self._buf = _add_span(sc.total, span, self._buf)
        else:
            nbytes = b.nbytes + (0 if a is None else a.nbytes)
            q.append(_Queued(end, span, nbytes))
            self.held_bytes += nbytes
            self.peak_held_bytes = max(self.peak_held_bytes, self.held_bytes)
            self._clear(sc, k)
        if sc.folded(k) != folded:
            self._release(sc, k)
        self._charge(sc, t0)

    def _advance(self, sc: _ScenarioSum, k: int, row: int) -> None:
        if row <= sc.frontier[k]:
            return
        t0 = time.perf_counter()
        folded = sc.folded(k)
        self._move(sc, k, row)
        if sc.folded(k) != folded:
            self._release(sc, k)
        self._charge(sc, t0)

    @staticmethod
    def _move(sc: _ScenarioSum, k: int, row: int) -> None:
        """Node ``k``'s frontier moves to ``row``; at the last grid
        point the node stops marching."""
        if row == len(sc.times) > sc.frontier[k]:
            sc.marching -= 1
        sc.frontier[k] = row

    def _clear(self, sc: _ScenarioSum, k: int) -> None:
        """Add (or, before the total exists, clear) node ``k``'s queued
        spans that end at or below its ``ready`` row."""
        q, ready = sc.queues[k], sc.ready[k]
        while sc.cleared[k] < len(q) and q[sc.cleared[k]].end <= ready:
            if sc.total is not None:
                self._add(sc, q.pop(0))
                continue
            sc.cleared_bytes += q[sc.cleared[k]].nbytes
            sc.cleared[k] += 1
        if sc.total is None and (
            sc.marching <= 1 or sc.cleared_bytes >= sc.total_bytes
        ):
            self._allocate(sc)

    def _release(self, sc: _ScenarioSum, k: int) -> None:
        """Node ``k``'s folded rows may have grown: move the later nodes'
        ``ready`` rows up and clear what they queued below them."""
        for i in range(k + 1, sc.count):
            ready = min(sc.ready[i - 1], sc.folded(i - 1))
            if ready == sc.ready[i]:
                return
            sc.ready[i] = ready
            if sc.cleared[i] < len(sc.queues[i]):
                self._clear(sc, i)

    def _allocate(self, sc: _ScenarioSum) -> None:
        """The scenario's total, with every cleared span added in node
        order (each was cleared after all earlier nodes' spans on its
        rows, so each element still sees node order)."""
        sc.total = np.tile(
            np.asarray(sc.dc_state, dtype=float), (len(sc.times), 1)
        )
        for k, q in enumerate(sc.queues):
            for queued in q[:sc.cleared[k]]:
                self._add(sc, queued)
            del q[:sc.cleared[k]]
            sc.cleared[k] = 0
        sc.cleared_bytes = 0

    def _add(self, sc: _ScenarioSum, queued: _Queued) -> None:
        self._buf = _add_span(sc.total, queued.span, self._buf)
        self.held_bytes -= queued.nbytes

    def _charge(self, sc: _ScenarioSum, t0: float) -> None:
        dt = time.perf_counter() - t0
        sc.seconds += dt
        self.seconds += dt
