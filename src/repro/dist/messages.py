"""Message types exchanged between the scheduler and computing nodes.

Everything in this module is a plain dataclass of picklable payloads —
tuples, floats, numpy arrays, :class:`~repro.core.decomposition.SourceGroup`
(itself a frozen dataclass of tuples and waveform dataclasses) and
:class:`~repro.core.stats.SolverStats`.  ``multiprocessing`` transports
them between processes, so picklability is a contract guaranteed by
``tests/test_dist_messages.py``.

The protocol mirrors the paper's Fig. 4:

* the scheduler sends each node one :class:`SimulationTask` — its source
  group, the horizon and the *shared* global-transition-spot grid (so
  every node's trajectory aligns for superposition);
* the node answers with a :class:`NodeResult` — the deviation trajectory
  on that grid, as :class:`FactoredStates` (≈ 0.2 MB for a pg1t node
  whose dense block is 1.23 MB), plus its local statistics;
* the scheduler superposes and reports a :class:`DistributedResult` with
  the Sec. 3.4 timing split.

One refinement on the way back: an executor given the scenarios' DC
states adds each chunk's nodes to their scenario's sum as soon as the
chunk has marched (:class:`~repro.core.superposition.ScenarioTotals`)
and answers with one trajectory for them instead of one per node.  The
scenario's first result is the **carrier** — its ``states`` hold
``x_dc`` plus the summed nodes and ``covers`` lists their task ids —
and the other summed node results keep their statistics but travel
with an empty ``(0, dim)`` ``states`` block; nodes after a chunk border
travel as their own factors (see :mod:`repro.dist.executors`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.decomposition import SourceGroup
from repro.core.results import TransientResult
from repro.core.stats import SolverStats
from repro.core.transition import TransitionSchedule

__all__ = [
    "SimulationTask",
    "FactoredStates",
    "NodeResult",
    "DistributedResult",
    "ErrorBudget",
]


@dataclass(frozen=True)
class SimulationTask:
    """One unit of distributed work: simulate a source group's deviation.

    Attributes
    ----------
    task_id:
        Scheduler-assigned identifier; the matching :class:`NodeResult`
        echoes it back so out-of-order completion can be reordered.
    group:
        The source group (input columns plus optional waveform overrides)
        this node owns.
    t_end:
        Simulation horizon.
    global_points:
        The full system's Global Transition Spots.  Every node marches
        through all of them — its own LTS as fresh Krylov generations,
        the rest as basis-reuse snapshots — so all results share one grid.
    schedule:
        Optional pre-built marching schedule.  A compiled plan
        (:mod:`repro.plan`) constructs each group's schedule **once**
        and stamps it on every scenario's task, so a sweep does not
        rebuild identical schedules per scenario; when absent, the
        worker builds it from ``group``/``global_points`` — the two
        paths are bit-identical by construction (the plan uses the same
        :func:`~repro.core.transition.build_schedule`).
    """

    task_id: int
    group: SourceGroup
    t_end: float
    global_points: tuple[float, ...]
    schedule: TransitionSchedule | None = None

    def __post_init__(self):
        if self.t_end <= 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end!r}")
        if not self.group.input_columns:
            raise ValueError("task group owns no input columns")


@dataclass(frozen=True, eq=False)
class FactoredStates:
    """A node trajectory kept as its low-rank factors, span by span.

    Over one Krylov basis the deviation is ``y(t_i0 + h) = β V_m
    exp(h·H_m) e_1 − F + h·w_2``: rows ``row0 … row0 + K`` of the
    ``(n_points × dim)`` block are ``A @ B`` with ``A = [β exp(h_k H_m)
    e_1ᵀ | −1 | h_k]`` of shape ``(K, m + 2)`` and ``B = [V_mᵀ; F;
    w_2]`` of shape ``(m + 2, dim)``.  A span too short for its factors
    to be the smaller form (``K ≲ m + 2``: merged groups, whose every
    grid point is a transition spot) carries its ``K`` rows as they are,
    ``A = None``.  Rows no span covers (``t = 0``, quiescent segments)
    are exactly ``+0.0``.

    The spans are held as the march handed them over — each ``B`` is
    its basis's Arnoldi workspace — and are packed into one flat buffer
    (:attr:`data`: ``A`` then ``B``, span after span) only to cross a
    process boundary: pickling and shared memory move that single array
    and rebuild the spans as views into it (:meth:`from_flat`).  Every
    factor is C-ordered either way, so the products see the same
    operand layout wherever they are formed: inside the write-back
    (:mod:`repro.core.superposition`) or on request
    (:meth:`dense`, ``np.asarray``).

    Attributes
    ----------
    shape:
        ``(n_points, dim)`` of the dense block this stands for.
    spans:
        ``(row0, A, B)`` per span in marching order (``A`` may be
        ``None``).
    """

    shape: tuple[int, int]
    spans: tuple[tuple[int, np.ndarray | None, np.ndarray], ...]

    @classmethod
    def from_spans(cls, shape, spans) -> "FactoredStates":
        """Hold ``(row0, A, B)`` spans (``A`` may be ``None``) as they are."""
        return cls(shape=tuple(shape), spans=tuple(spans))

    @classmethod
    def from_flat(cls, shape, layout, data: np.ndarray) -> "FactoredStates":
        """The spans of a packed buffer (:attr:`layout`, :attr:`data`),
        as views into it."""
        spans, pos = [], 0
        for row0, k, r in layout:
            a = data[pos:pos + k * r].reshape(k, r) if r else None
            pos += k * r
            n_b = (r or k) * shape[1]
            spans.append((row0, a, data[pos:pos + n_b].reshape(-1, shape[1])))
            pos += n_b
        return cls(shape=tuple(shape), spans=tuple(spans))

    @property
    def layout(self) -> tuple[tuple[int, int, int], ...]:
        """``(row0, K, m + 2)`` per span; ``(row0, K, 0)`` for plain rows."""
        return tuple(
            (row0, len(b), 0) if a is None else (row0, *a.shape)
            for row0, a, b in self.spans
        )

    @property
    def data(self) -> np.ndarray:
        """The spans packed into one new flat ``float64`` buffer."""
        parts = [
            m.ravel() for _row0, a, b in self.spans for m in (a, b)
            if m is not None
        ]
        return np.concatenate(parts) if parts else np.empty(0)

    @property
    def nbytes(self) -> int:
        return sum(
            m.nbytes for _row0, a, b in self.spans for m in (a, b)
            if m is not None
        )

    def dense(self) -> np.ndarray:
        """The ``(n_points × dim)`` block, materialised."""
        out = np.zeros(self.shape)
        for row0, a, b in self.spans:
            rows = b if a is None else a @ b
            out[row0:row0 + len(rows)] = rows
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.dense(), dtype=dtype)

    def __reduce__(self):
        return FactoredStates.from_flat, (self.shape, self.layout, self.data)


@dataclass(frozen=True, eq=False)
class NodeResult:
    """A node's answer: the deviation trajectory plus local statistics.

    The trajectory is carried as raw arrays (not a
    :class:`~repro.core.results.TransientResult`) so the message does not
    drag the whole MNA system back through the pipe; the scheduler
    re-attaches its own system reference during superposition.
    ``eq=False``: the array payloads have no scalar ``==``; compare the
    fields (``np.testing.assert_array_equal``) instead of whole messages.

    Attributes
    ----------
    states:
        The node's ``(K × dim)`` deviation trajectory: a
        :class:`FactoredStates` from the block runner (every executor)
        — unless the executor summed the node into its scenario after
        marching it: then the carrier (``covers`` non-empty) holds the
        dense partial sum and every other summed node result an empty
        ``(0, dim)`` block.
    covers:
        Ids of the tasks, in summation order, whose trajectories were
        summed onto their scenario's DC state to produce ``states``:
        the scenario's first nodes, all of them unless a chunk border
        split it.  Empty for an ordinary per-node result.
    superpose_seconds:
        Wall time of that sum (0 for per-node results).
    peak_held_bytes:
        The most node-factor bytes the executor held before adding them
        to the sum — one chunk's worth (a count, not RSS; 0 for per-node
        results).
    """

    task_id: int
    group_id: int
    label: str
    times: np.ndarray
    states: np.ndarray | FactoredStates
    stats: SolverStats = field(default_factory=SolverStats)
    covers: tuple[int, ...] = ()
    superpose_seconds: float = 0.0
    peak_held_bytes: int = 0

    @property
    def transient_seconds(self) -> float:
        """Wall time of the node's stepping loop (its ``trmatex`` share)."""
        return self.stats.transient_seconds

    @property
    def factor_seconds(self) -> float:
        """Wall time of the one-off matrix factorisations charged to
        this result: its runner's, on that runner's first result only."""
        return self.stats.factor_seconds

class ErrorBudget(NamedTuple):
    """The posterior ledger of a run, against what it was allowed.

    ``spent`` sums the posterior estimates of every step every node
    committed, ``largest`` is the largest of them, and ``allowed`` sums
    the generation budget ``ε`` of every Krylov basis built (``k·ε``
    for ``k`` bases of equal ``ε``).  All in state units (volts).  A
    reused step may spend up to ``REUSE_SAFETY·ε``, so ``spent`` is not
    capped by ``allowed``; and an estimate is not a bound.
    """

    spent: float
    largest: float
    allowed: float


@dataclass(frozen=True, eq=False)
class DistributedResult:
    """The combined outcome of one distributed run (paper Sec. 3.4).

    Attributes
    ----------
    result:
        The superposed full-system trajectory ``x_dc + Σ_k y_k``.
    n_nodes:
        Number of computing nodes (= source groups) used.
    node_stats:
        Per-node solver statistics, ordered by task id.
    dc_seconds:
        Scheduler-side serial part: the one DC factorisation + solve.
    factor_seconds:
        Max per-node factorisation time (nodes factor concurrently).
    superpose_seconds:
        Wall time of the final write-back/superposition, wherever it
        ran: in the executor after each chunk, in a pool worker, or
        here.
    factor_cache_hits:
        Factorisations this run reused from the process-wide
        :data:`~repro.linalg.lu.FACTORIZATION_CACHE` (scheduler DC +
        every node's construction) — the Sec. 3.4 shared-pencil
        amortisation, counted.  Worker *processes* keep their own
        caches, so multiprocess runs report only the hits their workers
        observed locally — and a pool process that was initialised but
        never received a task keeps its construction traffic to itself
        (the counts are a conservative floor, never an overcount).
    factor_cache_misses:
        Factorisations actually performed (and cached) during the run.
    factor_cache_evictions:
        Factorisations the scheduler-side process-wide cache evicted
        while this run executed.  A persistently non-zero value during a
        sweep means the sweep's pencils outgrow the cache's fixed
        residency limits (:data:`repro.linalg.lu.DEFAULT_CACHE_MAX_ENTRIES`
        / ``DEFAULT_CACHE_MAX_BYTES``).
    scenario:
        Name of the :class:`repro.plan.Scenario` this result answers
        (``None`` for plain single-run scheduler results).
    rom_dim:
        Reduced dimension ``q`` of the model consulted for this
        scenario (``None`` when the sweep ran without a reduced model;
        set even when the answer fell back — the model was consulted).
    rom_bound:
        The scenario's posterior relative error bound from the reduced
        model (``None`` when no model was consulted).
    rom_fallback:
        True when the bound exceeded the model's tolerance and the
        scenario was transparently re-run on the full-order path —
        such results are bit-identical to a sweep without the model.
    retries:
        Batch re-submissions the executor's
        :class:`~repro.dist.supervision.RetryPolicy` performed while
        producing this result (0 without a policy, or when nothing
        failed).  Retried batches are bit-identical to never-failed
        ones — this counter is the only observable difference.
    degraded_runs:
        Batches answered by the in-process degradation fallback after
        the executor stopped trusting process pools (see
        ``RetryPolicy.degrade_after``).
    peak_held_bytes:
        The most node-factor bytes the executor that summed this
        scenario held before adding them — one chunk's worth, a count,
        not RSS.  An executor that summed several stacked scenarios
        reports its peak over all of them.
    """

    result: TransientResult
    n_nodes: int
    node_stats: tuple[SolverStats, ...]
    dc_seconds: float = 0.0
    factor_seconds: float = 0.0
    superpose_seconds: float = 0.0
    factor_cache_hits: int = 0
    factor_cache_misses: int = 0
    factor_cache_evictions: int = 0
    scenario: str | None = None
    rom_dim: int | None = None
    rom_bound: float | None = None
    rom_fallback: bool = False
    retries: int = 0
    degraded_runs: int = 0
    peak_held_bytes: int = 0

    @property
    def node_transient_seconds(self) -> list[float]:
        """Per-node pure-transient wall times."""
        return [s.transient_seconds for s in self.node_stats]

    @property
    def tr_matex(self) -> float:
        """Paper ``trmatex``: the slowest node's pure-transient time."""
        return max(self.node_transient_seconds, default=0.0)

    @property
    def tr_total(self) -> float:
        """Paper MATEX total: serial parts + slowest node + write-back."""
        return (self.dc_seconds + self.factor_seconds
                + self.tr_matex + self.superpose_seconds)

    @property
    def error_bound(self) -> ErrorBudget:
        """The run's posterior ledger (:class:`ErrorBudget`), merged over
        its nodes in node order."""
        return ErrorBudget(
            spent=sum(s.posterior_sum for s in self.node_stats),
            largest=max((s.posterior_max for s in self.node_stats),
                        default=0.0),
            allowed=sum(s.eps_sum for s in self.node_stats),
        )

    @property
    def total_substitution_pairs(self) -> int:
        """Substitution pairs summed over all nodes (total work)."""
        return sum(s.n_solves_transient for s in self.node_stats)

    @property
    def max_node_substitution_pairs(self) -> int:
        """The busiest node's substitution pairs (critical-path work)."""
        return max(
            (s.n_solves_transient for s in self.node_stats), default=0
        )
