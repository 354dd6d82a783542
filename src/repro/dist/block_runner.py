"""Node execution: one lockstep march, at any width.

Every task of a decomposed run shares the full system's MNA pencil and
the same global-transition-spot grid (paper Sec. 3.4) — only the *input
columns* differ.  :class:`BlockNodeRunner` is the one Alg. 2 march in
the package: the executors run it at any width, and
:meth:`MatexSolver.simulate <repro.core.solver.MatexSolver.simulate>`
runs it at width 1 on its own factorisations.  At **width 1** it is the
paper's per-node execution: a node builds a basis at each of its local
transition spots and only re-evaluates it at the snapshots in between —
≈5 rounds of one 1-column Arnoldi and one span of small Hessenberg
exponentials instead of one Python step per grid point.  At width N it
fuses N such marches into block linear algebra without changing a
single bit of the results:

* **ETD vectors by input shape.**  Alg. 2 solves ``G`` three times per
  local transition spot for ``F`` and ``w_2``.  But a node's thousands
  of load inputs are a few shapes at different amplitudes (Sec. 3.1,
  :mod:`repro.core.shapes`): ``B·u(t) = B·u(0) + Σ_j σ_j(t)·b_j`` over
  its ``q`` shapes.  So the runner solves ``G1 = G⁻¹[b_1 … b_q]`` and
  ``G2 = G⁻¹C·G1`` once per grid batch — two multi-RHS substitutions
  (:meth:`~repro.linalg.lu.SparseLU.solve_many`) before round 0, ``2q``
  pairs a node — and each segment only combines them: ``w_2 = G1·κ_s``
  and ``F = G2·κ_s − G1·κ_0`` with ``κ_0 = σ(t_i0)`` and ``κ_s`` its
  slope.  A node pays ``k·m + 2q`` substitution pairs, not ``k·(m + 3)``.
* **Round lockstep.**  Node ``k``'s march is a chain over its *own*
  local transition spots; between two consecutive LTS every snapshot
  state depends only on the segment's Krylov basis, never on the
  previous snapshot.  So the runner iterates over *segment rounds*:
  in round ``r`` every task combines its ``r``-th ETD segment and builds
  its Krylov basis together — one call of the Arnoldi build
  (:func:`~repro.linalg.block_krylov.build_bases_block`) instead of
  ``width`` scalar sequences.  Grid point 0 always opens a segment,
  whatever its LTS flag.
* **A node's answer is its factors.**  Alg. 2 reuses one basis for every
  snapshot of a segment, so the deviation there has rank ``m + 2``.
  The runner never writes that ``(K × dim)`` block: per span it keeps
  the coefficient rows ``A`` (:meth:`KrylovBasis.coefficients
  <repro.linalg.krylov.KrylovBasis.coefficients>`, which also yields
  every snapshot's posterior error) and the vectors ``B = [V_mᵀ; F;
  w_2]`` — the basis's own Arnoldi workspace, with ``F`` and ``w_2``
  written into its spare rows (:meth:`KrylovBasis.stacked
  <repro.linalg.krylov.KrylovBasis.stacked>`), so no basis vector is
  ever copied — carries ``x(t_i1) = A[-1] @ B`` into the next segment, and
  hands each closed span to the task's span destination: a list packed
  into a :class:`~repro.dist.messages.FactoredStates` for a node task,
  or a streaming sink feed for ``simulate``.  A snapshot-triggered
  rebuild closes one span and opens the next; a quiescent segment emits
  nothing and only tells the destination that its rows are final.  A
  node's dense rows first exist inside the scenario sum, which the
  executor adds to once the chunk has marched
  (:class:`~repro.core.superposition.ScenarioTotals`), so forming them
  is ``superpose_seconds``, never a node's ``transient_seconds``.
* **One array pass per round.**  What a round does for each task is
  done for the whole round at once: the input columns of a chunk are
  sampled (:func:`~repro.circuit.waveforms.sample_waveforms`) and
  factored over their shapes (:func:`~repro.core.shapes._block_shapes`)
  in one pass, the ETD vectors of all tasks with one shape count come
  from stacked products (:class:`_ShapeGroup`), the operator block is
  built and substituted once per Arnoldi iteration, and the fresh
  bases' span coefficients come from one stacked evaluation
  (:func:`~repro.linalg.krylov.span_coefficients`).  Each pass is a
  stack of the single task's arithmetic — the same elementwise
  operations and the same BLAS calls, slice by slice — so a single
  task (``simulate``, width 1) is a chunk of one through the same code.
* **A posterior ledger.**  Every committed step's posterior estimate
  is summed (and its maximum kept) in the task's
  :class:`~repro.core.stats.SolverStats`, beside the ``ε`` of every
  basis built; it costs one reduction per span and moves no bit.

A node task marches ``u(t) − u(0)`` from a zero state; ``simulate``
may start anywhere and march the inputs as they are.  A grid must
increase strictly and a batch's grid be shared by its tasks, or the
runner raises ``ValueError``.  The tests' scalar oracle
(``tests/scalar_oracle.py``, three ``G`` solves per segment) agrees with
the runner to round-off on states and exactly on every convergence
decision; the runner's own bits are identical at every width and pinned
by ``tests/test_golden_digests.py``.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.circuit.mna import MNASystem
from repro.circuit.waveforms import Waveform, sample_waveforms
from repro.core.options import SolverOptions
from repro.core.shapes import _block_shapes
from repro.core.solver import MatexSolver, REUSE_SAFETY
from repro.core.stats import SolverStats
from repro.core.transition import TransitionSchedule, build_schedule
from repro.dist.messages import FactoredStates, NodeResult, SimulationTask
from repro.linalg.block_krylov import build_bases_block, prime_eig_payloads
from repro.linalg.krylov import span_coefficients

__all__ = ["BlockNodeRunner"]


class _SpanList(list):
    """The span destination of a task whose answer is its factors."""

    def advance(self, row: int) -> None:
        """Rows below ``row`` are final: nothing to do for a list."""


@dataclass
class _TaskState:
    """Per-task marching state across lockstep rounds.

    The input the march follows is held factored over its ``q`` shapes,
    ``Σ_j shapes[j, i]·b_j`` at grid point ``i`` (``B·(u − u(0))`` for a
    node task; otherwise a last, constant shape carries a non-zero
    ``B·u(0)``), with
    the non-zeros of ``[b_1 … b_q]`` in ``b`` as (MNA row, shape, value)
    triples.  Each segment's ``F`` and ``w2`` combine the shape solves
    its :class:`_ShapeGroup` holds.  ``spans`` receives each closed
    ``(row0, A, B)`` span through its ``append``, and ``advance(row)``
    after a quiescent segment (no row below ``row`` will follow): a list
    for a node task, which answers with its factors, ``simulate``'s
    sink feed otherwise.
    """

    schedule: TransitionSchedule
    b: tuple[np.ndarray, np.ndarray, np.ndarray]
    shapes: np.ndarray
    lts: list[int]
    stats: SolverStats
    x: np.ndarray
    spans: object = field(default_factory=_SpanList)
    eps_segment: float = 0.0
    basis: object = None
    v_alts: np.ndarray | None = None
    F: np.ndarray | None = None
    w2: np.ndarray | None = None
    i0: int = 0
    i1: int = 0
    krylov_dims: list[int] = field(default_factory=list)


@dataclass
class _ShapeGroup:
    """The marches of one shape count ``q``, stacked: their shapes
    ``(T, q, K)`` and shape solves ``G1 = G⁻¹b_j`` and ``G2 =
    G⁻¹CG⁻¹b_j`` as ``(T, q, dim)`` views of one solve, so a round forms
    their ETD vectors in stacked products."""

    members: list[_TaskState]
    shapes: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    #: Scratch for the round's ``u(t_i0)`` rows, ``(T, 1, q)`` with the
    #: stride a column of a task's ``(q, K)`` shapes has: BLAS's gemv
    #: rounds a strided vector apart from a contiguous one.
    at_i0: np.ndarray = field(init=False)

    def __post_init__(self):
        self.at_i0 = np.empty(self.shapes.shape)[:, None, :, 0]


def _gc_collections() -> int:
    """Cyclic-GC passes run in this process so far, all generations."""
    return sum(gen["collections"] for gen in gc.get_stats())


class BlockNodeRunner:
    """Advances one or many :class:`SimulationTask` messages in lockstep.

    One :class:`~repro.core.solver.MatexSolver` in deviation mode owns
    the factorisations (usually served by the process-wide
    :data:`~repro.linalg.lu.FACTORIZATION_CACHE`, since every task of a
    distributed run shares the full system's pencil); construction is
    the runner's one-off cost, and its cache traffic and factorisation
    seconds are charged to the first task result of the first
    :meth:`run` call only.

    Parameters
    ----------
    system:
        The full assembled MNA system.
    options:
        Solver options shared across the batch.
    """

    def __init__(self, system: MNASystem, options: SolverOptions | None = None):
        self._bind(MatexSolver(system, options, deviation_mode=True))
        self._pending_cache_hits = self.solver.construction_cache_hits
        self._pending_cache_misses = self.solver.construction_cache_misses
        self._pending_factor_seconds = self.solver.factor_seconds

    @classmethod
    def _on(cls, solver: MatexSolver) -> "BlockNodeRunner":
        """A runner on ``solver``'s own factorisations: no second solver,
        no factor-cache traffic (``MatexSolver.simulate``'s march)."""
        runner = cls.__new__(cls)
        runner._bind(solver)
        runner._pending_cache_hits = runner._pending_cache_misses = 0
        runner._pending_factor_seconds = 0.0
        return runner

    def _bind(self, solver: MatexSolver) -> None:
        self.system = solver.system
        self.options = solver.options
        self.solver = solver
        # Column set -> its B entries as (row, column position, value):
        # a sweep prepares the same groups scenario after scenario.
        self._b_entries: dict[tuple, tuple[np.ndarray, ...]] = {}

    # -- public API ---------------------------------------------------------------

    def run(self, tasks: Sequence[SimulationTask]) -> list[NodeResult]:
        """Simulate every task; results in input order, each holding its
        node's :class:`~repro.dist.messages.FactoredStates`.

        Tasks sharing one ``(global_points, t_end)`` grid march
        together; mixed batches are grouped by grid and each group
        marches in lockstep.  That grouping is also what stacks a
        *scenario sweep* (:mod:`repro.plan`) into one march: every
        scenario of a compiled plan reuses the plan's frozen grid, so
        its RHS columns join the same lockstep rounds as every other
        scenario's — N scenarios × K groups advance as one N·K-wide
        block instead of N separate batches.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        groups: dict[tuple, list[int]] = {}
        for pos, task in enumerate(tasks):
            groups.setdefault((task.global_points, task.t_end), []).append(pos)
        results: dict[int, NodeResult] = {}
        for positions in groups.values():
            batch = self._run_grid_batch([tasks[p] for p in positions])
            for p, res in zip(positions, batch):
                results[p] = res
        ordered = [results[p] for p in range(len(tasks))]
        first = ordered[0].stats
        first.n_factor_cache_hits += self._pending_cache_hits
        first.n_factor_cache_misses += self._pending_cache_misses
        first.factor_seconds += self._pending_factor_seconds
        self._pending_cache_hits = self._pending_cache_misses = 0
        self._pending_factor_seconds = 0.0
        return ordered

    # -- lockstep march ---------------------------------------------------------

    def _prepare(
        self,
        marches: Sequence[tuple[TransitionSchedule, dict[int, Waveform] | None, Sequence[int]]],
        x0: np.ndarray, deviation: bool,
    ) -> list[_TaskState]:
        """Input shapes and marching state of a chunk of marches on one grid.

        Each march is ``(schedule, overrides, cols)``: ``cols`` are the
        input columns driving it (empty: a free response from ``x0``).
        Their waveforms (an ``overrides`` entry, else the system's own)
        are sampled over the grid in one pass for the whole chunk
        (:func:`~repro.circuit.waveforms.sample_waveforms`), with no
        system bound per task, and each march's rows are factored over
        their distinct shapes, all marches in one pass
        (:func:`~repro.core.shapes._block_shapes`), which turns
        ``B·(u(t) − u(0))`` into ``Σ_j shapes[j, t]·b_j``.  With
        ``deviation`` the march follows ``u(t) − u(0)`` — what a node
        task runs, from ``x0 = 0``; otherwise ``B·u(0)`` rides along as
        one more, constant, shape.  A single march is a chunk of one.
        """
        pts = np.asarray(marches[0][0].points)
        waves, columns, entries, bounds = self.system.waveforms, [], [], [0]
        for _schedule, overrides, cols in marches:
            key = tuple(cols)
            if key not in self._b_entries:
                B = self.system.B
                at = [np.arange(B.indptr[c], B.indptr[c + 1]) for c in key]
                nz = np.concatenate(at) if at else np.empty(0, dtype=np.intp)
                src = np.repeat(np.arange(len(at)), [len(a) for a in at])
                self._b_entries[key] = B.indices[nz], src, B.data[nz]
            entries.append(self._b_entries[key])
            overrides = overrides or {}
            columns.extend(overrides.get(c, waves[c]) for c in key)
            bounds.append(bounds[-1] + len(key))
        U = sample_waveforms(columns, pts)
        factors = _block_shapes(U, bounds)
        pivot = np.concatenate([f[2] for f in factors])
        amp = U[np.arange(len(U)), pivot] - U[:, 0]

        tstates = []
        for (schedule, _, _), (rows, src, vals), (shapes, shape_of, _), lo, hi in zip(
            marches, entries, factors, bounds, bounds[1:]
        ):
            a = amp[lo:hi]
            on = a[src].nonzero()[0]  # entries of inputs that move
            b = rows[on], shape_of[src[on]], vals[on] * a[src[on]]
            u0 = U[lo:hi, 0]
            if not deviation and u0.any():
                const = rows, np.full(len(rows), len(shapes)), vals * u0[src]
                b = tuple(np.concatenate(pair) for pair in zip(b, const))
                shapes = np.vstack([shapes, np.ones(len(pts))])
            tstates.append(_TaskState(
                schedule=schedule,
                b=b,
                shapes=shapes,
                lts=schedule.segment_starts,
                stats=SolverStats(),
                x=np.asarray(x0, dtype=float),
            ))
        return tstates

    def _run_grid_batch(self, tasks: list[SimulationTask]) -> list[NodeResult]:
        marches = []
        for task in tasks:
            overrides = task.group.overrides_dict() or None
            schedule = task.schedule
            if schedule is None:
                schedule = build_schedule(
                    self.system,
                    task.t_end,
                    local_inputs=task.group.input_columns,
                    global_points=task.global_points,
                    waveform_overrides=overrides,
                )
            marches.append((schedule, overrides, task.group.input_columns))

        pts_ref = np.asarray(marches[0][0].points)
        for pos, (task, (schedule, _, _)) in enumerate(zip(tasks, marches)):
            if not np.array_equal(np.asarray(schedule.points), pts_ref):
                raise ValueError(
                    f"task {task.task_id} (position {pos} of its grid batch): "
                    f"schedule points differ from task {tasks[0].task_id}'s"
                )
        tstates = self._prepare(marches, np.zeros(self.system.dim), deviation=True)
        self._march(tstates, f"task {tasks[0].task_id}")

        return [
            NodeResult(
                task_id=task.task_id,
                group_id=task.group.group_id,
                label=task.group.label,
                times=pts_ref.copy(),
                states=FactoredStates.from_spans(
                    (len(pts_ref), self.system.dim), t.spans
                ),
                stats=t.stats,
            )
            for task, t in zip(tasks, tstates)
        ]

    def _march(self, tstates: list[_TaskState], owner: str) -> None:
        """Lockstep segment rounds over marches on one grid (``owner``
        names it in the error raised when it does not strictly increase)."""
        pts = np.asarray(tstates[0].schedule.points)
        stalled = np.flatnonzero(~(np.diff(pts) > 0.0))
        if stalled.size:
            k = int(stalled[0]) + 1
            raise ValueError(
                f"{owner}: grid point {k} (t={pts[k]!r}) "
                f"does not exceed point {k - 1}; the grid must strictly increase"
            )

        # A cyclic-GC pass inside the timed window would be charged to
        # the march: a gen-2 pass over a large heap takes tens of ms,
        # several width-1 node windows.  The march makes no reference
        # cycles, so the collector is paused for it (and the caller's
        # setting restored); any pass that still lands here is counted.
        gc_was_on = gc.isenabled()
        gc.disable()
        collections0 = _gc_collections()
        try:
            t_march = time.perf_counter()
            groups = self._solve_shapes(tstates)
            steps = np.diff(pts)
            round_idx = 0
            while True:
                builders = [t for t in tstates if round_idx < len(t.lts)]
                if not builders:
                    break
                self._build_segments(groups, steps, round_idx)
                self._build_bases(builders, pts)
                self._evaluate_spans(builders, pts)
                round_idx += 1
            march_seconds = time.perf_counter() - t_march
        finally:
            tstates[0].stats.gc_collections += _gc_collections() - collections0
            if gc_was_on:
                gc.enable()

        # At width 1 this is the task's own measured march — the paper's
        # per-node "pure transient computing".  A fused march has no
        # direct analogue; apportion the measured wall time by each
        # task's substitution-pair share (the quantity node effort
        # scales with) so tr_matex stays meaningful.
        total_solves = sum(t.stats.n_solves_transient for t in tstates)
        for t in tstates:
            if total_solves > 0:
                share = t.stats.n_solves_transient / total_solves
            else:
                share = 1.0 / len(tstates)
            t.stats.transient_seconds = march_seconds * share
            t.stats.krylov_dims = t.krylov_dims

    def _solve_shapes(self, tstates: list[_TaskState]) -> list[_ShapeGroup]:
        """``G⁻¹b_j`` and ``G⁻¹CG⁻¹b_j`` for every shape of every march:
        two multi-RHS ``G`` solves per grid batch, ``2q`` pairs a task.

        Each column is an independent pair, so a task's rows do not
        depend on its batch.  The columns are laid out by shape count,
        and ``solve_many`` answers F-ordered, so each group's rows are a
        C-ordered ``(T, q, dim)`` view at any width — every task's
        ``(q, dim)`` slice the layout its per-segment products see.
        """
        lu_g = self.solver.workspace.lu_g
        by_q: dict[int, list[_TaskState]] = {}
        for t in tstates:
            by_q.setdefault(len(t.shapes), []).append(t)
        order = [t for members in by_q.values() for t in members]
        bounds = np.cumsum([0] + [len(t.shapes) for t in order])
        rhs = np.zeros((self.system.dim, bounds[-1]))
        if order:
            np.add.at(rhs, (
                np.concatenate([t.b[0] for t in order]),
                np.concatenate([lo + t.b[1] for t, lo in zip(order, bounds)]),
            ), np.concatenate([t.b[2] for t in order]))
        G1 = lu_g.solve_many(rhs).T
        G2 = lu_g.solve_many(self.system.C @ G1.T).T
        groups, lo = [], 0
        for q, members in by_q.items():
            hi = lo + q * len(members)
            stack = (len(members), q, self.system.dim)
            groups.append(_ShapeGroup(
                members, np.array([t.shapes for t in members]),
                G1[lo:hi].reshape(stack), G2[lo:hi].reshape(stack),
            ))
            lo = hi
        for t in tstates:
            t.stats.n_solves_etd += 2 * len(t.shapes)
        return groups

    def _build_segments(
        self, groups: list[_ShapeGroup], steps: np.ndarray, round_idx: int
    ) -> None:
        """ETD vectors of each builder's new segment, combined from its
        shape solves: ``w2 = G⁻¹B·s_u`` and ``F = G⁻¹CG⁻¹B·s_u −
        G⁻¹B·u(t_i0)`` (:mod:`repro.core.etd`) with no substitution.

        One pass per shape group: each task's shape values and slopes
        are gathered at its own segment start, and its products are the
        slices of one stacked ``matmul`` — per slice the gemv that
        ``slope @ G1`` makes.
        """
        for g in groups:
            live = [k for k, t in enumerate(g.members) if round_idx < len(t.lts)]
            if not live:
                continue
            builders = [g.members[k] for k in live]
            pick = slice(None) if len(live) == len(g.members) else live
            shapes, G1, G2 = g.shapes[pick], g.G1[pick], g.G2[pick]
            i0 = np.array([t.lts[round_idx] for t in builders])
            for t, i in zip(builders, i0.tolist()):
                t.i0 = i
                t.i1 = (
                    t.lts[round_idx + 1]
                    if round_idx + 1 < len(t.lts)
                    else len(steps)
                )
            rows = np.arange(len(builders))
            at_i0 = g.at_i0[: len(builders)]
            at_i0[:, 0] = shapes[rows, :, i0]
            slope = (shapes[rows, :, i0 + 1] - at_i0[:, 0]) / steps[i0, None]
            w2 = np.matmul(slope[:, None], G1)[:, 0]
            F = np.matmul(slope[:, None], G2)[:, 0]
            F -= np.matmul(at_i0, G1)[:, 0]
            for t, a, b in zip(builders, w2, F):
                t.w2, t.F = a, b

    def _build_bases(self, builders: list[_TaskState], pts: np.ndarray) -> None:
        """One lockstep Arnoldi build for every task's new segment."""
        opts = self.options
        vs, hs, tols = [], [], []
        for t in builders:
            v = t.x + t.F
            t.v_alts = v
            t.eps_segment = (
                opts.eps_rel * math.sqrt(v.dot(v)) + opts.eps_abs
            )
            vs.append(v)
            hs.append(pts[t.i0 + 1] - pts[t.i0])
            tols.append(t.eps_segment)
        bases = build_bases_block(
            self.solver.op, vs, hs, tols,
            m_max=opts.m_max, min_dim=opts.m_min,
        )
        prime_eig_payloads(bases)
        for t, basis in zip(builders, bases):
            t.basis = basis
            t.stats.n_krylov_bases += 1
            t.stats.eps_sum += t.eps_segment
            t.stats.n_solves_krylov += basis.m
            t.krylov_dims.append(basis.m)

    def _rebuild_basis(self, t: _TaskState, ha: float) -> None:
        """Snapshot-triggered basis regeneration (rare; width-1 build)."""
        (basis,) = build_bases_block(
            self.solver.op, [t.v_alts], [ha], [t.eps_segment],
            m_max=self.options.m_max, min_dim=self.options.m_min,
        )
        t.basis = basis
        t.stats.n_krylov_bases += 1
        t.stats.eps_sum += t.eps_segment
        t.stats.n_solves_krylov += basis.m
        t.krylov_dims.append(basis.m)

    def _evaluate_spans(self, builders: list[_TaskState], pts: np.ndarray) -> None:
        """Factors of every builder's new segment: the span coefficients
        of the round's fresh bases come from one stacked evaluation
        (:func:`~repro.linalg.krylov.span_coefficients`)."""
        spans, live = [], []
        for t in builders:
            spans.append(pts[t.i0 + 1: t.i1 + 1] - pts[t.i0])
            # Quiescent segment (node idle before its delay): the empty
            # basis evaluates to zero and P(h) ≡ ±0, so every marching
            # step lands exactly on +0.0 — no span is emitted.
            live.append(t.basis.m > 0 or t.F.any() or t.w2.any())
        first = iter(span_coefficients(
            [t.basis for t, on in zip(builders, live) if on],
            [hs for hs, on in zip(spans, live) if on],
        ))
        for t, span_hs, on in zip(builders, spans, live):
            self._evaluate_span(t, span_hs, next(first) if on else None)

    def _evaluate_span(self, t: _TaskState, span_hs: np.ndarray, first) -> None:
        """Factors of one segment: LTS step plus error-checked snapshots.

        ``span_hs[0]`` is the fresh segment's own step (taken as is, as
        Alg. 2's LTS branch); every later entry is a snapshot whose
        posterior error is re-checked against the generation budget,
        regenerating the basis exactly where a step-by-step march would
        — which closes one span and opens the next.  ``first`` is the
        fresh basis's ``(coeffs, errs)`` over the span, ``None`` for a
        quiescent segment.
        """
        n_span = len(span_hs)
        t.stats.n_steps += n_span
        if first is None:
            t.stats.n_reuses += n_span - 1
            t.x = np.zeros_like(t.x)
            t.spans.advance(t.i1 + 1)
            t.F = t.w2 = None
            return
        threshold = REUSE_SAFETY * t.eps_segment
        start = 0
        coeffs, errs = first
        while True:
            hs = span_hs[start:]
            # The first step of a (re)built basis is committed unchecked.
            failed = np.flatnonzero(errs[1:] > threshold)
            stop = int(failed[0]) + 1 if failed.size else len(hs)
            committed = errs[:stop]
            t.stats.posterior_sum += float(committed.sum())
            t.stats.posterior_max = max(
                t.stats.posterior_max, float(committed.max())
            )
            # Both factors C-ordered by construction: numpy picks its
            # BLAS call from the operand strides, and the bits follow.
            # B is the basis's own workspace rows (no vector copied).
            m = t.basis.m
            A = np.empty((stop, m + 2))
            A[:, :m] = coeffs[:stop]
            A[:, m] = -1.0
            A[:, m + 1] = hs[:stop]
            B = t.basis.stacked(t.F, t.w2)
            if stop * B.shape[1] <= A.size + B.size:
                # Too short a span is smaller as the rows themselves.
                t.spans.append((t.i0 + 1 + start, None, A @ B))
            else:
                t.spans.append((t.i0 + 1 + start, A, B))
            t.stats.n_reuses += stop - 1
            start += stop
            if start == n_span:
                break
            self._rebuild_basis(t, float(span_hs[start]))
            coeffs, errs = t.basis.coefficients(span_hs[start:])
        t.x = A[-1] @ B
        # F and w2 now live in the span factors' spare rows; their rows
        # of the round's stacked products are not held past the round.
        t.F = t.w2 = None
