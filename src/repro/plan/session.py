"""Sessions: the execute half of plan → compile → execute.

A :class:`Session` streams :class:`~repro.plan.scenario.Scenario`
objects through one :class:`~repro.plan.plan.CompiledPlan` against a
**persistent** executor:

* the executor's backing state — in-process solver factorisations, or
  a :class:`~repro.dist.executors.MultiprocessExecutor` worker pool
  with its per-process factor caches — is built once and survives
  across scenarios (context-manager lifecycle);
* scenarios bound to the plan's frozen grid are **stacked**: their
  tasks are submitted in one batch, so the block-batched lockstep march
  advances N scenarios × K groups as one wide block instead of N
  separate runs (``stack="auto"``: as many as fit one operator block
  of :data:`AUTO_STACK_BLOCK_BYTES`, per executor worker);
* every scenario's superposed trajectory is **bit-for-bit identical**
  to an independent cold :class:`~repro.dist.scheduler.MatexScheduler`
  run on the scenario-bound system (enforced by ``tests/test_plan.py``)
  — the sweep is purely an amortisation, never an approximation;
* the session hands the executor each scenario's DC state along with
  its tasks, so the executor adds each chunk's nodes to their
  scenario's sum **as soon as the chunk has marched**
  (:class:`~repro.core.superposition.ScenarioTotals`) — in process, or
  in the pool worker that holds the scenario's first nodes — and hands
  back a carrier of that sum instead of every node's factors
  (:mod:`repro.dist.executors` says when); the session finishes every
  scenario with one routine, :func:`~repro.core.superposition.superpose`,
  which resumes the carrier's sum with any nodes that came back on
  their own (a scenario split over workers) in node order, hence the
  same bits.  ``superpose_seconds`` is the executor's summing time
  plus that finishing step.

A worker death mid-sweep does not poison the session: the persistent
executor disposes the broken pool (sweeping the dead worker's
shared-memory segments) and the next scenario transparently runs on
fresh workers.
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.circuit.mna import MNASystem
from repro.circuit.waveforms import Pulse
from repro.core.decomposition import SourceGroup
from repro.core.options import check_stack
from repro.core.results import TransientResult
from repro.core.stats import SolverStats
from repro.core.superposition import superpose
from repro.dist.executors import Executor, SerialExecutor
from repro.dist.messages import DistributedResult, SimulationTask
from repro.linalg.lu import FACTORIZATION_CACHE
from repro.plan.plan import CompiledPlan, PlanError
from repro.plan.scenario import Scenario

__all__ = ["Session"]


#: Byte budget of one march's operator block under ``stack="auto"``.
#: The lockstep block holds one float64 ``dim``-vector per column, so
#: each stacked scenario costs ``8·dim·n_nodes`` bytes; "auto" stacks as
#: many scenarios into one march as fit in half of a 2 MiB L2 cache, and
#: at least one.  Stacking pays off by amortising per-round Python
#: overhead; once the block falls out of the cache, a wider march only
#: adds page faults and holds more span factors until its chunk is
#: added to the scenario sums.  So a small plan stacks deeply (a 2-node
#: plan of 36 unknowns fits 1820 scenarios in a march) and a deck-sized
#: one runs one per march (pg1t: 100 nodes × 1058 unknowns, 0.8 MiB).
#: A submission is that many scenarios per executor worker.
AUTO_STACK_BLOCK_BYTES = 1 << 20


class _CompileCost(NamedTuple):
    """What ``compile()`` paid, owed to the session's first result."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    factor_seconds: float = 0.0

    def charge(self, result: DistributedResult) -> DistributedResult:
        if not any(self):
            return result
        return replace(
            result,
            factor_cache_hits=result.factor_cache_hits + self.hits,
            factor_cache_misses=result.factor_cache_misses + self.misses,
            factor_cache_evictions=(
                result.factor_cache_evictions + self.evictions
            ),
            factor_seconds=result.factor_seconds + self.factor_seconds,
        )


class Session:
    """Executes a stream of scenarios against one compiled plan.

    Parameters
    ----------
    compiled:
        The :class:`~repro.plan.plan.CompiledPlan` to execute.
    executor:
        Task backend.  ``None`` (default) builds an in-process
        :class:`~repro.dist.executors.SerialExecutor` configured from
        the plan's ``batch`` policy; the session owns it (prepares it
        lazily, closes it on :meth:`close`).  An explicitly passed
        executor is used as-is — its lifecycle belongs to the caller
        (enter it as a context manager to persist worker pools across
        scenarios).

    Examples
    --------
    >>> compiled = SimulationPlan(system, opts, t_end=1e-8).compile()
    >>> with Session(compiled) as session:
    ...     results = session.sweep(scenarios)
    """

    def __init__(
        self, compiled: CompiledPlan, executor: Executor | None = None
    ):
        self.compiled = compiled
        self._owns_executor = executor is None
        if executor is None:
            executor = SerialExecutor(
                compiled.system,
                compiled.options,
                batch_width=compiled.batch,
            )
        self.executor = executor
        self._prepared = False
        # Compile-time cost (cache traffic, factorisation + kernel
        # export seconds) is reported once, on the session's first
        # result — mirroring how workers attribute construction traffic.
        self._pending = _CompileCost(
            compiled.cache_hits,
            compiled.cache_misses,
            compiled.cache_evictions,
            compiled.factor_seconds,
        )
        self.n_scenarios_run = 0
        # Reduced-order tier tallies (see ``sweep(rom=...)``): scenarios
        # answered inside the posterior bound vs. re-run full-order.
        self.rom_accepted = 0
        self.rom_fallbacks = 0

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Release session-owned executor state (idempotent)."""
        if self._owns_executor:
            self.executor.close()
        self._prepared = False

    def _ensure_prepared(self) -> None:
        if self._owns_executor and not self._prepared:
            self.executor.prepare()
        self._prepared = True

    def _stack(self, stack, n_scenarios: int) -> int:
        """Scenarios per executor submission under a stacking policy."""
        if check_stack(stack) != "auto":
            return stack
        compiled = self.compiled
        block = 8 * compiled.system.dim * max(compiled.n_nodes, 1)
        per_march = max(1, AUTO_STACK_BLOCK_BYTES // block)
        return min(per_march * self.executor.workers, max(n_scenarios, 1))

    # -- scenario validation ---------------------------------------------------

    @cached_property
    def _plain_pulses(self) -> np.ndarray:
        """Per input column: is its base waveform a :class:`Pulse`
        itself (a subclass may move its spots when scaled)."""
        return np.array(
            [type(w) is Pulse for w in self.compiled.system.waveforms],
            dtype=bool,
        )

    def _validate(self, scenario: Scenario) -> MNASystem | None:
        """Bind a scenario, enforcing the compiled-grid contract.

        Returns the bound system, or ``None`` for baseline scenarios
        (which reuse the plan's system and pre-computed DC state).
        Every changed column must keep its base waveform's transition
        spots and constancy.  A scaled base pulse keeps its spots (the
        copy shares the base pulse's spot memo), so its constancy is all
        there is to check: ``(v1·f == v2·f) == (v1 == v2)``, one array
        test over the plan's pulse table for all such columns.
        Overrides, PWLs and DCs compare their waveform objects.
        """
        if scenario.is_baseline:
            return None
        compiled = self.compiled
        if any(g.waveform_overrides for g in compiled.groups):
            raise PlanError(
                "scenarios cannot rebind sources under the 'bump-split' "
                "decomposition: its groups carry single-bump waveform "
                "overrides derived from the base waveforms; compile a "
                "separate plan on the scenario-bound system instead"
            )
        bound = scenario.bind(compiled.system)
        base = compiled.system.waveforms
        pulses = compiled.system._input_table
        cols, f = scenario.scale_columns, scenario.scale_factors
        fast = self._plain_pulses[cols]
        if scenario.overrides:
            fast &= ~np.isin(cols, [c for c, _ in scenario.overrides])
        scaled, f = cols[fast], f[fast]
        row = pulses["row"][scaled]
        v1, v2 = pulses["v1"][row], pulses["v2"][row]
        with np.errstate(invalid="ignore", over="ignore"):
            failed = scaled[(v1 * f == v2 * f) != (v1 == v2)].tolist()
        rest = set(cols[~fast].tolist()) | {c for c, _ in scenario.overrides}
        for col in sorted(rest):
            old, new = base[col], bound.waveforms[col]
            if new.is_constant() != old.is_constant() or (
                new.transition_spots(compiled.t_end)
                != old.transition_spots(compiled.t_end)
            ):
                failed.append(col)
                break
        if failed:
            raise PlanError(
                f"scenario {scenario.name!r} changes the transition "
                f"grid of input column {min(failed)}: a compiled plan "
                f"freezes decomposition and schedules on the base "
                f"system's transition spots, so scenario waveforms "
                f"must preserve each column's spots and constancy "
                f"(amplitude scalings always do) — compile a new "
                f"plan for structurally different inputs"
            )
        return bound

    # -- task construction -------------------------------------------------------

    def _scenario_tasks(
        self, slot: int, bound: MNASystem | None
    ) -> list[SimulationTask]:
        """Tasks of one scenario, with plan-frozen schedules attached.

        ``slot`` offsets the task ids so a stacked submission stays
        unique across scenarios (shared-memory segment names key on the
        task id).  Scenario waveforms ride as per-group overrides — the
        exact mechanism split-bump groups already use — so the executor
        protocol is unchanged.
        """
        compiled = self.compiled
        base = slot * compiled.n_nodes
        tasks: list[SimulationTask] = []
        for gi, (g, sched) in enumerate(
            zip(compiled.groups, compiled.schedules)
        ):
            group = g
            if bound is not None:
                merged = g.overrides_dict()
                for col in g.input_columns:
                    w = bound.waveforms[col]
                    if w is not compiled.system.waveforms[col]:
                        merged[col] = w
                if merged:
                    group = SourceGroup(
                        g.group_id,
                        g.label,
                        g.input_columns,
                        tuple(sorted(merged.items(), key=lambda cw: cw[0])),
                    )
            tasks.append(
                SimulationTask(
                    task_id=base + gi,
                    group=group,
                    t_end=compiled.t_end,
                    global_points=compiled.global_points,
                    schedule=sched,
                )
            )
        return tasks

    # -- execution ---------------------------------------------------------------

    def run(
        self, scenario: Scenario | None = None, rom=False
    ) -> DistributedResult:
        """Execute one scenario (``None`` = the plan's base waveforms).

        Single runs default to ``rom=False`` — the full-order,
        bit-reproducible path — even when the compiled plan carries a
        reduced model; pass ``rom=None``/``True`` to opt in (see
        :meth:`sweep`, whose amortisation argument single runs lack).
        """
        return self.sweep([scenario], rom=rom)[0]

    def sweep(
        self,
        scenarios: Iterable[Scenario | None],
        stack="auto",
        rom=None,
    ) -> list[DistributedResult]:
        """Execute a stream of scenarios, results in input order.

        Parameters
        ----------
        scenarios:
            :class:`~repro.plan.scenario.Scenario` objects (``None``
            entries mean the baseline pattern).  All are validated
            against the compiled grid *before* anything executes, so a
            structurally incompatible scenario fails fast instead of
            mid-sweep.
        stack:
            How many scenarios to submit to the executor per batch.
            ``"auto"`` (default) fills each march's operator block up
            to :data:`AUTO_STACK_BLOCK_BYTES` (at least one scenario)
            and submits one such march per executor worker — deep
            stacking for small plans; a 100-node pg1t plan runs one
            scenario per march.  An explicit integer overrides it (each
            stacked scenario holds its dense ``(K × dim)`` sum, and the
            executor holds at most one marched chunk's node factors
            until they are added — ≈ ``(m + 2)·(K + dim)`` floats per
            Krylov basis).
        rom:
            Reduced-order tier policy.  ``None`` (default) answers from
            the compiled plan's :class:`~repro.rom.ReducedModel` when
            one was baked in (``compile(rom=...)``) and runs full-order
            otherwise; ``False`` forces the full-order path; ``True``
            requires the model and raises :class:`PlanError` (with the
            recorded build-failure reason) when the plan has none.
            Scenarios whose posterior bound exceeds the model's
            tolerance transparently fall back to the full-order path;
            every result records what happened in its
            ``rom_dim``/``rom_bound``/``rom_fallback`` fields.

        Returns
        -------
        list[DistributedResult]
            One result per scenario.  Full-order results (including
            reduced-tier fallbacks) are bit-identical to an independent
            cold run of the scenario-bound system; reduced-tier answers
            carry a certified posterior error bound instead.
        """
        scenario_list = [
            s if s is not None else Scenario() for s in scenarios
        ]
        bound_list = [self._validate(s) for s in scenario_list]

        model = self.compiled.rom if rom in (None, True) else None
        if rom is True and model is None:
            reason = (
                self.compiled.rom_error
                or "the plan was compiled without rom="
            )
            raise PlanError(
                f"rom=True but the compiled plan carries no reduced "
                f"model: {reason}"
            )
        if model is not None:
            return self._sweep_rom(model, scenario_list, bound_list, stack)

        chunk = self._stack(stack, len(scenario_list))
        self._ensure_prepared()

        results: list[DistributedResult] = []
        for start in range(0, len(scenario_list), chunk):
            results.extend(
                self._run_chunk(
                    scenario_list[start:start + chunk],
                    bound_list[start:start + chunk],
                )
            )
        return results

    def _sweep_rom(
        self,
        model,
        scenarios: Sequence[Scenario],
        bound_systems: Sequence[MNASystem | None],
        stack,
    ) -> list[DistributedResult]:
        """Answer scenarios from the reduced model, falling back per
        scenario when the posterior bound rejects the answer.

        Fallbacks are collected and re-run through the ordinary stacked
        full-order path (so a high-fallback sweep still gets the
        lockstep amortisation), then spliced back in input order.
        """
        compiled = self.compiled
        results: list[DistributedResult | None] = [None] * len(scenarios)
        fallback_idx: list[int] = []
        fallback_bounds: dict[int, float] = {}

        # Reduced answers never touch the factor cache, so grab the
        # pending compile-time cost up front and attribute it to the
        # sweep's first result, whichever tier produced it.
        pend, self._pending = self._pending, _CompileCost()

        for i, (scenario, bound) in enumerate(
            zip(scenarios, bound_systems)
        ):
            U = model.input_matrix(scenario, bound)
            ans = model.answer(U)
            if not ans.accepted:
                fallback_idx.append(i)
                fallback_bounds[i] = ans.bound_rel
                continue
            system = bound if bound is not None else compiled.system
            trajectory = TransientResult(
                system=system,
                times=model.grid,
                states=ans.states,
                stats=SolverStats(
                    n_steps=model.n_points - 1,
                    transient_seconds=ans.seconds,
                ),
                method=f"rom[q={model.dim}]",
            )
            results[i] = DistributedResult(
                result=trajectory,
                n_nodes=0,
                node_stats=(),
                scenario=(
                    None if scenario.is_baseline else scenario.name
                ),
                rom_dim=model.dim,
                rom_bound=ans.bound_rel,
                rom_fallback=False,
            )
            self.rom_accepted += 1
            self.n_scenarios_run += 1

        if fallback_idx:
            self._ensure_prepared()
            chunk = self._stack(stack, len(fallback_idx))
            for start in range(0, len(fallback_idx), chunk):
                idx = fallback_idx[start:start + chunk]
                full = self._run_chunk(
                    [scenarios[i] for i in idx],
                    [bound_systems[i] for i in idx],
                )
                for i, r in zip(idx, full):
                    results[i] = replace(
                        r,
                        rom_dim=model.dim,
                        rom_bound=fallback_bounds[i],
                        rom_fallback=True,
                    )
            self.rom_fallbacks += len(fallback_idx)

        if results:
            results[0] = pend.charge(results[0])
        else:
            self._pending = pend
        return results

    def _run_chunk(
        self,
        scenarios: Sequence[Scenario],
        bound_systems: Sequence[MNASystem | None],
    ) -> list[DistributedResult]:
        compiled = self.compiled
        n = compiled.n_nodes

        # Per-scenario DC analysis: cache-served factors, one
        # substitution pair per scenario whose u(0) differs.
        dc_states: list[np.ndarray] = []
        dc_seconds: list[float] = []
        dc_hits: list[int] = []
        dc_misses: list[int] = []
        for bound in bound_systems:
            if bound is None:
                dc_states.append(compiled.x_dc)
                dc_seconds.append(compiled.dc_seconds)
                dc_hits.append(0)
                dc_misses.append(0)
                continue
            h0, m0 = FACTORIZATION_CACHE.counters()
            t0 = time.perf_counter()
            lu_g = FACTORIZATION_CACHE.factor(bound.G, label="G(dc)")
            dc_states.append(lu_g.solve(bound.bu(0.0)))
            dc_seconds.append(time.perf_counter() - t0)
            h1, m1 = FACTORIZATION_CACHE.counters()
            dc_hits.append(h1 - h0)
            dc_misses.append(m1 - m0)

        tasks = [
            task
            for slot, bound in enumerate(bound_systems)
            for task in self._scenario_tasks(slot, bound)
        ]
        ev0 = FACTORIZATION_CACHE.stats()["evictions"]
        # Supervised executors keep lifetime resilience counters; the
        # per-chunk deltas ride on the chunk's results like evictions do.
        sup = getattr(self.executor, "supervision", None)
        retries0 = sup.retries if sup is not None else 0
        degraded0 = sup.degraded_runs if sup is not None else 0
        node_results = sorted(
            self.executor.run(tasks, dc_states), key=lambda r: r.task_id
        )
        chunk_evictions = FACTORIZATION_CACHE.stats()["evictions"] - ev0
        chunk_retries = (sup.retries - retries0) if sup is not None else 0
        chunk_degraded = (
            (sup.degraded_runs - degraded0) if sup is not None else 0
        )

        results: list[DistributedResult] = []
        for slot, (scenario, bound) in enumerate(
            zip(scenarios, bound_systems)
        ):
            share = node_results[slot * n:(slot + 1) * n]
            system = bound if bound is not None else compiled.system
            node_stats = tuple(r.stats for r in share)
            t0 = time.perf_counter()
            # The node results themselves, not TransientResults:
            # rehydrating would densify their factored states.
            combined = superpose(dc_states[slot], share, system=system)
            superpose_seconds = (
                share[0].superpose_seconds + time.perf_counter() - t0
            )

            hits = dc_hits[slot] + sum(
                s.n_factor_cache_hits for s in node_stats
            )
            misses = dc_misses[slot] + sum(
                s.n_factor_cache_misses for s in node_stats
            )
            # Executor-window evictions are not separable per scenario
            # inside a stacked submission; charge them (and pending
            # compile-time traffic) to the chunk's first result.
            evictions = chunk_evictions if slot == 0 else 0
            results.append(
                DistributedResult(
                    result=combined,
                    n_nodes=len(share),
                    node_stats=node_stats,
                    dc_seconds=dc_seconds[slot],
                    factor_seconds=self.executor.max_factor_seconds(share),
                    superpose_seconds=superpose_seconds,
                    factor_cache_hits=hits,
                    factor_cache_misses=misses,
                    factor_cache_evictions=evictions,
                    scenario=(
                        None if scenario.is_baseline else scenario.name
                    ),
                    # Like evictions: retry/degradation work is not
                    # separable per scenario inside one stacked
                    # submission, so the chunk's first result carries it.
                    retries=chunk_retries if slot == 0 else 0,
                    degraded_runs=chunk_degraded if slot == 0 else 0,
                    peak_held_bytes=share[0].peak_held_bytes,
                )
            )
        if self.n_scenarios_run == 0 and results:
            results[0] = self._pending.charge(results[0])
            self._pending = _CompileCost()
        self.n_scenarios_run += len(scenarios)
        return results
