"""Benchmark: scenario sweeps through compiled plans (repro.plan).

The headline claim of the plan → compile → execute re-layering: an
N-scenario what-if sweep over the Table-3 PDN through one compiled
:class:`~repro.plan.SimulationPlan` + :class:`~repro.plan.Session` runs
**at least 2× faster** than N independent ``MatexScheduler.run`` calls
(each as a separate process would run it: cleared factorisation cache,
fresh scheduler, fresh schedules) — while every scenario's superposed
trajectory stays **bit-for-bit identical** to its independent cold run.

Recorded metrics:

* ``cold_wall_seconds``   — Σ over N default (per-node) cold runs,
* ``cold_batched_wall_seconds`` — Σ over N ``batch="auto"`` cold runs
  (the strongest pre-plan single-run path, for honesty),
* ``warm_wall_seconds``   — compile once + one stacked session sweep,
* the derived speedups.  Peak RSS rides along via ``conftest.py``.

A second leg holds the "distributed" half to a number: the same warm
sweep through a persistent 2-worker :class:`MultiprocessExecutor`
against the serial session, as ``pool_speedup_vs_serial`` (floor 1.4 in
``check_perf_regression.py``).  It needs one BLAS thread per process —
unpinned OpenBLAS oversubscribes the pool (0.68 vs 2.9 scenarios/s on
the 2-core reference box) — so it skips unless
``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1`` is exported, as the CI steps
running this file do.
"""

import os
import time

import pytest

from repro.core import SolverOptions
from repro.dist import MatexScheduler, MultiprocessExecutor
from repro.linalg.lu import FACTORIZATION_CACHE
from repro.pdn import load_pattern_scenarios
from repro.plan import Session, SimulationPlan

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6)

#: The acceptance-criteria sweep width (8 what-if load patterns).
N_SCENARIOS = 8


def _cold_runs(system, scenarios, t_end, **sched_kwargs):
    """N independent runs, each with a process-cold factor cache."""
    walls, states = [], []
    for sc in scenarios:
        bound = sc.bind(system)
        FACTORIZATION_CACHE.clear()
        t0 = time.perf_counter()
        dres = MatexScheduler(bound, OPTS, **sched_kwargs).run(t_end)
        walls.append(time.perf_counter() - t0)
        states.append(dres.result.states)
    return walls, states


def test_sweep_vs_cold_runs(pg1t, record_metric):
    system, case = pg1t
    scenarios = load_pattern_scenarios(
        system, n=N_SCENARIOS, seed=2014, spread=0.5
    )

    # N independent cold runs — the pre-plan way users sweep scenarios.
    cold_walls, cold_states = _cold_runs(
        system, scenarios, case.t_end
    )
    batched_walls, batched_states = _cold_runs(
        system, scenarios, case.t_end, batch="auto"
    )

    # Warm sweep: compile once, execute all scenarios in one session
    # (one stacked lockstep march over 8 x 100 node tasks).  The
    # cleared cache charges the sweep its own factorisations too.
    FACTORIZATION_CACHE.clear()
    t0 = time.perf_counter()
    compiled = SimulationPlan(system, OPTS, t_end=case.t_end).compile()
    with Session(compiled) as session:
        results = session.sweep(scenarios, stack="auto")
    warm_wall = time.perf_counter() - t0

    # Parity: every scenario bit-identical to both cold variants.
    for ref, blk, res in zip(cold_states, batched_states, results):
        assert res.result.states.tobytes() == ref.tobytes()
        assert blk.tobytes() == ref.tobytes()

    cold_wall = sum(cold_walls)
    cold_batched_wall = sum(batched_walls)
    speedup = cold_wall / warm_wall
    speedup_vs_batched = cold_batched_wall / warm_wall
    record_metric("n_scenarios", N_SCENARIOS)
    record_metric("n_nodes", results[0].n_nodes)
    record_metric("cold_wall_seconds", cold_wall)
    record_metric("cold_batched_wall_seconds", cold_batched_wall)
    record_metric("warm_wall_seconds", warm_wall)
    record_metric("sweep_speedup", speedup)
    record_metric("sweep_speedup_vs_batched_cold", speedup_vs_batched)
    record_metric(
        "warm_ms_per_scenario", warm_wall / N_SCENARIOS * 1e3
    )

    # Acceptance criterion: >= 2x vs N independent scheduler runs.
    assert speedup >= 2.0, (
        f"sweep speedup {speedup:.2f}x < 2x "
        f"(cold {cold_wall:.2f}s, warm {warm_wall:.2f}s)"
    )


def _best_sweep_seconds(session, scenarios, rounds):
    """Fastest of ``rounds`` warm sweeps (+ the last round's results)."""
    best, results = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        results = session.sweep(scenarios, stack="auto")
        best = min(best, time.perf_counter() - t0)
    return best, results


def test_pool_sweep_vs_serial_session(pg1t, record_metric):
    """Two pool workers against one serial session, both warm.

    Same plan, same scenarios, same lockstep march; the pool's workers
    superpose each scenario themselves and ship one trajectory per
    scenario, so what is left between the ratio and 2.0 is task
    pickling, worker-side set-up and chunk imbalance.
    """
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs two cores for two pool workers")
    if any(
        os.environ.get(var) != "1"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
    ):
        pytest.skip(
            "pin BLAS first: export OMP_NUM_THREADS=1 "
            "OPENBLAS_NUM_THREADS=1 (one thread per pool process)"
        )
    system, case = pg1t
    scenarios = load_pattern_scenarios(
        system, n=N_SCENARIOS, seed=2014, spread=0.5
    )
    plan = SimulationPlan(system, OPTS, t_end=case.t_end)

    with Session(plan.compile()) as session:
        session.sweep(scenarios[:2])  # warm the in-process runner
        serial_wall, serial = _best_sweep_seconds(session, scenarios, 3)

    with MultiprocessExecutor(
        system, OPTS, max_workers=2, batch_width="auto"
    ) as executor:
        with Session(plan.compile(prime=False), executor=executor) as session:
            session.sweep(scenarios[:4])  # every worker factors once
            pool_wall, pooled = _best_sweep_seconds(session, scenarios, 3)

    for ref, res in zip(serial, pooled):
        assert res.result.states.tobytes() == ref.result.states.tobytes()

    speedup = serial_wall / pool_wall
    record_metric("pool_workers", 2)
    record_metric("serial_ms_per_scenario", serial_wall / N_SCENARIOS * 1e3)
    record_metric("pool_ms_per_scenario", pool_wall / N_SCENARIOS * 1e3)
    record_metric("pool_speedup_vs_serial", speedup)
    assert speedup >= 1.4, (
        f"2-worker pool sweep only {speedup:.2f}x the serial session "
        f"({pool_wall:.2f}s vs {serial_wall:.2f}s for "
        f"{N_SCENARIOS} scenarios)"
    )


def test_compile_amortisation_breakdown(pg1t, record_metric):
    """Where the sweep savings come from: the per-run serial part.

    A cold run pays decomposition + schedules + DC + factorisation
    before any node marches; a warm session pays it once at compile.
    """
    system, case = pg1t
    FACTORIZATION_CACHE.clear()
    t0 = time.perf_counter()
    compiled = SimulationPlan(system, OPTS, t_end=case.t_end).compile()
    cold_compile = time.perf_counter() - t0

    t0 = time.perf_counter()
    SimulationPlan(system, OPTS, t_end=case.t_end).compile()
    warm_compile = time.perf_counter() - t0

    record_metric("cold_compile_seconds", cold_compile)
    record_metric("warm_compile_seconds", warm_compile)
    record_metric("n_nodes", compiled.n_nodes)
    record_metric("n_gts_points", len(compiled.global_points))
    # The compile itself is cache-amortised: a warm recompile factors
    # nothing (only schedules + one DC substitution pair remain).
    assert compiled.n_nodes == 100
    stats = FACTORIZATION_CACHE.stats()
    assert stats["misses"] == 2  # G + pencil, once across both compiles
