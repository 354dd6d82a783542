"""Benchmark: paper Table 3 — distributed MATEX vs fixed-step TR (10ps).

The headline experiment.  Benchmarks the TR baseline's 1000-step loop
and the distributed MATEX run on two cases, then regenerates the Table 3
rows (all six suite cases take minutes; the recorded table uses pg1t and
pg4t by default — run ``python -m repro.experiments.runner table3`` for
the full six).

The distributed runs also demonstrate the :data:`FACTORIZATION_CACHE`
amortisation: every multi-node run reuses at least one factorisation
(the workers' ``G`` is served from the scheduler's DC analysis — all
sub-tasks share one MNA pencil, paper Sec. 3.4), and a warm re-run of
the same pencil re-factors nothing at all.
"""

import numpy as np

from repro.baselines import simulate_trapezoidal
from repro.core import MatexSolver, SolverOptions
from repro.dist import Executor, MatexScheduler
from repro.experiments.table3 import run_table3
from repro.linalg.lu import FACTORIZATION_CACHE
from tests.scalar_oracle import run_task

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6)


def test_tr_baseline_1000_steps(benchmark, pg1t, record_metric):
    system, case = pg1t

    def run():
        return simulate_trapezoidal(system, case.h_tr, case.t_end,
                                    record_times=[case.t_end])

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.stats.n_steps == 1000
    record_metric("n_steps", result.stats.n_steps)
    record_metric("transient_seconds", result.stats.transient_seconds)


def test_distributed_matex(benchmark, pg1t, record_metric):
    system, case = pg1t
    scheduler = MatexScheduler(system, OPTS, decomposition="bump")

    def run():
        return scheduler.run(case.t_end)

    dres = benchmark.pedantic(run, rounds=2, iterations=1)
    assert dres.n_nodes == 100
    # Sec. 3.4 amortisation: every multi-node run reuses >= 1 LU — the
    # workers' G factorisation is served from the scheduler's DC entry.
    assert dres.factor_cache_hits >= 1
    record_metric("n_nodes", dres.n_nodes)
    record_metric("factor_cache_hits", dres.factor_cache_hits)
    record_metric("factor_cache_misses", dres.factor_cache_misses)
    record_metric("tr_matex_seconds", dres.tr_matex)
    record_metric("tr_total_seconds", dres.tr_total)


class ScalarReferenceExecutor(Executor):
    """The scalar march (``run_task`` of ``tests/scalar_oracle.py``) of
    every task, one Python step per grid point — what ``batch="off"``
    ran before per-node execution became the block runner at width 1,
    kept as the fixed denominator."""

    def __init__(self, system, options):
        self.solver = MatexSolver(system, options, deviation_mode=True)

    def run(self, tasks, dc_states=None):
        return [run_task(self.solver, task) for task in tasks]


def test_block_batched_march(pg1t, record_metric):
    """Span batching and lockstep batching vs the scalar reference.

    Three walls of the same 100-task plan:

    * ``scalar_reference`` — ``run_task`` per task + superposition: one
      Python step per grid point, the unchanged oracle every ratio is
      taken against;
    * ``width1`` — ``batch="off"``, per-node execution: the block
      runner one task at a time, a span of snapshots per call;
    * ``batched`` — ``batch="auto"``, one lockstep march over all tasks.

    The two block-runner walls must agree **bit for bit**, and with the
    scalar oracle to round-off on states (it accumulates a dense row by
    an ordered rank-1 loop, the runner's factored rows are BLAS dots)
    and exactly on substitution pairs — Table 3 numbers unchanged.  The
    per-node run's tr_matex/tr_total model numbers are recorded by
    ``test_distributed_matex``.
    """
    import time

    system, case = pg1t
    plain = MatexScheduler(system, OPTS, decomposition="bump")
    batched = MatexScheduler(system, OPTS, decomposition="bump",
                             batch="auto")

    def scalar_reference():
        return plain.run(
            case.t_end, executor=ScalarReferenceExecutor(system, OPTS)
        )

    runs = {
        "scalar_reference": scalar_reference,
        "width1": lambda: plain.run(case.t_end),
        "batched": lambda: batched.run(case.t_end),
    }
    ref = scalar_reference()  # also warms the caches for all three
    width1 = runs["width1"]()
    assert (runs["batched"]().result.states.tobytes()
            == width1.result.states.tobytes())
    assert width1.n_nodes == ref.n_nodes == 100
    assert np.abs(width1.result.states - ref.result.states).max() <= (
        1e-12 * np.abs(ref.result.states).max()
    )
    assert width1.result.times.tobytes() == ref.result.times.tobytes()
    assert width1.total_substitution_pairs == ref.total_substitution_pairs

    # Interleaved best-of-5: alternating the paths keeps slow drifts
    # (thermal, co-tenancy) from biasing any side's minimum.
    walls = {name: [] for name in runs}
    for _ in range(5):
        for name, run in runs.items():
            t0 = time.perf_counter()
            run()
            walls[name].append(time.perf_counter() - t0)
    best = {name: min(ws) for name, ws in walls.items()}
    batched_speedup = best["scalar_reference"] / best["batched"]
    width1_speedup = best["scalar_reference"] / best["width1"]

    for name, wall in best.items():
        record_metric(f"{name}_wall_seconds", wall)
    record_metric("batched_speedup", batched_speedup)
    record_metric("width1_speedup", width1_speedup)
    # No floor: how much lockstep adds on top of span batching.
    record_metric("batched_vs_width1", best["width1"] / best["batched"])
    # The in-place block sweep of repro.linalg.triangular substitutes
    # all columns in lockstep with the scalar sweep's exact accumulation
    # order; that is what buys the lockstep march its 3x over the
    # scalar reference while staying bit-identical across widths.
    # Factored node trajectories took the ratio 3.54 -> 4.72 (the
    # scalar reference still writes dense rows): floor 3.0 -> 3.5.
    assert batched_speedup >= 3.5, (
        f"block-batched march must be >= 3.5x faster than the scalar "
        f"reference, got {batched_speedup:.2f}x "
        f"({best['scalar_reference']:.3f}s vs {best['batched']:.3f}s)"
    )
    # Span-batched snapshots alone: ~145 Python steps per task become
    # ~5 rounds.  Below this floor per-node execution has fallen back
    # to stepping.
    assert width1_speedup >= 1.3, (
        f"per-node execution (width 1) must be >= 1.3x faster than the "
        f"scalar reference, got {width1_speedup:.2f}x "
        f"({best['scalar_reference']:.3f}s vs {best['width1']:.3f}s)"
    )


def test_factorization_cache_warm_run(pg1t, record_metric):
    """Cold vs warm distributed run on the same pencil.

    The second run re-factors nothing: the DC ``G`` and the new worker's
    ``G`` / ``C + γG`` all hit the process-wide cache, so its serial
    part collapses to substitutions only.
    """
    system, case = pg1t
    FACTORIZATION_CACHE.clear()
    scheduler = MatexScheduler(system, OPTS, decomposition="bump")
    cold = scheduler.run(case.t_end)
    warm = scheduler.run(case.t_end)  # fresh SerialExecutor + runner

    assert cold.factor_cache_misses >= 1
    assert warm.factor_cache_hits >= cold.factor_cache_hits
    assert warm.factor_cache_misses == 0  # nothing re-factored
    serial_cold = cold.dc_seconds + cold.factor_seconds
    serial_warm = warm.dc_seconds + warm.factor_seconds
    record_metric("cold_cache_misses", cold.factor_cache_misses)
    record_metric("warm_cache_hits", warm.factor_cache_hits)
    record_metric("cold_serial_seconds", serial_cold)
    record_metric("warm_serial_seconds", serial_warm)
    if serial_warm > 0.0:
        record_metric("serial_part_speedup", serial_cold / serial_warm)


def test_generate_table3(benchmark, record_table, record_metric):
    def run():
        return run_table3(cases=["pg1t", "pg4t"], golden_h=1e-12)

    table, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table("table3", table)
    for row in rows:
        # Paper shape: around an order of magnitude on the transient
        # part, smaller on the total, errors at the 1e-4 V scale.
        assert row.spdp4 > 3.0
        assert row.spdp5 > 1.0
        assert row.max_err < 1e-3
        record_metric(f"{row.case}_spdp4", row.spdp4)
        record_metric(f"{row.case}_spdp5", row.spdp5)
        record_metric(f"{row.case}_max_err", row.max_err)
    pg4t_row = next(r for r in rows if r.case == "pg4t")
    pg1t_row = next(r for r in rows if r.case == "pg1t")
    assert pg4t_row.spdp4 > pg1t_row.spdp4  # few-GTS case wins biggest
