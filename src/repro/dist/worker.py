"""The scalar reference march of one node task — oracle only.

:func:`run_task` simulates one :class:`~repro.dist.messages.SimulationTask`
through :meth:`MatexSolver.simulate <repro.core.solver.MatexSolver.simulate>`,
one Python step per grid point (paper Alg. 2, literally).  It is **not**
how the executors run a node, and nothing in ``src/`` calls it: per-node
execution is the :class:`~repro.dist.block_runner.BlockNodeRunner` at
width 1, which serves a whole span of snapshots per call and answers
with the trajectory's factors.  The two make the same convergence
decisions and agree on states to round-off (this march accumulates a
dense row with an ordered rank-1 loop, a factored row is a BLAS dot), so
this one is a *tolerance* oracle: the test suite's parity reference
(``tests/conftest.py`` ``ScalarOracleExecutor``) and the scalar
reference wall of ``benchmarks/bench_table3_distributed.py``.
"""

from __future__ import annotations

from repro.core.solver import MatexSolver
from repro.core.transition import build_schedule
from repro.dist.messages import NodeResult, SimulationTask

__all__ = ["run_task"]


def run_task(solver: MatexSolver, task: SimulationTask) -> NodeResult:
    """Scalar march of one task against a deviation-mode solver (oracle only)."""
    overrides = task.group.overrides_dict() or None
    schedule = task.schedule
    if schedule is None:
        schedule = build_schedule(
            solver.system,
            task.t_end,
            local_inputs=task.group.input_columns,
            global_points=task.global_points,
            waveform_overrides=overrides,
        )
    res = solver.simulate(
        task.t_end,
        active_inputs=task.group.input_columns,
        schedule=schedule,
        waveform_overrides=overrides,
    )
    return NodeResult(
        task_id=task.task_id,
        group_id=task.group.group_id,
        label=task.group.label,
        times=res.times,
        states=res.states,
        stats=res.stats,
    )

