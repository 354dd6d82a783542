"""Distributed MATEX (paper Sec. 3, Fig. 4).

The subsystem splits a transient simulation by *input sources*: the
:class:`MatexScheduler` decomposes the inputs into groups, a
:class:`BlockNodeRunner` simulates each group's deviation from the
operating point against its process's (amortised) factorisations, and
each chunk's node factors are added to their scenario's sum as soon as
the chunk has marched
(:class:`~repro.core.superposition.ScenarioTotals`).  Executors choose
where the runners live: in-process (:class:`SerialExecutor`) or a real
process pool (:class:`MultiprocessExecutor`) with pickled task messages
and zero-copy shared-memory result transport where the platform has
it.

There is one march.  ``batch`` on the scheduler (``batch_width`` on the
executors) only sets how many node tasks advance in lockstep: ``"off"``
is width 1 — the paper's per-node execution — and ``"auto"`` one block
over all tasks, several times faster on wide decompositions and
bit-for-bit identical.
"""

from repro.dist.block_runner import BlockNodeRunner
from repro.dist.executors import Executor, MultiprocessExecutor, SerialExecutor
from repro.dist.messages import (
    DistributedResult,
    FactoredStates,
    NodeResult,
    SimulationTask,
)
from repro.dist.scheduler import MatexScheduler
from repro.dist.supervision import JobError, RetryPolicy, SupervisionStats

__all__ = [
    "BlockNodeRunner",
    "DistributedResult",
    "Executor",
    "FactoredStates",
    "JobError",
    "MatexScheduler",
    "MultiprocessExecutor",
    "NodeResult",
    "RetryPolicy",
    "SerialExecutor",
    "SimulationTask",
    "SupervisionStats",
]
