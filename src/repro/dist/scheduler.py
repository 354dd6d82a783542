"""Distributed MATEX scheduler (paper Fig. 4, the "master node").

The scheduler runs the paper's Sec. 3 framework end-to-end:

1. **Decompose** the input sources into groups — by bump shape
   (``"bump"``, Fig. 3's conservative grouping), one group per source
   (``"source"``, Fig. 1), or by individual bumps with waveform
   overrides (``"bump-split"``, Fig. 3's aggressive variant) — then
   optionally merge groups round-robin down to ``max_nodes``.
2. **DC analysis** once on the master: ``G x_dc = B u(0)``.  This also
   absorbs every all-constant input (supply pads, DC loads), which never
   appear in any group.
3. **Dispatch** one :class:`~repro.dist.messages.SimulationTask` per
   group to an executor (serial emulation by default, a real process
   pool with :class:`~repro.dist.executors.MultiprocessExecutor`).
   Every task carries the same global-transition-spot grid so all nodes'
   trajectories align.
4. **Superpose** ``x(t) = x_dc + Σ_k y_k(t)`` and report the Sec. 3.4
   timing split (``trmatex`` = slowest node, ``tr_total`` adds the
   serial parts).

Since the plan → compile → execute re-layering, steps 1-4 live in
:mod:`repro.plan`: :meth:`MatexScheduler.run` compiles a one-scenario
:class:`~repro.plan.SimulationPlan` and executes it in a short-lived
:class:`~repro.plan.Session`, so the single-run path and the
scenario-sweep path are the same code — the scheduler remains as the
stable, paper-shaped front door.
"""

from __future__ import annotations

import warnings

from repro.circuit.mna import MNASystem
from repro.core.decomposition import SourceGroup
from repro.core.options import SolverOptions
from repro.dist.executors import Executor
from repro.dist.messages import DistributedResult
from repro.plan.plan import SimulationPlan, build_groups, check_plan_args

__all__ = ["MatexScheduler"]


class MatexScheduler:
    """Master node: decompose, dispatch, superpose.

    Internally this is a façade over :mod:`repro.plan` — each
    :meth:`run` compiles a one-scenario plan and executes it, which
    keeps the scheduler bit-for-bit aligned with scenario sweeps that
    reuse one compiled plan for many input patterns.

    Parameters
    ----------
    system:
        The assembled full MNA system.
    options:
        Solver options handed to every node (default: R-MATEX settings).
    decomposition:
        ``"bump"`` (default), ``"source"`` or ``"bump-split"``.
    max_nodes:
        Optional cap on the node count; natural groups are merged
        round-robin to fit (each node's LTS grows — the paper's graceful
        degradation when the cluster is smaller than the bump count).
    batch:
        Lockstep width of the default executor's
        :class:`~repro.dist.block_runner.BlockNodeRunner` march:
        ``"off"`` (default) **is width 1** — the paper's per-node
        execution, one task at a time, each re-evaluating its bases
        over whole spans of snapshots; ``"auto"`` advances every node
        task in one lockstep batch (bit-for-bit identical results, a
        fraction of the wall time); an integer fixes the width.  It is
        one code path at different widths.  When an explicit
        ``executor`` is passed to :meth:`run` the setting cannot apply —
        a ``UserWarning`` is emitted (for anything but ``"off"``) and
        the executor's own ``batch_width`` configuration wins.
    """

    def __init__(
        self,
        system: MNASystem,
        options: SolverOptions | None = None,
        decomposition: str = SimulationPlan.decomposition,
        max_nodes: int | None = None,
        batch="off",
    ):
        check_plan_args(decomposition, max_nodes, batch)
        self.system = system
        self.options = options if options is not None else SolverOptions()
        self.decomposition = decomposition
        self.max_nodes = max_nodes
        self.batch = batch

    # -- decomposition ---------------------------------------------------------

    def groups(self, t_end: float | None = None) -> list[SourceGroup]:
        """The source groups (= computing nodes) of this run.

        ``"bump-split"`` unrolls periodic pulses over the simulation
        window, so it needs the horizon; the other strategies ignore
        ``t_end``.  Delegates to :func:`repro.plan.plan.build_groups`,
        the single definition shared with compiled plans.
        """
        return build_groups(
            self.system, self.decomposition, self.max_nodes, t_end
        )

    # -- execution ---------------------------------------------------------------

    def run(
        self, t_end: float, executor: Executor | None = None
    ) -> DistributedResult:
        """Simulate ``[0, t_end]`` distributed over the source groups.

        Compiles a one-scenario :class:`~repro.plan.SimulationPlan`
        (decomposition, shared GTS grid, per-group schedules, DC
        analysis, factorisation priming) and executes it in a
        short-lived :class:`~repro.plan.Session` — identical numbers to
        the pre-plan scheduler, and bit-identical to the same scenario
        executed inside a long-lived sweep session.

        Parameters
        ----------
        t_end:
            Simulation horizon (> 0).
        executor:
            Task backend; defaults to the in-process
            :class:`~repro.dist.executors.SerialExecutor` emulation.
            When passed explicitly, its own lifecycle and batching
            configuration are respected (see ``batch`` above).

        Returns
        -------
        DistributedResult
            The superposed trajectory plus the Sec. 3.4 timing fields.
        """
        if executor is not None and self.batch != "off":
            warnings.warn(
                f"MatexScheduler(batch={self.batch!r}) cannot apply to an "
                f"explicitly passed executor — configure batch_width on "
                f"the executor itself; the scheduler's batch setting is "
                f"being ignored for this run",
                UserWarning,
                stacklevel=2,
            )
        # Imported here, not at module top: repro.plan.session imports
        # the executors module, which would cycle while this package's
        # __init__ is still importing the scheduler.
        from repro.plan.session import Session

        plan = SimulationPlan(
            system=self.system,
            options=self.options,
            t_end=t_end,
            decomposition=self.decomposition,
            max_nodes=self.max_nodes,
            batch=self.batch,
        )
        # Priming belongs to the process that will factor: skip it when
        # an explicit (possibly multiprocess) executor owns the workers.
        compiled = plan.compile(prime=executor is None)
        session = Session(compiled, executor=executor)
        try:
            return session.run()
        finally:
            session.close()
