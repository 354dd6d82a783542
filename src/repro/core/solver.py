"""MATEX circuit solver — paper Algorithm 2.

One matrix factorisation at the start, then adaptive time stepping with
**no further factorisations**:

* at a **Local Transition Spot** the input slope changes, so the solver
  forms the segment's ETD vectors (Alg. 2's three ``G⁻¹`` solves, here
  combinations of two solves per input shape made once per run) and
  generates a fresh Krylov basis from ``v = x(t) + F`` (Alg. 1);
* at a **Snapshot** (a global transition spot belonging to *other*
  nodes' sources) it reuses the most recent basis, re-evaluating only the
  small-matrix exponential with the elapsed time ``ha = t + h − alts``
  (Alg. 2 line 11).

The Arnoldi convergence test is run at the *first* sub-step length after
the LTS.  For the inverted/rational subspaces this is the conservative
choice: their approximation error *decreases* as ``h`` grows (paper
Fig. 5, re-verified by ``tests/test_experiments.py::TestFig5``), so
later snapshots served with larger ``ha`` are at least as accurate.

:meth:`MatexSolver.simulate` owns no time loop: it is the width-1 march
of :class:`~repro.dist.block_runner.BlockNodeRunner` on this solver's
own factorisations — a whole span of snapshots per basis — with each
span's rows streamed to the run's :class:`~repro.engine.sinks.ResultSink`
as the span closes.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.circuit.mna import MNASystem
from repro.core.etd import EtdWorkspace
from repro.core.options import SolverOptions
from repro.core.results import TransientResult
from repro.core.transition import TransitionSchedule, build_schedule
from repro.engine.sinks import MemorySink, ResultSink
from repro.linalg.krylov import make_krylov_operator
from repro.linalg.lu import FACTORIZATION_CACHE

__all__ = ["MatexSolver", "REUSE_SAFETY"]

#: Basis reuse is accepted while the re-evaluated posterior error stays
#: within this factor of the generation-time budget (Fig. 5 says it
#: normally *shrinks* with h; the guard catches exceptions).
REUSE_SAFETY = 10.0


class _SinkFeed:
    """Streams a factored trajectory into a sink, span by span.

    The march hands over each closed ``(row0, A, B)`` span through
    :meth:`append`; its rows are formed as ``B`` or ``A @ B`` exactly as
    :meth:`FactoredStates.dense <repro.dist.messages.FactoredStates.dense>`
    forms them and go to the sink at once, so no whole-trajectory block
    exists beyond what the sink itself keeps.  Row 0 is the start state;
    rows no span covers (quiescent segments) are ``+0.0``.  The sink is
    opened with the first row, so a march that fails its grid check
    leaves it untouched.
    """

    def __init__(self, sink: ResultSink, times: np.ndarray, x0: np.ndarray):
        self.sink = sink
        self.times = times
        self.x0 = x0
        self._zero = np.zeros(len(x0))
        self._next = 0

    def _fill(self, stop: int) -> None:
        if self._next == 0:
            self.sink.open(len(self.x0), len(self.times))
            self.sink.append(self.times[0], self.x0)
            self._next = 1
        for k in range(self._next, stop):
            self.sink.append(self.times[k], self._zero)
        self._next = stop

    def append(self, span: tuple) -> None:
        row0, a, b = span
        self._fill(row0)
        rows = b if a is None else a @ b
        for k, row in enumerate(rows, start=row0):
            self.sink.append(self.times[k], row)
        self._next = row0 + len(rows)

    def advance(self, row: int) -> None:
        """Rows below ``row`` are final (a quiescent segment: zeros)."""
        self._fill(row)

    def close(self) -> tuple[np.ndarray, np.ndarray]:
        self._fill(len(self.times))
        return self.sink.finalize()


class MatexSolver:
    """Matrix-exponential transient solver for one (sub-)task.

    Parameters
    ----------
    system:
        Assembled MNA descriptor system.
    options:
        Solver options; defaults to R-MATEX with the paper's settings.
    deviation_mode:
        Simulate the response to ``u(t) − u(0)`` from a zero initial
        state.  This is what each distributed node runs; the scheduler
        adds the DC operating point back during superposition.

    Notes
    -----
    Construction performs the factorisation(s): ``C + γG`` (rational),
    ``G`` (inverted) or ``C`` (standard), plus ``G`` for the ETD vectors
    and DC analysis.  For the inverted method the ``G`` factorisation is
    shared — only one LU exists, as in the paper.
    """

    def __init__(
        self,
        system: MNASystem,
        options: SolverOptions | None = None,
        deviation_mode: bool = False,
    ):
        self.system = system
        self.options = options if options is not None else SolverOptions()
        hits0, misses0 = FACTORIZATION_CACHE.counters()
        self.op = make_krylov_operator(
            self.options.method, system.C, system.G, gamma=self.options.gamma
        )
        shared_lu = self.op.lu if self.options.method == "inverted" else None
        self.workspace = EtdWorkspace(system, lu_g=shared_lu)
        hits1, misses1 = FACTORIZATION_CACHE.counters()
        #: factorisations this construction reused from / added to the
        #: process-wide cache (the paper's shared-pencil amortisation).
        self.construction_cache_hits = hits1 - hits0
        self.construction_cache_misses = misses1 - misses0
        self.deviation_mode = deviation_mode

    # -- public API ---------------------------------------------------------------

    @property
    def factor_seconds(self) -> float:
        """Total one-off factorisation time (the paper's serial part)."""
        total = self.op.factor_seconds
        if self.workspace.lu_g is not self.op.lu:
            total += self.workspace.lu_g.factor_seconds
        return total

    def dc_operating_point(self) -> tuple[np.ndarray, float]:
        """Solve ``G x = B u(0)``; returns the state and wall time."""
        t0 = time.perf_counter()
        x0 = self.workspace.dc_solution()
        return x0, time.perf_counter() - t0

    def simulate(
        self,
        t_end: float,
        x0: np.ndarray | None = None,
        active_inputs: Sequence[int] | None = None,
        schedule: TransitionSchedule | None = None,
        waveform_overrides: dict | None = None,
        sink: ResultSink | None = None,
    ) -> TransientResult:
        """Run Alg. 2 over ``[0, t_end]``.

        Parameters
        ----------
        t_end:
            Simulation horizon.
        x0:
            Initial state.  Defaults to the DC operating point of the
            active inputs (or zeros in deviation mode).
        active_inputs:
            Input columns driving this run (``None`` = all; empty = a
            free response from ``x0``).  The schedule marks their slope
            changes as LTS; all other global transition spots become
            snapshots.
        schedule:
            Pre-built marching schedule; shared across nodes by the
            distributed scheduler so all results align for superposition.
            Its points must strictly increase (``ValueError`` naming the
            first repeated point otherwise); point 0 always builds a
            basis, whatever its LTS flag.
        waveform_overrides:
            Optional ``{column: waveform}`` replacements evaluated
            instead of the originals (split-bump decomposition).  The
            factorisations are untouched — only input evaluation changes.
        sink:
            Destination for the recorded trajectory (default: dense
            in-memory).  Downsampling or on-disk sinks bound the memory
            of very long schedules; see :mod:`repro.engine.sinks`.

        Returns
        -------
        TransientResult
            States at every schedule point, plus statistics.  In
            deviation mode the states are byte-identical to the
            :class:`~repro.dist.block_runner.BlockNodeRunner` answer of
            the same task (``FactoredStates.dense()``).
        """
        # Imported here: the runner builds on this module's solver.
        from repro.dist.block_runner import BlockNodeRunner

        if schedule is None:
            schedule = build_schedule(
                self.system, t_end, local_inputs=active_inputs,
                waveform_overrides=waveform_overrides,
            )

        dc_seconds, n_solves_dc = 0.0, 0
        if x0 is None:
            if self.deviation_mode:
                x0 = np.zeros(self.system.dim)
            else:
                dc_t0 = time.perf_counter()
                x0 = self.workspace.dc_solution(active=active_inputs)
                dc_seconds = time.perf_counter() - dc_t0
                n_solves_dc = 1

        cols = (
            range(self.system.n_inputs) if active_inputs is None
            else active_inputs
        )
        runner = BlockNodeRunner._on(self)
        (march,) = runner._prepare(
            [(schedule, waveform_overrides, cols)], x0,
            deviation=self.deviation_mode,
        )
        feed = _SinkFeed(sink if sink is not None else MemorySink(),
                         np.asarray(schedule.points), march.x)
        march.spans = feed
        runner._march([march], "schedule")
        times, states = feed.close()

        stats = march.stats
        stats.factor_seconds = self.factor_seconds
        stats.dc_seconds = dc_seconds
        stats.n_solves_dc = n_solves_dc
        return TransientResult(
            system=self.system,
            times=times,
            states=states,
            stats=stats,
            method=f"matex-{self.options.method}",
            sink=sink,
        )
