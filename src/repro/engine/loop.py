"""The shared stepping loop of the time-stepping baselines.

:class:`SteppingLoop` owns the mechanics every fixed- or adaptive-step
integrator needs — iterate the time axis, record accepted states, count
steps, time the transient part — for both axis shapes:

* :meth:`march_grid` — a fixed sequence of points (a uniform baseline
  grid); the strategy supplies one ``advance`` callback producing the
  next state;
* :meth:`march_adaptive` — a controller-driven axis with step
  acceptance/rejection (adaptive trapezoidal); the loop owns the
  accept/reject bookkeeping and recording, the controller owns the
  step-size policy and trial states.

The MATEX solvers do not step here: Alg. 2 is one lockstep march over
segment rounds (:mod:`repro.dist.block_runner`), which hands whole
spans of snapshots to the sink at once.

Recorded states go to a :class:`~repro.engine.sinks.ResultSink`
(defaulting to the in-memory sink).  The loop mutates the caller's
``SolverStats``: ``n_steps`` counts attempted solver advances and
``transient_seconds`` accumulates the pure marching wall time — the
paper's "pure transient computing" (Table 3), excluding input
pre-evaluation and factorisations, which strategies perform before
entering the loop.
"""

from __future__ import annotations

import time
from typing import Callable, Collection, Protocol, Sequence

import numpy as np

from repro.engine.sinks import MemorySink, ResultSink

__all__ = ["SteppingLoop", "StepController"]

#: advance(i, t, t_next, x) -> next state.
AdvanceFn = Callable[[int, float, float, np.ndarray], np.ndarray]


class StepController(Protocol):
    """Strategy half of :meth:`SteppingLoop.march_adaptive`.

    The controller owns step-size policy; the loop owns everything else.
    """

    def propose(self, t: float) -> float:
        """Next trial step from ``t`` (already clamped to events)."""

    def attempt(
        self, t: float, h: float, x: np.ndarray
    ) -> tuple[np.ndarray, bool]:
        """Trial state over ``[t, t+h]`` and whether to accept it.

        On rejection the controller adjusts its internal step size; the
        loop simply retries from the same ``t``.
        """

    def accepted(self, t: float, x: np.ndarray) -> None:
        """Notification that ``x`` was accepted at ``t`` (history, growth)."""


class SteppingLoop:
    """Owns marching mechanics: recording, acceptance, stats, timing.

    Parameters
    ----------
    dim:
        State dimension (sinks preallocate against it).
    stats:
        The run's ``SolverStats``; mutated in place.
    sink:
        Recorded-state destination; defaults to :class:`MemorySink`.
    """

    def __init__(self, dim: int, stats, sink: ResultSink | None = None):
        self.dim = int(dim)
        self.stats = stats
        self.sink = sink if sink is not None else MemorySink()

    # -- fixed axis ---------------------------------------------------------------

    def march_grid(
        self,
        points: Sequence[float],
        x0: np.ndarray,
        advance: AdvanceFn,
        record: Collection[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """March a fixed sequence of time points.

        Parameters
        ----------
        points:
            Monotone time axis; ``advance`` is called once per positive
            interval (zero-length intervals are recorded without a
            step).
        x0:
            State at ``points[0]``.
        advance:
            ``advance(i, t, t_next, x) -> x_next``.
        record:
            Indices of ``points`` to hand to the sink (``None`` = all).
            Index 0 and the final point should normally be included;
            the fixed-step strategies guarantee that.

        Returns
        -------
        (times, states):
            The sink's finalized arrays.
        """
        pts = np.asarray(points, dtype=float)
        keep = None if record is None else frozenset(int(i) for i in record)
        n_hint = len(pts) if keep is None else len(keep)
        self.sink.open(self.dim, n_hint)

        x = np.asarray(x0, dtype=float).copy()
        if keep is None or 0 in keep:
            self.sink.append(pts[0], x)

        t_loop = time.perf_counter()
        for i in range(len(pts) - 1):
            t, t_next = pts[i], pts[i + 1]
            if t_next - t > 0.0:
                self.stats.n_steps += 1
                x = advance(i, t, t_next, x)
            if keep is None or (i + 1) in keep:
                self.sink.append(t_next, x)
        self.stats.transient_seconds += time.perf_counter() - t_loop
        return self.sink.finalize()

    # -- adaptive axis ---------------------------------------------------------------

    def march_adaptive(
        self,
        t_end: float,
        x0: np.ndarray,
        controller: StepController,
    ) -> tuple[np.ndarray, np.ndarray]:
        """March ``[0, t_end]`` under a step controller.

        Every accepted state is recorded; rejected trials only cost the
        controller's work.  ``stats.n_steps`` counts *attempts* (the
        quantity solver effort scales with).
        """
        self.sink.open(self.dim, None)
        x = np.asarray(x0, dtype=float).copy()
        self.sink.append(0.0, x)

        t = 0.0
        t_loop = time.perf_counter()
        while t < t_end - 1e-18 * t_end:
            h = controller.propose(t)
            x_new, accept = controller.attempt(t, h, x)
            self.stats.n_steps += 1
            if not accept:
                continue
            t += h
            x = x_new
            self.sink.append(t, x)
            controller.accepted(t, x)
        self.stats.transient_seconds += time.perf_counter() - t_loop
        return self.sink.finalize()
