"""Fixed-step trapezoidal method (paper Eq. 2) — the primary baseline.

TR with a fixed step is "an efficient framework adopted by the top PG
solvers in the 2012 TAU PG simulation contest" (Sec. 2.1): one LU of
``C/h + G/2`` up front, then one substitution pair per step::

    (C/h + G/2) x(t+h) = (C/h − G/2) x(t) + B (u(t) + u(t+h)) / 2

Table 3 pits MATEX against this with ``h = 10ps`` over 1000 steps.
The marching loop is the shared :class:`~repro.engine.loop.SteppingLoop`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.fixed_step import FixedStepImplicitIntegrator
from repro.circuit.mna import MNASystem
from repro.core.results import TransientResult
from repro.engine.sinks import ResultSink

__all__ = ["TrapezoidalIntegrator", "simulate_trapezoidal"]


class TrapezoidalIntegrator(FixedStepImplicitIntegrator):
    """Fixed-step TR integrator; see module docstring."""

    method_label = "tr-fixed"

    def __init__(self, system: MNASystem, h: float):
        super().__init__(system, h)
        self._rhs_matrix = (system.C / self.h - system.G / 2.0).tocsr()

    def _lhs(self):
        return (self.system.C / self.h + self.system.G / 2.0).tocsc()

    def _rhs(self, x, bu0, bu1):
        return self._rhs_matrix @ x + 0.5 * (bu0 + bu1)


def simulate_trapezoidal(
    system: MNASystem,
    h: float,
    t_end: float,
    x0: np.ndarray | None = None,
    record_times: Sequence[float] | None = None,
    sink: ResultSink | None = None,
) -> TransientResult:
    """Simulate with fixed-step TR; see module docstring.

    Parameters
    ----------
    system:
        Assembled MNA system.
    h:
        Fixed step size.
    t_end:
        Simulation horizon (``round(t_end/h)`` steps are taken).
    x0:
        Initial state; defaults to the DC operating point.
    record_times:
        Optional subset of grid times to keep (all by default).
    sink:
        Recorded-state destination (default: dense in-memory).
    """
    return TrapezoidalIntegrator(system, h).simulate(
        t_end, x0=x0, record_times=record_times, sink=sink
    )
