"""Fixed-step backward Euler.

First-order A-stable (indeed L-stable) companion baseline::

    (C/h + G) x(t+h) = (C/h) x(t) + B u(t+h)

Its strong damping makes it the paper's accuracy *reference* when run at
a tiny step (Table 1 uses BE at 0.05ps); see
:mod:`repro.baselines.reference`.  The marching loop is the shared
:class:`~repro.engine.loop.SteppingLoop`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.fixed_step import FixedStepImplicitIntegrator
from repro.circuit.mna import MNASystem
from repro.core.results import TransientResult
from repro.engine.sinks import ResultSink

__all__ = ["BackwardEulerIntegrator", "simulate_backward_euler"]


class BackwardEulerIntegrator(FixedStepImplicitIntegrator):
    """Fixed-step BE integrator; see module docstring."""

    method_label = "be-fixed"

    def __init__(self, system: MNASystem, h: float):
        super().__init__(system, h)
        self._rhs_matrix = (system.C / self.h).tocsr()

    def _lhs(self):
        return (self.system.C / self.h + self.system.G).tocsc()

    def _rhs(self, x, bu0, bu1):
        return self._rhs_matrix @ x + bu1


def simulate_backward_euler(
    system: MNASystem,
    h: float,
    t_end: float,
    x0: np.ndarray | None = None,
    record_times: Sequence[float] | None = None,
    sink: ResultSink | None = None,
) -> TransientResult:
    """Simulate with fixed-step BE; see module docstring.

    Parameters mirror
    :func:`repro.baselines.trapezoidal.simulate_trapezoidal`.
    """
    return BackwardEulerIntegrator(system, h).simulate(
        t_end, x0=x0, record_times=record_times, sink=sink
    )
