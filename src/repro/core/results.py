"""Transient-simulation result container.

All integrators in this repository (MATEX variants and the traditional
baselines) return a :class:`TransientResult`: a time grid, the state
trajectory and the solver statistics.  The container knows how to

* extract node-voltage series by node name,
* interpolate states at arbitrary times (linear — consistent with the
  PWL-input assumption between transition spots),
* compare against another result on a common grid (the max/avg error
  metrics of the paper's Table 3 are implemented on top of this in
  :mod:`repro.analysis.errors`).

Since the engine refactor the trajectory arrives through a
:class:`~repro.engine.sinks.ResultSink`: the default in-memory sink
reproduces the historical dense arrays, a downsampling sink thins them,
and the NPZ streaming sink leaves ``states`` memmap-backed on disk — the
container is agnostic, and :attr:`TransientResult.sink` records which
sink produced the run (e.g. to locate the streamed archive).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.mna import MNASystem
from repro.core.stats import SolverStats

__all__ = ["TransientResult"]


@dataclass
class TransientResult:
    """Trajectory of one transient simulation.

    Attributes
    ----------
    system:
        The simulated MNA system (for node-name lookups).
    times:
        Monotonically increasing evaluation times, shape ``(k,)``.
    states:
        State vectors, shape ``(k, dim)``; row ``i`` is ``x(times[i])``.
    stats:
        Operation counts and timings.
    method:
        Name of the integrator that produced the result.
    sink:
        The :class:`~repro.engine.sinks.ResultSink` that recorded the
        trajectory, when one was supplied (``None`` for plain in-memory
        runs).  Lets callers reach sink artefacts, e.g. the ``.npz``
        path of a streamed run.
    """

    system: MNASystem
    times: np.ndarray
    states: np.ndarray
    stats: SolverStats = field(default_factory=SolverStats)
    method: str = ""
    sink: object | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.states.shape[0] != self.times.shape[0]:
            raise ValueError(
                f"states shape {self.states.shape} inconsistent with "
                f"{self.times.shape[0]} time points"
            )
        if np.any(np.diff(self.times) < 0):
            raise ValueError("times must be non-decreasing")

    # -- accessors -----------------------------------------------------------

    @property
    def n_points(self) -> int:
        return self.times.shape[0]

    def voltage(self, node: str) -> np.ndarray:
        """Voltage series of one node (zeros for ground)."""
        idx = self.system.node_index(node)
        if idx < 0:
            return np.zeros(self.n_points)
        return self.states[:, idx]

    def at(self, t: float) -> np.ndarray:
        """State at time ``t`` by linear interpolation.

        Linear interpolation is exact for the inputs (PWL) but not for the
        exponential response; use the native grid when exactness matters.
        """
        t = float(t)
        if t <= self.times[0]:
            return self.states[0].copy()
        if t >= self.times[-1]:
            return self.states[-1].copy()
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        t0, t1 = self.times[i], self.times[i + 1]
        if t1 == t0:
            return self.states[i + 1].copy()
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.states[i] + w * self.states[i + 1]

    def sample(self, times: np.ndarray) -> np.ndarray:
        """States at several times, shape ``(len(times), dim)``."""
        return np.vstack([self.at(t) for t in np.asarray(times, dtype=float)])

    # -- algebra (superposition support) ------------------------------------------

    def shifted(self, offset: np.ndarray) -> "TransientResult":
        """A copy with ``offset`` added to every state (superposition)."""
        return TransientResult(
            system=self.system,
            times=self.times.copy(),
            states=self.states + np.asarray(offset, dtype=float),
            stats=self.stats,
            method=self.method,
        )
