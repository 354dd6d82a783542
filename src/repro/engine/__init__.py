"""Shared stepping loop and result sinks of the integrators.

* :mod:`repro.engine.loop` — one :class:`SteppingLoop` owns marching
  mechanics (recording, acceptance, statistics) for every time-stepping
  baseline (the MATEX flavours march in :mod:`repro.dist.block_runner`);
* :mod:`repro.engine.sinks` — recorded states stream to a
  :class:`ResultSink` (in-memory, downsampling, or NPZ-on-disk), so
  million-step runs stop holding dense trajectories in RAM.

The CLI's ``--method`` table (:mod:`repro.cli`) names the integrators;
callers construct :class:`~repro.core.solver.MatexSolver` or a
:mod:`repro.baselines` class directly.
"""

from repro.engine.loop import StepController, SteppingLoop
from repro.engine.sinks import (
    DownsamplingSink,
    MemorySink,
    NpzStreamSink,
    ResultSink,
    make_sink,
)

__all__ = [
    "DownsamplingSink",
    "MemorySink",
    "NpzStreamSink",
    "ResultSink",
    "StepController",
    "SteppingLoop",
    "make_sink",
]
