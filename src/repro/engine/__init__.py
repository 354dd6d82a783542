"""Unified integrator engine: registry, shared stepping loop, sinks.

The engine is the architectural backbone added by the integrator
refactor:

* :mod:`repro.engine.registry` — every integrator (MATEX flavours and
  baselines) is a strategy object resolved by name through
  :func:`get_integrator`;
* :mod:`repro.engine.loop` — one :class:`SteppingLoop` owns marching
  mechanics (recording, acceptance, statistics) for every time-stepping
  baseline (the MATEX flavours march in :mod:`repro.dist.block_runner`);
* :mod:`repro.engine.sinks` — recorded states stream to a
  :class:`ResultSink` (in-memory, downsampling, or NPZ-on-disk), so
  million-step runs stop holding dense trajectories in RAM.

Together with the process-wide
:data:`~repro.linalg.lu.FACTORIZATION_CACHE` this makes every future
integrator and workload a drop-in: implement the strategy, register a
name, and the loop/cache/sink machinery comes for free.
"""

from repro.engine.loop import StepController, SteppingLoop
from repro.engine.registry import (
    Integrator,
    available_integrators,
    get_integrator,
    integrator_aliases,
    register_integrator,
)
from repro.engine.sinks import (
    DownsamplingSink,
    MemorySink,
    NpzStreamSink,
    ResultSink,
    make_sink,
)

__all__ = [
    "DownsamplingSink",
    "Integrator",
    "MemorySink",
    "NpzStreamSink",
    "ResultSink",
    "StepController",
    "SteppingLoop",
    "available_integrators",
    "get_integrator",
    "integrator_aliases",
    "make_sink",
    "register_integrator",
]
