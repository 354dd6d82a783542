"""MATEX — distributed matrix-exponential transient simulation of PDNs.

Reproduction of Zhuang, Weng, Lin, Cheng, *"MATEX: A Distributed
Framework for Transient Simulation of Power Distribution Networks"*,
DAC 2014.

Quick tour of the public API (see README.md for a walkthrough):

* build circuits — :mod:`repro.circuit` (netlists, waveforms, MNA,
  SPICE-dialect I/O) and :mod:`repro.pdn` (synthetic power grids, stiff
  RC meshes, workloads, the ibmpg-like suite);
* simulate — :class:`repro.core.MatexSolver` (single node, Alg. 2) and
  :class:`repro.dist.MatexScheduler` (distributed, Fig. 4), plus the
  traditional baselines in :mod:`repro.baselines`;
* sweep — :mod:`repro.plan` (compiled plans: freeze decomposition /
  DC / schedules / factorisations once, execute many what-if
  :class:`~repro.plan.Scenario` input patterns bit-identically);
* analyse — :mod:`repro.analysis` (error metrics, the Sec. 3.4 speedup
  model) and :mod:`repro.experiments` (the paper's tables and figure).
"""

from repro.circuit import (
    DC,
    PWL,
    MNASystem,
    Netlist,
    Pulse,
    assemble,
    ingest_file,
    parse_netlist,
)
from repro.core import (
    MatexSolver,
    SolverOptions,
    TransientResult,
    build_schedule,
    decompose_by_bump,
    superpose,
)
from repro.dist import MatexScheduler, MultiprocessExecutor, SerialExecutor
from repro.plan import CompiledPlan, Scenario, Session, SimulationPlan

__version__ = "0.1.0"

__all__ = [
    "DC",
    "CompiledPlan",
    "MNASystem",
    "MatexScheduler",
    "MatexSolver",
    "MultiprocessExecutor",
    "Netlist",
    "PWL",
    "Pulse",
    "Scenario",
    "SerialExecutor",
    "Session",
    "SimulationPlan",
    "SolverOptions",
    "TransientResult",
    "assemble",
    "build_schedule",
    "decompose_by_bump",
    "ingest_file",
    "parse_netlist",
    "superpose",
    "__version__",
]
