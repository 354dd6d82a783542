"""MATEX core: ETD update, transition schedules, solver, decomposition."""

from repro.core.decomposition import (
    SourceGroup,
    decompose_by_bump,
    decompose_by_bump_split,
    decompose_by_source,
    merge_to_limit,
)
from repro.core.etd import EtdWorkspace
from repro.core.options import SolverOptions
from repro.core.results import TransientResult
from repro.core.solver import MatexSolver
from repro.core.stats import SolverStats
from repro.core.superposition import superpose
from repro.core.transition import TransitionSchedule, build_schedule

__all__ = [
    "EtdWorkspace",
    "MatexSolver",
    "SolverOptions",
    "SolverStats",
    "SourceGroup",
    "TransientResult",
    "TransitionSchedule",
    "build_schedule",
    "decompose_by_bump",
    "decompose_by_bump_split",
    "decompose_by_source",
    "merge_to_limit",
    "superpose",
]
