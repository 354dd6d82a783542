"""PDN substrate: grid/mesh generators, workloads, benchmark suite."""

from repro.pdn.grid import PdnConfig, generate_power_grid
from repro.pdn.ibmpg import synthesize_ibmpg
from repro.pdn.rc_mesh import mesh_node, stiff_rc_mesh
from repro.pdn.scenarios import load_pattern_scenarios
from repro.pdn.stiffness import eigenvalue_extremes, stiffness
from repro.pdn.suite import SUITE, SuiteCase, build_case, build_netlist, case_names
from repro.pdn.workloads import WorkloadSpec, attach_pulse_loads, make_bump_library

__all__ = [
    "PdnConfig",
    "SUITE",
    "SuiteCase",
    "WorkloadSpec",
    "attach_pulse_loads",
    "build_case",
    "build_netlist",
    "case_names",
    "eigenvalue_extremes",
    "generate_power_grid",
    "load_pattern_scenarios",
    "make_bump_library",
    "mesh_node",
    "stiffness",
    "stiff_rc_mesh",
    "synthesize_ibmpg",
]
