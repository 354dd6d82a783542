"""Integration tests: all solvers and paths agree end-to-end."""

import numpy as np
import pytest

from repro.analysis import error_metrics
from repro.baselines import simulate_trapezoidal
from repro.circuit import assemble, format_netlist, parse_netlist
from repro.core import MatexSolver, SolverOptions
from repro.dist import MatexScheduler
from repro.pdn import PdnConfig, WorkloadSpec, attach_pulse_loads, generate_power_grid


T_END = 2e-9


@pytest.fixture(scope="module")
def pdn_netlist():
    """The netlist of :func:`pdn_case`'s PDN, kept for writing it out."""
    net = generate_power_grid(PdnConfig(rows=10, cols=10, n_pads=4, seed=42))
    attach_pulse_loads(net, WorkloadSpec(
        n_sources=60, n_shapes=10, t_end=T_END, time_grid_points=20, seed=42,
    ))
    return net


@pytest.fixture(scope="module")
def pdn_case(pdn_netlist):
    """A mid-size PDN shared by the integration tests."""
    t_end = T_END
    system = assemble(pdn_netlist)
    golden = simulate_trapezoidal(
        system, 1e-12, t_end,
        record_times=system.global_transition_spots(t_end),
    )
    return system, t_end, golden


class TestAllPathsAgree:
    @pytest.mark.parametrize("method", ["inverted", "rational"])
    def test_single_node_matches_golden(self, pdn_case, method):
        system, t_end, golden = pdn_case
        solver = MatexSolver(
            system,
            SolverOptions(method=method, gamma=1e-10, eps_rel=1e-7),
        )
        res = solver.simulate(t_end)
        errs = error_metrics(res, golden, times=golden.times)
        assert errs["max"] < 1e-4

    def test_distributed_matches_golden(self, pdn_case):
        system, t_end, golden = pdn_case
        dres = MatexScheduler(
            system,
            SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-7),
        ).run(t_end)
        errs = error_metrics(dres.result, golden, times=golden.times)
        assert errs["max"] < 1e-4

    def test_distributed_matches_single_node(self, pdn_case):
        system, t_end, _ = pdn_case
        opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
        single = MatexSolver(system, opts).simulate(t_end)
        dist = MatexScheduler(system, opts).run(t_end)
        errs = error_metrics(dist.result, single, times=single.times)
        assert errs["max"] < 1e-5

    def test_distributed_uses_fewer_pairs_per_node(self, pdn_case):
        system, t_end, _ = pdn_case
        opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-7)
        single = MatexSolver(system, opts).simulate(t_end)
        dist = MatexScheduler(system, opts).run(t_end)
        assert (dist.max_node_substitution_pairs
                < single.stats.n_solves_transient / 3)


class TestNetlistFileWorkflow:
    def test_roundtrip_then_simulate(self, pdn_case, pdn_netlist, tmp_path):
        """Export to SPICE text, re-parse, simulate: identical physics."""
        system, t_end, golden = pdn_case
        text = format_netlist(pdn_netlist, t_end=t_end)
        reparsed = assemble(parse_netlist(text))
        solver = MatexSolver(
            reparsed,
            SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-7),
        )
        res = solver.simulate(t_end)
        # Compare against golden computed on the original system.
        n_nodes = reparsed.n_nodes
        a = res.sample(golden.times)[:, :n_nodes]
        b = golden.sample(golden.times)[:, :n_nodes]
        assert np.max(np.abs(a - b)) < 1e-4
