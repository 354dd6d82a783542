"""RLC system tests: package inductance through the whole solver stack."""

import numpy as np
import pytest

from repro.baselines import (
    reference_backward_euler,
    simulate_trapezoidal,
)
from repro.circuit import Netlist, assemble
from repro.core import MatexSolver, SolverOptions
from repro.dist import MatexScheduler
from repro.pdn import PdnConfig, WorkloadSpec, attach_pulse_loads, generate_power_grid


@pytest.fixture(scope="module")
def rlc_pdn():
    t_end = 2e-9
    net = generate_power_grid(PdnConfig(
        rows=8, cols=8, n_pads=2, l_package=2e-10, seed=9,
    ))
    attach_pulse_loads(net, WorkloadSpec(
        n_sources=12, n_shapes=4, t_end=t_end, time_grid_points=12, seed=9,
    ))
    return assemble(net), t_end


class TestRlcStructure:
    def test_inductor_branch_rows_present(self, rlc_pdn):
        system, _ = rlc_pdn
        assert system.counts["l"] == 2
        assert system.dim == system.n_nodes + 2 + 2  # + V rows + L rows
        assert system.is_c_singular()  # V rows still carry no dynamics

    def test_series_rlc_resonance(self):
        """A plain series RLC rings at ω0 = 1/sqrt(LC); verify the
        simulated oscillation period against theory."""
        L, C, R = 1e-9, 1e-12, 0.5
        net = Netlist("rlc")
        net.add_voltage_source("V1", "in", "0", 1.0)
        net.add_inductor("L1", "in", "mid", L)
        net.add_resistor("R1", "mid", "out", R)
        net.add_capacitor("C1", "out", "0", C)
        system = assemble(net)
        t_end = 4e-10
        solver = MatexSolver(
            system, SolverOptions(method="rational", gamma=1e-12,
                                  eps_rel=1e-10),
        )
        grid = list(np.linspace(0, t_end, 801))
        from repro.core import build_schedule

        res = solver.simulate(
            t_end, x0=np.zeros(system.dim),
            schedule=build_schedule(system, t_end, global_points=grid),
        )
        v_out = res.voltage("out")
        # Zero crossings of (v_out - 1) give the half period.
        centered = v_out - 1.0
        crossings = np.where(np.diff(np.sign(centered)) != 0)[0]
        assert len(crossings) >= 2
        half_period = (res.times[crossings[1]] - res.times[crossings[0]])
        omega0 = 1.0 / np.sqrt(L * C)
        expected_half = np.pi / omega0
        assert half_period == pytest.approx(expected_half, rel=0.05)


class TestRlcAccuracy:
    @pytest.mark.parametrize("method", ["inverted", "rational"])
    def test_matex_matches_tr_golden(self, rlc_pdn, method):
        """Golden = fine TR with *every* step recorded.

        TR preserves oscillation amplitude (A-stable without the heavy
        damping BE would inflict on the package-L ringing); recording
        every step avoids the up-to-h/2 record-time rounding that would
        masquerade as solver error during fast ringing.
        """
        system, t_end = rlc_pdn
        solver = MatexSolver(
            system,
            SolverOptions(method=method, gamma=1e-10, eps_rel=1e-9),
        )
        res = solver.simulate(t_end)
        golden = simulate_trapezoidal(system, 2.5e-13, t_end)
        n = system.n_nodes
        diff = np.abs(res.sample(res.times)[:, :n]
                      - golden.sample(res.times)[:, :n])
        assert diff.max() < 1e-5

    def test_be_reference_damps_ringing(self, rlc_pdn):
        """Sanity on the substrate: first-order BE visibly damps the
        package-L oscillation relative to TR at the same step."""
        system, t_end = rlc_pdn
        h = 2e-12
        tr = simulate_trapezoidal(system, h, t_end)
        be = reference_backward_euler(system, t_end, h)
        n = system.n_nodes
        # Measure ringing energy as variance around the mean rail level.
        tr_var = float(np.var(tr.states[:, :n] - tr.states[:, :n].mean(0)))
        be_var = float(np.var(be.states[:, :n] - be.states[:, :n].mean(0)))
        assert be_var < tr_var

    def test_distributed_matches_single(self, rlc_pdn):
        system, t_end = rlc_pdn
        opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
        single = MatexSolver(system, opts).simulate(t_end)
        dist = MatexScheduler(system, opts).run(t_end)
        assert np.max(np.abs(dist.result.states - single.states)) < 1e-6
