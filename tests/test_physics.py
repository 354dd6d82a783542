"""Physics-invariant tests: passivity and energy dissipation.

An RC network is passive: with the sources off, the stored energy
``E = x^T C x / 2`` can only decrease; with DC sources, node voltages
are bounded by the source extremes (discrete maximum principle).  Any
integrator violating these on a passive network is wrong regardless of
local error — they make sharp end-to-end sanity checks.
"""

import numpy as np
import pytest

from repro.baselines import simulate_backward_euler, simulate_trapezoidal
from repro.circuit import Netlist, assemble
from repro.core import MatexSolver, SolverOptions, build_schedule


@pytest.fixture
def source_free_rc(rng):
    net = Netlist("free-rc")
    n = 16
    for i in range(n):
        parent = "0" if i == 0 else f"e{rng.integers(0, i)}"
        net.add_resistor(f"R{i}", parent, f"e{i}", float(rng.uniform(0.5, 3)))
        net.add_capacitor(f"C{i}", f"e{i}", "0",
                          float(10 ** rng.uniform(-14, -12)))
    return assemble(net)


def energies(system, states):
    c = np.asarray(system.C.todense())
    return np.array([x @ c @ x for x in states])


class TestEnergyDissipation:
    def test_matex_dissipates(self, source_free_rc, rng):
        s = source_free_rc
        x0 = rng.normal(size=s.dim)
        grid = list(np.linspace(0.0, 5e-11, 21))
        solver = MatexSolver(
            s, SolverOptions(method="rational", gamma=2e-12, eps_rel=1e-10)
        )
        res = solver.simulate(
            5e-11, x0=x0, schedule=build_schedule(s, 5e-11, global_points=grid)
        )
        e = energies(s, res.states)
        assert np.all(np.diff(e) <= 1e-12 * e[0])

    @pytest.mark.parametrize("simulate", [
        simulate_trapezoidal, simulate_backward_euler,
    ])
    def test_implicit_baselines_dissipate(self, source_free_rc, rng, simulate):
        s = source_free_rc
        x0 = rng.normal(size=s.dim)
        res = simulate(s, 2.5e-12, 5e-11, x0=x0)
        e = energies(s, res.states)
        assert np.all(np.diff(e) <= 1e-12 * e[0])

    def test_decay_toward_equilibrium(self, source_free_rc, rng):
        s = source_free_rc
        x0 = rng.normal(size=s.dim)
        solver = MatexSolver(
            s, SolverOptions(method="rational", gamma=1e-11, eps_rel=1e-10)
        )
        res = solver.simulate(1e-9, x0=x0)  # many time constants
        assert np.max(np.abs(res.states[-1])) < 1e-3 * np.max(np.abs(x0))


class TestMaximumPrinciple:
    def test_dc_voltages_within_source_range(self, small_pdn_system):
        """Unloaded-at-t=0 grid: every rail between 0 and VDD."""
        from repro.baselines import dc_operating_point

        x, _ = dc_operating_point(small_pdn_system)
        rails = x[: small_pdn_system.n_nodes]
        assert np.all(rails >= -1e-12)
        assert np.all(rails <= 1.8 + 1e-12)

    def test_transient_rails_bounded_under_load(self, small_pdn_system):
        """Loads only sink current: rails never exceed VDD."""
        solver = MatexSolver(
            small_pdn_system,
            SolverOptions(method="rational", gamma=1e-11, eps_rel=1e-9),
        )
        res = solver.simulate(1e-9)
        rails = res.states[:, : small_pdn_system.n_nodes]
        assert np.all(rails <= 1.8 + 1e-6)
        assert np.all(rails >= 0.0)
