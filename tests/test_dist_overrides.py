"""Distributed execution with waveform overrides (split-bump) and
multiprocessing pickling of every message type."""

import numpy as np
import pytest

from repro.circuit import Netlist, Pulse, assemble
from repro.core import SolverOptions
from repro.dist import MatexScheduler, MultiprocessExecutor

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)


@pytest.fixture
def periodic_system():
    net = Netlist("periodic")
    for i in range(6):
        net.add_resistor(f"R{i}", "0" if i == 0 else f"w{i}", f"w{i + 1}", 1.0)
        net.add_capacitor(f"C{i}", f"w{i + 1}", "0", 2e-13)
    net.add_current_source(
        "I0", "w6", "0",
        Pulse(0.0, 1e-3, 1e-10, 2e-11, 8e-11, 2e-11, t_period=4e-10),
    )
    net.add_current_source(
        "I1", "w3", "0", Pulse(0.0, 2e-3, 2.5e-10, 2e-11, 4e-11, 2e-11)
    )
    return assemble(net)


class TestSplitBumpDistributed:
    def test_multiprocess_executor_with_overrides(self, periodic_system):
        """Tasks carrying waveform overrides must survive pickling."""
        s = periodic_system
        sched = MatexScheduler(s, OPTS, decomposition="bump-split")
        serial = sched.run(1e-9)
        mp = sched.run(
            1e-9, executor=MultiprocessExecutor(s, OPTS, max_workers=2)
        )
        assert np.allclose(serial.result.states, mp.result.states,
                           rtol=1e-12, atol=1e-15)

    def test_split_nodes_outnumber_sources(self, periodic_system):
        """Periodic source unrolled over 1ns at T=0.4ns: 3 bumps."""
        sched = MatexScheduler(periodic_system, OPTS,
                               decomposition="bump-split")
        groups = sched.groups(t_end=1e-9)
        # 3 bumps of I0 + 1 bump of I1 = 4 single-bump groups.
        assert len(groups) == 4

    def test_derived_system_shares_matrices(self, periodic_system):
        s = periodic_system
        derived = s.rebind_sources(overrides={0: s.waveforms[1]})
        assert derived.C is s.C and derived.G is s.G and derived.B is s.B
        assert derived.waveforms[0] is s.waveforms[1]
