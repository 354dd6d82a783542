"""Tests for the IR-drop analysis helpers."""

import numpy as np
import pytest

from repro.analysis.droop import droop_report, worst_droop
from repro.core import TransientResult
from repro.core.stats import SolverStats


@pytest.fixture
def sagging_result(small_pdn_system):
    """All rails at 1.8 V except one node dipping to 1.7 V at t=1e-10."""
    s = small_pdn_system
    times = np.array([0.0, 1e-10, 2e-10])
    states = np.full((3, s.dim), 1.8)
    dip_idx = s.node_index("g2_2")
    states[1, dip_idx] = 1.70
    states[2, dip_idx] = 1.78
    return TransientResult(s, times, states, SolverStats())


class TestDroopReport:
    def test_worst_droop_located(self, sagging_result):
        report = droop_report(sagging_result, vdd=1.8)
        assert report.worst_droop == pytest.approx(0.10)
        assert report.worst_node == "g2_2"
        assert report.worst_time == pytest.approx(1e-10)

    def test_violations_against_budget(self, sagging_result):
        report = droop_report(sagging_result, vdd=1.8, budget=0.05)
        assert report.violations == ("g2_2",)
        relaxed = droop_report(sagging_result, vdd=1.8, budget=0.2)
        assert relaxed.violations == ()

    def test_node_filter(self, sagging_result):
        report = droop_report(
            sagging_result, vdd=1.8,
            node_filter=lambda n: n != "g2_2",
        )
        assert report.worst_droop == pytest.approx(0.0)

    def test_filter_everything_rejected(self, sagging_result):
        with pytest.raises(ValueError, match="excluded every node"):
            droop_report(sagging_result, vdd=1.8,
                         node_filter=lambda n: False)

    def test_shortcut(self, sagging_result):
        assert worst_droop(sagging_result, 1.8) == pytest.approx(0.10)

    def test_summary_mentions_mv(self, sagging_result):
        text = droop_report(sagging_result, vdd=1.8).summary()
        assert "mV" in text and "g2_2" in text

    def test_on_real_simulation(self, small_pdn_system):
        from repro.core import MatexSolver, SolverOptions

        res = MatexSolver(
            small_pdn_system,
            SolverOptions(method="rational", gamma=1e-11),
        ).simulate(1e-9)
        report = droop_report(res, vdd=1.8, budget=1e-5,
                              node_filter=lambda n: n.startswith("g"))
        # The pulse loads must produce some sag at the struck nodes.
        assert report.worst_droop > 0.0
        assert report.worst_node.startswith("g")
