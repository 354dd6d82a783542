"""Tests for the split-bump decomposition (paper Fig. 3, Groups 1-4)."""

import numpy as np
import pytest

from repro.circuit import Netlist, Pulse, assemble
from repro.core import (
    MatexSolver,
    SolverOptions,
    decompose_by_bump_split,
    merge_to_limit,
)
from repro.dist import MatexScheduler

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)


@pytest.fixture
def fig3_system():
    """The paper's Fig. 3 scenario.

    Source #1 is periodic (bumps 1.1 and 1.2), source #2 has one bump,
    source #3's bump coincides exactly with bump #1.2 — so the split
    decomposition must produce Fig. 3's groups, with #1.2 and #3 merged.
    """
    net = Netlist("fig3")
    for i in range(5):
        net.add_resistor(f"R{i}", "0" if i == 0 else f"n{i}", f"n{i + 1}", 1.0)
        net.add_capacitor(f"C{i}", f"n{i + 1}", "0", 1e-13)
    net.add_current_source(
        "I1", "n1", "0",
        Pulse(0.0, 1e-3, 1e-10, 2e-11, 1e-10, 2e-11, t_period=5e-10),
    )
    net.add_current_source(
        "I2", "n3", "0", Pulse(0.0, 2e-3, 3e-10, 2e-11, 5e-11, 2e-11)
    )
    net.add_current_source(
        "I3", "n5", "0", Pulse(0.0, 5e-4, 6e-10, 2e-11, 1e-10, 2e-11)
    )
    return assemble(net)


class TestSplitBumps:
    def test_periodic_pulse_unrolls(self):
        p = Pulse(0.2e-3, 1e-3, 1e-10, 2e-11, 1e-10, 2e-11, t_period=4e-10)
        bumps = p.split_bumps(1e-9)
        assert len(bumps) == 3  # delays 1e-10, 5e-10, 9e-10
        assert [b.t_delay for b in bumps] == pytest.approx(
            [1e-10, 5e-10, 9e-10]
        )
        # Baseline-0 with the original amplitude.
        assert all(b.v1 == 0.0 for b in bumps)
        assert all(b.v2 == pytest.approx(8e-4) for b in bumps)

    def test_sum_of_bumps_is_deviation(self):
        p = Pulse(0.2e-3, 1e-3, 1e-10, 2e-11, 1e-10, 2e-11, t_period=4e-10)
        bumps = p.split_bumps(1e-9)
        for t in np.linspace(0.0, 1e-9, 101, endpoint=False):
            total = sum(b.value(float(t)) for b in bumps)
            assert total == pytest.approx(p.value(float(t)) - p.value(0.0),
                                          abs=1e-12)

    def test_nonperiodic_single_bump(self):
        p = Pulse(0.0, 1e-3, 1e-10, 2e-11, 1e-10, 2e-11)
        assert len(p.split_bumps(1e-9)) == 1


class TestFig3Grouping:
    def test_groups_match_figure(self, fig3_system):
        groups = decompose_by_bump_split(fig3_system, 1e-9)
        # Fig. 3: bump 1.1 alone, bump 2.1 alone, {bump 1.2, source 3}.
        assert len(groups) == 3
        shared = [g for g in groups if len(g.waveform_overrides) == 2]
        assert len(shared) == 1
        assert set(shared[0].input_columns) == {0, 2}

    def test_column_appears_in_multiple_groups(self, fig3_system):
        groups = decompose_by_bump_split(fig3_system, 1e-9)
        owners = [g for g in groups if 0 in g.input_columns]
        assert len(owners) == 2  # the two bumps of source #1

    def test_validation(self, fig3_system):
        with pytest.raises(ValueError):
            decompose_by_bump_split(fig3_system, 0.0)

    def test_merge_refuses_overrides(self, fig3_system):
        groups = decompose_by_bump_split(fig3_system, 1e-9)
        with pytest.raises(ValueError, match="cannot merge"):
            merge_to_limit(groups, 1)


class TestSplitSimulation:
    def test_split_matches_single_node(self, fig3_system):
        t_end = 1e-9
        single = MatexSolver(fig3_system, OPTS).simulate(t_end)
        dres = MatexScheduler(
            fig3_system, OPTS, decomposition="bump-split"
        ).run(t_end)
        assert np.max(np.abs(dres.result.states - single.states)) < 1e-9

    def test_split_matches_plain_bump(self, fig3_system):
        t_end = 1e-9
        a = MatexScheduler(fig3_system, OPTS, decomposition="bump").run(t_end)
        b = MatexScheduler(
            fig3_system, OPTS, decomposition="bump-split"
        ).run(t_end)
        assert np.max(np.abs(a.result.states - b.result.states)) < 1e-9

    def test_split_node_has_fewer_lts(self, fig3_system):
        """A split node sees one bump: at most 5 Krylov generations, and
        its critical path is shorter than the plain bump grouping's
        (periodic source #1 keeps both bumps there: 9 LTS, 43 pairs)."""
        dres = MatexScheduler(
            fig3_system, OPTS, decomposition="bump-split"
        ).run(1e-9)
        assert all(s.n_krylov_bases <= 6 for s in dres.node_stats)
        bump = MatexScheduler(fig3_system, OPTS, decomposition="bump").run(1e-9)
        assert (max(s.n_krylov_bases for s in dres.node_stats)
                < max(s.n_krylov_bases for s in bump.node_stats))
        assert (dres.max_node_substitution_pairs
                < bump.max_node_substitution_pairs)

    def test_groups_requires_horizon(self, fig3_system):
        sched = MatexScheduler(fig3_system, OPTS, decomposition="bump-split")
        with pytest.raises(ValueError, match="horizon"):
            sched.groups()
