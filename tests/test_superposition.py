"""Unit tests for superposition recombination (paper Sec. 3.2)."""

import numpy as np
import pytest

from repro.core import (
    MatexSolver,
    SolverOptions,
    TransientResult,
    build_schedule,
    superpose,
)
from repro.core.stats import SolverStats
from repro.linalg import exact_transient
from tests.superpose_oracle import superpose_states


def _node_results(system, t_end, groups, opts):
    gts = system.global_transition_spots(t_end)
    results = []
    for cols in groups:
        sched = build_schedule(system, t_end, local_inputs=cols,
                               global_points=gts)
        solver = MatexSolver(system, opts, deviation_mode=True)
        results.append(
            solver.simulate(t_end, active_inputs=list(cols), schedule=sched)
        )
    return results


class TestSuperposition:
    def test_sum_equals_full_simulation(self, mesh_system):
        s = mesh_system
        t_end = 1e-9
        opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
        parts = _node_results(s, t_end, [(0,), (1,), (2,)], opts)
        combined = superpose(np.zeros(s.dim), parts)
        times, X = exact_transient(s, np.zeros(s.dim), t_end)
        assert np.allclose(combined.times, times)
        assert np.max(np.abs(combined.states - X)) < 1e-6

    def test_dc_offset_added(self, mesh_system):
        s = mesh_system
        opts = SolverOptions(method="rational", gamma=1e-10)
        parts = _node_results(s, 1e-9, [(0,)], opts)
        offset = np.full(s.dim, 0.25)
        combined = superpose(offset, parts)
        assert np.allclose(combined.states[0], 0.25)

    def test_stats_merged(self, mesh_system):
        s = mesh_system
        opts = SolverOptions(method="rational", gamma=1e-10)
        parts = _node_results(s, 1e-9, [(0,), (1,)], opts)
        combined = superpose(np.zeros(s.dim), parts)
        assert combined.stats.n_krylov_bases == sum(
            p.stats.n_krylov_bases for p in parts
        )

    def test_misaligned_grids_rejected(self, mesh_system):
        s = mesh_system
        dummy = SolverStats()
        a = TransientResult(s, np.array([0.0, 1e-10]),
                            np.zeros((2, s.dim)), dummy)
        b = TransientResult(s, np.array([0.0, 2e-10]),
                            np.zeros((2, s.dim)), dummy)
        with pytest.raises(ValueError, match="aligned"):
            superpose(np.zeros(s.dim), [a, b])
        short = TransientResult(s, np.array([0.0]), np.zeros((1, s.dim)), dummy)
        with pytest.raises(ValueError, match="aligned"):
            superpose(np.zeros(s.dim), [a, short])
        # Equal within 1e-12 but not bytewise (a grid rebuilt through
        # another arithmetic order) is still the same grid.
        near = TransientResult(s, a.times * (1.0 + 1e-13),
                               np.ones((2, s.dim)), dummy)
        assert not np.array_equal(near.times, a.times)
        combined = superpose(np.zeros(s.dim), [a, near])
        assert np.array_equal(combined.times, a.times)
        assert np.array_equal(combined.states, np.ones((2, s.dim)))

    def test_empty_rejected(self, mesh_system):
        with pytest.raises(ValueError, match="at least one"):
            superpose(np.zeros(mesh_system.dim), [])


class TestAccumulationKernel:
    """``superpose_states`` (``tests/superpose_oracle.py``) is the
    whole-block oracle of the library's one fold,
    :class:`repro.core.superposition.ScenarioTotals`; these pin that
    ``superpose`` (a one-scenario ``ScenarioTotals``) reproduces it bit
    for bit, order included."""

    @staticmethod
    def _blocks():
        # Magnitudes 16 decades apart: (1 + 1e16) - 1e16 == 0 but
        # 1 + (1e16 - 1e16) == 1, so any reassociation changes bits.
        shape = (3, 4)
        return [
            np.full(shape, 1.0),
            np.full(shape, 1e16),
            np.full(shape, -1e16),
            np.full(shape, 3.0),
        ]

    def test_kernel_and_superpose_agree_bitwise(self, mesh_system):
        times = np.array([0.0, 1e-10, 2e-10])
        blocks = self._blocks()
        dc = np.array([0.5, -0.25, 1e-3, 7.0])
        kernel = superpose_states(dc, [times] * len(blocks), blocks)
        via_superpose = superpose(
            dc,
            [TransientResult(mesh_system, times, b, SolverStats())
             for b in blocks],
        )
        assert via_superpose.states.tobytes() == kernel.tobytes()

    def test_sum_is_in_list_order(self):
        times = np.array([0.0, 1e-10, 2e-10])
        blocks = self._blocks()
        dc = np.zeros(4)
        expected = ((((dc + 1.0) + 1e16) - 1e16) + 3.0)
        got = superpose_states(dc, [times] * 4, blocks)
        assert np.array_equal(got, np.tile(expected, (3, 1)))
        # ... and the order matters on these blocks: a reversed sum
        # lands elsewhere, so an implementation that reassociates
        # (pairwise, sorted, BLAS-reduced) cannot pass both asserts.
        reordered = superpose_states(dc, [times] * 4, blocks[::-1])
        assert not np.array_equal(got, reordered)
