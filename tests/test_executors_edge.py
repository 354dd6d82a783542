"""Executor edge cases beyond the core distributed tests.

Covers the operational corners of the executor contract: exceptions
raised inside worker processes must surface to the caller, a one-worker
pool must be bit-identical to the serial emulation, and degenerate
(empty / single-group) schedules must behave.
"""

import numpy as np
import pytest

from repro.circuit import Netlist, Pulse, assemble
from repro.core import SolverOptions
from repro.core.decomposition import SourceGroup
from repro.dist import (
    MatexScheduler,
    MultiprocessExecutor,
    SerialExecutor,
    SimulationTask,
)

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)


def bad_column_task(system, t_end=1e-9):
    """A task whose group points at a non-existent input column."""
    return SimulationTask(
        task_id=0,
        group=SourceGroup(group_id=0, label="bad",
                          input_columns=(system.n_inputs + 5,)),
        t_end=t_end,
        global_points=tuple(system.global_transition_spots(t_end)),
    )


class TestExceptionPropagation:
    def test_multiprocess_propagates_worker_exception(self, mesh_system):
        ex = MultiprocessExecutor(mesh_system, OPTS, max_workers=2)
        with pytest.raises(IndexError):
            ex.run([bad_column_task(mesh_system)])

    def test_serial_propagates_worker_exception(self, mesh_system):
        ex = SerialExecutor(mesh_system, OPTS)
        with pytest.raises(IndexError):
            ex.run([bad_column_task(mesh_system)])

    def test_multiprocess_pool_usable_after_failure(self, mesh_system):
        """A failed run must not poison subsequent runs."""
        ex = MultiprocessExecutor(mesh_system, OPTS, max_workers=2)
        with pytest.raises(IndexError):
            ex.run([bad_column_task(mesh_system)])
        sched = MatexScheduler(mesh_system, OPTS, decomposition="bump")
        dres = sched.run(1e-9, executor=ex)
        assert dres.n_nodes >= 1


class TestSingleWorkerEquivalence:
    def test_one_worker_pool_matches_serial(self, mesh_system):
        sched = MatexScheduler(mesh_system, OPTS, decomposition="bump")
        serial = sched.run(1e-9)
        mp1 = sched.run(
            1e-9, executor=MultiprocessExecutor(mesh_system, OPTS,
                                                max_workers=1)
        )
        assert mp1.n_nodes == serial.n_nodes
        np.testing.assert_allclose(mp1.result.states, serial.result.states,
                                   rtol=1e-12, atol=1e-15)
        assert (mp1.total_substitution_pairs
                == serial.total_substitution_pairs)

    def test_max_workers_validation(self, mesh_system):
        with pytest.raises(ValueError, match="max_workers"):
            MultiprocessExecutor(mesh_system, OPTS, max_workers=0)


class TestDegenerateSchedules:
    def test_empty_task_list_serial(self, mesh_system):
        assert SerialExecutor(mesh_system, OPTS).run([]) == []

    def test_empty_task_list_multiprocess(self, mesh_system):
        ex = MultiprocessExecutor(mesh_system, OPTS, max_workers=2)
        assert ex.run([]) == []

    def test_empty_run_builds_no_worker(self, mesh_system):
        """The serial emulation must not pay a factorisation for nothing."""
        ex = SerialExecutor(mesh_system, OPTS)
        ex.run([])
        assert ex._runner is None

    @pytest.fixture
    def single_source_system(self):
        net = Netlist("one-source")
        for i in range(4):
            net.add_resistor(f"R{i}", "0" if i == 0 else f"n{i}",
                             f"n{i + 1}", 1.0)
            net.add_capacitor(f"C{i}", f"n{i + 1}", "0", 1e-13)
        net.add_current_source(
            "I0", "n4", "0", Pulse(0.0, 1e-3, 1e-10, 2e-11, 1e-10, 2e-11)
        )
        return assemble(net)

    def test_single_group_schedule(self, single_source_system):
        from repro.core import MatexSolver

        s = single_source_system
        sched = MatexScheduler(s, OPTS, decomposition="bump")
        assert len(sched.groups()) == 1
        dres = sched.run(1e-9)
        assert dres.n_nodes == 1
        assert dres.total_substitution_pairs == dres.max_node_substitution_pairs
        single = MatexSolver(s, OPTS).simulate(1e-9)
        assert np.max(np.abs(dres.result.states - single.states)) < 1e-8

    def test_single_group_multiprocess(self, single_source_system):
        s = single_source_system
        sched = MatexScheduler(s, OPTS, decomposition="bump")
        serial = sched.run(1e-9)
        mp = sched.run(
            1e-9, executor=MultiprocessExecutor(s, OPTS, max_workers=2)
        )
        np.testing.assert_allclose(mp.result.states, serial.result.states,
                                   rtol=1e-12, atol=1e-15)
