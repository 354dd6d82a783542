"""Unit tests for the distributed scheduler, node runner and executors."""

import numpy as np
import pytest

from repro.core import MatexSolver, SolverOptions
from repro.dist import (
    BlockNodeRunner,
    MatexScheduler,
    MultiprocessExecutor,
    SerialExecutor,
    SimulationTask,
)
from repro.core.decomposition import SourceGroup
from repro.linalg import exact_transient
from tests.scalar_oracle import run_task

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)


class TestScheduler:
    def test_matches_exact_solution(self, mesh_system):
        s = mesh_system
        t_end = 1e-9
        dres = MatexScheduler(s, OPTS, decomposition="bump").run(t_end)
        times, X = exact_transient(s, np.zeros(s.dim), t_end)
        assert np.allclose(dres.result.times, times)
        assert np.max(np.abs(dres.result.states - X)) < 1e-6

    def test_matches_single_node_solver(self, small_pdn_system):
        s = small_pdn_system
        t_end = 1e-9
        dres = MatexScheduler(s, OPTS, decomposition="bump").run(t_end)
        single = MatexSolver(s, OPTS).simulate(t_end)
        diff = np.abs(dres.result.states - single.states)
        assert diff.max() < 1e-6

    def test_bump_vs_source_decomposition_agree(self, mesh_system):
        s = mesh_system
        a = MatexScheduler(s, OPTS, decomposition="bump").run(1e-9)
        b = MatexScheduler(s, OPTS, decomposition="source").run(1e-9)
        assert a.n_nodes < b.n_nodes  # two sources share a shape
        assert np.max(np.abs(a.result.states - b.result.states)) < 1e-7

    def test_max_nodes_cap(self, mesh_system):
        sched = MatexScheduler(mesh_system, OPTS, decomposition="source",
                               max_nodes=2)
        assert len(sched.groups()) == 2
        dres = sched.run(1e-9)
        assert dres.n_nodes == 2

    def test_timing_fields(self, mesh_system):
        dres = MatexScheduler(mesh_system, OPTS).run(1e-9)
        assert dres.tr_matex == max(dres.node_transient_seconds)
        assert dres.tr_total >= dres.tr_matex
        assert dres.total_substitution_pairs >= dres.max_node_substitution_pairs

    def test_bad_decomposition_name(self, mesh_system):
        with pytest.raises(ValueError, match="unknown decomposition"):
            MatexScheduler(mesh_system, OPTS, decomposition="magic")

    def test_all_constant_inputs_rejected(self):
        from repro.circuit import Netlist, assemble

        net = Netlist("dc-only")
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_capacitor("C1", "a", "0", 1e-12)
        net.add_current_source("I1", "a", "0", 1e-3)
        system = assemble(net)
        with pytest.raises(ValueError, match="constant"):
            MatexScheduler(system, OPTS).run(1e-9)


class TestWorker:
    """One computing node = a :class:`BlockNodeRunner` fed one task."""

    def test_node_worker_runs_task(self, mesh_system):
        s = mesh_system
        runner = BlockNodeRunner(s, OPTS)
        gts = tuple(s.global_transition_spots(1e-9))
        task = SimulationTask(
            task_id=3,
            group=SourceGroup(group_id=3, label="g", input_columns=(1,)),
            t_end=1e-9,
            global_points=gts,
        )
        (result,) = runner.run([task])
        assert result.task_id == 3
        assert result.states.shape == (len(gts), s.dim)
        assert result.transient_seconds >= 0.0
        oracle = run_task(MatexSolver(s, OPTS, deviation_mode=True), task)
        assert np.abs(result.states.dense() - oracle.states).max() <= (
            1e-12 * np.abs(oracle.states).max()
        )
        assert result.stats.krylov_dims == oracle.stats.krylov_dims

    def test_worker_amortizes_factorization(self, mesh_system):
        runner = BlockNodeRunner(mesh_system, OPTS)
        f0 = runner.solver.factor_seconds
        gts = tuple(mesh_system.global_transition_spots(1e-9))
        for k in range(2):
            runner.run([SimulationTask(
                task_id=k,
                group=SourceGroup(group_id=k, label="", input_columns=(k,)),
                t_end=1e-9, global_points=gts,
            )])
        assert runner.solver.factor_seconds == f0  # no refactorisation


class TestExecutors:
    def test_serial_and_multiprocess_agree(self, mesh_system):
        s = mesh_system
        sched = MatexScheduler(s, OPTS, decomposition="bump")
        serial = sched.run(1e-9)
        mp = sched.run(
            1e-9, executor=MultiprocessExecutor(s, OPTS, max_workers=2)
        )
        assert np.allclose(serial.result.states, mp.result.states,
                           rtol=1e-12, atol=1e-15)

    def test_serial_executor_yields_in_order(self, mesh_system):
        s = mesh_system
        ex = SerialExecutor(s, OPTS)
        gts = tuple(s.global_transition_spots(1e-9))
        tasks = [
            SimulationTask(
                task_id=k,
                group=SourceGroup(group_id=k, label="", input_columns=(k,)),
                t_end=1e-9, global_points=gts,
            )
            for k in range(3)
        ]
        results = list(ex.run(tasks))
        assert [r.task_id for r in results] == [0, 1, 2]
