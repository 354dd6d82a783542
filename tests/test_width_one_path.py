"""Per-node execution is the block runner at width 1.

``batch="off"`` / ``batch_width=None`` used to select a second code path
(one ``MatexSolver.simulate`` march per task); it now resolves to
lockstep width 1 in one place.  These tests cover what the old twin
covered implicitly: the width mapping, the shape of what a width-1 pool
returns, degenerate inputs (no tasks, one task), per-task timing and
cache accounting, and decision-for-decision parity with the scalar
oracle (states inside its calibrated round-off budget: it is a
tolerance oracle) on a run that rebuilds bases at snapshots.
"""

import time

import pytest

from repro.core import SolverOptions
from repro.dist import (
    MatexScheduler,
    MultiprocessExecutor,
    SerialExecutor,
    executors,
)
from repro.dist.executors import _resolve_batch_width
from repro.linalg.lu import FACTORIZATION_CACHE
from repro.plan import Scenario, Session, SimulationPlan
from tests.conftest import ScalarOracleExecutor
from tests.scalar_oracle import oracle_spread
from tests.test_block_runner import (
    assert_matches_oracle,
    assert_results_identical,
    tasks_for,
)
from tests.test_golden_digests import (
    CASES,
    assert_oracle_agrees,
    recorded_spread,
)

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
T_END = 1e-9


class TestWidthPolicy:
    def test_off_and_none_are_width_one(self):
        for policy in (None, "off", 1):
            assert _resolve_batch_width(policy, 100) == 1
        assert _resolve_batch_width("auto", 100) == 100
        assert _resolve_batch_width("auto", 0) == 1
        assert _resolve_batch_width(7, 100) == 7

    @pytest.mark.parametrize("bad", [0, -3, "sideways"])
    def test_bad_widths_are_rejected(self, bad):
        with pytest.raises(ValueError):
            _resolve_batch_width(bad, 10)


class TestWidthOnePool:
    @pytest.mark.parametrize("channel", ["auto", "pickle"])
    def test_per_task_pool_returns_per_node_trajectories(
        self, mesh_system, channel, monkeypatch
    ):
        """Width 1 never holds a whole multi-node scenario, so nothing
        is superposed in a worker: one full trajectory per task."""
        if channel == "pickle":
            monkeypatch.setattr(executors, "shm_available", lambda: False)
        compiled = SimulationPlan(
            mesh_system, OPTS, t_end=T_END, decomposition="source",
            batch="off",
        ).compile(prime=False)
        assert compiled.n_nodes > 1
        session = Session(compiled)
        tasks = session._scenario_tasks(0, None)
        serial = SerialExecutor(mesh_system, OPTS).run(tasks)
        pooled = MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, batch_width=None,
        ).run(tasks, [compiled.x_dc])
        assert not any(r.covers for r in pooled)
        assert all(
            r.states.shape == (len(compiled.global_points), mesh_system.dim)
            for r in pooled
        )
        assert_results_identical(serial, pooled)

    def test_session_over_a_per_task_pool_equals_serial(self, mesh_system):
        compiled = SimulationPlan(
            mesh_system, OPTS, t_end=T_END, batch="off"
        ).compile(prime=False)
        scenarios = [Scenario("hot", scales={0: 1.3}), None]
        with Session(compiled) as session:
            reference = session.sweep(scenarios)
        with MultiprocessExecutor(mesh_system, OPTS, max_workers=2) as ex:
            with Session(compiled, executor=ex) as session:
                pooled = session.sweep(scenarios)
        for ref, got in zip(reference, pooled):
            assert (got.result.states.tobytes()
                    == ref.result.states.tobytes())


class TestDegenerateSubmissions:
    @pytest.mark.parametrize("width", [None, "off", 1])
    def test_empty_task_list_builds_nothing(self, mesh_system, width):
        ex = SerialExecutor(mesh_system, OPTS, batch_width=width)
        assert ex.run([]) == []
        assert ex._runner is None  # no solver was constructed for it
        pool = MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, batch_width=width
        )
        assert pool.run([]) == []

    @pytest.mark.parametrize("width", [None, "off", 1, "auto"])
    def test_single_task_plan(self, mesh_system, width):
        """max_nodes=1 merges every group into one node task."""
        def oracle():
            return MatexScheduler(mesh_system, OPTS, max_nodes=1).run(
                T_END, executor=ScalarOracleExecutor(mesh_system, OPTS)
            )

        ref = oracle()
        assert ref.n_nodes == 1
        got = MatexScheduler(mesh_system, OPTS, max_nodes=1).run(
            T_END,
            executor=SerialExecutor(mesh_system, OPTS, batch_width=width),
        )
        assert_oracle_agrees(
            ref, got, oracle_spread(lambda: oracle().result.states)
        )
        pooled = MatexScheduler(mesh_system, OPTS, max_nodes=1).run(
            T_END,
            executor=MultiprocessExecutor(
                mesh_system, OPTS, max_workers=2, batch_width=width
            ),
        )
        assert pooled.result.states.tobytes() == got.result.states.tobytes()


class TestPerTaskAccounting:
    def test_transient_seconds_is_each_tasks_own_march(self, mesh_system):
        """No apportioning at width 1: the per-task times are disjoint
        slices of the run's wall clock, and ``tr_matex`` is their max."""
        sched = MatexScheduler(mesh_system, OPTS, decomposition="source")
        sched.run(T_END)  # warm the factor cache
        t0 = time.perf_counter()
        dres = sched.run(T_END)
        wall = time.perf_counter() - t0
        seconds = dres.node_transient_seconds
        assert len(seconds) == dres.n_nodes > 1
        assert all(s > 0.0 for s in seconds)
        assert sum(seconds) <= wall
        assert dres.tr_matex == max(seconds)

    def test_construction_cache_traffic_charged_once(self, mesh_system):
        """One runner serves every width-1 chunk; only the first result
        of its first chunk carries the construction-time cache traffic."""
        FACTORIZATION_CACHE.clear()
        tasks = tasks_for(mesh_system, decomposition="source")
        ex = SerialExecutor(mesh_system, OPTS)
        first = ex.run(tasks)
        traffic = [
            r.stats.n_factor_cache_hits + r.stats.n_factor_cache_misses
            for r in first
        ]
        assert traffic[0] >= 1 and not any(traffic[1:])
        again = ex.run(tasks)
        assert not any(
            r.stats.n_factor_cache_hits + r.stats.n_factor_cache_misses
            for r in again
        )


class TestRebuildParity:
    def test_every_counter_matches_the_oracle_through_rebuilds(self):
        """Per task, not just in sum: a run whose snapshots regenerate
        bases (RLC, loose γ) keeps every SolverStats decision counter
        (all but the ETD pairs, which the oracle counts per segment)."""
        system, opts, t_end, _ = CASES["rlc-rebuild"]()
        compiled = SimulationPlan(
            system, opts, t_end=t_end, batch="off"
        ).compile(prime=False)
        tasks = Session(compiled)._scenario_tasks(0, None)
        oracle = ScalarOracleExecutor(system, opts).run(tasks)
        n_lts = [sum(s.is_lts[:-1]) for s in compiled.schedules]
        rebuilds = [
            r.stats.n_krylov_bases - k for r, k in zip(oracle, n_lts)
        ]
        assert sum(rebuilds) >= 10 and max(rebuilds) >= 2
        reference = SerialExecutor(system, opts, batch_width="auto").run(tasks)
        for width in (None, 1, 3):
            got = SerialExecutor(system, opts, batch_width=width).run(tasks)
            # Per task the round-off shows larger than on the 1.8 V
            # superposed response: a node's deviation is ≈ 10-40 mV, its
            # loose-γ Krylov terms ≈ 9× that, and each rebuilt basis
            # starts from a carried state that already differs in the
            # last ulp (worst task 3e-11; posterior budget 1e-6).
            assert_matches_oracle(
                oracle, got, recorded_spread("rlc-rebuild"), rtol=1e-10
            )
            assert_results_identical(got, reference)
