"""Distributed robustness: killed workers, per-process caches, empty runs.

The kill test works by injecting a waveform override whose evaluation
SIGKILLs the worker process — the task itself is the murder weapon, so
the test exercises the real failure path (a node dying mid-simulation)
rather than a mocked pool.
"""

import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.circuit import Pulse
from repro.core import SolverOptions, TransientResult
from repro.core.decomposition import SourceGroup
from repro.core.stats import SolverStats
from repro.dist import (
    DistributedResult,
    MatexScheduler,
    MultiprocessExecutor,
    SerialExecutor,
    SimulationTask,
)
from repro.dist.messages import NodeResult
from repro.dist.shm import (
    ShmArrayRef,
    ShmAttachError,
    cleanup_segments,
    from_shared,
    new_segment_prefix,
    shm_available,
    to_shared,
)
from repro.linalg.lu import FACTORIZATION_CACHE

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)


class SuicidalPulse(Pulse):
    """A pulse whose evaluation kills the evaluating process.

    Module-level so it pickles by reference into worker processes.
    """

    def values_array(self, times):
        os.kill(os.getpid(), signal.SIGKILL)

    def value(self, t):
        os.kill(os.getpid(), signal.SIGKILL)


def killer_task(system, t_end=1e-9):
    """A task whose input evaluation SIGKILLs the worker mid-run."""
    bomb = SuicidalPulse(0.0, 1e-3, 1e-10, 2e-11, 1e-10, 2e-11)
    return SimulationTask(
        task_id=0,
        group=SourceGroup(
            group_id=0, label="bomb", input_columns=(0,),
            waveform_overrides=((0, bomb),),
        ),
        t_end=t_end,
        global_points=tuple(system.global_transition_spots(t_end)),
    )


def good_task(system, task_id=0, column=0, t_end=1e-9):
    return SimulationTask(
        task_id=task_id,
        group=SourceGroup(group_id=task_id, label="ok",
                          input_columns=(column,)),
        t_end=t_end,
        global_points=tuple(system.global_transition_spots(t_end)),
    )


class TestWorkerKilledMidTask:
    def test_kill_surfaces_as_broken_pool(self, mesh_system):
        ex = MultiprocessExecutor(mesh_system, OPTS, max_workers=2)
        with pytest.raises(BrokenProcessPool):
            ex.run([killer_task(mesh_system)])

    def test_executor_usable_after_kill(self, mesh_system):
        """Pools are per-run, so a massacre must not poison the next run."""
        ex = MultiprocessExecutor(mesh_system, OPTS, max_workers=2)
        with pytest.raises(BrokenProcessPool):
            ex.run([killer_task(mesh_system)])
        results = ex.run([good_task(mesh_system, 0, 0),
                          good_task(mesh_system, 1, 1)])
        assert [r.task_id for r in results] == [0, 1]
        assert all(np.all(np.isfinite(r.states)) for r in results)


def shm_result(task_id: int, prefix: str) -> NodeResult:
    """A small NodeResult whose states live in a fresh shared segment."""
    return to_shared(
        NodeResult(
            task_id=task_id, group_id=task_id, label="shm",
            times=np.array([0.0, 1e-10]),
            states=np.arange(8.0).reshape(2, 4) + task_id,
        ),
        prefix,
    )


@pytest.mark.skipif(not shm_available(), reason="POSIX shared memory needed")
class TestShmDoubleAttach:
    """A ShmArrayRef is single-use: re-delivery must fail loudly, not leak.

    The retry-after-pool-failure path can hand the parent the same
    pickled ref twice; the first attach unlinks the segment name, so the
    second used to crash with a bare ``FileNotFoundError`` deep inside
    ``shared_memory`` — and left every *other* segment of the run alive.
    """

    def test_rehydrated_result_is_idempotent(self):
        prefix = new_segment_prefix()
        try:
            shared = shm_result(0, prefix)
            first = from_shared(shared)
            again = from_shared(first)  # plain-array states: no-op
            assert again is first
            np.testing.assert_array_equal(
                first.states, np.arange(8.0).reshape(2, 4)
            )
        finally:
            cleanup_segments(prefix)

    def test_second_attach_raises_clear_error(self):
        prefix = new_segment_prefix()
        try:
            shared = shm_result(0, prefix)
            assert isinstance(shared.states, ShmArrayRef)
            from_shared(shared)
            with pytest.raises(ShmAttachError,
                               match="cannot be rehydrated twice"):
                from_shared(shared)
        finally:
            cleanup_segments(prefix)

    def test_attach_failure_sweeps_sibling_segments(self):
        """A failed attach must not strand the run's other segments."""
        prefix = new_segment_prefix()
        try:
            dup = shm_result(0, prefix)
            sibling = shm_result(1, prefix)
            assert dup.states.run_prefix() == prefix
            from_shared(dup)
            with pytest.raises(ShmAttachError):
                from_shared(dup)  # sweeps the whole prefix
            # The sibling's segment was reclaimed by the sweep.
            with pytest.raises(ShmAttachError):
                from_shared(sibling)
        finally:
            cleanup_segments(prefix)


class TestCacheProcessScope:
    def test_serial_run_shares_the_scheduler_cache(self, mesh_system):
        """In-process workers hit the cache the scheduler's DC primed."""
        FACTORIZATION_CACHE.clear()
        dres = MatexScheduler(mesh_system, OPTS).run(1e-9)
        assert dres.factor_cache_hits >= 1
        # DC's G + the worker's G are one entry; C+γG is the other.
        assert len(FACTORIZATION_CACHE) == 2

    def test_multiprocess_workers_keep_their_own_cache(self, mesh_system):
        """Child factorisations never land in the parent's cache."""
        FACTORIZATION_CACHE.clear()
        dres = MatexScheduler(mesh_system, OPTS).run(
            1e-9,
            executor=MultiprocessExecutor(mesh_system, OPTS, max_workers=2),
        )
        # Parent cache only ever saw the scheduler's DC factorisation.
        assert len(FACTORIZATION_CACHE) == 1
        hits, misses = FACTORIZATION_CACHE.counters()
        assert misses == 1
        # Worker-side traffic is still reported — through the node stats.
        assert (dres.factor_cache_misses
                == 1 + sum(s.n_factor_cache_misses for s in dres.node_stats))

    def test_serial_warm_run_refactors_nothing(self, mesh_system):
        FACTORIZATION_CACHE.clear()
        sched = MatexScheduler(mesh_system, OPTS)
        sched.run(1e-9)
        warm = sched.run(1e-9)  # new SerialExecutor, new width-1 runner
        assert warm.factor_cache_misses == 0
        assert warm.factor_cache_hits >= 3  # DC G + runner G + C+γG


class TestEmptyDistributedResult:
    def _empty(self, system) -> DistributedResult:
        trivial = TransientResult(
            system=system,
            times=np.array([0.0]),
            states=np.zeros((1, system.dim)),
            stats=SolverStats(),
            method="empty",
        )
        return DistributedResult(
            result=trivial, n_nodes=0, node_stats=(),
            dc_seconds=1e-3, factor_seconds=0.0, superpose_seconds=0.0,
        )

    def test_empty_schedule_roundtrips_through_pickle(self, mesh_system):
        dres = self._empty(mesh_system)
        clone = pickle.loads(pickle.dumps(dres))
        assert clone.n_nodes == 0
        assert clone.node_stats == ()
        np.testing.assert_array_equal(clone.result.times, [0.0])

    def test_empty_schedule_properties_are_safe(self, mesh_system):
        dres = self._empty(mesh_system)
        assert dres.tr_matex == 0.0
        assert dres.tr_total == pytest.approx(1e-3)
        assert dres.total_substitution_pairs == 0
        assert dres.max_node_substitution_pairs == 0
        assert dres.node_transient_seconds == []

    def test_empty_task_lists_still_return_empty(self, mesh_system):
        assert SerialExecutor(mesh_system, OPTS).run([]) == []
        ex = MultiprocessExecutor(mesh_system, OPTS, max_workers=2)
        assert ex.run([]) == []
