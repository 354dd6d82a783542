"""Executor-reuse robustness: a worker death must not poison a session.

The kill is injected the same way ``tests/test_executor_robustness.py``
does it — a scenario override whose waveform evaluation SIGKILLs the
evaluating worker process — so the real failure path runs: a persistent
pool breaks mid-sweep, the session surfaces the failure for that
scenario, the dead worker's shared-memory segments are swept, and the
**next** scenario transparently runs on a fresh pool.
"""

import os
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.circuit import Pulse
from repro.core import SolverOptions
from repro.dist import MatexScheduler, MultiprocessExecutor, RetryPolicy
from repro.dist.shm import shm_available
from repro.linalg.lu import FACTORIZATION_CACHE
from repro.plan import Scenario, Session, SimulationPlan
from repro.rom import RomAnswer, RomConfig

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
T_END = 1e-9


class SuicidalPulse(Pulse):
    """A pulse whose evaluation kills the evaluating process.

    Same timing parameters as the waveform it overrides, so scenario
    validation accepts it (the transition grid is preserved) — the task
    itself is the murder weapon.  Module-level so it pickles by
    reference into worker processes.
    """

    def values_array(self, times):
        os.kill(os.getpid(), signal.SIGKILL)

    def value(self, t):
        os.kill(os.getpid(), signal.SIGKILL)


def killer_scenario(system) -> Scenario:
    base = system.waveforms[0]
    bomb = SuicidalPulse(
        base.v1, base.v2, base.t_delay, base.t_rise,
        base.t_width, base.t_fall, t_period=base.t_period,
    )
    return Scenario("bomb", overrides={0: bomb})


@pytest.fixture
def compiled(mesh_system):
    return SimulationPlan(
        mesh_system, OPTS, t_end=T_END, batch="off"
    ).compile(prime=False)


def shm_entries(prefix: str) -> list[str]:
    base = Path("/dev/shm")
    if prefix is None or not base.is_dir():
        return []
    return [p.name for p in base.glob(f"{prefix}*")]


class TestSessionSurvivesWorkerDeath:
    def test_next_scenario_runs_on_a_fresh_pool(self, mesh_system, compiled):
        good = Scenario("good", scales={0: 1.1})
        with MultiprocessExecutor(mesh_system, OPTS, max_workers=2) as ex:
            first_pool = ex._pool
            assert first_pool is not None
            with Session(compiled, executor=ex) as session:
                with pytest.raises(BrokenProcessPool):
                    session.run(killer_scenario(mesh_system))
                # The broken pool was disposed...
                assert ex._pool is None
                # ...and the next scenario transparently gets a fresh one.
                res = session.run(good)
                assert ex._pool is not None
                assert ex._pool is not first_pool
            assert np.all(np.isfinite(res.result.states))
            cold = MatexScheduler(
                good.bind(mesh_system), OPTS
            ).run(T_END)
            assert (res.result.states.tobytes()
                    == cold.result.states.tobytes())

    def test_sweep_continues_after_mid_sweep_kill(
        self, mesh_system, compiled
    ):
        """Kill in scenario 2 of 3: 1 completed, 3 reruns cleanly."""
        scenarios = [
            Scenario("before", scales={0: 1.2}),
            killer_scenario(mesh_system),
            Scenario("after", scales={0: 0.8}),
        ]
        with MultiprocessExecutor(mesh_system, OPTS, max_workers=2) as ex:
            with Session(compiled, executor=ex) as session:
                before = session.run(scenarios[0])
                with pytest.raises(BrokenProcessPool):
                    session.run(scenarios[1])
                after = session.run(scenarios[2])
        for scenario, res in (("before", before), ("after", after)):
            assert np.all(np.isfinite(res.result.states)), scenario

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory needed")
    def test_dead_workers_segments_are_swept(self, mesh_system, compiled):
        """The shm prefix sweep reclaims whatever the massacre left."""
        with MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2
        ) as ex:
            prefix = ex._prefix
            assert prefix is not None
            with Session(compiled, executor=ex) as session:
                with pytest.raises(BrokenProcessPool):
                    session.run(killer_scenario(mesh_system))
                # Completed-but-unconsumed segments of the failed batch
                # (and anything the dead worker allocated) are gone.
                assert shm_entries(prefix) == []
                # The replacement pool gets its own namespace.
                session.run(Scenario("good", scales={0: 1.1}))
                assert ex._prefix is not None
                assert ex._prefix != prefix
            assert shm_entries(ex._prefix) == []

    def test_persistent_pool_amortises_worker_state(
        self, mesh_system, compiled
    ):
        """Scenario 2+ must not refactor anything inside the workers."""
        FACTORIZATION_CACHE.clear()
        scenarios = [
            Scenario(f"p{i}", scales={0: 1.0 + 0.1 * i}) for i in range(3)
        ]
        # One worker: every task lands on the same (warm) process, so
        # the zero-misses assertion is deterministic.
        with MultiprocessExecutor(mesh_system, OPTS, max_workers=1) as ex:
            with Session(compiled, executor=ex) as session:
                results = session.sweep(scenarios, stack=1)
        first, *rest = results
        # First scenario pays each worker process's construction...
        assert sum(s.n_factor_cache_misses for s in first.node_stats) >= 1
        # ...and the persistent pool serves every later scenario warm.
        for res in rest:
            assert sum(s.n_factor_cache_misses for s in res.node_stats) == 0

    def test_session_close_releases_owned_executor(self, compiled):
        session = Session(compiled)
        res = session.run()
        assert np.all(np.isfinite(res.result.states))
        assert session.executor._runner is not None
        session.close()
        assert session.executor._runner is None


class RejectEverySecond:
    """Duck-typed reduced model: rejects every second consultation, so a
    sweep interleaves reduced answers with full-order fallbacks."""

    def __init__(self, model):
        self._model = model
        self._calls = 0
        self.dim = model.dim
        self.grid = model.grid
        self.n_points = model.n_points

    def input_matrix(self, scenario, bound):
        return self._model.input_matrix(scenario, bound)

    def answer(self, U):
        ans = self._model.answer(U)
        self._calls += 1
        if self._calls % 2 == 0:
            return RomAnswer(
                states=ans.states, bound_abs=ans.bound_abs,
                bound_rel=1.0, accepted=False, seconds=ans.seconds,
            )
        return ans


class TestRomFallbackSurvivesWorkerDeath:
    """ISSUE-8 satellite: a worker SIGKILLed during ``_sweep_rom``'s
    stacked full-order fallback must not corrupt the splice — ordering
    and bytes stay identical to the fault-free sweep."""

    def test_spliced_fallbacks_heal_bit_identically(
        self, mesh_system, tmp_path
    ):
        compiled = SimulationPlan(
            mesh_system, OPTS, t_end=T_END, batch="off"
        ).compile(prime=False, rom=RomConfig(tol=0.9))
        assert compiled.rom is not None, compiled.rom_error
        names = [f"s{i}" for i in range(5)]
        scenarios = [
            Scenario(name=nm, scales={0: 1.0 + 0.05 * i})
            for i, nm in enumerate(names)
        ]

        # Fault-free reference sweep (its own stateful reject pattern).
        with Session(
            replace(compiled, rom=RejectEverySecond(compiled.rom))
        ) as session:
            reference = session.sweep(scenarios)
            assert session.rom_fallbacks == 2

        # Same sweep, with the fallback chunk's first task killing its
        # pool worker once; the supervised executor retries the batch.
        faults.install("kill@0", str(tmp_path / "faults"))
        try:
            rigged = replace(compiled, rom=RejectEverySecond(compiled.rom))
            retry = RetryPolicy(max_retries=2, backoff=0.0, jitter=0.0)
            with MultiprocessExecutor(
                mesh_system, OPTS, max_workers=2, retry=retry
            ) as ex:
                with Session(rigged, executor=ex) as session:
                    faulted = session.sweep(scenarios)
                    assert session.rom_fallbacks == 2
        finally:
            faults.uninstall()

        assert ex.supervision.retries == 1
        assert faults.FaultPlan.parse(
            "kill@0", str(tmp_path / "faults")
        ).fired() == ["000.kill@0"]
        # The splice preserves input order and the fallback pattern...
        assert [r.scenario for r in faulted] == names
        assert [r.rom_fallback for r in faulted] == [
            r.rom_fallback for r in reference
        ] == [False, True, False, True, False]
        # ...and every trajectory, reduced or replayed, is bit-identical.
        for ref, got in zip(reference, faulted):
            assert (got.result.states.tobytes()
                    == ref.result.states.tobytes()), got.scenario
        # The retry rides on the fallback chunk's first result.
        assert sum(r.retries for r in faulted) == 1
