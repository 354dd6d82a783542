"""Fault-injection subsystem tests (repro.faults + its dist hooks).

Covers the ISSUE-8 contracts:

* the ``kind@task[:arg]`` grammar parses eagerly and rejects typos with
  :class:`~repro.faults.FaultError`,
* every directive fires exactly once per plan state — atomically across
  processes, with repeated directives firing on successive deliveries,
* ``kill`` is only armed inside disposable pool workers (a degraded
  in-process rerun never shoots the host),
* ``evict`` empties the process-wide factorisation cache,
* ``shmfail`` drives the *real* :class:`~repro.dist.shm.ShmAttachError`
  path (the segment is unlinked under the ref),
* ``delay``/``evict`` fire once per task on **every** run path — serial
  at width 1, serial ``"auto"``, and the in-process rerun of a degraded
  pool (the executors share one hook, ``_march_chunk``),
* an injected worker kill heals under a
  :class:`~repro.dist.supervision.RetryPolicy` bit-identically,
* the atexit/SIGTERM sweep reclaims the run's shm segments.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro import faults
from repro.core import SolverOptions
from repro.dist import MultiprocessExecutor, RetryPolicy, SerialExecutor
from repro.dist.shm import shm_available
from repro.linalg.lu import FACTORIZATION_CACHE
from repro.plan import Scenario, Session, SimulationPlan

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
T_END = 1e-9


@pytest.fixture(autouse=True)
def clean_fault_env():
    """Every test starts and ends with ambient fault injection off."""
    faults.uninstall()
    yield
    faults.uninstall()


class TestGrammar:
    def test_single_directive(self, tmp_path):
        plan = faults.FaultPlan.parse("kill@3", str(tmp_path))
        (spec,) = plan.specs
        assert (spec.index, spec.kind, spec.task_id) == (0, "kill", 3)
        assert spec.marker == "000.kill@3"

    def test_full_spec_parses_in_order(self, tmp_path):
        plan = faults.FaultPlan.parse(
            "kill@0, delay@2:0.5 ,shmfail@1,evict@4", str(tmp_path)
        )
        assert [str(s) for s in plan.specs] == [
            "kill@0", "delay@2:0.5", "shmfail@1", "evict@4",
        ]
        assert plan.specs[1].arg == 0.5

    def test_repeated_directives_get_distinct_markers(self, tmp_path):
        plan = faults.FaultPlan.parse("kill@0,kill@0", str(tmp_path))
        assert plan.specs[0].marker != plan.specs[1].marker

    @pytest.mark.parametrize("bad", [
        "",                    # empty spec
        "kill@0,,kill@1",      # empty directive
        "explode@0",           # unknown kind
        "kill",                # missing @task
        "kill@-1",             # negative task id
        "kill@x",              # non-integer task id
        "delay@0",             # delay without seconds
        "delay@0:0",           # delay must be positive
        "delay@0:nope",        # delay seconds must parse
        "kill@0:1",            # only delay takes an arg
    ])
    def test_bad_specs_raise_fault_error(self, bad, tmp_path):
        with pytest.raises(faults.FaultError):
            faults.FaultPlan.parse(bad, str(tmp_path))


class TestFireOnce:
    def test_shmfail_fires_exactly_once(self, tmp_path):
        plan = faults.FaultPlan.parse("shmfail@7", str(tmp_path))
        assert plan.should_fail_attach(7) is True
        assert plan.should_fail_attach(7) is False
        assert plan.fired() == ["000.shmfail@7"]

    def test_unarmed_task_never_fails(self, tmp_path):
        plan = faults.FaultPlan.parse("shmfail@7", str(tmp_path))
        assert plan.should_fail_attach(6) is False
        assert plan.fired() == []

    def test_repeated_directives_fire_on_successive_deliveries(
        self, tmp_path
    ):
        plan = faults.FaultPlan.parse("shmfail@1,shmfail@1", str(tmp_path))
        assert plan.should_fail_attach(1) is True
        assert plan.should_fail_attach(1) is True
        assert plan.should_fail_attach(1) is False
        assert plan.fired() == ["000.shmfail@1", "001.shmfail@1"]

    def test_state_is_shared_across_plan_objects(self, tmp_path):
        """Two parses of the same (spec, state) — as in two processes —
        contend for the same markers."""
        a = faults.FaultPlan.parse("shmfail@1", str(tmp_path))
        b = faults.FaultPlan.parse("shmfail@1", str(tmp_path))
        assert a.should_fail_attach(1) is True
        assert b.should_fail_attach(1) is False

    def test_reset_rearms(self, tmp_path):
        plan = faults.FaultPlan.parse("shmfail@1", str(tmp_path))
        assert plan.should_fail_attach(1) is True
        plan.reset()
        assert plan.fired() == []
        assert plan.should_fail_attach(1) is True

    def test_delay_sleeps_once(self, tmp_path):
        plan = faults.FaultPlan.parse("delay@0:0.05", str(tmp_path))
        t0 = time.monotonic()
        plan.on_task_start(0)
        first = time.monotonic() - t0
        t0 = time.monotonic()
        plan.on_task_start(0)
        second = time.monotonic() - t0
        assert first >= 0.05
        assert second < 0.05

    def test_kill_is_disarmed_outside_worker_processes(self, tmp_path):
        """The host survives — and the directive stays armed for a real
        worker (the marker must not be burned by the parent)."""
        assert not faults.in_worker_process()
        plan = faults.FaultPlan.parse("kill@0", str(tmp_path))
        plan.on_task_start(0)  # would SIGKILL us if armed
        assert plan.fired() == []

    def test_evict_clears_the_factor_cache(self, tmp_path):
        FACTORIZATION_CACHE.clear()
        FACTORIZATION_CACHE.factor(
            sp.eye(4, format="csc"), label="fault-test"
        )
        assert len(FACTORIZATION_CACHE) >= 1
        plan = faults.FaultPlan.parse("evict@2", str(tmp_path))
        plan.on_task_start(2)
        assert len(FACTORIZATION_CACHE) == 0
        assert plan.fired() == ["000.evict@2"]


class TestAmbientActivation:
    def test_inactive_without_env(self):
        assert faults.active_plan() is None
        # The module-level shims are no-ops.
        faults.on_task_start(0)
        assert faults.should_fail_attach(0) is False

    def test_install_exports_env_and_resets_state(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "000.kill@0").touch()  # stale marker from a prior run
        plan = faults.install("kill@0", str(state))
        assert os.environ[faults.ENV_SPEC] == "kill@0"
        assert os.environ[faults.ENV_STATE] == str(state)
        assert plan.fired() == []
        assert faults.active_plan() is plan

    def test_uninstall_deactivates(self, tmp_path):
        faults.install("kill@0", str(tmp_path))
        faults.uninstall()
        assert faults.active_plan() is None

    def test_install_rejects_bad_spec(self, tmp_path):
        with pytest.raises(faults.FaultError):
            faults.install("explode@0", str(tmp_path))


def _compile(system):
    return SimulationPlan(
        system, OPTS, t_end=T_END, batch="off"
    ).compile(prime=False)


class TestInjectedFaultsHeal:
    """End-to-end: injected faults + RetryPolicy = bit-identical results."""

    def test_worker_kill_heals_bit_identically(self, mesh_system, tmp_path):
        compiled = _compile(mesh_system)
        scenario = Scenario("hot", scales={0: 1.3})
        with Session(compiled) as session:
            reference = session.run(scenario)

        faults.install("kill@0", str(tmp_path / "faults"))
        retry = RetryPolicy(max_retries=2, backoff=0.0, jitter=0.0)
        with MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, retry=retry
        ) as ex:
            with Session(compiled, executor=ex) as session:
                healed = session.run(scenario)
        assert ex.supervision.retries == 1
        assert ex.supervision.pool_failures == 1
        assert healed.retries == 1
        assert (healed.result.states.tobytes()
                == reference.result.states.tobytes())
        assert faults.active_plan().fired() == ["000.kill@0"]

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory needed")
    def test_shm_attach_failure_heals_bit_identically(
        self, mesh_system, tmp_path
    ):
        compiled = _compile(mesh_system)
        scenario = Scenario("hot", scales={0: 1.3})
        with Session(compiled) as session:
            reference = session.run(scenario)

        faults.install("shmfail@0", str(tmp_path / "faults"))
        retry = RetryPolicy(max_retries=2, backoff=0.0, jitter=0.0)
        with MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, retry=retry
        ) as ex:
            with Session(compiled, executor=ex) as session:
                healed = session.run(scenario)
            # The failed batch's namespace was swept with the pool.
            leftovers = list(Path("/dev/shm").glob("repro*"))
        assert ex.supervision.retries == 1
        assert (healed.result.states.tobytes()
                == reference.result.states.tobytes())
        assert faults.active_plan().fired() == ["000.shmfail@0"]
        assert leftovers == []

    def test_kill_without_retry_policy_still_raises(
        self, mesh_system, tmp_path
    ):
        """retry=None keeps the historical raise-through contract."""
        from concurrent.futures.process import BrokenProcessPool

        compiled = _compile(mesh_system)
        faults.install("kill@0", str(tmp_path / "faults"))
        with MultiprocessExecutor(mesh_system, OPTS, max_workers=2) as ex:
            with Session(compiled, executor=ex) as session:
                with pytest.raises(BrokenProcessPool):
                    session.run(Scenario("hot", scales={0: 1.3}))
                # The fault fired once; the rerun heals by exhaustion.
                res = session.run(Scenario("hot", scales={0: 1.3}))
        assert np.all(np.isfinite(res.result.states))

    def test_serial_executor_ignores_kill_faults(
        self, mesh_system, tmp_path
    ):
        """In-process execution is never shot (kill disarms in the host)."""
        compiled = _compile(mesh_system)
        faults.install("kill@0", str(tmp_path / "faults"))
        with SerialExecutor(mesh_system, OPTS) as ex:
            with Session(compiled, executor=ex) as session:
                res = session.run()
        assert np.all(np.isfinite(res.result.states))
        assert faults.active_plan().fired() == []


class TestHooksOnEveryRunPath:
    """``on_task_start`` fires per task wherever a chunk marches.

    The serial lockstep path used to call ``runner.run(chunk)`` without
    the hook, so ``delay@N``/``evict@N`` silently never fired under
    ``SerialExecutor(batch_width="auto")`` — which is also what a
    degraded pool falls back to.
    """

    SPEC = "kill@0,evict@0,delay@0:0.01"
    NON_LETHAL = ["001.evict@0", "002.delay@0"]

    @pytest.mark.parametrize("width", [None, "off", 1, "auto"])
    def test_serial_fires_non_lethal_faults_only(
        self, mesh_system, tmp_path, width
    ):
        compiled = _compile(mesh_system)
        with Session(compiled) as session:
            reference = session.run()
        plan = faults.install(self.SPEC, str(tmp_path / "faults"))
        with SerialExecutor(mesh_system, OPTS, batch_width=width) as ex:
            with Session(compiled, executor=ex) as session:
                res = session.run()
        # kill@0 is disarmed in the host — and not burned either.
        assert plan.fired() == self.NON_LETHAL
        assert (res.result.states.tobytes()
                == reference.result.states.tobytes())

    @pytest.mark.parametrize("width", [None, "auto"])
    def test_degraded_pool_rerun_fires_them_in_process(
        self, mesh_system, tmp_path, width
    ):
        """The worker dies on ``kill@0`` before reaching the directives
        behind it; the in-process rerun then fires those, not the kill."""
        compiled = _compile(mesh_system)
        with Session(compiled) as session:
            reference = session.run()
        plan = faults.install(self.SPEC, str(tmp_path / "faults"))
        retry = RetryPolicy(backoff=0.0, jitter=0.0, degrade_after=1)
        with MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, batch_width=width, retry=retry
        ) as ex:
            with Session(compiled, executor=ex) as session:
                with pytest.warns(RuntimeWarning, match="degrading"):
                    res = session.run()
        assert ex.supervision.degraded_runs == 1
        assert plan.fired() == ["000.kill@0"] + self.NON_LETHAL
        assert (res.result.states.tobytes()
                == reference.result.states.tobytes())

    def test_hook_fires_once_per_task_before_its_chunk(
        self, mesh_system, monkeypatch
    ):
        from repro.dist import BlockNodeRunner
        from repro.dist import executors as executors_mod
        from tests.test_block_runner import tasks_for

        events = []
        monkeypatch.setattr(
            executors_mod.faults, "on_task_start",
            lambda tid: events.append(("start", tid)),
        )
        real_run = BlockNodeRunner.run

        def recording_run(runner, chunk, *fold):
            events.append(("march", [t.task_id for t in chunk]))
            return real_run(runner, chunk, *fold)

        monkeypatch.setattr(BlockNodeRunner, "run", recording_run)
        tasks = tasks_for(mesh_system, decomposition="source")
        for width in (None, 2, "auto"):
            events.clear()
            SerialExecutor(mesh_system, OPTS, batch_width=width).run(tasks)
            n = executors_mod._resolve_batch_width(width, len(tasks))
            expected = []
            for lo in range(0, len(tasks), n):
                ids = [t.task_id for t in tasks[lo:lo + n]]
                expected += [("start", i) for i in ids] + [("march", ids)]
            assert events == expected


@pytest.mark.skipif(not shm_available(),
                    reason="POSIX shared memory needed")
class TestExitSweep:
    def test_sweep_run_segments_reclaims_registered_prefixes(self):
        from multiprocessing import shared_memory

        from repro.dist.shm import new_segment_prefix, sweep_run_segments

        prefix = new_segment_prefix()
        seg = shared_memory.SharedMemory(
            name=f"{prefix}t0", create=True, size=64
        )
        seg.close()
        assert list(Path("/dev/shm").glob(f"{prefix}*"))
        removed = sweep_run_segments()
        assert removed >= 1
        assert list(Path("/dev/shm").glob(f"{prefix}*")) == []

    def test_sigterm_sweeps_segments_before_dying(self, tmp_path):
        """A SIGTERMed process reclaims its segments and exits 128+15."""
        script = textwrap.dedent("""
            import os, signal
            from multiprocessing import shared_memory
            from repro.dist.shm import install_signal_sweep, new_segment_prefix

            install_signal_sweep()
            prefix = new_segment_prefix()
            seg = shared_memory.SharedMemory(
                name=f"{prefix}t0", create=True, size=64
            )
            seg.close()
            print(prefix, flush=True)
            os.kill(os.getpid(), signal.SIGTERM)
            raise SystemExit(99)  # unreachable: the handler exits 143
        """)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        prefix = proc.stdout.strip()
        assert prefix.startswith("repro")
        assert proc.returncode == 128 + signal.SIGTERM
        assert list(Path("/dev/shm").glob(f"{prefix}*")) == []
