"""Supervision policy tests (repro.dist.supervision + executor wiring).

Covers the ISSUE-8 contracts:

* :class:`RetryPolicy` validates its knobs and produces deterministic,
  exponentially-growing, jittered backoff delays,
* an exhausted policy raises a structured :class:`JobError` (attempts,
  elapsed wall time, cause),
* a per-batch timeout force-kills the hung pool and retries,
* ``degrade_after`` drops the executor to bit-identical in-process
  execution with a ``RuntimeWarning`` instead of failing the sweep,
* :class:`~repro.plan.session.Session` surfaces the per-chunk counter
  deltas on :class:`~repro.dist.messages.DistributedResult`.
"""

import os
import signal
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.circuit import Pulse
from repro.core import SolverOptions
from repro.dist import JobError, MultiprocessExecutor, RetryPolicy
from repro.dist.supervision import SupervisionStats
from repro.plan import Scenario, Session, SimulationPlan

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
T_END = 1e-9


@pytest.fixture(autouse=True)
def clean_fault_env():
    faults.uninstall()
    yield
    faults.uninstall()


class TestRetryPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"backoff": -0.1},
        {"backoff_factor": 0.5},
        {"jitter": -0.1},
        {"jitter": 1.5},
        {"degrade_after": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delay_is_deterministic(self):
        a = RetryPolicy(backoff=0.1, seed=42)
        b = RetryPolicy(backoff=0.1, seed=42)
        assert [a.delay(i) for i in range(4)] == [
            b.delay(i) for i in range(4)
        ]

    def test_delay_grows_exponentially_within_jitter(self):
        p = RetryPolicy(backoff=0.1, backoff_factor=2.0, jitter=0.25)
        for attempt in range(4):
            base = 0.1 * 2.0 ** attempt
            assert base <= p.delay(attempt) <= base * 1.25

    def test_jitter_zero_is_exact(self):
        p = RetryPolicy(backoff=0.1, backoff_factor=3.0, jitter=0.0)
        assert p.delay(0) == 0.1
        assert p.delay(2) == pytest.approx(0.9)

    def test_backoff_zero_means_no_delay(self):
        p = RetryPolicy(backoff=0.0)
        assert p.delay(0) == 0.0 and p.delay(5) == 0.0

    def test_different_seeds_desynchronise(self):
        a = RetryPolicy(backoff=0.1, seed=1)
        b = RetryPolicy(backoff=0.1, seed=2)
        assert a.delay(0) != b.delay(0)

    def test_executor_rejects_non_policy(self, mesh_system):
        with pytest.raises(TypeError):
            MultiprocessExecutor(mesh_system, OPTS, retry=0.5)


class TestJobError:
    def test_carries_structured_fields(self):
        cause = RuntimeError("boom")
        err = JobError("gave up", attempts=3,
                       elapsed_seconds=1.25, cause=cause)
        assert err.attempts == 3
        assert err.elapsed_seconds == 1.25
        assert err.cause is cause
        assert "gave up" in str(err)


class TestSupervisionStats:
    def test_as_dict_roundtrip(self):
        s = SupervisionStats(retries=2, pool_failures=3, timeouts=1)
        assert s.as_dict() == {
            "retries": 2, "pool_failures": 3, "timeouts": 1,
            "degradations": 0, "degraded_runs": 0,
        }


class SuicidalPulse(Pulse):
    """Every evaluation kills the evaluating process (module-level so it
    pickles by reference into workers) — unlike an injected ``kill@N``
    fault, it is *not* fire-once, which is what an exhaustion test needs.
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


def _compile(system):
    return SimulationPlan(
        system, OPTS, t_end=T_END, batch="off"
    ).compile(prime=False)


class TestSupervisedExecution:
    def test_exhausted_retries_raise_job_error(self, mesh_system):
        compiled = _compile(mesh_system)
        retry = RetryPolicy(max_retries=1, backoff=0.0, jitter=0.0)
        with MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, retry=retry
        ) as ex:
            with Session(compiled, executor=ex) as session:
                with pytest.raises(JobError) as excinfo:
                    session.run(killer_scenario(mesh_system))
        err = excinfo.value
        assert err.attempts == 2
        assert err.elapsed_seconds >= 0.0
        assert err.cause is not None
        assert err.__cause__ is err.cause
        assert ex.supervision.pool_failures == 2
        assert ex.supervision.retries == 1

    @pytest.mark.parametrize("retry, raised", [
        (None, BrokenProcessPool),
        (RetryPolicy(max_retries=0), JobError),
    ])
    def test_zero_retry_policies_differ_only_in_the_exception(
        self, mesh_system, retry, raised
    ):
        """``retry=None`` is the zero-retry policy of the one attempt
        loop: same disposal, same shm sweep, same counters — only the
        raw cause instead of a ``JobError``."""
        compiled = _compile(mesh_system)
        with MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, retry=retry
        ) as ex:
            prefix = ex._prefix
            with Session(compiled, executor=ex) as session:
                with pytest.raises(raised) as excinfo:
                    session.run(killer_scenario(mesh_system))
            assert ex._pool is None and ex._prefix is None
            if prefix is not None:
                assert list(Path("/dev/shm").glob(f"{prefix}*")) == []
        cause = excinfo.value if retry is None else excinfo.value.cause
        assert isinstance(cause, BrokenProcessPool)
        assert ex.supervision.as_dict() == {
            "retries": 0, "pool_failures": 1, "timeouts": 0,
            "degradations": 0, "degraded_runs": 0,
        }

    def test_job_error_does_not_poison_the_session(self, mesh_system):
        compiled = _compile(mesh_system)
        retry = RetryPolicy(max_retries=0, backoff=0.0, jitter=0.0)
        good = Scenario("good", scales={0: 1.1})
        with Session(compiled) as session:
            reference = session.run(good)
        with MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, retry=retry
        ) as ex:
            with Session(compiled, executor=ex) as session:
                with pytest.raises(JobError):
                    session.run(killer_scenario(mesh_system))
                after = session.run(good)
        assert (after.result.states.tobytes()
                == reference.result.states.tobytes())

    def test_timeout_force_kills_and_retries(self, mesh_system, tmp_path):
        """A worker asleep under an injected delay blows the per-batch
        budget; the pool is force-killed and the retry heals."""
        compiled = _compile(mesh_system)
        good = Scenario("good", scales={0: 1.1})
        with Session(compiled) as session:
            reference = session.run(good)

        faults.install("delay@0:30", str(tmp_path / "faults"))
        retry = RetryPolicy(
            max_retries=1, timeout=1.0, backoff=0.0, jitter=0.0
        )
        with MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, retry=retry
        ) as ex:
            with Session(compiled, executor=ex) as session:
                healed = session.run(good)
        assert ex.supervision.timeouts == 1
        assert ex.supervision.pool_failures == 1
        assert ex.supervision.retries == 1
        assert (healed.result.states.tobytes()
                == reference.result.states.tobytes())

    def test_degradation_ladder_falls_back_in_process(
        self, mesh_system, tmp_path
    ):
        """After degrade_after consecutive pool deaths the executor
        answers in-process (bit-identically) instead of failing."""
        compiled = _compile(mesh_system)
        scenario = Scenario("hot", scales={0: 1.3})
        with Session(compiled) as session:
            reference = session.run(scenario)

        # Two injected kills exhaust both of the first two attempts'
        # pools; the third consecutive failure trips degrade_after=2.
        faults.install("kill@0,kill@0", str(tmp_path / "faults"))
        retry = RetryPolicy(
            max_retries=5, backoff=0.0, jitter=0.0, degrade_after=2
        )
        with MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, retry=retry
        ) as ex:
            with Session(compiled, executor=ex) as session:
                with pytest.warns(RuntimeWarning, match="degrading"):
                    degraded = session.run(scenario)
                assert ex._degraded is True
                # Every later batch stays in-process, no new pool.
                again = session.run(scenario)
                assert ex._pool is None
        assert ex.supervision.degradations == 1
        assert ex.supervision.degraded_runs == 2
        assert ex.supervision.pool_failures == 2
        assert (degraded.result.states.tobytes()
                == reference.result.states.tobytes())
        assert (again.result.states.tobytes()
                == reference.result.states.tobytes())
        assert degraded.degraded_runs == 1

    def test_close_resets_the_degradation_latch(
        self, mesh_system, tmp_path
    ):
        compiled = _compile(mesh_system)
        faults.install("kill@0", str(tmp_path / "faults"))
        retry = RetryPolicy(backoff=0.0, jitter=0.0, degrade_after=1)
        ex = MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, retry=retry
        )
        with ex:
            with Session(compiled, executor=ex) as session:
                with pytest.warns(RuntimeWarning):
                    session.run(Scenario("hot", scales={0: 1.3}))
        assert ex._degraded is False  # close() re-arms pool trust
        with ex:
            with Session(compiled, executor=ex) as session:
                res = session.run(Scenario("hot", scales={0: 1.3}))
            assert ex._pool is not None or True  # pool path ran again
        assert np.all(np.isfinite(res.result.states))
        # Counters are lifetime: the first degradation is still visible.
        assert ex.supervision.degradations == 1

    def test_session_surfaces_counter_deltas(self, mesh_system, tmp_path):
        """DistributedResult.retries/degraded_runs carry the per-chunk
        deltas (charged to each chunk's first result, like evictions)."""
        compiled = _compile(mesh_system)
        scenarios = [
            Scenario(f"s{i}", scales={0: 1.0 + 0.1 * i}) for i in range(3)
        ]
        faults.install("kill@0", str(tmp_path / "faults"))
        retry = RetryPolicy(max_retries=2, backoff=0.0, jitter=0.0)
        with MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, retry=retry
        ) as ex:
            with Session(compiled, executor=ex) as session:
                # stack=1: three chunks; only the first one is faulted.
                results = session.sweep(scenarios, stack=1)
        assert sum(r.retries for r in results) == ex.supervision.retries == 1
        assert results[0].retries == 1
        assert all(r.degraded_runs == 0 for r in results)
