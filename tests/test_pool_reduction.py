"""A pool sweep ships one trajectory per scenario, not per node.

A worker folds every scenario prefix its lockstep chunk holds as it
marches (same additions, same node order as the parent-side
``superpose``) and returns a single ``(K × dim)`` block for it; nodes
after a chunk border come back as their own factors, and ``superpose``
resumes the carrier with them.  These tests pin, against the serial
``Session`` as oracle:

* byte-equal states and equal node counters over aligned, straddling and
  fewer-scenarios-than-workers submissions, both transports, with and
  without a retry policy, and through a ROM-fallback splice;
* what actually crosses the process boundary (one non-empty segment of
  ``K·dim·8`` bytes per wholly-contained scenario, one per node after a
  chunk border);
* that a worker killed between marching and hand-over leaks no segment.
"""

import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import SolverOptions
from repro.dist import MultiprocessExecutor, RetryPolicy
from repro.dist import executors as executors_mod
from repro.dist.shm import ShmArrayRef, shm_available
from repro.plan import Scenario, Session, SimulationPlan
from repro.rom import RomConfig
from tests.test_session_robustness import RejectEverySecond

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
T_END = 1e-9
N_MAX = 5

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory needed"
)

#: SolverStats fields that must not depend on where a node was marched
#: (timings and per-process cache traffic legitimately do).
COUNTERS = (
    "n_steps", "n_krylov_bases", "n_reuses", "krylov_dims",
    "n_solves_krylov", "n_solves_etd", "n_solves_dc",
)


def make_scenarios(n: int = N_MAX) -> list[Scenario]:
    return [
        Scenario(f"s{i}", scales={0: 1.0 + 0.1 * i, 2: 1.0 - 0.05 * i})
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def system():
    from repro.circuit import assemble
    from tests.conftest import build_multi_source_mesh

    return assemble(build_multi_source_mesh())


@pytest.fixture(scope="module")
def compiled(system):
    # One node per source: three node tasks per scenario.
    plan = SimulationPlan(
        system, OPTS, t_end=T_END, decomposition="source", batch="auto"
    )
    compiled = plan.compile(prime=False)
    assert compiled.n_nodes == 3
    return compiled


@pytest.fixture(scope="module")
def reference(compiled):
    """The serial-session oracle, one result per scenario."""
    with Session(compiled) as session:
        return session.sweep(make_scenarios(), stack=N_MAX)


def assert_same(reference, got):
    assert [r.scenario for r in got] == [r.scenario for r in reference]
    for ref, res in zip(reference, got):
        assert res.result.states.tobytes() == ref.result.states.tobytes(), (
            res.scenario
        )
        assert res.result.times.tobytes() == ref.result.times.tobytes()
        assert res.n_nodes == ref.n_nodes
        for name in COUNTERS:
            assert [getattr(s, name) for s in res.node_stats] == [
                getattr(s, name) for s in ref.node_stats
            ], (res.scenario, name)
            assert getattr(res.result.stats, name) == getattr(
                ref.result.stats, name
            ), (res.scenario, name)


def shm_entries() -> set:
    base = Path("/dev/shm")
    return {p.name for p in base.glob("repro*")} if base.is_dir() else set()


@pytest.mark.parametrize("retry", [
    None, RetryPolicy(max_retries=1, backoff=0.0, jitter=0.0),
], ids=["no-retry", "retry"])
@pytest.mark.parametrize("channel", ["shm", "pickle"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_sweep_equals_serial_session(
    system, compiled, reference, workers, channel, retry, monkeypatch
):
    if channel == "shm" and not shm_available():
        pytest.skip("POSIX shared memory needed")
    if channel == "pickle":
        monkeypatch.setattr(executors_mod, "shm_available", lambda: False)
    with MultiprocessExecutor(
        system, OPTS, max_workers=workers, batch_width="auto", retry=retry,
    ) as ex:
        with Session(compiled, executor=ex) as session:
            # One submission per sweep: aligned when scenarios >=
            # workers, straddling/per-node when there are fewer.
            for n in (1, 2, 3, 5):
                got = session.sweep(make_scenarios(n), stack=n)
                assert_same(reference[:n], got)
    assert ex.supervision.retries == 0
    assert ex.supervision.degraded_runs == 0


class Recorder:
    """Wraps ``executors.from_shared``: what did the workers hand over?"""

    def __init__(self, monkeypatch):
        self.raw = []
        original = executors_mod.from_shared

        def recording(result):
            self.raw.append(result)
            return original(result)

        monkeypatch.setattr(executors_mod, "from_shared", recording)

    def segments(self):
        return [r for r in self.raw if isinstance(r.states, ShmArrayRef)]


@needs_shm
class TestWhatCrossesTheBoundary:
    def test_one_segment_per_wholly_contained_scenario(
        self, system, compiled, reference, monkeypatch
    ):
        rec = Recorder(monkeypatch)
        with MultiprocessExecutor(
            system, OPTS, max_workers=2, batch_width="auto",
        ) as ex:
            ex_prefix = ex._prefix
            with Session(compiled, executor=ex) as session:
                got = session.sweep(make_scenarios(4), stack=4)
        assert_same(reference[:4], got)
        k, dim = reference[0].result.states.shape
        n = compiled.n_nodes
        # One result per task still comes back, in task order ...
        assert [r.task_id for r in rec.raw] == list(range(4 * n))
        # ... but only each scenario's carrier owns a segment.
        segments = rec.segments()
        assert [r.task_id for r in segments] == [0, n, 2 * n, 3 * n]
        for slot, carrier in enumerate(segments):
            # K·dim·8 bytes: the scenario sum, nothing else.
            assert carrier.states.shape == (k, dim)
            assert np.dtype(carrier.states.dtype) == np.float64
            assert carrier.covers == tuple(range(slot * n, (slot + 1) * n))
            assert carrier.states.run_prefix() == ex_prefix
        for r in rec.raw:
            if r.covers:
                continue
            assert isinstance(r.states, np.ndarray)
            assert r.states.shape == (0, dim)
            assert isinstance(r.times, np.ndarray)

    def test_straddling_scenarios_travel_per_node(
        self, system, compiled, reference, monkeypatch
    ):
        """Fixed chunk width 4 over 3 scenarios × 3 nodes: scenario 0
        sits wholly in chunk 0 (folded there).  Scenario 1 starts with
        one node at the end of chunk 0 (a one-node prefix is not folded)
        and scenario 2 with two nodes at the end of chunk 1 (folded
        there); the nodes after each border come back per node for the
        parent to add."""
        rec = Recorder(monkeypatch)
        with MultiprocessExecutor(
            system, OPTS, max_workers=2, batch_width=4,
        ) as ex:
            with Session(compiled, executor=ex) as session:
                got = session.sweep(make_scenarios(3), stack=3)
        assert_same(reference[:3], got)
        assert [r.covers for r in rec.raw] == (
            [(0, 1, 2)] + [()] * 5 + [(6, 7)] + [()] * 2
        )
        assert [r.task_id for r in rec.segments()] == [0, 3, 4, 5, 6, 8]

    def test_fewer_scenarios_than_workers_split_the_scenario(
        self, system, compiled, reference, monkeypatch
    ):
        rec = Recorder(monkeypatch)
        with MultiprocessExecutor(
            system, OPTS, max_workers=3, batch_width="auto",
        ) as ex:
            with Session(compiled, executor=ex) as session:
                got = session.sweep(make_scenarios(1))
        assert_same(reference[:1], got)
        assert not any(r.covers for r in rec.raw)
        assert len(rec.segments()) == compiled.n_nodes

    def test_without_dc_states_every_node_keeps_its_trajectory(
        self, system, compiled
    ):
        """The paper's per-node view: a direct ``run(tasks)`` still
        returns each node's own deviation block."""
        session = Session(compiled)
        tasks = session._scenario_tasks(0, None)
        with MultiprocessExecutor(
            system, OPTS, max_workers=1, batch_width="auto",
        ) as ex:
            plain = ex.run(tasks)
            reduced = ex.run(tasks, [compiled.x_dc])
        assert all(r.covers == () and r.states.shape[0] for r in plain)
        assert reduced[0].covers == (0, 1, 2)
        total = np.tile(compiled.x_dc, (len(plain[0].times), 1))
        for r in plain:
            total += r.states
        assert reduced[0].states.tobytes() == total.tobytes()

    def test_ragged_scenarios_rejected(self, system, compiled):
        session = Session(compiled)
        tasks = session._scenario_tasks(0, None)
        ex = MultiprocessExecutor(system, OPTS, max_workers=1)
        with pytest.raises(ValueError, match="equally long"):
            ex.run(tasks, [compiled.x_dc, compiled.x_dc])


def test_rom_fallback_splice_through_the_pool(system):
    compiled = SimulationPlan(
        system, OPTS, t_end=T_END, decomposition="source", batch="auto"
    ).compile(prime=False, rom=RomConfig(tol=0.9))
    assert compiled.rom is not None, compiled.rom_error
    scenarios = make_scenarios()
    with Session(
        replace(compiled, rom=RejectEverySecond(compiled.rom))
    ) as session:
        reference = session.sweep(scenarios)
    with MultiprocessExecutor(
        system, OPTS, max_workers=2, batch_width="auto"
    ) as ex:
        with Session(
            replace(compiled, rom=RejectEverySecond(compiled.rom)),
            executor=ex,
        ) as session:
            got = session.sweep(scenarios)
    assert [r.rom_fallback for r in got] == [False, True, False, True, False]
    assert_same(reference, got)


def _share_then_die(result, prefix):
    """Stand-in for ``to_shared`` in a forked worker: the segment exists,
    the worker dies before the ref reaches the parent."""
    from repro.dist.shm import to_shared

    to_shared(result, prefix)
    os.kill(os.getpid(), signal.SIGKILL)


@needs_shm
@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the rigged to_shared reaches workers only through fork",
)
def test_worker_killed_before_handover_leaks_nothing(
    system, compiled, monkeypatch
):
    before = shm_entries()
    monkeypatch.setattr(executors_mod, "to_shared", _share_then_die)
    with MultiprocessExecutor(
        system, OPTS, max_workers=2, batch_width="auto",
    ) as ex:
        with Session(compiled, executor=ex) as session:
            with pytest.raises(BrokenProcessPool):
                session.sweep(make_scenarios(2), stack=2)
            # The broken pool was disposed and its prefix swept at once.
            assert ex._pool is None
            assert shm_entries() - before == set()
    assert shm_entries() - before == set()
