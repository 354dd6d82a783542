"""Parity of the block-batched fast path, plus transport.

The contract under test: every trajectory, time grid and operation count
a :class:`~repro.dist.block_runner.BlockNodeRunner` produces is
**bit-for-bit identical at every width** — width 1 (per-node execution)
included — on the serial executor, on the multiprocess executor, through
the scheduler's ``batch`` policy, across decompositions (including
split-bump waveform overrides) and Krylov flavours.  The scalar
reference march :func:`tests.scalar_oracle.run_task` is the *tolerance*
oracle of all of them: a runner result is a factored trajectory whose
rows are BLAS dots over ``m + 2`` terms where the scalar march runs an
ordered rank-1 loop, so the two agree on states to ``max(1e-12·scale,
4 × spread)`` — ``spread`` being the oracle's own movement under ±1-ulp
perturbations (:func:`tests.scalar_oracle.oracle_spread`) — and exactly
on every convergence decision and basis dimension (not on ETD pairs:
the oracle solves ``G`` three times per segment, the runner twice per
input shape).  On
top, the shared-memory result transport round-trips arrays exactly and
reclaims its segments, including after worker death.
"""

import gc
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core import SolverOptions
from repro.core.transition import TransitionSchedule, build_schedule
from repro.dist import (
    BlockNodeRunner,
    MatexScheduler,
    MultiprocessExecutor,
    SerialExecutor,
    SimulationTask,
)
from repro.dist.shm import (
    cleanup_segments,
    from_shared,
    new_segment_prefix,
    shm_available,
    to_shared,
)
from repro.circuit import assemble
from repro.dist import block_runner as runner_mod
from repro.dist import executors as executors_mod
from repro.linalg import block_krylov as block_krylov_mod
from repro.linalg import krylov as krylov_mod
from repro.linalg.krylov import eig_payloads, span_coefficients
from repro.pdn import PdnConfig, WorkloadSpec, attach_pulse_loads, generate_power_grid
from tests.conftest import ScalarOracleExecutor
from tests.scalar_oracle import oracle_budget, oracle_spread

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)


def tasks_for(system, t_end=1e-9, decomposition="bump"):
    sched = MatexScheduler(system, OPTS, decomposition=decomposition)
    gts = tuple(system.global_transition_spots(t_end))
    return [
        SimulationTask(task_id=g.group_id, group=g, t_end=t_end,
                       global_points=gts)
        for g in sched.groups(t_end=t_end)
    ]


def scalar_oracle(system, tasks, opts=OPTS):
    """The scalar reference march of every task, in order."""
    return ScalarOracleExecutor(system, opts).run(tasks)


def oracle_with_spread(system, tasks, opts=OPTS):
    """:func:`scalar_oracle` and its ±1-ulp spread over every task."""
    spread = oracle_spread(
        lambda: np.stack([r.states for r in scalar_oracle(system, tasks, opts)])
    )
    return scalar_oracle(system, tasks, opts), spread


#: The convergence decisions: the oracle makes exactly these.
DECISIONS = ("n_steps", "n_krylov_bases", "n_reuses", "krylov_dims",
             "n_solves_krylov", "n_solves_dc")
#: Everything two executions of the block path count.  The ETD pairs
#: are not a decision: the oracle solves three per segment, the block
#: path two per input shape.
STAT_FIELDS = DECISIONS + ("n_solves_etd",)


def _assert_same_work(ref, blk, fields=STAT_FIELDS):
    assert len(ref) == len(blk)
    for r, b in zip(ref, blk):
        assert r.task_id == b.task_id
        assert r.group_id == b.group_id
        assert r.label == b.label
        assert r.times.tobytes() == b.times.tobytes()
        for f in fields:
            assert getattr(r.stats, f) == getattr(b.stats, f), f


def assert_results_identical(ref, blk):
    """Two executions of the block path: strictly bitwise."""
    _assert_same_work(ref, blk)
    for r, b in zip(ref, blk):
        assert np.asarray(r.states).tobytes() == np.asarray(b.states).tobytes()


def assert_matches_oracle(oracle, blk, spread, rtol=1e-12):
    """Block path vs the scalar ``run_task`` march: the same decisions,
    states inside ``max(rtol·scale, 4 × spread)`` of each task's, its
    response scale and the oracle's ±1-ulp spread."""
    _assert_same_work(oracle, blk, DECISIONS)
    for r, b in zip(oracle, blk):
        scale = max(np.abs(r.states).max(), np.finfo(float).tiny)
        diff = np.abs(np.asarray(b.states) - r.states).max()
        assert diff <= oracle_budget(scale, spread, rtol)


class TestRunnerParity:
    def test_mesh_bitwise_parity(self, mesh_system):
        tasks = tasks_for(mesh_system)
        ref, spread = oracle_with_spread(mesh_system, tasks)
        blk = BlockNodeRunner(mesh_system, OPTS).run(tasks)
        assert_matches_oracle(ref, blk, spread)

    def test_singular_c_pdn_parity(self, small_pdn_system):
        tasks = tasks_for(small_pdn_system)
        ref, spread = oracle_with_spread(small_pdn_system, tasks)
        blk = BlockNodeRunner(small_pdn_system, OPTS).run(tasks)
        assert_matches_oracle(ref, blk, spread)

    @pytest.mark.parametrize("method", ["rational", "inverted"])
    def test_methods_parity(self, mesh_system, method):
        opts = SolverOptions(method=method, gamma=1e-10, eps_rel=1e-8)
        tasks = tasks_for(mesh_system)
        ref, spread = oracle_with_spread(mesh_system, tasks, opts)
        blk = BlockNodeRunner(mesh_system, opts).run(tasks)
        assert_matches_oracle(ref, blk, spread)

    def test_bump_split_overrides_parity(self, mesh_system):
        tasks = tasks_for(mesh_system, decomposition="bump-split")
        assert any(t.group.waveform_overrides for t in tasks)
        ref, spread = oracle_with_spread(mesh_system, tasks)
        blk = BlockNodeRunner(mesh_system, OPTS).run(tasks)
        assert_matches_oracle(ref, blk, spread)

    def test_width_one_chunks_match_the_oracle(self, mesh_system):
        """Per-node execution: one task per ``run`` call."""
        tasks = tasks_for(mesh_system, decomposition="source")
        runner = BlockNodeRunner(mesh_system, OPTS)
        blk = [runner.run([t])[0] for t in tasks]
        ref, spread = oracle_with_spread(mesh_system, tasks)
        assert_matches_oracle(ref, blk, spread)
        assert_results_identical(runner.run(tasks), blk)

    @pytest.mark.parametrize("where", ["interior", "t=0"])
    def test_repeated_grid_point_is_rejected(self, mesh_system, where):
        """A grid with a repeated point is malformed outside input (the
        scheduler and compiled plans deduplicate theirs): the runner
        names the offending index instead of marching it."""
        base = tasks_for(mesh_system)[0]
        pts = list(base.global_points)
        k = 0 if where == "t=0" else len(pts) // 2
        pts.insert(k, pts[k])
        task = replace(base, global_points=tuple(pts))
        with pytest.raises(ValueError, match=rf"grid point {k + 1} "):
            BlockNodeRunner(mesh_system, OPTS).run([task])

    def test_misaligned_schedules_on_one_grid_key_are_rejected(
        self, mesh_system
    ):
        base, other = tasks_for(mesh_system)[:2]
        built = build_schedule(
            mesh_system, other.t_end,
            local_inputs=other.group.input_columns,
            global_points=other.global_points,
        )
        k = len(built.points) // 2
        short = TransitionSchedule(
            built.points[:k] + built.points[k + 1:],
            built.is_lts[:k] + built.is_lts[k + 1:],
            built.t_end,
        )
        with pytest.raises(ValueError, match=r"position 1 .*points differ"):
            BlockNodeRunner(mesh_system, OPTS).run(
                [base, replace(other, schedule=short)]
            )

    def test_runner_has_no_scalar_march(self):
        from repro.dist import block_runner

        assert not hasattr(block_runner, "run_task")

    def test_empty_and_order(self, mesh_system):
        runner = BlockNodeRunner(mesh_system, OPTS)
        assert runner.run([]) == []
        tasks = tasks_for(mesh_system)
        shuffled = list(reversed(tasks))
        out = runner.run(shuffled)
        assert [r.task_id for r in out] == [t.task_id for t in shuffled]

    def test_construction_cache_traffic_on_first_task(self, mesh_system):
        from repro.linalg.lu import FACTORIZATION_CACHE

        FACTORIZATION_CACHE.clear()
        runner = BlockNodeRunner(mesh_system, OPTS)
        tasks = tasks_for(mesh_system)
        first = runner.run(tasks)
        again = runner.run(tasks)
        total_first = sum(
            r.stats.n_factor_cache_hits + r.stats.n_factor_cache_misses
            for r in first
        )
        assert total_first >= 1  # construction traffic reported once
        assert all(
            r.stats.n_factor_cache_hits + r.stats.n_factor_cache_misses == 0
            for r in again
        )


class TestTimedWindow:
    """The cyclic GC is paused inside the timed march and restored
    after it, and a pass that still lands inside is counted."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("collect", [False, True])
    def test_gc_paused_restored_and_counted(
        self, mesh_system, monkeypatch, enabled, collect
    ):
        seen = []
        real = BlockNodeRunner._solve_shapes

        def spy(self, tstates):
            seen.append(gc.isenabled())
            if collect:
                gc.collect()
            return real(self, tstates)

        monkeypatch.setattr(BlockNodeRunner, "_solve_shapes", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            blk = BlockNodeRunner(mesh_system, OPTS).run(tasks_for(mesh_system))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen and not any(seen)
        counted = sum(r.stats.gc_collections for r in blk)
        assert counted == (len(seen) if collect else 0)


class TestExecutorParity:
    def test_serial_batched_matches_per_node(self, mesh_system):
        tasks = tasks_for(mesh_system)
        oracle, spread = oracle_with_spread(mesh_system, tasks)
        ref = SerialExecutor(mesh_system, OPTS).run(tasks)
        assert_matches_oracle(oracle, ref, spread)
        for width in ("off", 1, 2, "auto"):
            blk = SerialExecutor(
                mesh_system, OPTS, batch_width=width
            ).run(tasks)
            assert_results_identical(ref, blk)

    def test_scheduler_batch_policy_bitwise(self, mesh_system):
        ref = MatexScheduler(mesh_system, OPTS).run(1e-9)
        blk = MatexScheduler(mesh_system, OPTS, batch="auto").run(1e-9)
        assert (ref.result.states.tobytes()
                == blk.result.states.tobytes())
        assert ref.result.times.tobytes() == blk.result.times.tobytes()
        assert (ref.total_substitution_pairs
                == blk.total_substitution_pairs)

    def test_scheduler_batch_validation(self, mesh_system):
        with pytest.raises(ValueError, match="batch"):
            MatexScheduler(mesh_system, OPTS, batch="sideways")
        with pytest.raises(ValueError, match="batch"):
            MatexScheduler(mesh_system, OPTS, batch=0)

    def test_multiprocess_batched_matches_serial(self, mesh_system):
        tasks = tasks_for(mesh_system)
        ref = SerialExecutor(mesh_system, OPTS).run(tasks)
        mp = MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2, batch_width="auto"
        ).run(tasks)
        assert_results_identical(ref, mp)

    def test_multiprocess_pickle_transport_matches(
        self, mesh_system, monkeypatch
    ):
        """Without shared memory the pool falls back to pickling."""
        monkeypatch.setattr(executors_mod, "shm_available", lambda: False)
        tasks = tasks_for(mesh_system)
        ref = SerialExecutor(mesh_system, OPTS).run(tasks)
        with MultiprocessExecutor(mesh_system, OPTS, max_workers=2) as mp:
            assert mp._prefix is None  # no shared-memory namespace
            assert_results_identical(ref, mp.run(tasks))

    def test_bad_executor_args(self, mesh_system):
        with pytest.raises(ValueError, match="batch_width"):
            SerialExecutor(mesh_system, OPTS, batch_width=0).run(
                tasks_for(mesh_system)
            )

    @pytest.mark.parametrize("make", [
        lambda system: SerialExecutor(system, OPTS, batch_width=0),
        lambda system: MultiprocessExecutor(system, OPTS, batch_width=-3),
        lambda system: SerialExecutor(system, OPTS, batch_width="wide"),
    ])
    def test_bad_batch_width_fails_at_construction(self, mesh_system, make):
        """A bad width is refused when the executor is built, not when a
        daemon's or pool's first job marches."""
        with pytest.raises(ValueError, match="batch_width"):
            make(mesh_system)


def _mixed_round_system():
    """Package inductance and a loose ε: rounds of real and complex
    eigen-payloads, quiescent first segments, snapshot rebuilds and
    segments of unequal length on one grid."""
    net = generate_power_grid(PdnConfig(
        rows=8, cols=8, n_pads=2, l_package=5e-10, seed=9,
    ))
    attach_pulse_loads(net, WorkloadSpec(
        n_sources=16, n_shapes=6, t_end=2e-9, time_grid_points=40, seed=9,
    ))
    return assemble(net)


class TestMixedRound:
    """One lockstep round mixes every kind of span the stacked round
    passes group apart; each task is byte-equal to its width-1 run."""

    def test_every_task_matches_its_width_one_march(self, monkeypatch):
        def some_defective(hms):
            # Deterministic in the slice's bits, so a basis is flagged
            # alike at every width: its spans take the Padé path.
            return [
                (usable and hashlib.sha256(h.tobytes()).digest()[0] % 3 != 0, payload)
                for h, (usable, payload) in zip(hms, eig_payloads(hms))
            ]

        monkeypatch.setattr(krylov_mod, "eig_payloads", some_defective)
        monkeypatch.setattr(block_krylov_mod, "eig_payloads", some_defective)
        rounds = []

        def recorded(bases, spans):
            kinds = set()
            for b in bases:
                usable, payload = b._eig_payload()
                kinds.add(payload[0].dtype.char if usable else "defective")
            rounds.append((kinds, {len(hs) for hs in spans}))
            return span_coefficients(bases, spans)

        monkeypatch.setattr(runner_mod, "span_coefficients", recorded)
        quiescent, rebuilds = [], []
        evaluate, rebuild = BlockNodeRunner._evaluate_span, BlockNodeRunner._rebuild_basis

        def evaluate_span(runner, t, span_hs, first):
            quiescent.append(first is None)
            return evaluate(runner, t, span_hs, first)

        def rebuild_basis(runner, t, ha):
            rebuilds.append(ha)
            return rebuild(runner, t, ha)

        monkeypatch.setattr(BlockNodeRunner, "_evaluate_span", evaluate_span)
        monkeypatch.setattr(BlockNodeRunner, "_rebuild_basis", rebuild_basis)
        system = _mixed_round_system()
        opts = SolverOptions(method="rational", gamma=1e-12, eps_rel=1e-2)
        gts = tuple(system.global_transition_spots(2e-9))
        tasks = [
            SimulationTask(task_id=g.group_id, group=g, t_end=2e-9,
                           global_points=gts)
            for g in MatexScheduler(system, opts).groups(t_end=2e-9)
        ]
        ref = SerialExecutor(system, opts).run(tasks)
        for seen in (rounds, quiescent, rebuilds):
            seen.clear()
        blk = SerialExecutor(system, opts, batch_width="auto").run(tasks)
        assert_results_identical(ref, blk)

        # The batch really mixes what the round passes group apart.
        assert any({"d", "D", "defective"} <= kinds for kinds, _ in rounds)
        assert any(len(lengths) > 1 for _, lengths in rounds)
        assert any(quiescent) and rebuilds


@pytest.mark.skipif(not shm_available(), reason="no shared-memory support")
class TestShmTransport:
    def _node_result(self, mesh_system):
        tasks = tasks_for(mesh_system)
        return BlockNodeRunner(mesh_system, OPTS).run(tasks[:1])[0]

    def test_round_trip_bitwise(self, mesh_system):
        res = self._node_result(mesh_system)
        prefix = new_segment_prefix()
        shared = to_shared(res, prefix)
        assert not isinstance(shared.states, np.ndarray)
        back = from_shared(shared)
        assert back.states.layout == res.states.layout
        assert back.states.data.tobytes() == res.states.data.tobytes()
        assert back.states.dense().tobytes() == res.states.dense().tobytes()
        assert back.times.tobytes() == res.times.tobytes()
        assert back.stats is res.stats
        # segment name already unlinked: nothing left to sweep
        assert cleanup_segments(prefix) == 0

    def test_cleanup_sweeps_orphans(self, mesh_system):
        """Worker-death path: segments without a handover get reclaimed."""
        res = self._node_result(mesh_system)
        prefix = new_segment_prefix()
        to_shared(res, prefix)  # orphan: nobody attaches
        import dataclasses
        to_shared(dataclasses.replace(res, task_id=res.task_id + 1), prefix)
        assert cleanup_segments(prefix) == 2
        assert cleanup_segments(prefix) == 0

    def test_cleanup_reclaims_a_segment_its_writer_never_sized(self):
        """A worker killed between ``shm_open`` and ``ftruncate`` leaves
        an empty file, which cannot be mapped — only unlinked."""
        from pathlib import Path

        prefix = new_segment_prefix()
        orphan = Path("/dev/shm") / f"{prefix}0"
        orphan.touch()
        assert cleanup_segments(prefix) == 1
        assert not orphan.exists()

    def test_worker_death_leaves_no_segments(self, mesh_system):
        """A SIGKILLed worker must not leak its run's segments."""
        from pathlib import Path

        from tests.test_executor_robustness import killer_task
        from concurrent.futures.process import BrokenProcessPool

        before = {p.name for p in Path("/dev/shm").glob("repro*")}
        ex = MultiprocessExecutor(
            mesh_system, OPTS, max_workers=2
        )
        with pytest.raises(BrokenProcessPool):
            ex.run([killer_task(mesh_system)])
        after = {p.name for p in Path("/dev/shm").glob("repro*")}
        assert after <= before  # no new segments survive the crash

    def test_scheduler_end_to_end_with_shm(self, mesh_system):
        ref = MatexScheduler(mesh_system, OPTS).run(1e-9)
        mp = MatexScheduler(mesh_system, OPTS).run(
            1e-9,
            executor=MultiprocessExecutor(
                mesh_system, OPTS, max_workers=2,
                batch_width="auto",
            ),
        )
        assert (ref.result.states.tobytes()
                == mp.result.states.tobytes())
