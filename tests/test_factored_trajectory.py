"""Factored node trajectories: a node's answer is its factors.

The block runner ships, per Krylov basis, a ``(K, m+2)`` coefficient
block and the ``(m+2, dim)`` vectors it multiplies
(:class:`repro.dist.messages.FactoredStates`); the dense rows first
exist inside the library's one fold,
:class:`repro.core.superposition.ScenarioTotals` (the whole-block
``superpose_states`` is the tests' oracle, ``tests/superpose_oracle.py``).
Pinned here: the factors stand for the block the scalar march materialises
(inside the oracle's calibrated budget), the fold is task-major and the only accumulation there is,
transport is bit-exact and small, a quiescent task adds exactly
``+0.0``, a warm sweep's allocation peak, and that the bits do not
depend on the BLAS thread count.
"""

import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.lint.rules import picklable
from repro.circuit import Pulse, assemble
from repro.core import SolverOptions
from repro.core.decomposition import SourceGroup
from repro.dist import (
    BlockNodeRunner,
    FactoredStates,
    MultiprocessExecutor,
    SerialExecutor,
    SimulationTask,
)
from repro.dist import executors as executors_mod
from repro.dist.shm import (
    cleanup_segments,
    from_shared,
    new_segment_prefix,
    shm_available,
    to_shared,
)
from repro.pdn import build_case
from repro.plan import Scenario, Session, SimulationPlan
from tests.conftest import ScalarOracleExecutor, build_multi_source_mesh
from tests.scalar_oracle import oracle_budget
from tests.superpose_oracle import superpose_states
from tests.test_golden_digests import (
    CASES,
    GOLDEN_PATH,
    fingerprint,
    recorded_spread,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory needed"
)


@pytest.fixture(scope="module", params=sorted(CASES))
def marched(request):
    """One golden case: compiled plan, its tasks, block and oracle results."""
    system, opts, t_end, decomposition = CASES[request.param]()
    compiled = SimulationPlan(
        system, opts, t_end=t_end, decomposition=decomposition, batch="auto"
    ).compile(prime=False)
    tasks = Session(compiled)._scenario_tasks(0, None)
    results = SerialExecutor(system, opts, batch_width="auto").run(tasks)
    return request.param, system, opts, compiled, tasks, results


def _total(compiled, results):
    return superpose_states(
        compiled.x_dc, [r.times for r in results], [r.states for r in results]
    )


class TestFactorsStandForTheBlock:
    def test_dense_equals_the_scalar_marchs_block(self, marched):
        """Per task, inside the case's oracle budget: 1e-12 of its
        response scale, or four times its recorded oracle spread."""
        name, system, opts, compiled, tasks, results = marched
        oracle = ScalarOracleExecutor(system, opts).run(tasks)
        scale = np.abs(_total(compiled, results)).max()
        budget = oracle_budget(scale, recorded_spread(name))
        for ref, got in zip(oracle, results):
            assert isinstance(got.states, FactoredStates)
            assert got.states.shape == ref.states.shape
            dense = got.states.dense()
            assert np.abs(dense - ref.states).max() <= budget
            assert np.asarray(got.states).tobytes() == dense.tobytes()

    def test_rebuilds_split_segments_into_spans(self, marched):
        """More spans than transition spots exactly where bases were
        regenerated at snapshots; spans tile without overlap."""
        name, _system, _opts, compiled, _tasks, results = marched
        extra = 0
        for sched, r in zip(compiled.schedules, results):
            rows = [
                row for row0, k, _r in r.states.layout
                for row in range(row0, row0 + k)
            ]
            assert rows == sorted(set(rows)) and rows[0] >= 1
            # One span per basis; a quiescent segment (empty basis, no
            # forcing) emits none.
            busy = sum(1 for m in r.stats.krylov_dims if m)
            assert busy <= len(r.states.layout) <= r.stats.n_krylov_bases
            extra += r.stats.n_krylov_bases - sum(sched.is_lts[:-1])
        assert (extra >= 10) == (name == "rlc-rebuild")

    def test_never_larger_than_the_dense_block(self, marched):
        _name, _system, _opts, _compiled, _tasks, results = marched
        for r in results:
            assert r.states.nbytes <= np.prod(r.states.shape) * 8


class TestOneFold:
    def test_fold_order_is_task_major(self):
        system, opts, t_end, _ = CASES["pg1t"]()
        compiled = SimulationPlan(
            system, opts, t_end=t_end, batch="auto"
        ).compile(prime=False)
        tasks = Session(compiled)._scenario_tasks(0, None)
        results = SerialExecutor(system, opts, batch_width="auto").run(tasks)
        total = _total(compiled, results)
        assert _total(compiled, results).tobytes() == total.tobytes()
        swapped = [results[-1], *results[1:-1], results[0]]
        moved = _total(compiled, swapped)
        assert moved.tobytes() != total.tobytes()
        assert np.abs(moved - total).max() <= 1e-14 * np.abs(total).max()

    def test_a_dense_block_is_added_whole(self):
        dc = np.array([1.0, -2.0])
        times = np.array([0.0, 1.0, 2.0])
        dense = np.arange(6.0).reshape(3, 2)
        factored = FactoredStates.from_spans(
            (3, 2), [(1, np.array([[2.0], [3.0]]), np.array([[1.0, 0.5]]))]
        )
        total = superpose_states(dc, [times, times], [dense, factored])
        expected = dc + dense
        expected[1:] += np.array([[2.0, 1.0], [3.0, 1.5]])
        assert total.tobytes() == expected.tobytes()


def _quiet_system():
    """The mesh plus one source that only wakes up after the horizon."""
    net = build_multi_source_mesh()
    net.add_current_source(
        "Ilate", "n1_1", "0", Pulse(0.0, 1e-3, 5e-9, 5e-11, 2e-10, 5e-11)
    )
    return assemble(net)


class TestQuiescentTask:
    def test_contributes_exactly_plus_zero(self):
        system = _quiet_system()
        opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
        t_end = 1e-9
        gts = tuple(system.global_transition_spots(t_end))
        late = len(system.waveforms) - 1
        tasks = [
            SimulationTask(
                task_id=k, group=SourceGroup(k, f"g{k}", (col,)),
                t_end=t_end, global_points=gts,
            )
            for k, col in enumerate((0, late))
        ]
        busy, quiet = BlockNodeRunner(system, opts).run(tasks)
        assert quiet.states.layout == () and quiet.states.nbytes == 0
        assert quiet.stats.n_steps == len(gts) - 1
        dense = quiet.states.dense()
        assert dense.shape == (len(gts), system.dim)
        assert not dense.any() and not np.signbit(dense).any()
        dc = np.full(system.dim, -0.0)  # +0.0 added to -0.0 would show
        times = [busy.times, quiet.times]
        with_quiet = superpose_states(dc, times, [busy.states, quiet.states])
        alone = superpose_states(dc, times[:1], [busy.states])
        assert with_quiet.tobytes() == alone.tobytes()


class TestTransport:
    def test_pickle_round_trip_is_bit_exact(self, marched):
        _name, _system, _opts, compiled, _tasks, results = marched
        back = pickle.loads(pickle.dumps(results))
        for r, b in zip(results, back):
            assert b.states.shape == r.states.shape
            assert b.states.layout == r.states.layout
            assert b.states.data.tobytes() == r.states.data.tobytes()
        assert _total(compiled, back).tobytes() == (
            _total(compiled, results).tobytes()
        )

    @needs_shm
    def test_shm_round_trip_is_bit_exact(self, marched):
        _name, _system, _opts, compiled, _tasks, results = marched
        prefix = new_segment_prefix()
        back = [from_shared(to_shared(r, prefix)) for r in results]
        for r, b in zip(results, back):
            assert b.states.layout == r.states.layout
            assert b.states.nbytes == r.states.nbytes
            assert b.states.data.tobytes() == r.states.data.tobytes()
        assert _total(compiled, back).tobytes() == (
            _total(compiled, results).tobytes()
        )
        assert cleanup_segments(prefix) == 0

    @needs_shm
    def test_straddling_scenarios_ship_factors_not_blocks(self, monkeypatch):
        """Three pg1t scenarios over two workers in chunks of 150 tasks:
        scenarios 0 and 2 are folded by the worker that holds them, and
        so are the first 50 nodes of scenario 1, which straddles the
        chunk border.  Its other 50 nodes come back per node — as
        factors, well under a third of the dense bytes — for the parent
        to resume the fold with."""
        system, opts, t_end, _ = CASES["pg1t"]()
        compiled = SimulationPlan(
            system, opts, t_end=t_end, batch="auto"
        ).compile(prime=False)
        n = compiled.n_nodes
        scenarios = [
            Scenario(f"s{i}", scales={0: 1.0 + 0.1 * i}) for i in range(3)
        ]
        with Session(compiled) as session:
            reference = session.sweep(scenarios, stack=3)

        shipped = []
        original = executors_mod.from_shared

        def recording(result):
            out = original(result)
            shipped.append(out)
            return out

        monkeypatch.setattr(executors_mod, "from_shared", recording)
        with MultiprocessExecutor(
            system, opts, max_workers=2, batch_width=n + n // 2,
        ) as ex:
            with Session(compiled, executor=ex) as session:
                got = session.sweep(scenarios, stack=3)
        for ref, res in zip(reference, got):
            assert res.result.states.tobytes() == ref.result.states.tobytes()
        assert [r.task_id for r in shipped if r.covers] == [0, n, 2 * n]
        assert shipped[n].covers == tuple(range(n, n + n // 2))
        per_node = shipped[n + n // 2:2 * n]
        assert all(isinstance(r.states, FactoredStates) for r in per_node)
        factored = sum(r.states.nbytes for r in per_node)
        dense = sum(int(np.prod(r.states.shape)) * 8 for r in per_node)
        assert factored < 0.3 * dense

    def test_spans_are_the_bases_workspaces_until_shipped(self, marched):
        """In process a span's ``B`` is its basis's Arnoldi workspace,
        not a copy; a pickle packs every span into one flat buffer."""
        name, system, _opts, _compiled, _tasks, results = marched
        spans = [
            s for r in results for s in r.states.spans
            if s[1] is not None and s[1].shape[1] > 2
        ]
        # (The small cases' spans are short enough to ship as rows.)
        assert spans or name != "pg1t"
        for _row0, _a, b in spans:
            assert b.base is not None and b.base.ndim == 2
            assert b.base.shape[1] == system.dim
            assert b.base.shape[0] >= b.shape[0]
        for r in results:
            back = pickle.loads(pickle.dumps(r.states))
            assert len({id(b.base) for _r, _a, b in back.spans}) <= 1
            assert back.nbytes == r.states.nbytes == r.states.data.nbytes

    def test_payload_type_passes_the_picklability_lint(self):
        assert picklable.check_modules(["repro.dist.messages"]) == []
        assert picklable.check_modules(["repro.dist.shm"]) == []


def test_warm_sweep_allocation_peak():
    """A warm serial 2-scenario pg1t sweep.  With 200 node tasks in one
    lockstep march: 332 MB at the commit that still wrote a dense
    ``(145 × 1058)`` block per task; ≈ 118 MB as factors (55 MB of it the
    200 33-row Arnoldi workspaces of one lockstep round, and each span
    factor copied twice more); ≈ 64 MB once each span factor *is* its
    basis's 6-row workspace, held as is.  ≈ 33 MB since ``stack="auto"``
    sizes a march by its operator block's bytes: two 100-task marches,
    each holding one scenario's ≈ 20 MB of span factors."""
    system, case = build_case("pg1t")
    opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6)
    compiled = SimulationPlan(
        system, opts, t_end=case.t_end, batch="auto"
    ).compile()
    scenarios = [Scenario(f"s{i}", scales={0: 1.0 + 0.1 * i}) for i in (1, 2)]
    with Session(compiled) as session:
        session.sweep(scenarios)
        tracemalloc.start()
        try:
            results = session.sweep(scenarios)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(results) == 2
    assert peak < 50e6


_DIGEST_SCRIPT = """
import json
from tests.test_golden_digests import CASES, MatexScheduler, digest
system, opts, t_end, decomposition = CASES["pg1t"]()
dres = MatexScheduler(system, opts, decomposition=decomposition, batch="auto").run(t_end)
print(json.dumps(digest([dres])))
"""


def test_bits_do_not_depend_on_the_blas_thread_count():
    """Determinism boundary, tested: the goldens' fingerprint does not
    include the BLAS thread count because the march does not see it."""
    root = Path(__file__).resolve().parent.parent
    digests = {}
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(
                [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
            ),
        )
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT], env=env, cwd=root,
            capture_output=True, text=True, check=True,
        )
        digests[threads] = json.loads(out.stdout.strip().splitlines()[-1])
    assert digests["1"] == digests["2"]
    recorded = json.loads(GOLDEN_PATH.read_text())
    if recorded["fingerprint"] == fingerprint():
        assert digests["1"] == recorded["cases"]["pg1t"]
