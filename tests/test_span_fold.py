"""The scenario sum is the march's span destination.

:class:`repro.core.superposition.SpanFold` adds node ``k``'s closed span
to its scenario's total as soon as nodes ``0 … k−1`` have added those
rows, and queues it until then.  Pinned here:

* the fold's bits equal :func:`superpose_states` over whole node
  results, whatever order the spans arrive in (unit level, on blocks
  whose sum changes under any reassociation) and on the golden cases,
  in process at every width and through a 2-worker pool that splits the
  scenario across workers;
* its held-span count: 0 at width 1, below the bytes of all spans on a
  2-scenario pg1t lockstep sweep;
* the timing split: fold work inside the march is ``superpose_seconds``,
  never ``transient_seconds``;
* the posterior ledger: the same in every execution mode, and no state
  bit moves.
"""

import numpy as np
import pytest

from repro.core import SolverOptions
from repro.core import superposition
from repro.core.superposition import SpanFold, superpose, superpose_states
from repro.dist import (
    FactoredStates,
    MatexScheduler,
    MultiprocessExecutor,
    SerialExecutor,
)
from repro.dist.messages import DistributedResult
from repro.plan import Scenario, Session, SimulationPlan
from tests.conftest import ScalarOracleExecutor, build_multi_source_mesh
from tests.test_golden_digests import CASES


# -- unit level ------------------------------------------------------------------


def _span(row0, rows, rank=None, rng=None):
    """A ``(row0, A, B)`` span standing for ``rows`` (``A = None``), or a
    rank-``rank`` factorisation of random rows."""
    if rank is None:
        return (row0, None, rows)
    a = rng.standard_normal((len(rows), rank))
    b = rng.standard_normal((rank, rows.shape[1]))
    return (row0, a, b)


def _blocks(n_rows=6, dim=3):
    """Three nodes' spans on magnitudes 16 decades apart, so any change
    of the per-element addition order changes bits."""
    rng = np.random.default_rng(7)
    big = np.full((n_rows, dim), 1e16)
    nodes = [
        # node 0: rows 1-2 and 3-5
        [_span(1, big[:2]), _span(3, np.full((3, dim), 1.0))],
        # node 1: one span over rows 1-5
        [_span(1, -big[:5])],
        # node 2: factored spans 1-3, then (quiescent 4) row 5
        [_span(1, np.zeros((3, dim)), rank=2, rng=rng),
         _span(5, np.full((1, dim), 3.0))],
    ]
    return nodes, n_rows, dim


def _reference(dc, nodes, n_rows, dim):
    blocks = [FactoredStates.from_spans((n_rows, dim), s) for s in nodes]
    return superpose_states(dc, [np.arange(n_rows)] * len(nodes), blocks)


@pytest.mark.parametrize("order", [
    [0, 0, 1, 2, 2],          # node by node: width 1
    [2, 1, 0, 2, 0],          # last node first
    [1, 2, 0, 0, 2],
])
def test_fold_equals_superpose_states_in_any_arrival_order(order):
    nodes, n_rows, dim = _blocks()
    dc = np.array([0.5, -0.25, 7.0])
    times = np.arange(n_rows)
    fold = SpanFold([(0, 3, dc)])
    sinks = [fold.sink(k, times) for k in range(3)]
    pending = [list(spans) for spans in nodes]
    for k in order:
        sinks[k].append(pending[k].pop(0))
    for k in range(3):
        sinks[k].advance(n_rows)
    ((lo, count, total, _seconds),) = fold.totals()
    assert (lo, count) == (0, 3)
    assert total.tobytes() == _reference(dc, nodes, n_rows, dim).tobytes()
    assert fold.held_bytes == 0


def test_spans_wait_for_earlier_nodes_and_for_a_total_that_pays():
    """Three nodes march at once, none reaches the last of the 8 rows,
    and the 8 × 3 total is 192 B: it is allocated only once the spans
    cleared to go into it are at least that large."""
    times = np.arange(8)
    fold = SpanFold([(0, 3, np.zeros(3))])
    s0, s1, s2 = (fold.sink(k, times) for k in range(3))
    s1.append((1, None, np.ones((5, 3))))  # rows 1-5: node 0 added nothing
    assert fold.held_bytes == 120
    s0.append((1, None, np.ones((2, 3))))  # rows 1-2: cleared, 48 B < 192 B
    assert fold.held_bytes == 168
    # Rows 3-5 clear node 1's span too: 240 B ≥ 192 B, so the total is
    # allocated and everything cleared is added.
    s0.append((3, None, np.ones((3, 3))))
    assert fold.held_bytes == 0
    assert fold.peak_held_bytes == 240
    # With the total there, node 2's cleared span is added at once.
    s2.append((1, None, np.ones((5, 3))))
    assert fold.held_bytes == 0
    for sink in (s0, s1, s2):
        sink.append((6, None, np.ones((2, 3))))
    ((_lo, _n, total, _s),) = fold.totals()
    assert total.tolist() == [[0] * 3] + [[3] * 3] * 7
    assert fold.peak_held_bytes == 240


def test_a_quiescent_node_advances_without_emitting():
    """Node 0 idles through row 3 (its quiescent segment), so node 1's
    span over rows 1-3 (120 B of factors, more than the 96 B total)
    folds when node 0 advances, before node 0's first span arrives."""
    times = np.arange(6)
    fold = SpanFold([(0, 2, np.zeros(2))])
    s0, s1 = fold.sink(0, times), fold.sink(1, times)
    s1.append((1, np.eye(3), np.ones((3, 2))))
    assert fold.held_bytes == 120
    s0.advance(4)
    assert fold.held_bytes == 0
    s0.append((4, None, np.ones((2, 2))))
    s1.append((4, None, np.ones((2, 2))))
    ((_lo, _n, total, _s),) = fold.totals()
    assert total.tolist() == [[0, 0]] + [[1, 1]] * 3 + [[2, 2]] * 2


def test_an_unfinished_march_is_not_a_total():
    times = np.arange(4)
    fold = SpanFold([(0, 2, np.zeros(2))])
    fold.sink(0, times).append((1, None, np.ones((3, 2))))
    fold.sink(1, times).append((1, None, np.ones((2, 2))))
    with pytest.raises(RuntimeError, match="did not close"):
        fold.totals()


def test_positions_outside_the_fold_have_no_sink_and_grids_must_agree():
    fold = SpanFold([(2, 2, np.zeros(2))])
    assert fold.sink(0, np.arange(4)) is None
    assert fold.sink(4, np.arange(4)) is None
    fold.sink(2, np.arange(4))
    with pytest.raises(ValueError, match="aligned"):
        fold.sink(3, np.arange(5))


def test_superpose_resumes_a_carrier_in_node_order(mesh_system):
    """A carrier that covers the first node, plus per-node blocks after
    it, sums to the same bits as the whole list from ``x_dc``."""
    from repro.dist.messages import NodeResult

    nodes, n_rows, dim = _blocks()
    dc = np.array([0.5, -0.25, 7.0])
    times = np.arange(n_rows, dtype=float)
    blocks = [FactoredStates.from_spans((n_rows, dim), s) for s in nodes]
    head = superpose_states(dc, [times], blocks[:1])
    results = [
        NodeResult(0, 0, "n0", times, head, covers=(0,)),
        NodeResult(1, 1, "n1", times, blocks[1]),
        NodeResult(2, 2, "n2", times, blocks[2]),
    ]
    resumed = superpose(dc, results, system=mesh_system)
    assert resumed.states.tobytes() == (
        _reference(dc, nodes, n_rows, dim).tobytes()
    )
    # The carrier's own block is left as it was.
    assert head.tobytes() == superpose_states(dc, [times], blocks[:1]).tobytes()


# -- the golden cases ------------------------------------------------------------


@pytest.fixture(scope="module", params=sorted(CASES))
def golden_case(request):
    system, opts, t_end, decomposition = CASES[request.param]()
    compiled = SimulationPlan(
        system, opts, t_end=t_end, decomposition=decomposition
    ).compile(prime=False)
    tasks = Session(compiled)._scenario_tasks(0, None)
    nodes = SerialExecutor(system, opts, batch_width="auto").run(tasks)
    reference = superpose_states(
        compiled.x_dc, [r.times for r in nodes], [r.states for r in nodes]
    )
    return request.param, system, opts, compiled, tasks, reference


@pytest.mark.parametrize("width", [None, 7, "auto"])
def test_in_process_fold_equals_superpose_states(golden_case, width):
    _name, system, opts, compiled, tasks, reference = golden_case
    results = SerialExecutor(system, opts, batch_width=width).run(
        tasks, [compiled.x_dc]
    )
    carrier = results[0]
    assert carrier.covers == tuple(t.task_id for t in tasks)
    assert carrier.states.tobytes() == reference.tobytes()
    assert all(r.states.shape == (0, system.dim) for r in results[1:])
    if width is None:
        assert carrier.peak_held_bytes == 0


def test_pool_fold_split_across_workers_equals_superpose_states(golden_case):
    """One scenario, two workers: the first worker folds the scenario's
    first half, the second ships its nodes' factors, and ``superpose``
    resumes the carrier with them.  (A one-node half is not folded: the
    two-node case comes back per node and is summed from ``x_dc``.)"""
    _name, system, opts, compiled, tasks, reference = golden_case
    with MultiprocessExecutor(
        system, opts, max_workers=2, batch_width="auto"
    ) as ex:
        results = ex.run(tasks, [compiled.x_dc])
    half = -(-len(tasks) // 2)
    n_folded = half if half > 1 else 0
    assert results[0].covers == tuple(t.task_id for t in tasks[:n_folded])
    assert all(
        isinstance(r.states, FactoredStates) for r in results[n_folded:]
    )
    total = superpose(compiled.x_dc, results, system=system)
    assert total.states.tobytes() == reference.tobytes()


# -- held spans: a count that cannot flake --------------------------------------


def test_width_one_holds_no_span():
    """At width 1 a node marches alone: its scenario's total exists from
    its first span on, and no span ever waits."""
    system, opts, t_end, _ = CASES["pg1t"]()
    dres = MatexScheduler(system, opts, batch="off").run(t_end)
    assert dres.peak_held_bytes == 0


def test_lockstep_sweep_holds_less_than_all_spans():
    system, opts, t_end, _ = CASES["pg1t"]()
    compiled = SimulationPlan(
        system, opts, t_end=t_end, batch="auto"
    ).compile(prime=False)
    scenarios = [Scenario("hot", scales={0: 1.3}), Scenario("cold", scales={1: 0.7})]
    with Session(compiled) as session:
        got = session.sweep(scenarios, stack=2)
        tasks = [
            t for slot, s in enumerate(scenarios)
            for t in session._scenario_tasks(slot, session._validate(s))
        ]
    nodes = SerialExecutor(system, opts, batch_width="auto").run(tasks)
    all_spans = sum(r.states.nbytes for r in nodes)
    # One fold summed both stacked scenarios: both report its peak.
    assert got[0].peak_held_bytes == got[1].peak_held_bytes
    assert 0 < got[0].peak_held_bytes < all_spans


# -- the timing split -----------------------------------------------------------


def test_fold_time_is_write_back_not_transient(monkeypatch):
    """A fold slowed by a known sleep per span: the sleep shows up in
    ``superpose_seconds`` and in no node's ``transient_seconds``."""
    import time

    from repro.circuit import assemble

    pause = 0.02
    calls = []
    add_span = superposition._add_span

    def slow(total, span, buf):
        calls.append(span[0])
        time.sleep(pause)
        return add_span(total, span, buf)

    monkeypatch.setattr(superposition, "_add_span", slow)
    system = assemble(build_multi_source_mesh())
    opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
    for batch in ("off", "auto"):
        calls.clear()
        dres = MatexScheduler(
            system, opts, decomposition="source", batch=batch
        ).run(1e-9)
        injected = pause * len(calls)
        assert len(calls) >= 3
        assert dres.superpose_seconds >= injected
        assert sum(dres.node_transient_seconds) < 0.5 * injected


# -- the posterior ledger -------------------------------------------------------


LEDGER = ("posterior_sum", "posterior_max", "eps_sum")


def _ledger(dres: DistributedResult):
    return (
        [tuple(getattr(s, f) for f in LEDGER) for s in dres.node_stats],
        tuple(getattr(dres.result.stats, f) for f in LEDGER),
        dres.error_bound,
    )


@pytest.mark.parametrize("name", ["rlc-rebuild", "mesh-bump-split"])
def test_ledger_is_the_same_in_every_mode(name):
    system, opts, t_end, decomposition = CASES[name]()

    def run(batch, executor=None):
        return MatexScheduler(
            system, opts, decomposition=decomposition, batch=batch
        ).run(t_end, executor=executor)

    reference = run("off")
    others = [run(1), run(7), run("auto")] + [
        run("off", MultiprocessExecutor(
            system, opts, max_workers=2, batch_width=width,
        ))
        for width in (None, "auto")
    ]
    node_ledgers, merged, bound = _ledger(reference)
    assert bound.spent > 0 and 0 < bound.largest <= bound.spent
    assert bound.allowed > 0
    assert merged == (bound.spent, bound.largest, bound.allowed)
    for got in others:
        assert _ledger(got) == (node_ledgers, merged, bound)
        assert got.result.states.tobytes() == (
            reference.result.states.tobytes()
        )


@pytest.mark.parametrize("name", ["rlc-rebuild", "mesh-bump-split"])
def test_ledger_matches_the_scalar_oracle(name):
    """The scalar march commits one step at a time: its ledger counts
    the same estimates (a failed reuse check is not committed; the
    rebuilt basis's first step is), to round-off — its ETD vectors, and
    so its Krylov start vectors, differ from the runner's in the last
    bits."""
    system, opts, t_end, decomposition = CASES[name]()
    scheduler = MatexScheduler(system, opts, decomposition=decomposition)
    block = scheduler.run(t_end)
    oracle = scheduler.run(t_end, executor=ScalarOracleExecutor(system, opts))
    for got, ref in zip(block.node_stats, oracle.node_stats):
        for field in LEDGER:
            assert getattr(got, field) == pytest.approx(
                getattr(ref, field), rel=1e-6
            ), field
