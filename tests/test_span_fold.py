"""One fold rule: a chunk's node factors join the scenario sum as the
chunk ends.

:class:`repro.core.superposition.ScenarioTotals` adds every node of a
marched chunk to its scenario's total, in node order, and the executors
feed it chunk by chunk.  Pinned here:

* its bits equal :func:`superpose_states` over whole node results,
  whatever the chunking (unit level, on blocks whose sum changes under
  any reassociation) and on the golden cases, in process at every width
  and through a 2-worker pool that splits the scenario across workers;
* its held-factor count, exactly: the largest node's factor bytes at
  width 1, the chunk's summed factor bytes in lockstep;
* the timing split: the sum's work is ``superpose_seconds``, never
  ``transient_seconds``;
* the posterior ledger: the same in every execution mode, and no state
  bit moves.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import SolverOptions
from repro.core import superposition
from repro.core.superposition import ScenarioTotals, superpose
from repro.dist import (
    FactoredStates,
    MatexScheduler,
    MultiprocessExecutor,
    SerialExecutor,
)
from repro.dist.messages import DistributedResult, NodeResult
from repro.plan import Scenario, Session, SimulationPlan
from tests.conftest import ScalarOracleExecutor, build_multi_source_mesh
from tests.superpose_oracle import superpose_states
from tests.test_block_runner import OPTS, tasks_for
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


def _node(k, times, spans, dim):
    return NodeResult(
        k, k, f"n{k}", times, FactoredStates.from_spans((len(times), dim), spans)
    )


@pytest.mark.parametrize("chunks", [
    [[0], [1], [2]],          # width 1
    [[0, 1], [2]],
    [[0, 1, 2]],              # one lockstep chunk
])
def test_chunk_totals_equal_superpose_states(chunks):
    """Whatever the chunking, each node's factors are added in node
    order as its chunk ends: the bits of the whole-list sum."""
    nodes, n_rows, dim = _blocks()
    dc = np.array([0.5, -0.25, 7.0])
    times = np.arange(n_rows, dtype=float)
    totals = ScenarioTotals([(0, 3, dc)])
    out = []
    for chunk in chunks:
        results = [_node(k, times, nodes[k], dim) for k in chunk]
        out.extend(totals.add(chunk[0], results))
    assert all(r.states.shape == (0, dim) for r in out)
    carrier, *rest = totals.carriers(out)
    assert carrier.covers == (0, 1, 2)
    assert carrier.states.tobytes() == _reference(dc, nodes, n_rows, dim).tobytes()
    assert [r.states.shape for r in rest] == [(0, dim)] * 2


def test_results_outside_every_scenario_keep_their_factors():
    """Only the nodes of the listed scenarios are summed (a pool chunk
    lists the scenario prefixes it holds); the others keep their
    factors, and only the summed bytes count as held."""
    nodes, n_rows, dim = _blocks()
    times = np.arange(n_rows, dtype=float)
    results = [_node(k, times, nodes[k], dim) for k in range(3)]
    totals = ScenarioTotals([(1, 1, np.zeros(dim))])
    out = totals.add(0, results)
    assert out[0] is results[0] and out[2] is results[2]
    assert out[1].states.shape == (0, dim)
    assert totals.peak_held_bytes == results[1].states.nbytes


def test_a_node_off_its_scenario_grid_is_rejected(mesh_system):
    """The executor's fold checks every node's grid against its
    scenario's first node."""
    first, second = tasks_for(mesh_system)[:2]
    longer = tuple(mesh_system.global_transition_spots(2e-9))
    second = replace(second, t_end=2e-9, global_points=longer)
    with pytest.raises(ValueError, match="aligned"):
        SerialExecutor(mesh_system, OPTS).run(
            [first, second], [np.zeros(mesh_system.dim)]
        )


def test_superpose_resumes_a_carrier_in_node_order(mesh_system):
    """A carrier that covers the first node, plus per-node blocks after
    it, sums to the same bits as the whole list from ``x_dc``."""
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


def test_superpose_wraps_a_complete_carrier(mesh_system):
    """A carrier that covers every node already is the scenario total:
    ``superpose`` wraps its states, with no copy and no tile."""
    nodes, n_rows, dim = _blocks()
    dc = np.array([0.5, -0.25, 7.0])
    times = np.arange(n_rows, dtype=float)
    totals = ScenarioTotals([(0, 3, dc)])
    results = totals.carriers(
        totals.add(0, [_node(k, times, nodes[k], dim) for k in range(3)])
    )
    combined = superpose(dc, results, system=mesh_system)
    assert np.shares_memory(combined.states, results[0].states)
    assert combined.states.tobytes() == (
        _reference(dc, nodes, n_rows, dim).tobytes()
    )


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


# -- held factors: a count that cannot flake -----------------------------------


def test_width_one_holds_one_node():
    """At width 1 a chunk is one node: the executor holds the largest
    single node's factors, and never two nodes' at once."""
    system, opts, t_end, _ = CASES["pg1t"]()
    dres = MatexScheduler(system, opts, batch="off").run(t_end)
    compiled = SimulationPlan(system, opts, t_end=t_end).compile(prime=False)
    tasks = Session(compiled)._scenario_tasks(0, None)
    nodes = SerialExecutor(system, opts).run(tasks)
    assert dres.peak_held_bytes == max(r.states.nbytes for r in nodes)


def test_lockstep_sweep_holds_one_chunk():
    """Two stacked scenarios march as one ``"auto"`` chunk: the executor
    holds that chunk's summed factor bytes, once."""
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
    # One executor summed both stacked scenarios: both report its peak.
    assert got[0].peak_held_bytes == got[1].peak_held_bytes
    assert got[0].peak_held_bytes == sum(r.states.nbytes for r in nodes)


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
