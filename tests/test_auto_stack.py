"""``stack="auto"``: one march's operator block within a byte budget.

A lockstep march's operator block holds one float64 ``dim``-vector per
column, so "auto" stacks ``AUTO_STACK_BLOCK_BYTES // (8·dim·n_nodes)``
scenarios (at least one) into a march and submits one march per
executor worker.  Every assertion is a count, never a wall time.
"""

import pytest

import repro.dist.executors as executors_mod
from repro.core.options import SolverOptions
from repro.dist.executors import MultiprocessExecutor, SerialExecutor
from repro.pdn import build_case
from repro.plan import Scenario, Session, SimulationPlan
from repro.plan.session import AUTO_STACK_BLOCK_BYTES

#: The sweep bench's solver options.
OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6)


def scenarios(n):
    return [Scenario(f"s{i}", scales={0: 1.0 + 0.1 * i}) for i in range(n)]


def block_bytes(compiled):
    """One scenario's share of a march's operator block."""
    return 8 * compiled.system.dim * compiled.n_nodes


@pytest.fixture(scope="module")
def pg1t():
    system, case = build_case("pg1t")
    return system, SimulationPlan(system, OPTS, t_end=case.t_end).compile()


@pytest.fixture
def marches(monkeypatch):
    """Widths of the lockstep chunks marched in this process, in order."""
    widths = []
    original = executors_mod._march_chunk

    def recording(runner, chunk):
        widths.append(len(chunk))
        return original(runner, chunk)

    monkeypatch.setattr(executors_mod, "_march_chunk", recording)
    return widths


def submissions(monkeypatch, cls):
    """Task counts of every ``cls.run`` call, in order."""
    sizes = []
    original = cls.run

    def recording(self, tasks, dc_states=None):
        sizes.append(len(tasks))
        return original(self, tasks, dc_states)

    monkeypatch.setattr(cls, "run", recording)
    return sizes


def test_deck_sized_plan_marches_one_scenario_at_a_time(
    pg1t, marches, monkeypatch
):
    """pg1t: 100 nodes × 1058 unknowns is 0.8 MiB a scenario, so two
    would overflow the budget; each serial march is one scenario."""
    _system, compiled = pg1t
    assert compiled.n_nodes == 100
    assert block_bytes(compiled) <= AUTO_STACK_BLOCK_BYTES
    assert 2 * block_bytes(compiled) > AUTO_STACK_BLOCK_BYTES
    sizes = submissions(monkeypatch, SerialExecutor)
    with Session(compiled) as session:
        session.sweep(scenarios(2), stack="auto")
    assert sizes == [100, 100]
    assert marches == [100, 100]


def test_small_plan_stacks_scenarios_into_one_march(mesh_system, marches):
    compiled = SimulationPlan(mesh_system, OPTS, t_end=1e-9).compile()
    n = compiled.n_nodes
    assert 3 * block_bytes(compiled) <= AUTO_STACK_BLOCK_BYTES
    with Session(compiled) as session:
        session.sweep(scenarios(3), stack="auto")
    assert marches == [3 * n]


def test_pool_submits_one_scenario_per_worker(pg1t, monkeypatch):
    system, compiled = pg1t
    sizes = submissions(monkeypatch, MultiprocessExecutor)
    with MultiprocessExecutor(
        system, OPTS, max_workers=2, batch_width="auto"
    ) as ex:
        assert ex.workers == 2
        with Session(compiled, executor=ex) as session:
            session.sweep(scenarios(2), stack="auto")
    assert sizes == [200]
    assert SerialExecutor(system, OPTS).workers == 1


def test_held_bytes_equal_the_scenario_swept_alone(pg1t):
    """A stacked auto sweep holds each scenario's chunk as if it ran
    alone: no result reports a second scenario's factors."""
    _system, compiled = pg1t
    pair = scenarios(2)
    with Session(compiled) as session:
        together = session.sweep(pair, stack="auto")
        alone = [session.sweep([sc], stack="auto")[0] for sc in pair]
    for a, b in zip(together, alone):
        assert a.peak_held_bytes > 0
        assert a.peak_held_bytes == b.peak_held_bytes
