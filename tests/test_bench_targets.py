"""The benchmark's traced pass must stay installable.

``bench/layer_trace.py`` wraps library callables by name (``_TARGETS``)
and some of its counters read their arguments by position.  The bench
is frozen against the library, so the library keeps those names and
call shapes: every target resolves to a callable, the positional
parameters the counters read are where they expect them, and a traced
pool sweep records worker busy time (its results add up to the chunks
the pool cut).
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.core import SolverOptions

LAYER_TRACE = Path(__file__).resolve().parent.parent / "bench" / "layer_trace.py"


@pytest.fixture(scope="module")
def layer_trace():
    spec = importlib.util.spec_from_file_location("layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    return getattr(owner, attr)


def test_every_target_resolves(layer_trace):
    assert layer_trace._TARGETS
    for module, cls, attr, name, _count in layer_trace._TARGETS:
        assert callable(_resolve(module, cls, attr)), name


@pytest.mark.parametrize("target, params", [
    (("repro.plan.session", None, "superpose"),
     ["dc_state", "node_results"]),
    (("repro.dist.block_runner", "BlockNodeRunner", "run"),
     ["self", "tasks"]),
    (("repro.dist.executors", "MultiprocessExecutor", "run"),
     ["self", "tasks", "dc_states"]),
    (("repro.dist.executors", None, "_chunks"), ["tasks", "width"]),
    (("repro.dist.executors", None, "from_shared"), ["result"]),
    (("repro.linalg.lu", "SparseLU", "solve_many"), ["self", "rhs"]),
])
def test_counted_targets_keep_their_call_shape(target, params):
    got = list(inspect.signature(_resolve(*target)).parameters)
    assert got[:len(params)] == params


def test_traced_pool_sweep_records_worker_busy_time(layer_trace):
    from repro.circuit import assemble
    from repro.dist import MultiprocessExecutor
    from repro.plan import Scenario, Session, SimulationPlan
    from tests.conftest import build_multi_source_mesh

    system = assemble(build_multi_source_mesh())
    opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
    compiled = SimulationPlan(
        system, opts, t_end=1e-9, decomposition="source", batch="auto"
    ).compile(prime=False)
    scenarios = [Scenario(f"s{i}", scales={0: 1.0 + 0.1 * i}) for i in range(3)]
    tracer = layer_trace.Tracer()
    tracer.op = 0
    with MultiprocessExecutor(
        system, opts, max_workers=2, batch_width="auto"
    ) as ex:
        with Session(compiled, executor=ex) as session:
            tracer.install()
            try:
                session.sweep(scenarios, stack=3)
            finally:
                tracer.uninstall()
    spans = tracer.self_times([0])
    assert spans["dist.executors.run"][1] == 1
    assert spans["core.superposition.superpose"][1] == len(scenarios)
    assert tracer.counter([0], "dist.executors.worker_busy_s") > 0
