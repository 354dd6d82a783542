"""Golden state digests: every execution mode reproduces the same bits.

``tests/golden/state_digests.json`` holds SHA-256 digests of superposed
trajectories (and the summed ``SolverStats`` counters) recorded by
``MatexScheduler(batch="off")`` on the serial executor — the block
runner at width 1, the paper's per-node execution.  ``batch ∈ {"off",
1, 7, "auto"}`` on the serial executor and on a process pool over both
transports must all reproduce them: a node's answer is a factored
trajectory whatever the width, and one addition
(``repro.core.superposition._add_span``) folds its spans into the
scenario sum in task order wherever the tasks meet — in the march's
span fold or in ``superpose``.

**Oracles.**  The bits are the block path's own, so two independent
checks keep them honest.  The scalar :func:`tests.scalar_oracle.run_task`
march (one Alg. 2 step per grid point, dense rank-1 evaluation) is a
*tolerance* oracle: it must agree with the block path on states to
``max(1e-12·scale, 4 × spread)`` (``tests.scalar_oracle.oracle_budget``), where
``spread`` is the oracle's own movement under ±1-ulp perturbations of
its evaluations and ``G`` solves, recorded per case beside the digests
— the two differ in how a snapshot row is accumulated, an ordered
rank-1 loop there, a BLAS dot over ``m + 2`` terms here, and in how the
ETD vectors are formed, three ``G`` solves per segment there, two per
input shape combined per segment here — and **exactly** on every
convergence decision (steps, bases, reuses, Krylov solves, per-basis
dimensions).  And
each case stays within its posterior error budget of a reference that
shares no code with the Krylov machinery: the dense exact-ETD solver
(:func:`repro.linalg.exact_transient`) where ``C`` is invertible and the
system small, a fine fixed-step trapezoidal run otherwise.

**Determinism boundary.**  The digests are bits, so they are pinned for
one numerical stack: the numpy / scipy / BLAS builds, the machine
architecture and the SIMD level the BLAS dispatches its kernels on
(:func:`fingerprint`).  They do not depend on the BLAS thread count
(``tests/test_factored_trajectory.py`` digests pg1t under one and two
threads).  On any other stack the comparison is skipped with the reason
stated — the modes still have to agree with *each other* there, which
``tests/test_block_runner.py`` and ``tests/test_pool_reduction.py``
check without golden values.

Regenerate (from the repository root, only when the numbers are meant
to change): ``python -m tests.test_golden_digests``.  It re-measures the
spreads too (about a minute: six perturbed oracle runs per case).
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import simulate_trapezoidal
from repro.circuit import assemble
from repro.core import SolverOptions
from repro.core.solver import REUSE_SAFETY
from repro.dist import MatexScheduler, MultiprocessExecutor, executors
from repro.dist.shm import shm_available
from repro.linalg import exact_transient
from repro.pdn import (
    PdnConfig,
    WorkloadSpec,
    attach_pulse_loads,
    build_case,
    generate_power_grid,
)
from repro.plan import Session, SimulationPlan
from tests.conftest import ScalarOracleExecutor, build_multi_source_mesh
from tests.scalar_oracle import oracle_budget, oracle_spread
from tests.superpose_oracle import superpose_states

GOLDEN_PATH = Path(__file__).parent / "golden" / "state_digests.json"

#: SolverStats counters that must not depend on how a node was marched.
COUNTERS = (
    "n_steps", "n_krylov_bases", "n_reuses", "n_solves_krylov",
    "n_solves_etd",
)


def fingerprint() -> dict:
    """The numerical stack the digests are pinned for."""
    import scipy

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        "simd": sorted(cfg.get("SIMD Extensions", {}).get("found", [])),
    }


# -- cases ---------------------------------------------------------------------------


def _pg1t():
    system, case = build_case("pg1t")
    opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6)
    return system, opts, case.t_end, "bump"


def _rlc_rebuild():
    """Package inductance, loose γ: 14 snapshot-triggered basis rebuilds."""
    t_end = 2e-9
    net = generate_power_grid(PdnConfig(
        rows=12, cols=12, n_pads=2, l_package=5e-10, seed=9,
    ))
    attach_pulse_loads(net, WorkloadSpec(
        n_sources=32, n_shapes=8, t_end=t_end, time_grid_points=40, seed=9,
    ))
    opts = SolverOptions(method="rational", gamma=1e-12, eps_rel=1e-6)
    return assemble(net), opts, t_end, "bump"


def _mesh_bump_split():
    """Waveform overrides (split bumps) under the inverted method."""
    opts = SolverOptions(method="inverted", gamma=1e-10, eps_rel=1e-8)
    return assemble(build_multi_source_mesh()), opts, 1e-9, "bump-split"


CASES = {
    "pg1t": _pg1t,
    "rlc-rebuild": _rlc_rebuild,
    "mesh-bump-split": _mesh_bump_split,
}

#: The chaos gate's sweep (tests/test_chaos_gate.py): that test asserts
#: the faulted pool run equals a fault-free serial session; this file
#: asserts the serial session equals the recorded bits.
CHAOS_CASE = "pg1t-chaos-sweep"


def _chaos_sweep(batch, executor=None):
    from tests import test_chaos_gate as gate

    system, _case = build_case("pg1t")
    compiled = SimulationPlan(
        system, gate.OPTS, t_end=gate.T_END, decomposition="bump",
        max_nodes=8, batch=batch,
    ).compile(prime=False)
    if executor is not None:
        executor = executor(system, gate.OPTS)
    with Session(compiled, executor=executor) as session:
        return session.sweep(gate.scenarios_seed7(), stack=gate.STACK)


def digest(results) -> dict:
    """SHA-256 over times + states of each result, plus summed counters."""
    sha = hashlib.sha256()
    dims = []
    counters = dict.fromkeys(COUNTERS, 0)
    for dres in results:
        sha.update(np.ascontiguousarray(dres.result.times).tobytes())
        sha.update(np.ascontiguousarray(dres.result.states).tobytes())
        for stats in dres.node_stats:
            dims.append(list(stats.krylov_dims))
            for name in COUNTERS:
                counters[name] += getattr(stats, name)
    counters["krylov_dims_sha256"] = hashlib.sha256(
        json.dumps(dims).encode()
    ).hexdigest()
    return {"sha256": sha.hexdigest(), "counters": counters}


# -- the tests -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN_PATH.read_text())
    here = fingerprint()
    if recorded["fingerprint"] != here:
        pytest.skip(
            f"golden digests are pinned for {recorded['fingerprint']}; "
            f"this stack is {here} — bits may legitimately differ"
        )
    return recorded["cases"]


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return (request.param, *CASES[request.param]())


BATCHES = ("off", 1, 7, "auto")


@pytest.mark.parametrize("batch", BATCHES)
def test_serial_reproduces_scalar_digests(golden, case, batch):
    name, system, opts, t_end, decomposition = case
    dres = MatexScheduler(
        system, opts, decomposition=decomposition, batch=batch
    ).run(t_end)
    assert digest([dres]) == golden[name]


@pytest.mark.parametrize("channel", ["shm", "pickle"])
@pytest.mark.parametrize("batch", BATCHES)
def test_pool_reproduces_scalar_digests(
    golden, case, batch, channel, monkeypatch
):
    if channel == "shm" and not shm_available():
        pytest.skip("POSIX shared memory needed")
    if channel == "pickle":
        monkeypatch.setattr(executors, "shm_available", lambda: False)
    name, system, opts, t_end, decomposition = case
    executor = MultiprocessExecutor(system, opts, max_workers=2, batch_width=batch)
    dres = MatexScheduler(system, opts, decomposition=decomposition).run(
        t_end, executor=executor
    )
    assert digest([dres]) == golden[name]


#: ``SolverStats`` fields that record convergence decisions: the scalar
#: oracle must reproduce them exactly.  Its ETD pairs are its own: three
#: ``G`` solves per segment, where the block path solves two per input
#: shape (``n_solves_etd`` stays in the digests, which pin that count).
DECISIONS = tuple(c for c in COUNTERS if c != "n_solves_etd") + (
    "n_solves_dc", "krylov_dims",
)


def recorded_spread(name: str) -> float:
    """The oracle spread recorded for a golden case (see ``_regenerate``).

    A calibration, not a digest: it is read on any numerical stack."""
    return json.loads(GOLDEN_PATH.read_text())["oracle_spread"]["cases"][name]


def assert_oracle_agrees(oracle, block, spread: float) -> None:
    """``run_task`` vs the block path: states inside
    :func:`oracle_budget`, every convergence decision exactly."""
    assert oracle.result.times.tobytes() == block.result.times.tobytes()
    scale = np.abs(block.result.states).max()
    diff = np.abs(oracle.result.states - block.result.states).max()
    assert diff <= oracle_budget(scale, spread)
    assert len(oracle.node_stats) == len(block.node_stats)
    for ref, got in zip(oracle.node_stats, block.node_stats):
        for name in DECISIONS:
            assert getattr(ref, name) == getattr(got, name), name


def test_scalar_oracle_reproduces_its_own_digests(golden, case):
    """``run_task`` — what is left of the scalar path — is a tolerance
    oracle: same decisions, states inside the budget its recorded spread
    calibrates."""
    name, system, opts, t_end, decomposition = case
    scheduler = MatexScheduler(system, opts, decomposition=decomposition)
    block = scheduler.run(t_end)
    assert digest([block]) == golden[name]
    oracle = scheduler.run(t_end, executor=ScalarOracleExecutor(system, opts))
    assert_oracle_agrees(oracle, block, recorded_spread(name))


def _reference(system, x_dc, times):
    """A trajectory on ``times`` from outside the Krylov machinery."""
    try:
        if system.dim > 200:
            raise np.linalg.LinAlgError("too large for the dense oracle")
        ref_times, states = exact_transient(system, x_dc, times[-1])
        assert np.allclose(ref_times, times, rtol=1e-12, atol=0.0)
        return states, 0.0
    except np.linalg.LinAlgError:
        h = times[-1] / 8000
        tr = simulate_trapezoidal(system, h, times[-1])
        # TR's own error: O(h²) — measured against a halved step.
        half = simulate_trapezoidal(system, h / 2, times[-1])
        at = tr.sample(times)
        return at, 4.0 * np.abs(half.sample(times) - at).max()


def test_cases_stay_within_their_posterior_budget(case):
    """Every basis is built to ``ε = eps_rel·‖v‖ + eps_abs`` and reused
    while its posterior estimate stays under ``REUSE_SAFETY·ε``; summed
    over a case's bases that bounds the distance to an independent
    reference (plus the reference's own discretisation error where it
    is TR)."""
    _name, system, opts, t_end, decomposition = case
    dres = MatexScheduler(
        system, opts, decomposition=decomposition, batch="auto"
    ).run(t_end)
    states = dres.result.states
    reference, ref_err = _reference(system, states[0], dres.result.times)
    n_bases = sum(s.n_krylov_bases for s in dres.node_stats)
    scale = np.linalg.norm(states - states[0], axis=1).max()
    budget = REUSE_SAFETY * n_bases * (opts.eps_rel * scale + opts.eps_abs)
    assert np.abs(states - reference).max() <= budget + ref_err


@pytest.mark.parametrize("batch", ["off", "auto"])
def test_chaos_gate_reference_reproduces_scalar_digests(golden, batch):
    assert digest(_chaos_sweep(batch)) == golden[CHAOS_CASE]


def test_rebuild_case_really_rebuilds(golden):
    """The RLC case earns its name: more bases than transition spots."""
    system, opts, t_end, decomposition = CASES["rlc-rebuild"]()
    plan = SimulationPlan(system, opts, t_end=t_end).compile(prime=False)
    n_lts = sum(sum(s.is_lts[:-1]) for s in plan.schedules)
    assert golden["rlc-rebuild"]["counters"]["n_krylov_bases"] > n_lts


def _oracle_spread(system, opts, t_end, decomposition) -> float:
    """:func:`~tests.scalar_oracle.oracle_spread` of one case, over the
    scalar oracle's node answers and their superposed sum."""
    compiled = SimulationPlan(
        system, opts, t_end=t_end, decomposition=decomposition
    ).compile(prime=False)
    tasks = Session(compiled)._scenario_tasks(0, None)

    def run():
        nodes = ScalarOracleExecutor(system, opts).run(tasks)
        total = superpose_states(
            compiled.x_dc, [r.times for r in nodes], [r.states for r in nodes]
        )
        return np.stack([r.states for r in nodes] + [total])

    return oracle_spread(run)


def _regenerate() -> None:
    """Rewrite the golden file from the per-node serial path."""
    cases, spreads = {}, {}
    for name, build in CASES.items():
        system, opts, t_end, decomposition = build()
        dres = MatexScheduler(
            system, opts, decomposition=decomposition, batch="off"
        ).run(t_end)
        cases[name] = digest([dres])
        spreads[name] = _oracle_spread(system, opts, t_end, decomposition)
    cases[CHAOS_CASE] = digest(_chaos_sweep("off"))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {
            "recorded_by": (
                'MatexScheduler(batch="off") on the serial executor (the '
                "block runner at width 1; factored node trajectories "
                "folded by superpose_states)"
            ),
            "fingerprint": fingerprint(),
            "cases": cases,
            "oracle_spread": {
                "measured_by": (
                    "tests.scalar_oracle.oracle_spread: largest change, in "
                    "volts, of the scalar oracle's node answers and their "
                    "sum over six seeded runs with every evaluation and "
                    "ETD G solve moved by one ulp"
                ),
                "cases": spreads,
            },
        },
        indent=2,
    ) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
