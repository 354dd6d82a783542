"""ISSUE-8 chaos gate: the faulted sweep answers bit-identically.

With two injected worker kills and one injected shm-attach failure, an
8-scenario pg1t sweep under a supervised multiprocess executor must:

* complete with results **bit-identical** to the fault-free serial run
  (a retried batch is indistinguishable from a never-failed one),
* report the retries on :class:`~repro.dist.messages.DistributedResult`
  with zero degradations (the policy healed every fault),
* fire every armed directive exactly once,
* leak zero shared-memory segments.
"""

from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.core import SolverOptions
from repro.dist import MultiprocessExecutor, RetryPolicy
from repro.dist.shm import shm_available
from repro.pdn.suite import build_case
from repro.plan import Scenario, Session, SimulationPlan

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-7)
#: Shortened horizon: the gate is about failure paths, not Table 3.
T_END = 2e-9
N_SCENARIOS = 8
STACK = 2
#: Two successive kills of the first chunk's task 0, plus one parent-side
#: attach failure of a mid-chunk result (task ids restart per chunk, so
#: the shmfail targets a task every chunk delivers; fire-once makes the
#: first successful chunk pay it).
FAULT_SPEC = "kill@0,kill@0,shmfail@10"


@pytest.fixture(autouse=True)
def clean_fault_env():
    faults.uninstall()
    yield
    faults.uninstall()


def scenarios_seed7():
    rng = np.random.default_rng(7)
    return [
        Scenario(f"chaos{i}", scales={0: float(s)})
        for i, s in enumerate(rng.uniform(0.5, 1.5, size=N_SCENARIOS))
    ]


def shm_entries() -> set:
    base = Path("/dev/shm")
    return (
        {p.name for p in base.glob("repro*")} if base.is_dir() else set()
    )


@pytest.mark.skipif(not shm_available(),
                    reason="POSIX shared memory needed")
def test_chaos_gate_pg1t_sweep_is_bit_identical(tmp_path):
    system, _case = build_case("pg1t")
    compiled = SimulationPlan(
        system, OPTS, t_end=T_END, decomposition="bump",
        max_nodes=8, batch="auto",
    ).compile(prime=False)

    # Fault-free serial reference (the determinism contract makes the
    # serial batched run the oracle for the multiprocess one).
    with Session(compiled) as session:
        reference = session.sweep(scenarios_seed7(), stack=STACK)

    before = shm_entries()
    plan = faults.install(FAULT_SPEC, str(tmp_path / "faults"))
    retry = RetryPolicy(max_retries=4, backoff=0.01, jitter=0.0)
    with MultiprocessExecutor(
        system, OPTS, max_workers=2, batch_width="auto",
        retry=retry,
    ) as ex:
        with Session(compiled, executor=ex) as session:
            faulted = session.sweep(scenarios_seed7(), stack=STACK)

    # Every armed fault actually fired, exactly once each.
    assert plan.fired() == [
        "000.kill@0", "001.kill@0", "002.shmfail@10",
    ]

    # Bit-identical splice, in input order.
    assert [r.scenario for r in faulted] == [
        r.scenario for r in reference
    ]
    for ref, got in zip(reference, faulted):
        assert (got.result.states.tobytes()
                == ref.result.states.tobytes()), got.scenario

    # Three failures (two kills + one attach), three healed retries,
    # no degradation — all surfaced on the results.
    assert ex.supervision.pool_failures == 3
    assert ex.supervision.retries == 3
    assert ex.supervision.degradations == 0
    assert sum(r.retries for r in faulted) == 3
    assert sum(r.degraded_runs for r in faulted) == 0

    # Zero leaked shared-memory segments.
    assert shm_entries() - before == set()
