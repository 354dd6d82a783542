"""Shared fixtures: small deterministic circuits for the whole suite,
plus the /dev/shm leak sanitizer guarding the segment lifecycle."""

from __future__ import annotations

import os
import re
from pathlib import Path

# One BLAS thread per process, set before numpy loads its BLAS: the
# suite forks 2-worker pools on small boxes, where unpinned OpenBLAS
# threads spin against each other (a 1 s pool run takes 5-10 s).  The
# results do not depend on it — tests/test_factored_trajectory.py
# digests the pg1t golden case under one and two threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from repro.circuit import Netlist, Pulse, assemble
from repro.core import MatexSolver
from repro.dist import Executor
from tests.scalar_oracle import run_task


#: A transport segment's name: ``repro{pid}x...`` (the pid that made it).
_SEGMENT = re.compile(r"repro(\d+)x")


def reclaimable_segment(name: str) -> bool:
    """Whether this session may reclaim the /dev/shm segment ``name``.

    Only ``repro{pid}x...`` segments whose pid is this process or a
    process that is no longer running (a finished worker or CLI
    subprocess of this suite): a live process's segments, another
    pytest session's included, are its own to reclaim.
    """
    match = _SEGMENT.match(name)
    if match is None:
        return False
    pid = int(match.group(1))
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, another user's
        return False
    return False


@pytest.fixture(scope="session", autouse=True)
def shm_leak_sanitizer():
    """Fail the suite if one of its ``repro*`` /dev/shm segments survives it.

    The zero-copy transport names every segment ``repro{pid}x...``
    (``repro.dist.shm.new_segment_prefix``) and guarantees reclamation
    through per-failure sweeps plus atexit/signal hooks.  A new segment
    of this session (:func:`reclaimable_segment`) still present after
    it means some code path allocated outside that lifecycle — the
    sanitizer reclaims it so one leak cannot poison later runs, then
    fails loudly.
    """
    shm = Path("/dev/shm")
    if not shm.is_dir():  # non-Linux: transport falls back off-shm
        yield
        return
    before = {p.name for p in shm.glob("repro*")}
    yield
    leaked = sorted(
        p.name for p in shm.glob("repro*")
        if p.name not in before and reclaimable_segment(p.name)
    )
    for name in leaked:
        try:
            (shm / name).unlink()
        except OSError:
            pass
    if leaked:
        pytest.fail(
            "leaked /dev/shm segments survived the test session "
            f"(reclaimed now): {', '.join(leaked)}",
            pytrace=False,
        )


class ScalarOracleExecutor(Executor):
    """The scalar reference march, task by task: the parity oracle.

    :func:`tests.scalar_oracle.run_task` walks a task's grid one Python
    step at a time — no block runner, no span batching, dense rank-1
    evaluation — which is the per-node path as it was before the
    executors, and then ``MatexSolver.simulate``, collapsed onto width-1
    lockstep.  It is a *tolerance* oracle: every executor, at every
    width, must reproduce its ``SolverStats`` decisions exactly (not its
    ETD pair count) and its states to round-off
    (``tests.scalar_oracle.oracle_budget``).
    """

    def __init__(self, system, options):
        self.solver = MatexSolver(system, options, deviation_mode=True)

    def run(self, tasks, dc_states=None):
        return [run_task(self.solver, task) for task in tasks]


def build_rc_ladder(n: int = 10, with_pulse: bool = True) -> Netlist:
    """Current-driven RC ladder: invertible C (dense-oracle friendly)."""
    net = Netlist(f"rc-ladder-{n}")
    for i in range(n):
        head = "0" if i == 0 else f"m{i}"
        net.add_resistor(f"R{i}", head, f"m{i + 1}", 2.0 + 0.1 * i)
        net.add_capacitor(f"C{i}", f"m{i + 1}", "0", 1e-13 * (1 + i))
    if with_pulse:
        net.add_current_source(
            "I0", f"m{n}", "0",
            Pulse(0.0, 1e-3, 1e-10, 5e-11, 2e-10, 5e-11),
        )
    return net


def build_small_pdn() -> Netlist:
    """Tiny grid with a VDD pad: singular C (regularization-free path)."""
    net = Netlist("small-pdn")
    for i in range(4):
        for j in range(4):
            if j + 1 < 4:
                net.add_resistor(f"Rh{i}{j}", f"g{i}_{j}", f"g{i}_{j + 1}", 0.5)
            if i + 1 < 4:
                net.add_resistor(f"Rv{i}{j}", f"g{i}_{j}", f"g{i + 1}_{j}", 0.5)
            net.add_capacitor(f"C{i}{j}", f"g{i}_{j}", "0", 2e-13)
    net.add_voltage_source("Vdd", "pad", "0", 1.8)
    net.add_resistor("Rpad", "pad", "g0_0", 0.05)
    net.add_current_source(
        "I0", "g3_3", "0", Pulse(0.0, 2e-3, 1e-10, 2e-11, 1e-10, 2e-11)
    )
    net.add_current_source(
        "I1", "g1_2", "0", Pulse(0.0, 1e-3, 1.9e-10, 2e-11, 5e-11, 3e-11)
    )
    return net


def build_multi_source_mesh(n: int = 6) -> Netlist:
    """Invertible-C mesh with three pulse sources (two sharing a shape)."""
    net = Netlist("multi-source-mesh")
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                net.add_resistor(f"Rh{i}_{j}", f"n{i}_{j}", f"n{i}_{j + 1}", 2.0)
            if i + 1 < n:
                net.add_resistor(f"Rv{i}_{j}", f"n{i}_{j}", f"n{i + 1}_{j}", 2.0)
            net.add_capacitor(f"C{i}_{j}", f"n{i}_{j}", "0", 1e-13 * (1 + i + j))
    net.add_resistor("Rg", "n0_0", "0", 0.05)
    net.add_current_source(
        "I1", f"n{n - 1}_{n - 1}", "0",
        Pulse(0.0, 5e-3, 1e-10, 5e-11, 2e-10, 5e-11),
    )
    net.add_current_source(
        "I2", "n2_3", "0", Pulse(0.0, 3e-3, 2e-10, 3e-11, 1e-10, 4e-11)
    )
    net.add_current_source(
        "I3", "n4_1", "0", Pulse(0.0, 2e-3, 1e-10, 5e-11, 2e-10, 5e-11)
    )
    return net


@pytest.fixture
def rc_ladder():
    return build_rc_ladder()


@pytest.fixture
def rc_ladder_system(rc_ladder):
    return assemble(rc_ladder)


@pytest.fixture
def small_pdn():
    return build_small_pdn()


@pytest.fixture
def small_pdn_system(small_pdn):
    return assemble(small_pdn)


@pytest.fixture
def mesh_system():
    return assemble(build_multi_source_mesh())


@pytest.fixture
def rng():
    return np.random.default_rng(20140601)  # DAC'14 started June 1st
