"""Environment discipline and machine fingerprint of the benchmark.

Every number the benchmark reports depends on how many BLAS threads the
solver processes run, so the runner pins them *before* numpy is imported
anywhere (the sizing runs behind this benchmark measured 0.68 scenarios/s
through a 2-worker pool with default OpenBLAS threads against 2.9 with
one thread per process).  This module owns that pinning, the environment
handed to every spawned process, the ``nproc`` cap on the pool width
and the fingerprint stamped into every result.

The parent runner imports this module without numpy; only
:func:`fingerprint` (called in the measuring child) touches it.
All benchmark timing uses ``time.perf_counter``, which on Linux reads
the system-wide ``CLOCK_MONOTONIC`` — the runner relies on that to time
a child's set-up from the moment it was spawned.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Thread-count variables of the BLAS back ends numpy/scipy may link.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Pool width of ``sweep_pool`` on the reference box (capped by nproc).
POOL_WORKERS = 2


def nproc() -> int:
    """Cores this process may run on (cgroup/affinity aware)."""
    return len(os.sched_getaffinity(0))


def pool_workers() -> int:
    """Workers ``sweep_pool`` uses: processes x BLAS threads <= cores."""
    return min(POOL_WORKERS, nproc())


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark spawns.

    One BLAS thread per process, the repo's ``src`` on the import path,
    and no ``REPRO_*`` variable (fault plans, kernel modes and cache
    limits would silently change what is measured).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def vm_hwm_mib(pid: int | str = "self") -> float:
    """High-water resident set of a live process, MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def shm_segments() -> list[str]:
    """``repro*`` shared-memory segments currently in ``/dev/shm``."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    return sorted(n for n in names if n.startswith("repro"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD commit read from ``.git`` directly (no subprocess)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"  # the driver's checkout is not a git repository


def fingerprint(seed: int) -> dict:
    """What a reader needs to judge whether two results are comparable."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = f"{dep.get('name', '?')} {dep.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "pool_workers": pool_workers(),
        "git_sha": _git_sha(),
        "seed": seed,
    }
