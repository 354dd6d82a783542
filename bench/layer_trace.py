"""Outside-in layer tracing: reversible wrappers, spans, self times.

The program under test has no span spine yet (ROADMAP item 1), so the
traced pass of the benchmark measures its layers **from outside**:
:meth:`Tracer.install` replaces the layers' callables *at the name the
caller resolves* — a method on its class, or a module-level function in
the namespace of the module that calls it (``repro.plan.session.superpose``,
not ``repro.core.superposition.superpose``: the ``from`` import bound a
second name, and patching the defining module would be invisible to the
caller).  :meth:`Tracer.uninstall` puts every original back; the
untraced pass never installs anything.

Each call records one span ``[name, start, end, parent, op]``; a span's
*self time* is its duration minus the part its direct children cover,
so self times of all spans sum to the duration of the root spans and a
layer is never charged for work done by a layer it called.  Limits of
the scheme, by construction:

* time spent in a callee that is **not** wrapped is charged to the
  nearest wrapped ancestor (e.g. the scalar per-node march shows up as
  self time of ``plan.session.sweep``);
* pool workers and the ``repro serve`` daemon are other processes — the
  tracer sees only the boundary call in this process (a forked worker
  inherits the wrappers but they pass straight through, keyed on pid);
* work a layer does lazily inside another layer's call (a triangular
  kernel exported on the first ``solve``) is charged to the caller.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "SETUP"]

#: Operation label of spans recorded during a workload's set-up.
SETUP = "setup"


def _solve_many_cols(_tracer, args, _result) -> dict:
    rhs = args[1]
    cols = rhs.shape[1] if getattr(rhs, "ndim", 1) == 2 else 1
    return {"linalg.lu.solve_many_cols": cols}


def _runner_width(_tracer, args, _result) -> dict:
    return {"dist.block_runner.width": len(args[1])}


def _shm_bytes(_tracer, _args, result) -> dict:
    return {"dist.shm.bytes": result.states.nbytes + result.times.nbytes}


def _request_bytes(_tracer, _args, result) -> dict:
    return {"serve.request_bytes": len(result)}


def _seen_chunks(tracer, _args, chunks) -> dict:
    """Remember how the executor really split its tasks (no re-derivation)."""
    tracer.chunk_sizes = [len(chunk) for chunk in chunks]
    return {}


def _pool_busy(tracer, _args, results) -> dict:
    """Per-worker busy seconds of one ``MultiprocessExecutor.run`` call.

    Each chunk the executor cut (observed at ``_chunks``) went to one
    worker, and the block runner apportions its march wall over its
    tasks' ``transient_seconds`` — so a chunk's sum is that worker's
    busy time as the worker itself reported it.  A run that did not
    chunk, or whose chunks do not add up to its results, is an executor
    this tracer does not understand: it raises instead of reporting 0.
    """
    sizes, tracer.chunk_sizes = tracer.chunk_sizes, None
    if not sizes or sum(sizes) != len(results):
        raise RuntimeError(
            f"MultiprocessExecutor.run returned {len(results)} results for "
            f"chunks {sizes}: the pool no longer splits its tasks through "
            f"repro.dist.executors._chunks, so worker busy time is unknown"
        )
    busy, start = [], 0
    for size in sizes:
        busy.append(sum(
            r.stats.transient_seconds for r in results[start:start + size]
        ))
        start += size
    mean = sum(busy) / len(busy)
    return {
        "dist.executors.worker_busy_s": sum(busy),
        "dist.executors.worker_imbalance": max(busy) / mean if mean else 0.0,
    }


#: Counters that keep their largest value instead of a sum.
_MAX_COUNTERS = frozenset({"dist.block_runner.width"})

#: (module, class or None, attribute, span name, counter function or None).
#: A counter function ``fn(tracer, args, result) -> {counter: number}`` runs
#: after the call; its numbers are summed over calls unless the counter is
#: one of :data:`_MAX_COUNTERS`.
_TARGETS = (
    ("repro.circuit.mna", "MNASystem", "rebind_sources",
     "circuit.mna.rebind", None),
    ("repro.circuit.mna", "MNASystem", "bu_series",
     "circuit.mna.bu_series", None),
    ("repro.plan.plan", "SimulationPlan", "compile", "plan.compile", None),
    ("repro.plan.session", "Session", "_validate",
     "plan.session.validate", None),
    ("repro.plan.session", "Session", "sweep", "plan.session.self", None),
    ("repro.plan.session", None, "superpose",
     "core.superposition.superpose", None),
    ("repro.linalg.lu", "SparseLU", "__post_init__", "linalg.lu.factor",
     None),
    ("repro.linalg.lu", "SparseLU", "prime_kernel",
     "linalg.triangular.prime", None),
    ("repro.linalg.lu", "SparseLU", "solve", "linalg.lu.solve", None),
    ("repro.linalg.lu", "SparseLU", "solve_many", "linalg.lu.solve_many",
     _solve_many_cols),
    ("repro.dist.block_runner", None, "build_bases_block",
     "linalg.block_krylov.build_bases", None),
    ("repro.dist.block_runner", None, "prime_eig_payloads",
     "linalg.block_krylov.prime_eig", None),
    ("repro.linalg.krylov", "KrylovBasis", "evaluate_many",
     "linalg.krylov.evaluate_many", None),
    ("repro.dist.block_runner", "BlockNodeRunner", "run",
     "dist.block_runner.run_self", _runner_width),
    ("repro.dist.executors", "MultiprocessExecutor", "prepare",
     "dist.executors.prepare", None),
    ("repro.dist.executors", "MultiprocessExecutor", "run",
     "dist.executors.run", _pool_busy),
    ("repro.dist.executors", None, "_chunks", "dist.executors.chunks",
     _seen_chunks),
    ("repro.dist.executors", None, "from_shared", "dist.shm.from_shared",
     _shm_bytes),
    ("repro.rom.model", "ReducedModel", "input_matrix",
     "rom.input_matrix", None),
    ("repro.rom.model", "ReducedModel", "answer", "rom.answer", None),
    ("repro.serve.client", "ServeClient", "request", "serve.request", None),
    ("repro.serve.client", None, "encode", "serve.encode", _request_bytes),
)


class Tracer:
    """Span recorder plus the install/uninstall of the layer wrappers."""

    def __init__(self):
        self.pid = os.getpid()
        #: ``[name, start, end, parent index, op label]`` per call.
        self.spans: list[list] = []
        #: Label stamped on new spans: :data:`SETUP` or a timed op index.
        self.op: object = SETUP
        self.counters: dict[tuple, float] = defaultdict(float)
        #: Sizes of the chunks the pool cut for the run now in flight.
        self.chunk_sizes: list[int] | None = None
        self._open: list[int] = []
        self._originals: list[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    # -- recording ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own calls into a layer."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, original, name: str, count):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:  # a forked pool worker
                return original(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(idx)
            counted = count(self, args, result) if count is not None else {}
            for key, value in counted.items():
                slot = (self.op, key)
                if key in _MAX_COUNTERS:
                    self.counters[slot] = max(self.counters[slot], value)
                else:
                    self.counters[slot] += value
            return result

        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target (idempotent until :meth:`uninstall`)."""
        if self._originals:
            return
        for module, cls, attr, name, count in _TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, count))
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- aggregation -------------------------------------------------------------

    def self_times(self, ops) -> dict[str, tuple[float, int]]:
        """``{span name: (self seconds, calls)}`` over the spans of ``ops``."""
        ops = set(ops)
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            if op in ops:
                slot = out[name]
                slot[0] += (end - start) - child[i]
                slot[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def root_seconds(self, ops) -> float:
        """Summed duration of the parentless spans of ``ops``."""
        ops = set(ops)
        return sum(
            end - start
            for _n, start, end, parent, op in self.spans
            if parent < 0 and op in ops
        )

    def counter(self, ops, key: str) -> float:
        """A counter folded over ``ops`` (sum, or max for ``_MAX_COUNTERS``)."""
        values = [self.counters.get((op, key), 0.0) for op in ops]
        if not values:
            return 0.0
        return max(values) if key in _MAX_COUNTERS else sum(values)
