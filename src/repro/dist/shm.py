"""Zero-copy result transport over ``multiprocessing.shared_memory``.

A :class:`~repro.dist.messages.NodeResult` carries a ``(K × dim)``
trajectory — the dominant payload of a distributed run.  Returning it
through the process-pool pipe pickles every byte twice (serialise +
deserialise).  This module moves the trajectory through a POSIX shared
memory segment instead: the worker copies its states block into a
segment once, and only the **metadata** (segment name, shape, dtype —
a :class:`ShmArrayRef`) travels through the pipe.  The parent maps the
segment and hands numpy a zero-copy view.

Only results that still hold trajectory bytes get a segment.  When a
worker folded a scenario prefix itself (see
:mod:`repro.dist.executors`), that is the prefix's carrier alone — one
``K·dim·8``-byte segment, named after the carrier's task id — and the
other summed node results, whose ``states`` are empty, travel as plain
pickled metadata.  A per-node result (a node after a chunk border)
holds a :class:`~repro.dist.messages.FactoredStates`: its flat
factor buffer is what the segment carries, and the ref's ``factors``
field the shape and span layout that turn the mapped buffer back into
the same factored trajectory, still zero-copy.

Lifecycle contract
------------------
* The **worker** creates the segment, fills it, closes its mapping and
  *unregisters* it from its ``resource_tracker`` — ownership transfers
  to the parent through the returned ref.
* The **parent** attaches, immediately *unlinks* the name (POSIX keeps
  the memory alive while mapped), and ties the mapping's close to the
  result array's garbage collection.
* If a worker dies before handing over (SIGKILL, crash), the name would
  leak — :func:`cleanup_segments` sweeps every segment carrying the
  run's unique prefix; the executor calls it on any pool failure.
* If the **parent** dies mid-run (Ctrl-C, SIGTERM, un-caught error), the
  per-failure sweeps never run — so every prefix handed out by
  :func:`new_segment_prefix` is remembered until its sweep, and an
  ``atexit`` hook (plus the optional :func:`install_signal_sweep`
  SIGTERM chain, used by the CLI) reclaims whatever is left on the way
  out.  No ``/dev/shm`` leaks survive the process.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import signal
import uuid
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import faults
from repro.dist.messages import FactoredStates, NodeResult

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

__all__ = [
    "ShmArrayRef",
    "ShmAttachError",
    "shm_available",
    "new_segment_prefix",
    "to_shared",
    "from_shared",
    "cleanup_segments",
    "sweep_run_segments",
    "install_signal_sweep",
]


class ShmAttachError(RuntimeError):
    """A :class:`ShmArrayRef` points at a segment that no longer exists.

    Attaching consumes the segment *name* (the parent unlinks it
    immediately), so a ref is single-use by design: a duplicated or
    re-delivered ref — e.g. a retry after a pool failure handing the
    same result back twice — cannot be rehydrated a second time.
    """


@dataclass(frozen=True)
class ShmArrayRef:
    """Pickled stand-in for a trajectory array living in shared memory."""

    name: str
    shape: tuple
    dtype: str
    #: ``(shape, layout)`` of the :class:`FactoredStates` whose flat
    #: factor buffer the segment holds; ``None`` for a dense block.
    factors: tuple | None = None

    def run_prefix(self) -> str:
        """The run-unique sweep prefix this segment was created under.

        Names are built as ``f"{prefix}t{task_id}"`` (a reduced
        scenario's segment carries its carrier's task id) and the prefix
        (``repro<pid>x<hex8>``) can never contain ``"t"``, so splitting
        at the last ``"t"`` recovers it exactly.
        """
        return self.name.rpartition("t")[0]


def shm_available() -> bool:
    """Whether the shared-memory transport can be used on this platform.

    Requires a ``/dev/shm`` view of the segment namespace in addition
    to POSIX shared memory: without it :func:`cleanup_segments` cannot
    sweep the segments of a crashed worker, and the transport would
    trade a pickling cost for a potential memory leak.
    """
    return (
        shared_memory is not None
        and os.name == "posix"
        and Path("/dev/shm").is_dir()
    )


#: Prefixes handed out by :func:`new_segment_prefix` whose sweep has not
#: run yet — the exit/SIGTERM sweep reclaims exactly these.
_EXIT_PREFIXES: set[str] = set()
_EXIT_HOOK_INSTALLED = False


def new_segment_prefix() -> str:
    """A run-unique segment-name prefix (also the cleanup sweep key).

    Every prefix is remembered for the process-exit sweep until
    :func:`cleanup_segments` runs for it, so an interpreter that dies
    mid-run (Ctrl-C, fatal error) still reclaims its segments.
    """
    global _EXIT_HOOK_INSTALLED
    prefix = f"repro{os.getpid()}x{uuid.uuid4().hex[:8]}"
    _EXIT_PREFIXES.add(prefix)
    if not _EXIT_HOOK_INSTALLED:
        atexit.register(sweep_run_segments)
        _EXIT_HOOK_INSTALLED = True
    return prefix


def sweep_run_segments() -> int:
    """Sweep every not-yet-swept prefix of this process (exit hook body).

    Idempotent and cheap on the happy path (each live run's sweep is a
    no-op glob once its results were consumed).  Returns the number of
    segments reclaimed.
    """
    removed = 0
    for prefix in sorted(_EXIT_PREFIXES):
        removed += cleanup_segments(prefix)
    return removed


def install_signal_sweep(signums: tuple = (signal.SIGTERM,)) -> None:
    """Chain a segment sweep in front of the current signal disposition.

    For each signal: sweep first, then defer to whatever handler was
    installed before.  A default disposition becomes
    ``SystemExit(128 + signum)`` — the conventional fatal-signal exit
    code, and it lets ``atexit`` (and ``finally`` blocks) run, unlike
    the default handler's immediate kill.  An ignored signal stays ignored
    (after the sweep).  Used by the CLI so ``kill <pid>`` mid-sweep
    leaks nothing.
    """
    for signum in signums:
        prev = signal.getsignal(signum)

        def _handler(num, frame, _prev=prev):
            sweep_run_segments()
            if _prev is signal.SIG_IGN:
                return
            if callable(_prev):
                _prev(num, frame)
                return
            raise SystemExit(128 + num)

        signal.signal(signum, _handler)


def _unregister(raw_name: str) -> None:
    """Drop a segment from the creating process's resource tracker.

    Only the **worker** (creator) side calls this — it transfers
    ownership to the parent, so a worker tracker (its own process on
    spawn platforms) never destroys the segment before the parent
    attaches.  The parent side must *not* unregister explicitly:
    attaching registers the name once more and ``unlink()`` already
    unregisters it, so an extra call would underflow the tracker's
    bookkeeping.
    """
    try:  # pragma: no cover - tracker layout is a CPython internal
        from multiprocessing import resource_tracker

        resource_tracker.unregister(raw_name, "shared_memory")
    except Exception:
        pass


def to_shared(result: NodeResult, prefix: str) -> NodeResult:
    """Move ``result.states`` into a fresh shared segment (worker side).

    A result without trajectory bytes (its scenario was superposed into
    another result's ``states``) has nothing to share and is returned
    unchanged — it never owns a segment.
    """
    states, factors = result.states, None
    if isinstance(states, FactoredStates):
        # A per-node result: its spans cross as one flat buffer.
        states, factors = states.data, (states.shape, states.layout)
    states = np.ascontiguousarray(states)
    if not states.size:
        return result
    name = f"{prefix}t{result.task_id}"
    seg = shared_memory.SharedMemory(
        name=name, create=True, size=states.nbytes
    )
    dst = np.ndarray(states.shape, dtype=states.dtype, buffer=seg.buf)
    dst[:] = states
    ref = ShmArrayRef(
        name=name, shape=states.shape, dtype=states.dtype.str,
        factors=factors,
    )
    _unregister(seg._name)
    seg.close()
    return dataclasses.replace(result, states=ref)


def _close_segment(seg) -> None:
    try:  # pragma: no cover - GC-ordering dependent
        seg.close()
    except BufferError:
        pass


def from_shared(result: NodeResult) -> NodeResult:
    """Rehydrate a shared-memory result into a zero-copy view (parent).

    No-op for results whose states travelled as plain arrays (which
    also makes rehydrating an *already-rehydrated* result idempotent).
    The segment name is unlinked immediately — the mapping stays valid
    until the returned array is garbage collected — so each ref can be
    attached exactly once: a duplicated/re-delivered ref raises a clear
    :class:`ShmAttachError` instead of a bare ``FileNotFoundError``,
    after sweeping the run's remaining segments so a half-consumed
    batch cannot leak them.
    """
    ref = result.states
    if not isinstance(ref, ShmArrayRef):
        return result
    # A reduced scenario's segment stands for every task it sums, so an
    # attach fault armed at any of them fires on this segment.
    if any(
        faults.should_fail_attach(task_id)
        for task_id in result.covers or (result.task_id,)
    ):
        # Injected attach failure (shmfail@N): unlink the real segment
        # underneath the ref so the genuine missing-segment error path
        # below runs — no simulated exceptions.
        try:
            doomed = shared_memory.SharedMemory(name=ref.name)
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        else:
            try:
                doomed.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            _close_segment(doomed)
    try:
        seg = shared_memory.SharedMemory(name=ref.name)
    except FileNotFoundError as exc:
        swept = cleanup_segments(ref.run_prefix())
        raise ShmAttachError(
            f"shared segment {ref.name!r} no longer exists — the ref was "
            f"already attached once (attach unlinks the name) or the "
            f"segment was swept after a pool failure; a duplicated or "
            f"re-delivered ShmArrayRef cannot be rehydrated twice "
            f"(swept {swept} sibling segment(s) of this run)"
        ) from exc
    arr = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - swept concurrently
        pass
    weakref.finalize(arr, _close_segment, seg)
    states = arr if ref.factors is None else FactoredStates.from_flat(*ref.factors, arr)
    return dataclasses.replace(result, states=states)


def cleanup_segments(prefix: str) -> int:
    """Unlink every segment carrying ``prefix`` (worker-death sweep).

    Returns the number of segments reclaimed.  Best effort: on
    platforms without a ``/dev/shm`` view of the namespace this is a
    no-op (segments still die with the machine, and the normal handover
    path never leaks).
    """
    _EXIT_PREFIXES.discard(prefix)
    removed = 0
    base = Path("/dev/shm")
    if not base.is_dir():
        return removed
    for entry in base.glob(f"{prefix}*"):
        try:
            seg = shared_memory.SharedMemory(name=entry.name)
        except FileNotFoundError:
            continue
        except ValueError:
            # Created but never sized: its writer died between shm_open
            # and ftruncate, so there is nothing to map — drop the name.
            entry.unlink(missing_ok=True)
            removed += 1
            continue
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
        _close_segment(seg)
        removed += 1
    return removed
