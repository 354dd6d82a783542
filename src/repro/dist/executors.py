"""Task executors: where the computing nodes actually live.

Two interchangeable backends run a batch of
:class:`~repro.dist.messages.SimulationTask` messages:

* :class:`SerialExecutor` — one in-process runner serves every task.
  This *emulates* the cluster: wall-clock is the sum over nodes, but the
  recorded per-node statistics (and therefore the paper's max-over-nodes
  ``trmatex``) are identical to a real deployment, which is what Table 3
  reports.
* :class:`MultiprocessExecutor` — a ``concurrent.futures`` process pool;
  each worker process builds its own solver state once (its own
  factorisations, like a physical node).  Tasks travel as pickled
  messages; results travel back **zero-copy** through
  ``multiprocessing.shared_memory`` wherever
  :func:`~repro.dist.shm.shm_available` (trajectory arrays stay in
  shared segments, only metadata is pickled — see
  :mod:`repro.dist.messages`), and pickled whole elsewhere.

**One run path.**  Both backends cut their tasks into lockstep chunks
(:func:`_chunks`) and march every chunk with a
:class:`~repro.dist.block_runner.BlockNodeRunner`; ``batch_width`` only
says how wide the chunks are.  ``None`` / ``"off"`` **is width 1** — the
paper's per-node execution model (Sec. 3.4, Alg. 2), one task per
chunk, each building a basis at its own transition spots and
re-evaluating it over the whole span of snapshots in between — not a
different code path.  ``"auto"`` is one chunk per worker and an integer
a fixed width.  The results are bit-for-bit the same at every width
(``tests/test_golden_digests.py`` pins them to recorded digests).

**One fold rule.**  MATEX's only cross-node communication is the final
sum ``x = x_dc + Σ_k y_k``.  When ``run`` is given ``dc_states`` (one
per scenario, as a :class:`~repro.plan.Session` does), each chunk's
node factors are added to their scenario totals
(:class:`~repro.core.superposition.ScenarioTotals`) as soon as the chunk
has marched, in node order — the same additions in the same order as
summing whole node results, hence the same bits — so a run holds one
trajectory per scenario plus one chunk's factors, not every node's (at
width 1, one node's).  The scenario's first result is then the carrier
of the sum (``covers``) and the other summed results carry empty
``states``.  The serial executor sums every scenario across all its
chunks.

What crosses the process boundary.  In: one pickled
:class:`~repro.dist.messages.SimulationTask` per node (≈2.3 kB with a
plan-frozen schedule) plus one ``dim``-float DC vector per scenario that
starts in the chunk.  Out: a pool chunk folds every scenario *prefix* it
holds — a whole scenario, or the leading nodes of one that continues in
the next chunk — and returns one ``(K × dim)`` block per prefix plus
every node's :class:`~repro.core.stats.SolverStats`.  Only the nodes
after a chunk border travel as their own factors
(:class:`~repro.dist.messages.FactoredStates`, ≈ a sixth of the dense
block), and the parent's ``superpose`` resumes the carrier's sum with
them.  A prefix of one node of a longer scenario is not folded: its
dense block would be larger than its factors, so a width-1 pool ships
per-node factors.  ``"auto"`` chunks are cut on scenario boundaries
whenever a submission holds at least as many scenarios as workers.
Without ``dc_states`` every node keeps its own factors (the paper's
per-node view).

Both executors are deterministic: a task's floating-point trajectory
depends only on the task itself, never on which worker ran it, in what
order, or in which batch, so serial, multiprocess, per-node and batched
runs all agree bit-for-bit.
"""

from __future__ import annotations

import os
import signal
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Iterable, Sequence

import numpy as np

from repro import faults
from repro.circuit.mna import MNASystem
from repro.core.options import SolverOptions, check_batch
from repro.core.superposition import ScenarioTotals
from repro.dist.block_runner import BlockNodeRunner
from repro.dist.messages import NodeResult, SimulationTask
from repro.dist.shm import (
    cleanup_segments,
    from_shared,
    new_segment_prefix,
    shm_available,
    to_shared,
)
from repro.dist.supervision import JobError, RetryPolicy, SupervisionStats

__all__ = ["Executor", "SerialExecutor", "MultiprocessExecutor"]

#: Exceptions that mean "the batch ran out of wall clock" on every
#: supported Python (concurrent.futures.TimeoutError only became an
#: alias of the builtin in 3.11).
_TIMEOUT_ERRORS = (TimeoutError, _FuturesTimeout)

#: What ``retry=None`` means: one attempt, no timeout, no ladder.
_NO_RETRY = RetryPolicy(max_retries=0)


def _shutdown_pool(pool: ProcessPoolExecutor, force: bool = False) -> None:
    """Shut a pool down; ``force`` kills workers first (hung-task path).

    ``shutdown(wait=True)`` on a pool whose worker is stuck (or asleep
    under an injected delay) would wait forever — after a timeout the
    only safe move is to SIGKILL the worker processes and reap without
    waiting.
    """
    if force:
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already-dead races
                pass
        pool.shutdown(wait=False, cancel_futures=True)
    else:
        pool.shutdown(wait=True, cancel_futures=True)


def _batch_policy(width):
    """A validated ``batch_width`` policy; ``None`` is ``"off"``."""
    return "off" if width is None else check_batch(width, "batch_width")


def _resolve_batch_width(batch_width, n_tasks: int) -> int:
    """Normalise a batch-width policy to a concrete lockstep width.

    The one place a policy becomes a number: ``None`` / ``"off"`` → 1
    (per-node execution), ``"auto"`` → one lockstep batch over all
    tasks, an integer → fixed-width chunks.
    """
    batch_width = _batch_policy(batch_width)
    if batch_width == "off":
        return 1
    if batch_width == "auto":
        return max(n_tasks, 1)
    return batch_width


def _chunks(tasks: list, width: int) -> list[list]:
    return [tasks[i:i + width] for i in range(0, len(tasks), width)]


def _march_chunk(
    runner: BlockNodeRunner, chunk: list[SimulationTask]
) -> list[NodeResult]:
    """March one lockstep chunk — the single run path of both executors.

    The fault hook fires here, once per task, immediately before the
    chunk marches: in the host process, in a pool worker, and in the
    in-process rerun of a degraded pool alike.
    """
    for task in chunk:
        faults.on_task_start(task.task_id)
    return runner.run(chunk)


def _per_scenario(tasks: list, dc_states: Sequence | None) -> int:
    """Tasks per scenario of a submission with ``dc_states`` (0 without)."""
    if dc_states is None:
        return 0
    if not len(dc_states) or len(tasks) % len(dc_states):
        raise ValueError(
            f"{len(tasks)} task(s) do not split into "
            f"{len(dc_states)} equally long scenario(s)"
        )
    return len(tasks) // len(dc_states)


def _scenario_prefixes(
    start: int, length: int, per_scenario: int, dc_states: Sequence | None
) -> list[tuple[int, int, np.ndarray]]:
    """Scenarios that start inside the chunk ``tasks[start:start+length]``.

    Scenario ``j`` owns tasks ``[j·per_scenario, (j+1)·per_scenario)`` of
    the submission.  Returns ``(lo, count, dc_state)`` per scenario whose
    first node lies in the chunk, ``lo`` relative to the chunk and
    ``count`` the nodes of it the chunk holds — what the worker needs to
    fold that prefix itself.  A one-node prefix of a longer scenario is
    left out: folded, it would ship a dense block instead of one node's
    smaller factors.
    """
    if not dc_states:
        return []
    out = []
    for j in range(-(-start // per_scenario), len(dc_states)):
        lo = j * per_scenario - start
        if lo >= length:
            break
        count = min(per_scenario, length - lo)
        if count > 1 or count == per_scenario:
            out.append((lo, count, dc_states[j]))
    return out


class Executor:
    """Common interface: run tasks, yield results in task order.

    Executors are also **context managers** with an explicit lifecycle:
    :meth:`prepare` builds the long-lived backing state eagerly (worker
    pools, in-process solver state) and :meth:`close` releases it.
    Inside a ``with`` block the backing state **persists across**
    :meth:`run` calls — this is what lets a :class:`repro.plan.Session`
    stream many scenarios through one set of warmed-up workers.  Outside
    a ``with`` block (and without an explicit :meth:`prepare`), ``run``
    builds and releases that state per call.
    """

    def run(
        self,
        tasks: Sequence[SimulationTask],
        dc_states: Sequence[np.ndarray] | None = None,
    ) -> list[NodeResult]:
        """One :class:`NodeResult` per task, in task order.

        ``dc_states`` — one DC operating point per scenario, the tasks
        being that many equal-length consecutive runs — allows (never
        obliges) an executor to sum a scenario's leading nodes where
        they were marched; see :class:`NodeResult` ``covers``.
        """
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the long-lived backing state now (idempotent)."""

    def close(self) -> None:
        """Release the backing state built by :meth:`prepare` (idempotent)."""

    def __enter__(self) -> "Executor":
        self.prepare()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def workers(self) -> int:
        """Processes a submission is spread over (1 in process)."""
        return 1

    def max_factor_seconds(self, results: Iterable[NodeResult]) -> float:
        """The parallel factorisation cost chargeable to ``tr_total``.

        Nodes factor concurrently, so the distributed run pays the
        *slowest* node's factorisation once — not the sum.
        """
        return max((r.factor_seconds for r in results), default=0.0)


class SerialExecutor(Executor):
    """In-process emulation: one long-lived runner marches every task.

    Parameters
    ----------
    system, options:
        The full MNA system and shared solver options.
    batch_width:
        ``None`` / ``"off"`` (default) — width 1, the paper's per-node
        execution.  ``"auto"`` — one :class:`BlockNodeRunner` lockstep
        batch over all tasks.  ``int`` — lockstep batches of that width.
    """

    def __init__(
        self,
        system: MNASystem,
        options: SolverOptions | None = None,
        batch_width=None,
    ):
        self.batch_width = _batch_policy(batch_width)
        self.system = system
        self.options = options if options is not None else SolverOptions()
        self._runner: BlockNodeRunner | None = None

    @property
    def runner(self) -> BlockNodeRunner:
        """The lazily-built runner (factorisations amortised across runs)."""
        if self._runner is None:
            self._runner = BlockNodeRunner(self.system, self.options)
        return self._runner

    def prepare(self) -> None:
        """Build the solver state (and prime its factorisations) now.

        This is the in-process half of a compiled plan's "factor once"
        promise: the runner construction routes through the
        process-wide :data:`~repro.linalg.lu.FACTORIZATION_CACHE`, so a
        session pays it once and every scenario after that reuses it.
        """
        self.runner

    def close(self) -> None:
        self._runner = None

    def run(
        self,
        tasks: Sequence[SimulationTask],
        dc_states: Sequence[np.ndarray] | None = None,
    ) -> list[NodeResult]:
        """One result per task; with ``dc_states`` each chunk is added
        to its scenarios' sums once it has marched, and every scenario
        comes back as its carrier."""
        tasks = list(tasks)
        per = _per_scenario(tasks, dc_states)
        totals = ScenarioTotals(
            [(j * per, per, dc) for j, dc in enumerate(dc_states)]
        ) if per else None
        width = _resolve_batch_width(self.batch_width, len(tasks))
        out: list[NodeResult] = []
        for i, chunk in enumerate(_chunks(tasks, width)):
            results = _march_chunk(self.runner, chunk)
            out.extend(totals.add(i * width, results) if totals else results)
        return totals.carriers(out) if totals else out


# -- multiprocess backend ----------------------------------------------------------

# Per-process state: the pool initializer stores the configuration and
# the runner is built lazily by the first chunk, which then reports the
# construction-time factor-cache traffic.
_PROCESS_CONFIG: tuple[MNASystem, SolverOptions, str | None] | None = None
_PROCESS_RUNNER: BlockNodeRunner | None = None


def _init_process_worker(
    system: MNASystem, options: SolverOptions, shm_prefix: str | None
) -> None:
    global _PROCESS_CONFIG, _PROCESS_RUNNER
    _PROCESS_CONFIG = (system, options, shm_prefix)
    _PROCESS_RUNNER = None
    # Forked workers inherit the parent's signal plumbing — including,
    # under asyncio, the event loop's signal wakeup fd, which fork
    # leaves SHARED with the parent.  A SIGTERM delivered to a worker
    # (pool teardown terminates workers) would then be written into the
    # parent loop's wakeup pipe and misread as the parent's own signal
    # (observed: a broken-pool cleanup draining a `repro serve` daemon).
    # Workers take default dispositions instead.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass
    # Pool workers are disposable: lethal injected faults (kill@N) are
    # armed here and only here, so a degraded in-process rerun of the
    # same task can never take the host down.
    faults.mark_worker_process()


def _maybe_share(result: NodeResult) -> NodeResult:
    shm_prefix = _PROCESS_CONFIG[2]
    if shm_prefix is None:
        return result
    return to_shared(result, shm_prefix)


def _run_chunk_in_process(
    tasks: list[SimulationTask],
    prefixes: Sequence[tuple[int, int, np.ndarray]] = (),
) -> list[NodeResult]:
    """March one pool chunk, then sum the scenario prefixes it holds."""
    global _PROCESS_RUNNER
    assert _PROCESS_CONFIG is not None, "pool initializer did not run"
    if _PROCESS_RUNNER is None:
        _PROCESS_RUNNER = BlockNodeRunner(*_PROCESS_CONFIG[:2])
    results = _march_chunk(_PROCESS_RUNNER, tasks)
    if prefixes:
        totals = ScenarioTotals(prefixes)
        results = totals.carriers(totals.add(0, results))
    return [_maybe_share(r) for r in results]


class MultiprocessExecutor(Executor):
    """Real parallel backend over a local process pool.

    Parameters
    ----------
    system:
        The full MNA system, shipped once to each worker process by the
        pool initializer.
    options:
        Solver options shared by all workers.
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    batch_width:
        ``None`` / ``"off"`` (default) — width 1: one task per pool
        job, the paper's per-node execution.  ``"auto"`` — tasks are
        split into one lockstep chunk per worker, each marched by that
        process's :class:`BlockNodeRunner`; when :meth:`run` is given
        ``dc_states`` for at least as many scenarios as workers, the
        chunks are cut on scenario boundaries.  ``int`` — fixed chunk
        width.  Either way a chunk folds the scenario prefixes it holds
        (see the module docstring).
    retry:
        Every batch runs in one supervised attempt loop.  ``None``
        (default) is its zero-retry policy: a failure disposes the pool
        and re-raises the raw cause.  A
        :class:`~repro.dist.supervision.RetryPolicy` adds bounded
        retries with backoff, an optional per-batch timeout (expiry
        force-kills the hung workers), a structured
        :class:`~repro.dist.supervision.JobError` on give-up, and —
        with ``degrade_after > 0`` — a degradation ladder that falls
        back to in-process execution after that many consecutive pool
        failures.  Lifetime counters live on :attr:`supervision`.

    Notes
    -----
    Trajectory arrays return through ``multiprocessing.shared_memory``
    when :func:`~repro.dist.shm.shm_available` says the platform supports
    it, with only metadata pickled; otherwise the results are pickled
    whole.

    Outside a ``with`` block the pool is created per :meth:`run` call
    and torn down afterwards, so no processes linger between
    experiments.  As a context manager (or after an explicit
    :meth:`prepare`) the pool — and with it every worker process's
    factorisations and per-process :data:`~repro.linalg.lu.FACTORIZATION_CACHE`
    — **persists across runs**, which is what amortises worker spawn and
    factorisation cost over a whole scenario sweep.

    Exceptions raised inside a worker are re-raised here, on the first
    failing task in submission order; shared-memory segments created by
    a crashed worker are swept up before the exception propagates (see
    :func:`repro.dist.shm.cleanup_segments`).  A failure inside a
    *persistent* pool additionally disposes the (possibly broken) pool:
    the next :meth:`run` transparently spins up fresh workers, so one
    SIGKILLed worker cannot poison the scenarios that follow.  With a
    ``retry`` policy the failed batch itself is retried against the
    fresh pool — because task trajectories are deterministic, and a
    scenario is summed by one routine in one order wherever that
    happens, a retried (or degraded, in-process) batch is bit-identical
    to a never-failed one.
    """

    def __init__(
        self,
        system: MNASystem,
        options: SolverOptions | None = None,
        max_workers: int | None = None,
        batch_width=None,
        retry: RetryPolicy | None = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy or None, got {retry!r}"
            )
        self.batch_width = _batch_policy(batch_width)
        self.system = system
        self.options = options if options is not None else SolverOptions()
        self.max_workers = max_workers
        self.retry = retry
        #: Lifetime resilience counters (see
        #: :class:`~repro.dist.supervision.SupervisionStats`).
        self.supervision = SupervisionStats()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers: int = 0
        self._prefix: str | None = None
        self._persistent = False
        self._consecutive_failures = 0
        self._degraded = False
        self._serial: SerialExecutor | None = None

    @property
    def workers(self) -> int:
        """The pool width: ``max_workers``, else ``os.cpu_count()``."""
        return self.max_workers or os.cpu_count() or 1

    # -- pool lifecycle ---------------------------------------------------------

    def prepare(self) -> None:
        """Switch to (and spin up) the persistent-pool lifecycle.

        Worker processes — and their per-process factor caches — then
        survive across :meth:`run` calls until :meth:`close`.
        Idempotent.
        """
        self._persistent = True
        self._ensure_pool()

    def _ensure_pool(self, n_tasks: int | None = None) -> None:
        """Spawn the pool unless one is alive (first use, or respawn
        after a failure disposed it); a per-call pool is no wider than
        its ``n_tasks``."""
        if self._pool is not None:
            return
        self._pool_workers = self.workers
        if n_tasks is not None:
            self._pool_workers = min(self._pool_workers, n_tasks)
        self._prefix = new_segment_prefix() if shm_available() else None
        self._pool = ProcessPoolExecutor(
            max_workers=self._pool_workers,
            initializer=_init_process_worker,
            initargs=(self.system, self.options, self._prefix),
        )

    def _dispose_pool(self, force: bool = False) -> None:
        """Shut the pool down and sweep its shm namespace.

        ``force`` SIGKILLs the worker processes first — the timeout
        path, where a hung worker would otherwise deadlock the reap.
        """
        pool, prefix = self._pool, self._prefix
        self._pool = None
        self._prefix = None
        if pool is not None:
            _shutdown_pool(pool, force=force)
        if prefix is not None:
            # The happy path consumed (attached + unlinked) every
            # segment already; this reclaims whatever a failure left.
            cleanup_segments(prefix)

    def close(self) -> None:
        """End the persistent lifecycle and release the pool.

        Also resets the degradation latch: a closed-and-reused executor
        starts trusting process pools again (the counters on
        :attr:`supervision` keep accumulating for the lifetime of the
        executor object).
        """
        self._persistent = False
        self._dispose_pool()
        self._degraded = False
        self._consecutive_failures = 0
        if self._serial is not None:
            self._serial.close()
            self._serial = None

    # -- one batch ----------------------------------------------------------------

    def _map_tasks(
        self,
        tasks: list[SimulationTask],
        dc_states: Sequence[np.ndarray] | None,
        timeout: float | None,
    ) -> list[NodeResult]:
        """Cut ``tasks`` into pool jobs and gather the raw results."""
        n_scenarios = len(dc_states) if dc_states is not None else 0
        per_scenario = _per_scenario(tasks, dc_states)
        width = self.batch_width
        if width == "auto":
            # One lockstep chunk per worker process — of whole scenarios
            # when there are enough to go round, so each is superposed
            # by the worker that marched it.
            n_chunks = min(self._pool_workers, len(tasks))
            if n_scenarios >= n_chunks:
                width = -(-n_scenarios // n_chunks) * per_scenario
            else:
                width = -(-len(tasks) // n_chunks)
        width = _resolve_batch_width(width, len(tasks))
        chunks = _chunks(tasks, width)
        prefixes = [
            _scenario_prefixes(i * width, len(chunk), per_scenario, dc_states)
            for i, chunk in enumerate(chunks)
        ]
        return [
            r
            for chunk_results in self._pool.map(
                _run_chunk_in_process, chunks, prefixes, timeout=timeout
            )
            for r in chunk_results
        ]

    def _run_batch(
        self,
        tasks: list[SimulationTask],
        dc_states: Sequence[np.ndarray] | None,
        timeout: float | None,
    ) -> list[NodeResult]:
        """One attempt at one batch: map it over the pool, rehydrate.

        Called from :meth:`run`'s attempt loop only.  The pool is
        spawned on demand — per call outside the persistent lifecycle,
        and torn down again afterwards — which is also how a persistent
        pool heals: any failure (most importantly a worker SIGKILLed
        mid-task, which breaks the whole ``concurrent.futures`` pool)
        disposes the pool, force-killing hung workers after a timeout,
        and sweeps its shared-memory prefix, so a dead worker's
        segments are reclaimed at once and the next attempt or
        :meth:`run` call builds a fresh pool.  The exception still
        propagates: the attempt loop decides about a retry.
        """
        self._ensure_pool(None if self._persistent else len(tasks))
        try:
            raw = self._map_tasks(tasks, dc_states, timeout)
            results = [from_shared(r) for r in raw]
        except BaseException as exc:
            self._dispose_pool(force=isinstance(exc, _TIMEOUT_ERRORS))
            raise
        if not self._persistent:
            self._dispose_pool()
        return results

    def run(
        self,
        tasks: Sequence[SimulationTask],
        dc_states: Sequence[np.ndarray] | None = None,
    ) -> list[NodeResult]:
        """Run ``tasks`` on the pool; one result per task, in task order.

        With ``dc_states`` (one DC operating point per scenario; the
        tasks are that many consecutive, equally long scenarios) the
        nodes of a scenario that share its first node's chunk come back
        already summed: its first result is the carrier of ``x_dc`` plus
        those nodes (``covers`` set) and the others have empty
        ``states``; nodes in later chunks keep their own factors.
        Without it every result holds its node's own deviation
        trajectory.

        The batch is attempted under :attr:`retry` (class docstring);
        on give-up a policy raises :class:`JobError`, ``None`` the cause.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        _per_scenario(tasks, dc_states)
        if self._degraded:
            self.supervision.degraded_runs += 1
            return self._degraded_executor().run(tasks, dc_states)
        policy = self.retry if self.retry is not None else _NO_RETRY
        start = time.monotonic()
        attempts = 0
        while True:
            attempts += 1
            try:
                results = self._run_batch(tasks, dc_states, policy.timeout)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                self.supervision.pool_failures += 1
                if isinstance(exc, _TIMEOUT_ERRORS):
                    self.supervision.timeouts += 1
                self._consecutive_failures += 1
                if (
                    policy.degrade_after
                    and self._consecutive_failures >= policy.degrade_after
                ):
                    self._degrade(exc)
                    self.supervision.degraded_runs += 1
                    return self._degraded_executor().run(tasks, dc_states)
                if attempts > policy.max_retries:
                    if self.retry is None:
                        raise
                    elapsed = time.monotonic() - start
                    raise JobError(
                        f"batch of {len(tasks)} task(s) failed permanently "
                        f"after {attempts} attempt(s) over {elapsed:.2f}s "
                        f"(last cause: {exc!r})",
                        attempts=attempts,
                        elapsed_seconds=elapsed,
                        cause=exc,
                    ) from exc
                self.supervision.retries += 1
                delay = policy.delay(attempts - 1)
                if delay > 0.0:
                    time.sleep(delay)
            else:
                self._consecutive_failures = 0
                return results

    def _degrade(self, cause: BaseException) -> None:
        """Latch the degradation ladder: pools are no longer trusted."""
        self.supervision.degradations += 1
        self._degraded = True
        self._dispose_pool()
        warnings.warn(
            f"MultiprocessExecutor: {self._consecutive_failures} consecutive "
            f"pool failure(s) (last cause: {cause!r}); degrading to "
            f"in-process execution until this executor is closed",
            RuntimeWarning,
            stacklevel=3,
        )

    def _degraded_executor(self) -> SerialExecutor:
        """The lazily-built in-process fallback (same batch policy, so
        degraded results stay bit-identical to pool results)."""
        if self._serial is None:
            self._serial = SerialExecutor(
                self.system, self.options, batch_width=self.batch_width
            )
        return self._serial
