"""``repro serve``: a supervised plan-server daemon (ROADMAP item 1).

The realistic PDN workload behind the paper's throughput story is not
one sweep but a *stream* of what-if questions arriving over time — and
the expensive half of answering each one (ingest, decomposition, DC,
schedule construction, factorisation priming, worker-pool spawn) is
identical across all of them.  This daemon keeps that half **warm**: a
catalogue of :class:`~repro.plan.plan.CompiledPlan` entries, each with a
live :class:`~repro.plan.session.Session` over a persistent (optionally
multiprocess, retry-supervised) executor, answering run/sweep jobs from
concurrent clients over a local stream socket.

Failure semantics, by construction:

* **bounded admission** — jobs enter a bounded queue; a full queue
  rejects immediately (``kind="busy"``) instead of building unbounded
  backlog;
* **per-job deadline** — a job that waited past its deadline is
  answered ``kind="deadline"`` without executing (the client has
  usually given up; running it anyway would delay everyone behind it);
* **crash isolation** — each job body runs under a supervised executor
  in a worker thread; any failure (including a SIGKILLed pool worker
  exhausting its :class:`~repro.dist.supervision.RetryPolicy`) answers
  that one job ``kind="job"`` and the daemon lives on;
* **draining shutdown** — SIGTERM (or the ``shutdown`` op) stops
  accepting work, answers every already-accepted job, then closes the
  plan catalogue (worker pools, shm segments, socket) and exits 0.

The protocol is NDJSON (:mod:`repro.serve.protocol`); trajectories
never cross the wire — results return as SHA-256 digests of the state
bytes plus summary scalars, which is exactly what bit-reproducibility
audits need (two daemons agree on a scenario iff the digests match).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import os
import signal
from dataclasses import dataclass

from repro.core.options import SolverOptions, check_stack
from repro.dist.executors import MultiprocessExecutor
from repro.dist.messages import DistributedResult
from repro.dist.supervision import RetryPolicy
from repro.plan.plan import CompiledPlan, compile_deck, given, run_options
from repro.plan.scenario import Scenario, scenario_from_spec
from repro.plan.session import Session
from repro.serve.protocol import ProtocolError, encode, read_message

__all__ = ["LOAD_KEYS", "ServeConfig", "PlanServer"]

#: The keys a ``load`` request takes besides ``id`` and ``op``: the
#: plan's name, deck and horizon, then :func:`run_options`' settings.
RUN_SETTINGS = ("method", "gamma", "eps", "decomposition", "batch")
LOAD_KEYS = ("name", "netlist", "t_end", *RUN_SETTINGS)


@dataclass(frozen=True)
class ServeConfig:
    """Daemon configuration (the CLI ``serve`` flags, as an object).

    Attributes
    ----------
    socket_path:
        Filesystem path of the stream socket to listen on (created at
        start, unlinked at shutdown; a stale leftover is replaced).
    max_queue:
        Bounded admission: at most this many jobs may be queued
        (>= 1 — an unbounded queue is exactly the failure mode this
        daemon exists to prevent).
    job_timeout:
        Per-job deadline in seconds, measured from admission; expired
        jobs are answered ``kind="deadline"`` without executing.
        ``None`` disables deadlines.
    processes:
        Worker processes per plan entry (0 = in-process serial
        execution — still warm, just not parallel).
    retry:
        :class:`~repro.dist.supervision.RetryPolicy` for multiprocess
        entries (ignored when ``processes == 0``).  ``None`` keeps the
        executor's raise-through default — with crash isolation the
        daemon survives either way, but without retries a faulted job
        is answered as failed instead of transparently healed.
    stack:
        Stacking policy handed to :meth:`Session.sweep` for sweep jobs
        (``None``: the session's default).
    """

    socket_path: str
    max_queue: int = 16
    job_timeout: float | None = 120.0
    processes: int = 0
    retry: RetryPolicy | None = None
    stack: object = None

    def __post_init__(self):
        if self.max_queue < 1:
            raise ValueError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.job_timeout is not None and self.job_timeout <= 0.0:
            raise ValueError(
                f"job_timeout must be positive (or None), "
                f"got {self.job_timeout}"
            )
        if self.processes < 0:
            raise ValueError(
                f"processes must be >= 0, got {self.processes}"
            )
        if self.stack is not None:
            check_stack(self.stack)


class _PlanEntry:
    """One catalogue slot: a compiled plan with its warm session."""

    def __init__(
        self, name: str, compiled: CompiledPlan,
        processes: int, retry: RetryPolicy | None,
    ):
        self.name = name
        self.compiled = compiled
        self.system = compiled.system
        self.executor: MultiprocessExecutor | None = None
        if processes:
            self.executor = MultiprocessExecutor(
                compiled.system,
                compiled.options,
                max_workers=processes,
                batch_width=compiled.batch,
                retry=retry,
            )
            self.executor.prepare()
        self.session = Session(compiled, executor=self.executor)
        self.jobs_answered = 0

    def close(self) -> None:
        self.session.close()
        if self.executor is not None:
            self.executor.close()

    def describe(self) -> dict:
        info = {
            "n_nodes": self.compiled.n_nodes,
            "t_end": self.compiled.t_end,
            "jobs_answered": self.jobs_answered,
        }
        if self.executor is not None:
            info["supervision"] = self.executor.supervision.as_dict()
        return info


@dataclass
class _Job:
    """One admitted unit of queued work."""

    writer: asyncio.StreamWriter
    req_id: object
    op: str
    payload: dict
    deadline: float | None


class PlanServer:
    """The daemon: plan catalogue + bounded job queue + stream server."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.plans: dict[str, _PlanEntry] = {}
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_rejected = 0
        self._queue: asyncio.Queue | None = None
        self._server: asyncio.AbstractServer | None = None
        self._worker_task: asyncio.Task | None = None
        self._stopped: asyncio.Event | None = None
        self._draining = False
        self._writers: set[asyncio.StreamWriter] = set()

    # -- plan catalogue (synchronous: callable before the loop starts) ---------

    def add_plan(self, name: str, compiled: CompiledPlan) -> _PlanEntry:
        """Admit a compiled plan under ``name`` (replaces an old entry)."""
        old = self.plans.pop(name, None)
        if old is not None:
            old.close()
        entry = _PlanEntry(
            name, compiled, self.config.processes, self.config.retry
        )
        self.plans[name] = entry
        return entry

    def load_plan(
        self,
        name: str,
        netlist: str,
        options: SolverOptions | None = None,
        t_end: float | None = None,
        rom=None,
        **plan_kwargs,
    ) -> _PlanEntry:
        """Ingest a deck and compile it into a catalogue entry.

        The expensive path (:func:`repro.plan.plan.compile_deck`) runs
        exactly once, here; every later job against ``name`` is warm.
        ``options`` and ``plan_kwargs`` are what
        :func:`repro.plan.plan.run_options` returns.
        """
        compiled, _ = compile_deck(
            netlist, options, t_end,
            prime=self.config.processes == 0, rom=rom, **plan_kwargs,
        )
        return self.add_plan(name, compiled)

    def close_plans(self) -> None:
        """Release every entry's session/executor (idempotent)."""
        for entry in self.plans.values():
            entry.close()
        self.plans.clear()

    # -- job bodies (run in a worker thread, one at a time) ---------------------

    def _entry(self, payload: dict) -> _PlanEntry:
        name = payload.get("plan", "default")
        entry = self.plans.get(name)
        if entry is None:
            raise KeyError(
                f"unknown plan {name!r}; loaded: {sorted(self.plans)}"
            )
        return entry

    def _result_payload(
        self, entry: _PlanEntry, dres: DistributedResult
    ) -> dict:
        states = dres.result.states
        rails = states[:, : entry.system.n_nodes]
        return {
            "scenario": dres.scenario,
            "digest": hashlib.sha256(states.tobytes()).hexdigest(),
            "shape": list(states.shape),
            "min_rail": float(rails.min()) if rails.size else None,
            "retries": dres.retries,
            "degraded_runs": dres.degraded_runs,
            "rom_fallback": dres.rom_fallback,
        }

    def _execute(self, op: str, payload: dict) -> dict:
        """One queued job, executed to a response payload (thread body)."""
        if op == "load":
            unknown = sorted(set(payload) - {"id", "op", *LOAD_KEYS})
            if unknown:
                raise ValueError(
                    f"load got unknown key(s) {unknown}; accepted: "
                    f"{', '.join(LOAD_KEYS)}"
                )
            netlist = payload.get("netlist")
            if not netlist:
                raise ValueError("load needs a 'netlist' path")
            options, plan_kwargs = run_options(
                **{k: payload[k] for k in RUN_SETTINGS if k in payload}
            )
            entry = self.load_plan(
                payload.get("name", "default"), netlist, options,
                t_end=payload.get("t_end"), **plan_kwargs,
            )
            return {"plan": entry.name, "info": entry.describe()}
        entry = self._entry(payload)
        if op == "run":
            spec = payload.get("scenario")
            scenario = (
                scenario_from_spec(spec, entry.system)
                if spec is not None else Scenario()
            )
            dres = entry.session.run(scenario)
            entry.jobs_answered += 1
            return self._result_payload(entry, dres)
        if op == "sweep":
            specs = payload.get("scenarios")
            if not isinstance(specs, list) or not specs:
                raise ValueError(
                    "sweep needs a non-empty 'scenarios' list"
                )
            scenarios = [
                scenario_from_spec(s, entry.system, index=i)
                for i, s in enumerate(specs)
            ]
            results = entry.session.sweep(
                scenarios, **given(stack=self.config.stack)
            )
            entry.jobs_answered += len(results)
            return {
                "results": [
                    self._result_payload(entry, r) for r in results
                ],
            }
        raise ValueError(f"unknown queued op {op!r}")

    # -- asyncio machinery ------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, start the job worker, install SIGTERM drain."""
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._stopped = asyncio.Event()
        path = self.config.socket_path
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        from repro.serve.protocol import MAX_LINE

        self._server = await asyncio.start_unix_server(
            self._handle_client, path=path, limit=MAX_LINE
        )
        self._worker_task = loop.create_task(self._job_worker())
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(self.shutdown()),
                )

    async def serve(self) -> None:
        """Run until a drain (SIGTERM / ``shutdown`` op) completes."""
        await self.start()
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Draining shutdown: no new work, answer the backlog, exit.

        Idempotent.  Order matters: close the listener first (no new
        connections), mark draining (live connections get clean
        ``kind="draining"`` rejections), **join the queue** — the job
        worker writes each response before ``task_done()``, so the join
        returning proves every accepted job was answered — then stop
        the worker and release the catalogue (worker pools and their
        shared-memory namespaces).
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._queue.join()
        self._worker_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._worker_task
        for writer in list(self._writers):
            writer.close()
        # Executor teardown can take a moment (pool shutdown); it is
        # synchronous but we are past answering anyone, so inline is fine.
        self.close_plans()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.config.socket_path)
        self._stopped.set()

    async def _respond(
        self, writer: asyncio.StreamWriter, payload: dict
    ) -> None:
        try:
            writer.write(encode(payload))
            await writer.drain()
        except (ConnectionError, RuntimeError):
            # Client hung up; the job (if any) still ran to completion.
            pass

    def _status_payload(self) -> dict:
        return {
            "ok": True,
            "draining": self._draining,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "max_queue": self.config.max_queue,
            "processes": self.config.processes,
            "jobs": {
                "done": self.jobs_done,
                "failed": self.jobs_failed,
                "rejected": self.jobs_rejected,
            },
            "plans": {
                name: entry.describe()
                for name, entry in self.plans.items()
            },
        }

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    msg = await read_message(reader)
                except ProtocolError as exc:
                    await self._respond(
                        writer,
                        {"id": None, "ok": False, "kind": "protocol",
                         "error": str(exc)},
                    )
                    break
                if msg is None:
                    break
                await self._dispatch(writer, msg)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _dispatch(
        self, writer: asyncio.StreamWriter, msg: dict
    ) -> None:
        req_id = msg.get("id")
        op = msg.get("op")
        if op == "ping":
            await self._respond(
                writer,
                {"id": req_id, "ok": True, "pong": True,
                 "draining": self._draining},
            )
            return
        if op == "status":
            await self._respond(
                writer, {"id": req_id, **self._status_payload()}
            )
            return
        if op == "shutdown":
            await self._respond(writer, {"id": req_id, "ok": True})
            asyncio.ensure_future(self.shutdown())
            return
        if op not in ("load", "run", "sweep"):
            await self._respond(
                writer,
                {"id": req_id, "ok": False, "kind": "protocol",
                 "error": f"unknown op {op!r}"},
            )
            return
        if self._draining:
            self.jobs_rejected += 1
            await self._respond(
                writer,
                {"id": req_id, "ok": False, "kind": "draining",
                 "error": "daemon is draining; not accepting new jobs"},
            )
            return
        deadline = None
        if self.config.job_timeout is not None:
            deadline = (
                asyncio.get_running_loop().time() + self.config.job_timeout
            )
        job = _Job(writer, req_id, op, msg, deadline)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.jobs_rejected += 1
            await self._respond(
                writer,
                {"id": req_id, "ok": False, "kind": "busy",
                 "error": f"job queue full "
                          f"({self.config.max_queue} pending)"},
            )

    async def _job_worker(self) -> None:
        """Single consumer: answer queued jobs one at a time.

        One consumer means the warm sessions/executors are only ever
        touched from one thread at a time — the concurrency lives in
        admission and the pools, not in racing sessions.  The worker
        writes each job's response itself **before** ``task_done()``,
        which is what makes :meth:`shutdown`'s ``queue.join()`` a proof
        that every accepted job was answered.
        """
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            try:
                if job.deadline is not None and loop.time() > job.deadline:
                    self.jobs_rejected += 1
                    resp = {
                        "ok": False, "kind": "deadline",
                        "error": f"job waited past its "
                                 f"{self.config.job_timeout:g}s deadline",
                    }
                else:
                    try:
                        result = await asyncio.to_thread(
                            self._execute, job.op, job.payload
                        )
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except asyncio.CancelledError:
                        raise
                    except BaseException as exc:
                        # Crash isolation: one failed job answers as
                        # failed; the daemon (and every other job) lives.
                        self.jobs_failed += 1
                        resp = {
                            "ok": False, "kind": "job",
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    else:
                        self.jobs_done += 1
                        resp = {"ok": True, **result}
                resp["id"] = job.req_id
                await self._respond(job.writer, resp)
            finally:
                self._queue.task_done()
