"""Supervision policy for the distributed executors.

PR 5's persistent pools self-healed *implicitly*: a worker death
disposed the broken pool and the **next** run respawned it, but the
failed batch itself was lost to an exception and nothing bounded,
delayed or even counted the healing.  This module turns that ad-hoc
behaviour into an explicit, configurable, observable policy:

* :class:`RetryPolicy` — how many times a failed batch is retried, with
  exponential backoff (deterministically jittered), an optional
  per-batch timeout, and an optional degradation ladder ("after K
  consecutive pool deaths, stop trusting process pools and run
  in-process");
* :class:`JobError` — the structured give-up error (attempts, elapsed
  wall time, the final cause) raised when the policy is exhausted;
* :class:`SupervisionStats` — the executor-lifetime counters
  (:class:`~repro.plan.session.Session` snapshots them per chunk and
  surfaces the deltas on
  :class:`~repro.dist.messages.DistributedResult`).

``retry=None`` on :class:`~repro.dist.executors.MultiprocessExecutor`
is the zero-retry policy of the same loop: one attempt, and a failure
re-raises its raw cause instead of a :class:`JobError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RetryPolicy", "JobError", "SupervisionStats"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry/backoff/timeout policy for one executor.

    Attributes
    ----------
    max_retries:
        Retries per batch after its first failure (0 = fail fast but
        still count/dispose cleanly).  A batch is attempted at most
        ``1 + max_retries`` times before :class:`JobError`.
    timeout:
        Per-batch wall-clock budget in seconds (``None`` = unbounded).
        On expiry the pool's workers are **force-killed** — a hung
        worker must not turn ``shutdown(wait=True)`` into a deadlock —
        and the batch is retried like any other failure.
    backoff:
        Delay before the first retry, in seconds.
    backoff_factor:
        Multiplier applied per subsequent retry (exponential backoff).
    jitter:
        Fractional jitter: the actual delay is
        ``backoff * factor**attempt * (1 + jitter * u)`` with
        ``u ∈ [0, 1)`` drawn from a generator seeded by
        ``(seed, attempt)`` — deterministic for reproducible tests,
        de-synchronised across policies with different seeds.
    degrade_after:
        Degradation ladder rung: after this many *consecutive* pool
        failures the executor stops respawning pools and answers every
        later batch through an in-process
        :class:`~repro.dist.executors.SerialExecutor` (with a
        ``RuntimeWarning``), instead of failing the sweep.  ``0``
        (default) disables degradation.  Note the safety trade: a fault
        that kills any process evaluating it (not just a pool worker)
        would then take the host process down — which is why worker
        kills injected via :mod:`repro.faults` disarm outside pools.
    seed:
        Jitter seed (see ``jitter``).
    """

    max_retries: int = 2
    timeout: float | None = None
    backoff: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    degrade_after: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout is not None and self.timeout <= 0.0:
            raise ValueError(
                f"timeout must be positive (or None), got {self.timeout}"
            )
        if self.backoff < 0.0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.degrade_after < 0:
            raise ValueError(
                f"degrade_after must be >= 0, got {self.degrade_after}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered."""
        base = self.backoff * self.backoff_factor ** attempt
        if base <= 0.0 or self.jitter == 0.0:  # repro: allow[RPL005] jitter=0.0 is the exact "disabled" sentinel
            return base
        u = random.Random(f"{self.seed}:{attempt}").random()
        return base * (1.0 + self.jitter * u)


class JobError(RuntimeError):
    """A batch failed permanently: the retry policy was exhausted.

    Attributes
    ----------
    attempts:
        Total attempts made (including the first).
    elapsed_seconds:
        Wall time from the first attempt to the give-up.
    cause:
        The final attempt's exception (also chained as ``__cause__``).
    """

    def __init__(
        self, message: str, attempts: int, elapsed_seconds: float,
        cause: BaseException | None = None,
    ):
        super().__init__(message)
        self.attempts = attempts
        self.elapsed_seconds = elapsed_seconds
        self.cause = cause


@dataclass
class SupervisionStats:
    """Executor-lifetime resilience counters (monotone).

    Attributes
    ----------
    retries:
        Batches re-submitted after a failure.
    pool_failures:
        Pool deaths observed (each disposed the pool and swept its
        shared-memory namespace).
    timeouts:
        Batches whose per-batch timeout expired (a subset of
        ``pool_failures``; the pool was force-killed).
    degradations:
        Times the executor dropped from pool to in-process execution
        (at most once per lifecycle).
    degraded_runs:
        Batches answered by the in-process fallback after degradation.
    """

    retries: int = 0
    pool_failures: int = 0
    timeouts: int = 0
    degradations: int = 0
    degraded_runs: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (used by ``repro serve``'s status endpoint)."""
        return {
            "retries": self.retries,
            "pool_failures": self.pool_failures,
            "timeouts": self.timeouts,
            "degradations": self.degradations,
            "degraded_runs": self.degraded_runs,
        }
