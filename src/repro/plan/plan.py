"""Simulation plans: the freeze/compile half of plan → compile → execute.

MATEX's core economics (paper Sec. 3.4) are "factor once, reuse
forever": the Krylov operators depend only on the pencil ``(C, G, γ)``,
never on the inputs ``u(t)``.  Before this layer existed, every entry
path (scheduler, CLI, experiments runner) re-did source decomposition,
DC analysis, schedule construction and factorisation priming per run —
per *scenario* in a what-if sweep.  A :class:`SimulationPlan` freezes
the reusable half of a run, and :meth:`SimulationPlan.compile` performs
it exactly once:

* **group construction** — the input-source decomposition (bump /
  source / bump-split, optionally merged to ``max_nodes``),
* the shared **global-transition-spot grid** and one per-group marching
  :class:`~repro.core.transition.TransitionSchedule`,
* **DC analysis** ``G x_dc = B u(0)`` (priming the ``G`` factors in the
  process-wide :data:`~repro.linalg.lu.FACTORIZATION_CACHE`),
* **γ-factorisation priming** — the method pencil (``C + γG`` for
  R-MATEX) is factored into the cache so no later consumer pays it.

The result is a **picklable** :class:`CompiledPlan`: factorisations
live in the per-process cache (they cannot travel through a pipe), so a
plan shipped to another process re-primes lazily on first use while
every frozen decision — groups, grid, schedules, DC state — transfers
bit-exactly.  Execution against scenarios is the job of
:class:`~repro.plan.session.Session`.

This module deliberately imports nothing from :mod:`repro.dist` — the
scheduler is built *on top of* plans, not the other way around.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.ingest import ingest_file
from repro.circuit.mna import MNASystem
from repro.core.decomposition import (
    SourceGroup,
    decompose_by_bump,
    decompose_by_bump_split,
    decompose_by_source,
    merge_to_limit,
)
from repro.core.options import SolverOptions, check_batch
from repro.core.transition import TransitionSchedule, build_schedule
from repro.linalg.krylov import make_krylov_operator
from repro.linalg.lu import FACTORIZATION_CACHE, matrix_fingerprint

__all__ = [
    "DECOMPOSITIONS",
    "PlanError",
    "SimulationPlan",
    "CompiledPlan",
    "build_groups",
    "check_plan_args",
    "compile_deck",
    "given",
    "load_deck",
    "prime_factorizations",
    "run_options",
]

#: Recognised decomposition strategy names.
DECOMPOSITIONS = ("bump", "source", "bump-split")


class PlanError(ValueError):
    """A scenario (or plan configuration) violates a compiled contract."""


def check_plan_args(decomposition: str, max_nodes: int | None, batch) -> None:
    """Raise ``ValueError`` unless the decomposition, node cap and
    lockstep width are valid (a :class:`SimulationPlan`'s and a
    :class:`~repro.dist.scheduler.MatexScheduler`'s one check)."""
    if decomposition not in DECOMPOSITIONS:
        raise ValueError(
            f"unknown decomposition {decomposition!r}; "
            f"choose from {sorted(DECOMPOSITIONS)}"
        )
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    check_batch(batch)


def check_horizon(t_end: float) -> float:
    """Return the horizon ``t_end`` if it is a positive, finite time, else
    raise ``ValueError`` (the plan's check, which every front door runs
    on a horizon it was given before any deck opens)."""
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    return t_end


def given(**settings) -> dict:
    """The settings that were set: ``None`` keeps the library default."""
    return {k: v for k, v in settings.items() if v is not None}


def run_options(
    method=None, gamma=None, eps=None, decomposition=None, batch=None
) -> tuple[SolverOptions, dict]:
    """User run settings → ``(SolverOptions, plan_kwargs)``, or ``ValueError``.

    Every front door (the CLI's run commands, the daemon's ``load`` op)
    calls it before opening a deck.  ``None`` keeps the library default;
    ``plan_kwargs`` holds the ``decomposition``/``batch`` that were set.
    """
    options = SolverOptions(**given(method=method, gamma=gamma, eps_rel=eps))
    plan_kwargs = given(decomposition=decomposition, batch=batch)
    # The plan's one check, run on the given settings over its defaults.
    defaults = {"decomposition": SimulationPlan.decomposition, "batch": SimulationPlan.batch}
    check_plan_args(max_nodes=None, **{**defaults, **plan_kwargs})
    return options, plan_kwargs


def load_deck(netlist, t_end: float | None = None):
    """Stream a deck: ``(IngestResult, t_end or the deck's .tran stop)``.
    A given horizon is checked before the deck opens."""
    if t_end is not None:
        check_horizon(t_end)
    res = ingest_file(netlist)
    t_end = res.stats.tran_stop if t_end is None else t_end
    if t_end is None:
        raise PlanError(f"deck {netlist} has no .tran directive; pass --t-end "
                        f"(t_end in a load request)")
    return res, t_end


def compile_deck(netlist, options=None, t_end=None, prime=True, rom=None, **plan_kwargs):
    """The one deck → :class:`CompiledPlan` path (``repro sweep``,
    :meth:`repro.serve.PlanServer.load_plan`): :func:`load_deck`, a
    :class:`SimulationPlan`, its :meth:`~SimulationPlan.compile`.
    Returns ``(compiled, ingest_stats)``."""
    res, t_end = load_deck(netlist, t_end)
    plan = SimulationPlan(res.system, options, t_end=t_end, **plan_kwargs)
    return plan.compile(prime=prime, rom=rom), res.stats


def build_groups(
    system: MNASystem,
    decomposition: str,
    max_nodes: int | None = None,
    t_end: float | None = None,
) -> list[SourceGroup]:
    """The source groups (= computing nodes) of one decomposition.

    Single definition shared by :class:`SimulationPlan` and
    :class:`~repro.dist.scheduler.MatexScheduler`.  ``"bump-split"``
    unrolls periodic pulses over the simulation window, so it needs the
    horizon; the other strategies ignore ``t_end``.  The name is
    checked where the plan or scheduler is built
    (:func:`check_plan_args`).
    """
    if decomposition == "bump-split":
        if t_end is None:
            raise ValueError(
                "the 'bump-split' decomposition unrolls periodic "
                "sources over the simulation window; pass the horizon: "
                "groups(t_end=...)"
            )
        groups = decompose_by_bump_split(system, t_end)
    elif decomposition == "bump":
        groups = decompose_by_bump(system)
    else:
        groups = decompose_by_source(system)
    if max_nodes is not None:
        groups = merge_to_limit(groups, max_nodes)
    return groups


def prime_factorizations(system: MNASystem, options: SolverOptions) -> float:
    """Factor the method pencil into the process-wide cache.

    Returns the seconds this call actually spent factorising and
    building the sweep kernel (≈0 when the cache already held it).

    Performs exactly the cache-keyed factor call a node solver's
    construction performs (``C + γG`` for rational, ``G`` for inverted,
    ``C`` for standard) and discards the operator handle — the factors
    stay resident in :data:`~repro.linalg.lu.FACTORIZATION_CACHE`, so
    every later :class:`~repro.dist.block_runner.BlockNodeRunner` built
    in this process gets a hit instead of a factorisation.
    """
    op = make_krylov_operator(
        options.method, system.C, system.G, gamma=options.gamma
    )
    return op.lu.factor_seconds


@dataclass(frozen=True, eq=False)
class SimulationPlan:
    """The frozen, reusable half of a distributed MATEX run.

    A plan binds everything that does **not** change across a scenario
    sweep: the system (topology + base waveforms), the solver options
    (including γ, which keys the pencil factorisation), the
    decomposition policy, the horizon and the batching policy.  What
    *does* change per run — the input pattern — is bound later, one
    :class:`~repro.plan.scenario.Scenario` at a time.

    Attributes
    ----------
    system:
        Assembled MNA system (the base waveforms define the frozen
        transition grid).
    options:
        Solver options; defaults to R-MATEX settings.
    t_end:
        Simulation horizon (> 0).
    decomposition:
        ``"bump"`` (default), ``"source"`` or ``"bump-split"``.
    max_nodes:
        Optional round-robin merge cap on the group count.
    batch:
        Default lockstep policy for sessions over this plan: ``"auto"``
        (default — sweeps want the block-batched march), ``"off"``
        (width 1: per-node execution, same march one task at a time),
        or a fixed width.  Executors resolve the policy to a number
        (``repro.dist.executors._resolve_batch_width``); nothing else
        interprets it.
    """

    system: MNASystem
    options: SolverOptions | None = None
    t_end: float = 0.0
    decomposition: str = "bump"
    max_nodes: int | None = None
    batch: object = "auto"

    def __post_init__(self):
        if self.options is None:
            object.__setattr__(self, "options", SolverOptions())
        check_horizon(self.t_end)
        check_plan_args(self.decomposition, self.max_nodes, self.batch)

    def groups(self) -> list[SourceGroup]:
        """The plan's source groups (see :func:`build_groups`)."""
        return build_groups(
            self.system, self.decomposition, self.max_nodes, self.t_end
        )

    def compile(
        self, prime: bool = True, rom: "RomConfig | None" = None
    ) -> "CompiledPlan":
        """Perform the reusable work exactly once; freeze the outcome.

        Parameters
        ----------
        prime:
            Also factor the method pencil into this process's
            :data:`~repro.linalg.lu.FACTORIZATION_CACHE`.  Leave on for
            in-process execution; pass ``False`` when the plan will run
            on a :class:`~repro.dist.executors.MultiprocessExecutor`,
            whose worker *processes* must (and do) prime their own
            caches on first use.
        rom:
            Optional :class:`repro.rom.RomConfig`.  When given, the
            compile additionally projects the pencil onto a rational
            Krylov subspace (reusing the cache's ``G`` and γ-pencil
            factorisations) and bakes the resulting
            :class:`~repro.rom.ReducedModel` into the compiled plan;
            :meth:`Session.sweep <repro.plan.session.Session.sweep>`
            then answers scenarios from it, falling back to the
            full-order path per scenario when the posterior error
            bound exceeds ``rom.tol``.  A build failure degrades
            gracefully: the plan compiles without a model and records
            the reason in ``rom_error``.

        Returns
        -------
        CompiledPlan
            Picklable snapshot: groups, shared GTS grid, one marching
            schedule per group, the DC operating point, and the
            compile-time cost/cache accounting.
        """
        t0 = time.perf_counter()
        stats0 = FACTORIZATION_CACHE.stats()

        groups = self.groups()
        if not groups:
            raise ValueError(
                "every input source is constant: there is nothing to "
                "decompose — the DC operating point already is the full "
                "solution, no transient nodes are needed"
            )
        gts = tuple(self.system.global_transition_spots(self.t_end))
        grid = build_schedule(self.system, self.t_end, global_points=gts).points
        schedules = tuple(
            build_schedule(
                self.system,
                self.t_end,
                local_inputs=g.input_columns,
                waveform_overrides=g.overrides_dict() or None,
                grid=grid,
            )
            for g in groups
        )

        # Serial part (master): DC analysis over *all* inputs.  The G
        # factorisation is cache-served — all sub-tasks share the same
        # MNA pencil (Sec. 3.4), so after the first consumer in this
        # process it costs one substitution pair, not an LU.
        t_dc = time.perf_counter()
        lu_g = FACTORIZATION_CACHE.factor(self.system.G, label="G(dc)")
        x_dc = lu_g.solve(self.system.bu(0.0))
        dc_seconds = time.perf_counter() - t_dc

        # Every later consumer of the primed factors gets a cache view
        # with ``factor_seconds == 0``, so what priming paid is recorded
        # here and charged to the session's first result (the ``G``
        # factorisation itself is already inside ``dc_seconds``).
        factor_seconds = 0.0
        if prime:
            factor_seconds += prime_factorizations(self.system, self.options)

        reduced = None
        rom_error: str | None = None
        if rom is not None:
            from repro.rom import RomBuildError, build_reduced_model

            try:
                reduced = build_reduced_model(
                    self.system, self.options, self.t_end, rom
                )
            except RomBuildError as exc:
                rom_error = str(exc)

        stats1 = FACTORIZATION_CACHE.stats()
        compiled = CompiledPlan(
            system=self.system,
            options=self.options,
            t_end=self.t_end,
            decomposition=self.decomposition,
            max_nodes=self.max_nodes,
            batch=self.batch,
            groups=tuple(groups),
            global_points=gts,
            schedules=schedules,
            x_dc=x_dc,
            dc_seconds=dc_seconds,
            factor_seconds=factor_seconds,
            compile_seconds=time.perf_counter() - t0,
            primed=prime,
            cache_hits=stats1["hits"] - stats0["hits"],
            cache_misses=stats1["misses"] - stats0["misses"],
            cache_evictions=stats1["evictions"] - stats0["evictions"],
            rom=reduced,
            rom_error=rom_error,
        )
        if reduced is not None:
            # Reduced models live outside the LRU (dense NumPy state,
            # not SuperLU factors) but belong in the same byte ledger;
            # re-compiling the same pencil/config overwrites its ledger
            # entry instead of accumulating.
            FACTORIZATION_CACHE.register_external(
                f"rom:{compiled.system_fingerprint()}"
                f"-q{rom.q_max}m{rom.moments}",
                reduced.resident_bytes(),
            )
        return compiled


@dataclass(frozen=True, eq=False)
class CompiledPlan:
    """The frozen outcome of :meth:`SimulationPlan.compile`.

    Every field is picklable: a compiled plan can be shipped to another
    process (or cached on disk) and executed there with bit-identical
    results — factorisations are *not* carried (SuperLU objects cannot
    travel through a pipe) but re-prime lazily through the receiving
    process's :data:`~repro.linalg.lu.FACTORIZATION_CACHE`, and every
    frozen decision (groups, grid, schedules, DC state) transfers
    exactly.

    Attributes
    ----------
    groups:
        The frozen source decomposition, one entry per computing node.
    global_points:
        The shared global-transition-spot grid all scenarios march on.
    schedules:
        One pre-built :class:`~repro.core.transition.TransitionSchedule`
        per group (parallel to ``groups``) — stamped onto every
        scenario's :class:`~repro.dist.messages.SimulationTask` so a
        sweep never rebuilds them.
    x_dc:
        DC operating point of the *base* waveforms; scenarios that
        change ``u(0)`` get their own (cache-served) DC solve at
        execution time.
    dc_seconds, compile_seconds:
        Wall time of the DC analysis / the whole compile.
    factor_seconds:
        Wall time priming spent factorising the method pencil and
        exporting the substitution kernels (the ``G`` factorisation is
        part of ``dc_seconds``) — ≈0 on a warm cache or with
        ``prime=False``.  Later consumers see cache views that report
        zero, so a session charges this once, to its first result's
        ``factor_seconds``.
    primed:
        Whether the method pencil was factored at compile time.
    cache_hits, cache_misses, cache_evictions:
        Process-wide factor-cache traffic attributable to the compile;
        a session reports these on its first result, mirroring how
        workers attribute construction traffic.
    rom:
        The baked :class:`~repro.rom.ReducedModel`, or ``None`` when
        the plan was compiled without ``rom=`` (or the build failed).
        Dense NumPy state throughout, so the model pickles with the
        plan and is shared verbatim by multiprocess executors; its
        footprint is reported through the factorisation cache's
        ``external_bytes`` ledger.
    rom_error:
        Human-readable reason the requested reduced model could not be
        built (``None`` when no model was requested or the build
        succeeded); the plan stays fully usable full-order.
    """

    system: MNASystem
    options: SolverOptions
    t_end: float
    decomposition: str
    max_nodes: int | None
    batch: object
    groups: tuple[SourceGroup, ...]
    global_points: tuple[float, ...]
    schedules: tuple[TransitionSchedule, ...]
    x_dc: np.ndarray
    dc_seconds: float
    compile_seconds: float
    factor_seconds: float = 0.0
    primed: bool = True
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    rom: object | None = None
    rom_error: str | None = None
    _fingerprint: str | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_nodes(self) -> int:
        """Number of computing nodes (= source groups) per scenario."""
        return len(self.groups)

    def system_fingerprint(self) -> str:
        """Content digest of the frozen pencil inputs ``(C, G, B, γ)``.

        Two compiled plans with equal fingerprints share every
        factorisation in the process-wide cache; the digest is cached
        on first use (hashing is O(nnz)).
        """
        if self._fingerprint is None:
            digest = "-".join((
                matrix_fingerprint(self.system.C)[:16],
                matrix_fingerprint(self.system.G)[:16],
                matrix_fingerprint(self.system.B)[:16],
                f"{self.options.gamma:.12e}",
            ))
            object.__setattr__(self, "_fingerprint", digest)
        return self._fingerprint

    def summary(self) -> str:
        """One-line human digest (used by the sweep CLI).

        When the plan carries a reduced model the line is extended
        with the model's own summary (reduced dimension ``q``,
        deflation counts, tolerance, resident bytes and build time);
        when a requested model could not be built it is extended with
        ``rom unavailable: <reason>`` instead.
        """
        line = (
            f"compiled plan: {self.n_nodes} nodes "
            f"[{self.decomposition}], {len(self.global_points)} GTS "
            f"points, t_end={self.t_end:g}s, "
            f"compile {self.compile_seconds * 1e3:.1f} ms "
            f"(dc {self.dc_seconds * 1e3:.1f} ms, "
            f"cache {self.cache_hits}h/{self.cache_misses}m)"
        )
        if self.rom is not None:
            line += f"; {self.rom.summary()}"
        elif self.rom_error is not None:
            line += f"; rom unavailable: {self.rom_error}"
        return line
