"""Command-line interface: simulate SPICE-dialect netlists with MATEX.

Usage (after ``pip install -e .``)::

    python -m repro.cli info grid.spice
    python -m repro.cli dc grid.spice
    python -m repro.cli simulate grid.spice --t-end 10n --method r-matex \
        --nodes n0_0 n5_5 --out waves.csv
    python -m repro.cli simulate grid.spice --t-end 10n --method tr \
        --h 10p --out waves.csv
    python -m repro.cli simulate grid.spice --t-end 10n --distributed \
        --out waves.npz
    python -m repro.cli run --netlist ibmpg_like.spice --distributed \
        --batch auto
    python -m repro.cli sweep --netlist ibmpg_like.spice \
        --scenarios patterns.json
    python -m repro.cli sweep --netlist ibmpg_like.spice \
        --scenarios random:1000:7 --rom 0.05

Every command reads its deck through :mod:`repro.circuit.ingest` (one
streaming pass into array columns, fit for ibmpg-style decks with 100k+
nodes); ``run`` also defaults ``--t-end`` to the deck's ``.tran`` stop
time.  A deck the reader rejects is a usage error (exit 2) naming its
line.  ``sweep`` compiles the deck **once** into
a :class:`~repro.plan.SimulationPlan` and executes many what-if input
scenarios against it in one :class:`~repro.plan.Session` (persistent
workers, stacked lockstep marches — see :mod:`repro.plan`); scenarios
come from a JSON spec file or ``random:<n>[:seed]`` synthetic load
patterns, and ``--rom tol[:q_max]`` answers them from a rational-Krylov
reduced-order model with a certified posterior bound and transparent
per-scenario full-order fallback (:mod:`repro.rom`).

``--method`` is a key of :data:`METHODS`: the MATEX flavours
(``r-matex``, ``i-matex``, ``mexp``) and the traditional baselines
(``tr``, ``be`` with ``--h``; ``tr-adaptive``).  ``--sink`` selects
where the trajectory is recorded (``memory``, ``downsample:<stride>``,
``npz:<path>`` for bounded-RAM streaming).

Times accept SPICE suffixes (``10n``, ``50p``).  Output formats: ``.csv``
(time + selected node voltages) and ``.npz`` (full state trajectory).
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys
from pathlib import Path

import numpy as np

from repro.analysis.droop import droop_report
from repro.analysis.lint.cli import add_lint_arguments, run_lint
from repro.baselines import (
    AdaptiveTrapezoidalIntegrator,
    BackwardEulerIntegrator,
    TrapezoidalIntegrator,
    dc_operating_point,
)
from repro.circuit.ingest import ingest_file
from repro.circuit.netlist import NetlistError
from repro.circuit.parser import ParseError, parse_value
from repro.core.options import BATCH_KEYWORDS, STACK_KEYWORDS, SolverOptions
from repro.core.options import check_batch, check_stack
from repro.core.results import TransientResult
from repro.core.solver import MatexSolver
from repro.dist.scheduler import MatexScheduler
from repro.engine import NpzStreamSink, make_sink
from repro.linalg.lu import FACTORIZATION_CACHE
from repro.plan.plan import (
    DECOMPOSITIONS, PlanError, check_horizon, compile_deck, given, load_deck, run_options,
)

__all__ = ["main", "build_parser", "METHODS"]

#: ``--method`` spelling -> (canonical name, MATEX Krylov flavour or
#: baseline class, whether ``--h`` is required).
METHODS = {
    "r-matex": ("r-matex", "rational", False),
    "rmatex": ("r-matex", "rational", False),
    "i-matex": ("i-matex", "inverted", False),
    "imatex": ("i-matex", "inverted", False),
    "mexp": ("mexp", "standard", False),
    "tr": ("tr", TrapezoidalIntegrator, True),
    "be": ("be", BackwardEulerIntegrator, True),
    "tr-adaptive": ("tr-adaptive", AdaptiveTrapezoidalIntegrator, False),
}
#: Krylov flavour -> canonical ``--method`` name.
_MATEX_NAMES = {row[1]: row[0] for row in METHODS.values() if isinstance(row[1], str)}


def _policy_type(check, keywords: tuple[str, ...]):
    """argparse type: one of ``keywords`` or an integer, then ``check``."""
    def parse(value: str):
        try:
            value = value if value in keywords else int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {', '.join(map(repr, keywords))} or a positive "
                f"integer, got {value!r}"
            ) from None
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and doc generation)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="MATEX transient simulation of PDN netlists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="netlist summary and GTS statistics")
    info.add_argument("netlist", type=Path)
    info.add_argument("--t-end", default="10n",
                      help="horizon for transition-spot statistics")

    dc = sub.add_parser("dc", help="DC operating point")
    dc.add_argument("netlist", type=Path)
    dc.add_argument("--nodes", nargs="*", default=None,
                    help="nodes to print (default: summary only)")

    sim = sub.add_parser("simulate", help="transient simulation")
    sim.add_argument("netlist", type=Path)
    sim.add_argument("--t-end", required=True,
                     help="simulation horizon (SPICE suffixes ok)")
    _add_sim_options(sim)

    run = sub.add_parser(
        "run",
        help="stream an ibmpg-style deck (100k+ nodes) and simulate",
        description="Transient simulation through the memory-bounded "
                    "streaming ingester (repro.circuit.ingest): the deck "
                    "is stamped directly into sparse matrices without "
                    "per-element objects.",
    )
    _add_deck_options(run)
    _add_sim_options(run)

    sweep = sub.add_parser(
        "sweep",
        help="compile one plan, execute many what-if scenarios",
        description="Scenario sweep through repro.plan: the deck is "
                    "streamed and compiled once (decomposition, DC, "
                    "schedules, factorisation priming), then every "
                    "scenario executes against the compiled plan in one "
                    "session — persistent workers, stacked lockstep "
                    "marches, bit-identical to independent cold runs.",
    )
    _add_plan_options(sweep)
    sweep.add_argument("--scenarios", required=True,
                       help="scenario source: a JSON spec file (see "
                            "repro.plan.load_scenarios_json) or "
                            "random:<n>[:seed] for n synthetic "
                            "switching-activity patterns")
    sweep.add_argument("--out-dir", type=Path, default=None,
                       help="write one <scenario>.npz trajectory per "
                            "scenario into this directory")
    _add_supervision_options(sweep)

    serve = sub.add_parser(
        "serve",
        help="long-lived plan-server daemon over a local socket",
        description="Compile the deck once and serve run/sweep jobs "
                    "from concurrent clients over a stream socket "
                    "(repro.serve): bounded job queue, per-job "
                    "deadlines, retry-supervised executors, draining "
                    "SIGTERM shutdown.  Results return as SHA-256 "
                    "digests plus summary scalars.",
    )
    _add_plan_options(serve)
    serve.add_argument("--socket", type=Path, required=True,
                       help="stream-socket path to listen on")
    serve.add_argument("--plan-name", default="default",
                       help="catalogue name of the preloaded plan")
    serve.add_argument(
        "--max-queue", type=int,
        help="bounded job-queue depth; a full queue rejects "
             "immediately with kind=busy (default 16)")
    _add_supervision_options(serve, serving=True)

    lint = sub.add_parser(
        "lint",
        help="project-invariant static analysis (RPL rules)",
        description="Lint source trees against the project invariants: "
                    "determinism (RPL001-RPL006), fork/shm lifecycle "
                    "safety (RPL010-RPL012), message picklability "
                    "(RPL020-RPL021) and async hygiene (RPL030).  "
                    "Exit 0 clean, 1 findings, 2 usage error.",
    )
    add_lint_arguments(lint)
    return parser


def _add_deck_options(p: argparse.ArgumentParser) -> None:
    """The streamed deck and its horizon (``run``, ``sweep``, ``serve``)."""
    p.add_argument("--netlist", type=Path, required=True,
                   help="ibmpg-style SPICE deck to stream")
    p.add_argument("--t-end", help="simulation horizon (SPICE suffixes "
                                   "ok); defaults to the deck's .tran stop time")


def _add_plan_options(p: argparse.ArgumentParser) -> None:
    """Deck, solver and execution options of ``sweep`` and ``serve``."""
    _add_deck_options(p)
    _add_method_options(p, "MATEX integrator (r-matex | i-matex | mexp)")
    p.add_argument(
        "--batch", type=_policy_type(check_batch, BATCH_KEYWORDS),
        help="lockstep policy (default auto: one block march per "
             "stacked submission)")
    p.add_argument(
        "--stack", type=_policy_type(check_stack, STACK_KEYWORDS),
        help="scenarios per executor submission: auto (default) or an "
             "integer to bound resident node trajectories")
    p.add_argument(
        "--processes", type=int, default=0,
        help="persistent worker processes (0 = in-process); export "
             "OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 first — unpinned "
             "BLAS threads oversubscribe the pool")
    p.add_argument(
        "--rom", default=None, metavar="TOL[:QMAX]",
        help="compile a reduced-order model into the plan: a scenario is "
             "answered from it when its posterior relative error bound "
             "is <= TOL (QMAX caps the reduced dimension, default 200), "
             "else re-run full-order")


def _add_method_options(p: argparse.ArgumentParser, method_help: str) -> None:
    """The run settings of every run command; unset (``None``) keeps the
    library default (:class:`SolverOptions`, the plan, the scheduler)."""
    p.add_argument("--method", choices=METHODS, metavar="METHOD", help=method_help)
    p.add_argument("--gamma", help="rational-Krylov shift")
    p.add_argument("--eps", type=float, help="relative Arnoldi error budget")
    p.add_argument("--decomposition", choices=DECOMPOSITIONS)


def _add_supervision_options(
    p: argparse.ArgumentParser, serving: bool = False
) -> None:
    """Retry/timeout/backoff/fault knobs (sweep --processes and serve).

    Every knob defaults to ``None``.  A sweep without one builds no
    policy: a pool failure raises through.  ``serve`` always builds one
    from :class:`~repro.dist.supervision.RetryPolicy`'s defaults (2
    retries, 50 ms backoff): a daemon exists to stay up.
    """
    p.add_argument(
        "--retries", type=int,
        help="max retries per failed task batch (bounded self-heal; "
             "exhaustion raises a structured JobError)"
             + ("; default 2" if serving else
                "; default: no retry policy, failures raise through"))
    p.add_argument(
        "--job-timeout", type=float,
        help=("per-job deadline in seconds: queued jobs past it are "
              "rejected unrun (default 120)" if serving else
              "per-batch wall-clock budget in seconds; expiry "
              "force-kills the hung workers and counts as a failure"))
    p.add_argument(
        "--backoff", type=float,
        help="base delay before the first retry, seconds (doubled per "
             "retry, deterministically jittered); default 0.05")
    p.add_argument(
        "--degrade-after", type=int,
        help="after this many consecutive pool failures, degrade to "
             "in-process execution with a warning instead of failing "
             "(default 0 = never degrade)")
    p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="deterministic fault injection for chaos testing: "
             "comma-separated kind@task[:arg] directives "
             "(kill@N | delay@N:sec | shmfail@N | evict@N), each "
             "firing exactly once; also REPRO_FAULTS")


def _retry_policy_from_args(args, serving: bool):
    """Build the RetryPolicy encoded by the supervision flags.

    Returns ``None`` when no flag was given on a sweep (failures raise
    through); ``serve`` always builds one.  serve's ``--job-timeout`` is
    the queue deadline, enforced by the daemon itself, so its per-batch
    budget stays unbounded.  Range errors surface as usage errors.
    """
    from repro.dist.supervision import RetryPolicy

    knobs = given(
        max_retries=args.retries, backoff=args.backoff,
        degrade_after=args.degrade_after,
        timeout=None if serving else args.job_timeout,
    )
    if not serving and not knobs:
        return None
    try:
        return RetryPolicy(**knobs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _add_sim_options(sim: argparse.ArgumentParser) -> None:
    """Simulation options shared by ``simulate`` and ``run``."""
    _add_method_options(sim, "integrator: " + " | ".join(METHODS))
    sim.add_argument("--h", default=None,
                     help="fixed step size for tr/be (SPICE suffixes ok)")
    sim.add_argument(
        "--sink", default="memory",
        help="trajectory sink: memory (default) | downsample:<stride> | "
             "npz:<path> (streams states to disk, bounded RAM)")
    sim.add_argument("--distributed", action="store_true",
                     help="use the bump-decomposition scheduler "
                          "(MATEX methods only)")
    sim.add_argument(
        "--batch", type=_policy_type(check_batch, BATCH_KEYWORDS),
        help="lockstep width for --distributed: off (width 1, the "
             "paper's per-node execution, default) | auto (one lockstep "
             "block march, bit-identical and several times faster) | "
             "<int> (fixed lockstep width per worker)")
    sim.add_argument("--nodes", nargs="*", default=None,
                     help="node voltages to export (default: all)")
    sim.add_argument("--out", type=Path, default=None,
                     help="output file (.csv or .npz)")
    sim.add_argument("--vdd", default=None,
                     help="nominal rail voltage: prints a droop report")


def _load(path: Path):
    return ingest_file(path).system


def _cache_stats_line() -> str:
    """Human-readable digest of the process-wide factorisation cache."""
    cs = FACTORIZATION_CACHE.stats()
    line = (
        f"factor cache: {cs['hits']} hits, {cs['misses']} misses, "
        f"{cs['evictions']} evictions; {cs['entries']} entries resident "
        f"({cs['resident_bytes'] / 2**20:.1f} MiB), limits "
        f"{cs['max_entries']} entries / {cs['max_bytes'] / 2**20:.0f} MiB"
    )
    ext = cs.get("external_bytes", 0)
    if ext:
        line += f"; external models {ext / 2**20:.1f} MiB"
    return line


def _cmd_info(args) -> int:
    system = _load(args.netlist)
    t_end = parse_value(args.t_end)
    print(system.summary())
    print(f"C singular: {system.is_c_singular()}")
    gts = system.global_transition_spots(t_end)
    print(f"global transition spots in [0, {t_end:g}]: {len(gts)}")
    scheduler = MatexScheduler(system)
    groups = scheduler.groups()
    print(f"bump groups (natural node count): {len(groups)}")
    print(_cache_stats_line())
    return 0


def _cmd_dc(args) -> int:
    system = _load(args.netlist)
    x, _ = dc_operating_point(system)
    rails = x[: system.n_nodes]
    print(f"DC solved: {len(rails)} node voltages, "
          f"min {rails.min():.6g} V, max {rails.max():.6g} V")
    for node in args.nodes or []:
        print(f"  {node}: {system.node_voltage(x, node):.6g} V")
    return 0


def _export(result: TransientResult, nodes, out: Path) -> None:
    system = result.system
    if out.suffix == ".npz":
        np.savez_compressed(
            out,
            times=result.times,
            states=result.states,
            node_names=np.array(system.node_names()),
        )
        return
    if out.suffix != ".csv":
        raise ValueError(f"unsupported output format {out.suffix!r}; "
                         f"use .csv or .npz")
    names = list(nodes) if nodes else list(system.node_names())
    with open(out, "w") as f:
        f.write("time," + ",".join(names) + "\n")
        for i, t in enumerate(result.times):
            row = [f"{t:.9e}"]
            for name in names:
                idx = system.node_index(name)
                row.append(f"{result.states[i, idx]:.9e}")
            f.write(",".join(row) + "\n")


class _UsageError(Exception):
    """An argv problem :func:`main` reports as a usage message, exit 2."""


def _t_end(args) -> float | None:
    return check_horizon(parse_value(args.t_end)) if args.t_end is not None else None


def _run_options(args, needs_matex: str | None):
    """argv → ``(METHODS row, SolverOptions, plan kwargs)`` before any deck
    opens (:func:`repro.plan.plan.run_options`); ``ValueError`` otherwise,
    also for a baseline method when ``needs_matex`` names what needs MATEX."""
    name, runs, needs_h = METHODS[args.method or _MATEX_NAMES[SolverOptions.method]]
    matex = isinstance(runs, str)
    if needs_matex and not matex:
        raise ValueError(
            f"{needs_matex} needs a MATEX method (r-matex, i-matex, "
            f"mexp), got {args.method!r}"
        )
    options, plan_kwargs = run_options(
        method=runs if matex else None,
        gamma=parse_value(args.gamma) if args.gamma is not None else None,
        eps=args.eps,
        decomposition=args.decomposition,
        batch=args.batch,
    )
    _t_end(args)  # the horizon fails on argv content too
    return (name, runs, needs_h), options, plan_kwargs


def _resolve_plan(args):
    """Validate everything ``simulate``/``run`` derive from argv alone.

    A streamed 100k-node deck takes seconds to minutes to ingest; a
    contradictory flag combination or an unparseable numeric option
    must fail before that work, not after.  Returns the
    :func:`_run_options` tuple so the simulation body never re-derives
    (and cannot drift from) these checks.  ``_UsageError`` exits with a
    usage message; ValueErrors raise through ``main()``.
    """
    if args.batch not in (None, "off") and not args.distributed:
        raise _UsageError(
            f"--batch {args.batch} only applies to --distributed runs"
        )
    plan = _run_options(args, "--distributed" if args.distributed else None)
    name, _, needs_h = plan[0]
    if args.distributed:
        if args.sink != "memory":
            raise ValueError(
                "--sink is not supported with --distributed: the "
                "superposition step needs every node's full trajectory "
                "in memory"
            )
    else:
        if args.h is not None and not needs_h:
            raise ValueError(
                f"integrator {name!r} chooses its own time axis; "
                f"--h only applies to fixed-grid methods (tr, be)"
            )
        if needs_h and args.h is None:
            raise ValueError(
                f"integrator {name!r} marches a fixed grid; "
                f"pass the step size with --h (e.g. --h 10p)"
            )
    for value in (args.h, args.vdd):
        if value is not None:
            parse_value(value)
    return plan


def _cmd_simulate(args) -> int:
    plan = _resolve_plan(args)
    system = _load(args.netlist)
    return _simulate_system(system, _t_end(args), args, plan)


def _report_deck(args, stats, t_end: float) -> None:
    print(stats.summary())
    if args.t_end is None:
        print(f"t_end = {t_end:g} s (from the deck's .tran directive)")


def _cmd_run(args) -> int:
    plan = _resolve_plan(args)
    res, t_end = load_deck(args.netlist, _t_end(args))
    _report_deck(args, res.stats, t_end)
    return _simulate_system(res.system, t_end, args, plan)


def _simulate_system(system, t_end: float, args, plan) -> int:
    """Run a :func:`_resolve_plan`-validated plan on a loaded system."""
    (name, runs, _), opts, plan_kwargs = plan

    if args.distributed:
        sink = None
        dres = MatexScheduler(system, opts, **plan_kwargs).run(t_end)
        result = dres.result
        print(f"distributed: {dres.n_nodes} nodes, "
              f"trmatex {dres.tr_matex * 1e3:.1f} ms, "
              f"tr_total {dres.tr_total * 1e3:.1f} ms, "
              f"LU cache hits {dres.factor_cache_hits}")
    else:
        sink = make_sink(args.sink)
        if isinstance(runs, str):
            integrator = MatexSolver(system, opts)
        elif args.h is not None:  # fixed grid: _resolve_plan required --h
            integrator = runs(system, parse_value(args.h))
        else:
            integrator = runs(system)  # adaptive: owns its step policy
        result = integrator.simulate(t_end, sink=sink)
        print(f"single node [{name}]: {result.stats.summary()}")

    if isinstance(sink, NpzStreamSink):
        print(f"states streamed to {sink.path}")

    if args.vdd is not None:
        report = droop_report(result, vdd=parse_value(args.vdd))
        print(report.summary())

    if args.out is not None:
        _export(result, args.nodes, args.out)
        print(f"wrote {args.out}")
    return 0


def _parse_scenario_source(spec: str):
    """Validate ``--scenarios`` from argv alone (before the deck load).

    Returns ``("random", n, seed)`` or ``("file", Path)``.
    """
    if spec.startswith("random:"):
        parts = spec.split(":")
        try:
            n = int(parts[1])
            seed = int(parts[2]) if len(parts) > 2 else 2014
            # seed >= 0: numpy's default_rng rejects negative seeds,
            # but only at scenario-construction time — *after* the
            # deck load.  Fail on argv content instead.
            if len(parts) > 3 or n < 1 or seed < 0:
                raise ValueError
        except (ValueError, IndexError):
            raise _UsageError(
                f"--scenarios random spec must be random:<n>[:seed] "
                f"with n >= 1 and seed >= 0, got {spec!r}"
            ) from None
        return ("random", n, seed)
    path = Path(spec)
    if not path.exists():
        raise _UsageError(f"scenario spec file {spec!r} does not exist")
    return ("file", path)


def _parse_rom(spec: str):
    """Validate ``--rom TOL[:QMAX]`` from argv alone.

    Returns a :class:`repro.rom.RomConfig` (whose own ``__post_init__``
    range checks are surfaced as usage errors too).
    """
    from repro.rom import RomConfig

    parts = spec.split(":")
    try:
        tol = float(parts[0])
        if len(parts) > 2:
            raise ValueError
        if len(parts) == 2:
            return RomConfig(tol=tol, q_max=int(parts[1]))
        return RomConfig(tol=tol)
    except ValueError:
        raise _UsageError(
            f"--rom spec must be TOL[:QMAX] with TOL > 0 and "
            f"QMAX >= 1, got {spec!r}"
        ) from None


def _resolve_plan_options(args):
    """argv-only validation of the ``sweep``/``serve`` plan options.

    Runs before the (potentially minutes-long) deck load and installs
    the ``--faults`` plan and the shm signal sweep.  Returns
    ``(options, plan_kwargs, rom_config, retry_policy)``.
    """
    serving = args.command == "serve"
    try:
        _, options, plan_kwargs = _run_options(args, args.command)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    rom_cfg = _parse_rom(args.rom) if args.rom is not None else None
    if args.processes < 0:
        raise _UsageError(f"--processes must be >= 0, got {args.processes}")
    retry = _retry_policy_from_args(args, serving)
    if retry is not None and not serving and not args.processes:
        raise _UsageError(
            "--retries/--job-timeout/--backoff/--degrade-after only apply "
            "to --processes N sweeps (an in-process sweep has no pool to "
            "supervise)"
        )
    if args.faults is not None:
        from repro import faults as _faults

        try:
            _faults.install(args.faults)
        except _faults.FaultError as exc:
            raise _UsageError(str(exc)) from None
        print(f"fault injection active: {args.faults}", flush=True)
    # A killed sweep or daemon (Ctrl-C, SIGTERM, plain exit) must not
    # leak /dev/shm segments; a SIGKILLed one cannot drain.
    from repro.dist.shm import install_signal_sweep

    install_signal_sweep()
    return options, plan_kwargs, rom_cfg, retry


def _cmd_sweep(args) -> int:
    from repro.pdn.scenarios import load_pattern_scenarios
    from repro.plan import Session, load_scenarios_json

    source = _parse_scenario_source(args.scenarios)
    opts, plan_kwargs, rom_cfg, retry = _resolve_plan_options(args)
    compiled, stats = compile_deck(
        args.netlist, opts, _t_end(args),
        prime=args.processes == 0, rom=rom_cfg, **plan_kwargs,
    )
    _report_deck(args, stats, compiled.t_end)
    system = compiled.system

    if source[0] == "random":
        scenarios = load_pattern_scenarios(
            system, n=source[1], seed=source[2]
        )
    else:
        scenarios = load_scenarios_json(source[1], system)
    print(f"{len(scenarios)} scenarios "
          f"({', '.join(s.name for s in scenarios[:4])}"
          f"{', ...' if len(scenarios) > 4 else ''})")
    print(compiled.summary())

    import time as _time
    t0 = _time.perf_counter()
    executor = None
    if args.processes:
        from repro.dist.executors import MultiprocessExecutor

        executor = MultiprocessExecutor(
            system, opts, max_workers=args.processes,
            batch_width=compiled.batch, retry=retry,
        )
    with executor or contextlib.nullcontext(), \
            Session(compiled, executor=executor) as session:
        results = session.sweep(scenarios, **given(stack=args.stack))
    wall = _time.perf_counter() - t0

    used_names: set[str] = set()
    for slot, (scenario, dres) in enumerate(zip(scenarios, results)):
        rails = dres.result.states[:, : system.n_nodes]
        if dres.rom_dim is None:
            rom_note = ""
        elif dres.rom_fallback:
            rom_note = f" [rom-fallback, bound {dres.rom_bound:.2e}]"
        else:
            rom_note = (f" [rom q={dres.rom_dim}, "
                        f"bound {dres.rom_bound:.2e}]")
        print(f"  {scenario.name}: {dres.n_nodes} nodes, "
              f"trmatex {dres.tr_matex * 1e3:.1f} ms, "
              f"min rail {rails.min():.6g} V, "
              f"LU cache {dres.factor_cache_hits}h/"
              f"{dres.factor_cache_misses}m{rom_note}")
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            # Scenario names are arbitrary user strings from the JSON
            # spec: slugify so a '/' or '..' cannot escape out_dir, and
            # disambiguate duplicates instead of silently overwriting.
            slug = re.sub(r"[^\w.-]+", "_", scenario.name) or "scenario"
            if slug in used_names:
                slug = f"{slug}.{slot}"
            used_names.add(slug)
            _export(dres.result, None, args.out_dir / f"{slug}.npz")
    print(f"sweep: {len(results)} scenarios in {wall:.2f} s "
          f"({wall / max(len(results), 1) * 1e3:.0f} ms/scenario)")
    if compiled.rom is not None:
        bounds = [r.rom_bound for r in results if r.rom_bound is not None]
        print(f"rom tier: {session.rom_accepted} answered in reduced "
              f"space (q={compiled.rom.dim}), {session.rom_fallbacks} "
              f"fell back full-order, max bound "
              f"{max(bounds, default=0.0):.2e}")
    if executor is not None and any(executor.supervision.as_dict().values()):
        sup = executor.supervision
        print(f"supervision: {sup.retries} retries, "
              f"{sup.pool_failures} pool failures "
              f"({sup.timeouts} timeouts), {sup.degradations} "
              f"degradations ({sup.degraded_runs} degraded batches)")
    print(_cache_stats_line())
    if args.out_dir is not None:
        print(f"wrote {len(results)} trajectories to {args.out_dir}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import PlanServer, ServeConfig

    opts, plan_kwargs, rom_cfg, retry = _resolve_plan_options(args)
    try:
        config = ServeConfig(
            socket_path=str(args.socket), processes=args.processes,
            retry=retry, stack=args.stack,
            **given(max_queue=args.max_queue, job_timeout=args.job_timeout),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    server = PlanServer(config)
    entry = server.load_plan(
        args.plan_name, args.netlist, opts, _t_end(args), rom=rom_cfg, **plan_kwargs
    )
    print(f"plan {entry.name!r} ready: {entry.compiled.summary()}",
          flush=True)
    print(f"repro serve: listening on {args.socket} "
          f"(queue {config.max_queue}, deadline {config.job_timeout:g}s, "
          f"{args.processes or 'in-process'} workers)", flush=True)
    asyncio.run(server.serve())
    print(f"repro serve: drained ({server.jobs_done} done, "
          f"{server.jobs_failed} failed, {server.jobs_rejected} "
          f"rejected)", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "dc": _cmd_dc,
        "simulate": _cmd_simulate,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "lint": run_lint,
    }
    try:
        return handlers[args.command](args)
    # PlanError: e.g. no horizon; ParseError/NetlistError: a bad deck.
    except (_UsageError, PlanError, ParseError, NetlistError) as exc:
        print(f"repro.cli: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
