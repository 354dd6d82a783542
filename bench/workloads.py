"""The six workloads of the benchmark of record.

Each workload is a small object the measuring child drives through one
fixed life cycle::

    inputs()  -> generate inputs from the seed (outside every timing)
    setup()   -> the work a user pays before the first answer
    rewind()  -> start of the timed phase: books back to zero
    op(i, record) -> one timed, closed-loop operation -> (wall s, scenarios);
                 ``record=False`` marks a reference operation of the traced
                 pass, which must leave the layer books untouched
    finish()  -> after the last phase: counters that need the live system
    check()   -> correctness checks -> [(name, ok, detail)]
    close()   -> release pools, daemons, sessions

An operation times *only* the call into the program; digesting and
bookkeeping happen after the clock stops.  All workloads use
``SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6)``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import env
from metrics import SETUP_LAYERS
from repro.analysis.errors import error_metrics
from repro.analysis.speedup import SpeedupModel
from repro.baselines.trapezoidal import simulate_trapezoidal
from repro.circuit import assemble, format_netlist, ingest_file
from repro.core import SolverOptions
from repro.dist import MatexScheduler
from repro.dist.executors import MultiprocessExecutor
from repro.experiments.speedup_model import fit_model_constants
from repro.linalg.lu import FACTORIZATION_CACHE
from repro.pdn import (
    SUITE,
    PdnConfig,
    SuiteCase,
    WorkloadSpec,
    attach_pulse_loads,
    build_netlist,
    generate_power_grid,
    load_pattern_scenarios,
    synthesize_ibmpg,
)
from repro.plan import Session, SimulationPlan
from repro.rom import RomConfig
from repro.serve.client import connect

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6)
ROM_TOL = 0.05

#: Accuracy ceilings (volts) — a result above them is a failed check.
#: Measured: 1.3e-4..1.9e-4 on the deck vs TR h=10ps, 1.4e-5 on pg1t vs
#: the TR h=1ps golden run.
DECK_ERR_CEILING_V = 1e-3
PERNODE_ERR_CEILING_V = 1e-4

#: The deck's load pattern keeps this seed; ``--seed`` moves its grid
#: (pads, element values).  The pattern's time grid sets the number of
#: global time points (46..61 over ten seeds) and with it the memory of
#: a run: 439..474 MiB over seeds, against 451..452 with the pattern held,
#: an input spread as wide as the 5 % bound on ``peak_rss_mib`` itself.
DECK_LOAD_SEED = 2014


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one run; :data:`SMOKE` exists only for the test."""

    deck_grid: int
    deck_sources: int
    deck_shapes: int
    deck_grid_points: int
    case: SuiteCase
    n_scenarios: int
    rom_warmup: int
    rom_window: int
    rom_min_ops: int
    rom_spots: int
    pings: int


FULL = Sizes(
    deck_grid=128, deck_sources=2400, deck_shapes=16, deck_grid_points=150,
    case=SUITE["pg1t"], n_scenarios=64,
    rom_warmup=20, rom_window=50, rom_min_ops=200, rom_spots=8, pings=200,
)
SMOKE = Sizes(
    deck_grid=12, deck_sources=24, deck_shapes=4, deck_grid_points=16,
    case=SuiteCase(
        name="smoke",
        grid=PdnConfig(rows=8, cols=8, n_pads=2, coarse_pitch=4, seed=11),
        workload=WorkloadSpec(
            n_sources=12, n_shapes=4, time_grid_points=16, seed=11
        ),
    ),
    n_scenarios=12, rom_warmup=2, rom_window=4, rom_min_ops=4, rom_spots=2,
    pings=5,
)


@dataclass
class Context:
    """What the child hands every workload."""

    seed: int
    sizes: Sizes
    workdir: Path
    tracer: object | None = None

    def span(self, name: str):
        """A span around one of the benchmark's own calls (traced only)."""
        if self.tracer is not None and self.tracer.installed:
            return self.tracer.span(name)
        return nullcontext()

    @contextmanager
    def untimed(self):
        """Bookkeeping calls into the program that belong to no operation."""
        if self.tracer is None:
            yield
            return
        op, self.tracer.op = self.tracer.op, None
        try:
            yield
        finally:
            self.tracer.op = op


def digest(states: np.ndarray) -> str:
    return hashlib.sha256(states.tobytes()).hexdigest()


class Workload:
    """Life cycle and the bookkeeping shared by all six workloads."""

    name = ""
    #: Scenarios per operation.
    chunk = 1
    #: Leading operations of a phase whose counters feed count metrics.
    window = 1
    #: Operations a phase runs even when its time budget is already spent.
    min_ops = 2
    #: The one-off layers (``metrics.SETUP_LAYERS``) this workload pays in
    #: every operation rather than once during set-up.
    per_op_layers: frozenset = frozenset()

    def __init__(self, ctx: Context):
        self.ctx = ctx
        #: One line per failed operation (raised, rejected, wrong answer).
        self.failures: list[str] = []
        #: Set-up + count-window factor-cache traffic and solver counts.
        self.setup_counts: dict[str, float] = defaultdict(float)
        self.window_counts: dict[str, float] = defaultdict(float)
        self.window_dims: list[int] = []
        #: Program-reported seconds summed over the current phase.
        self.phase_seconds: dict[str, float] = defaultdict(float)
        #: Workload-specific per-layer values (filled by finish/check).
        self.layer: dict[str, float] = {}
        #: The untraced phase's timing summary, set before ``check()``.
        self.measured: dict[str, float] = {}
        # Segments that predate this run belong to somebody else.
        self._shm_before = set(env.shm_segments())

    # -- life cycle (overridden) -------------------------------------------------

    def inputs(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def rewind(self) -> None:
        self.window_counts = defaultdict(float)
        self.window_dims = []
        self.phase_seconds = defaultdict(float)

    def op(self, i: int, record: bool) -> tuple[float, int]:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def rss_mib(self) -> float:
        """High-water RSS of the process that executes the solver."""
        return env.vm_hwm_mib()

    def check(self) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def leaked_segments(self) -> list[str]:
        """``repro*`` shm segments this run created and left behind."""
        return [n for n in env.shm_segments() if n not in self._shm_before]

    # -- shared bookkeeping ------------------------------------------------------

    def _count(self, into: dict, dres) -> None:
        """Factor-cache traffic one result reports (incl. pool workers')."""
        into["hits"] += dres.factor_cache_hits
        into["misses"] += dres.factor_cache_misses
        into["evictions"] += dres.factor_cache_evictions

    def account(self, i: int, results) -> None:
        """Fold one operation's ``DistributedResult``s into the books."""
        for dres in results:
            self.phase_seconds["core.solver.transient_s"] += sum(
                dres.node_transient_seconds
            )
            self.phase_seconds["core.solver.tr_matex_s"] += dres.tr_matex
            if i >= self.window:
                continue
            w = self.window_counts
            self._count(w, dres)
            for s in dres.node_stats:
                w["pairs"] += s.n_solves_total
                w["bases"] += s.n_krylov_bases
                w["reuses"] += s.n_reuses
                w["steps"] += s.n_steps
                self.window_dims.extend(s.krylov_dims)
            if dres.rom_dim is not None:
                w["rom_fallbacks" if dres.rom_fallback else "rom_accepted"] += 1
                w["rom_bound_max"] = max(w["rom_bound_max"], dres.rom_bound)


# -- deck_cold ---------------------------------------------------------------------


class DeckCold(Workload):
    """Deck file -> superposed trajectory with a cold factor cache."""

    name = "deck_cold"
    min_ops = 4  # ~2.4 s each; a slow stretch must not leave fewer
    per_op_layers = SETUP_LAYERS  # every operation is cold

    def inputs(self) -> None:
        z, seed = self.ctx.sizes, self.ctx.seed
        self.config = PdnConfig(rows=z.deck_grid, cols=z.deck_grid, seed=seed)
        self.load = WorkloadSpec(
            n_sources=z.deck_sources, n_shapes=z.deck_shapes, t_end=1e-8,
            time_grid_points=z.deck_grid_points, seed=DECK_LOAD_SEED,
        )
        self.deck = self.ctx.workdir / "deck.spice"
        if not self.deck.exists():  # written once; set-up probes reuse it
            synthesize_ibmpg(self.deck, self.config, self.load)
        self.digests: list[str] = []

    def _cold_run(self):
        FACTORIZATION_CACHE.clear()
        t0 = time.perf_counter()
        with self.ctx.span("circuit.ingest"):
            res = ingest_file(self.deck)
        compiled = SimulationPlan(
            res.system, OPTS, t_end=res.stats.tran_stop
        ).compile()
        with Session(compiled) as session:
            dres = session.run()
        wall = time.perf_counter() - t0
        self.digests.append(digest(dres.result.states))
        return wall, res, compiled, dres

    def setup(self) -> None:
        _, res, _, dres = self._cold_run()
        self.system = res.system
        self.answer = dres.result
        self.one_shot_rss = env.vm_hwm_mib()

    def rss_mib(self) -> float:
        """High-water RSS of ONE cold run in a fresh process.

        What a one-shot user sees, and it repeats within 0.1 % at a fixed
        seed.  The high-water after the timed phase does not: every
        further cold run in the same process fragments the heap a little
        more (451 MiB after one run, 545..559 after six), so it grows
        with the number of operations a run happens to fit in.
        """
        return self.one_shot_rss

    def op(self, i: int, record: bool) -> tuple[float, int]:
        wall, res, compiled, dres = self._cold_run()
        if not record:
            return wall, 1
        self.account(i, [dres])
        p = self.phase_seconds
        p["circuit.ingest.parse_s"] += res.stats.parse_seconds
        p["circuit.ingest.scan_s"] += res.stats.scan_seconds
        p["circuit.ingest.stamp_s"] += res.stats.stamp_seconds
        p["plan.compile.dc_s"] += compiled.dc_seconds
        if i < self.window:
            self.layer["circuit.ingest.cards"] = res.stats.n_cards
            self.layer["plan.n_nodes"] = compiled.n_nodes
            self.layer["plan.n_gts_points"] = len(compiled.global_points)
            self.tr_matex = dres.tr_matex
            self.tr_total = dres.tr_total
        return wall, 1

    def check(self):
        checks = []
        net = generate_power_grid(self.config)
        attach_pulse_loads(net, self.load)
        ref = assemble(net)
        same = all(
            np.array_equal(getattr(getattr(ref, m), part),
                           getattr(getattr(self.system, m), part))
            for m in ("G", "C", "B")
            for part in ("indptr", "indices", "data")
        )
        checks.append(("streamed G/C/B bit-identical to assemble()", same, ""))
        checks.append((
            "state digest identical across reps",
            len(set(self.digests)) == 1,
            f"{len(set(self.digests))} distinct over {len(self.digests)}",
        ))
        tr = simulate_trapezoidal(
            self.system, 1e-11, self.answer.times[-1],
            record_times=list(self.answer.times),
        )
        err = error_metrics(self.answer, tr)["max"]
        checks.append((
            f"max_err_v <= {DECK_ERR_CEILING_V:g} vs TR h=10ps",
            err <= DECK_ERR_CEILING_V, f"{err:.3e} V",
        ))
        self.layer["analysis.max_err_v"] = err
        self.layer.update(_baseline_columns(tr, self.tr_matex, self.tr_total))
        return checks


def _baseline_columns(tr, tr_matex: float, tr_total: float) -> dict:
    """Table 3's fixed-step columns against one MATEX run."""
    return {
        "baselines.tr_fixed_s": tr.stats.transient_seconds,
        "baselines.tr_total_s": tr.stats.total_seconds,
        "baselines.spdp4": tr.stats.transient_seconds / tr_matex,
        "baselines.spdp5": tr.stats.total_seconds / tr_total,
    }


# -- run_pernode -------------------------------------------------------------------


class RunPernode(Workload):
    """The paper's literal execution model: reference per-node marches."""

    name = "run_pernode"
    # MatexScheduler.run compiles a one-scenario plan on every call.
    per_op_layers = frozenset({"plan.compile_s", "plan.compile.dc_s"})

    def _run(self):
        t0 = time.perf_counter()
        dres = MatexScheduler(self.system, OPTS, batch="off").run(self.t_end)
        return time.perf_counter() - t0, dres

    def setup(self) -> None:
        case = self.ctx.sizes.case
        self.system = assemble(build_netlist(case))
        self.t_end, self.h_tr = case.t_end, case.h_tr
        _, dres = self._run()
        self._count(self.setup_counts, dres)
        self.answer = dres.result

    def op(self, i: int, record: bool) -> tuple[float, int]:
        wall, dres = self._run()
        if not record:
            return wall, 1
        self.account(i, [dres])
        self.phase_seconds["plan.compile.dc_s"] += dres.dc_seconds
        if i < self.window:
            self.dres = dres
            self.layer["plan.n_nodes"] = dres.n_nodes
            self.layer["plan.n_gts_points"] = len(dres.result.times)
        return wall, 1

    def check(self):
        checks = []
        auto = MatexScheduler(self.system, OPTS, batch="auto").run(self.t_end)
        checks.append((
            "states byte-equal to a batch='auto' run",
            auto.result.states.tobytes() == self.answer.states.tobytes(), "",
        ))
        times = list(self.answer.times)
        golden = simulate_trapezoidal(
            self.system, self.h_tr / 10, self.t_end, record_times=times
        )
        err = error_metrics(self.answer, golden)["max"]
        checks.append((
            f"max_err_v <= {PERNODE_ERR_CEILING_V:g} vs TR golden",
            err <= PERNODE_ERR_CEILING_V, f"{err:.3e} V",
        ))
        self.layer["analysis.max_err_v"] = err
        tr = simulate_trapezoidal(
            self.system, self.h_tr, self.t_end, record_times=times
        )
        dres = self.dres
        self.layer.update(_baseline_columns(tr, dres.tr_matex, dres.tr_total))
        # Sec. 3.4 predicted-vs-measured column (Eq. 12), informational.
        fitted = fit_model_constants(self.system)
        self.layer["analysis.speedup.predicted_spdp4"] = SpeedupModel(
            t_bs=fitted.t_bs, t_he=fitted.t_he
        ).speedup_over_fixed(
            N=int(round(self.t_end / self.h_tr)),
            K=len(times),
            k=max(s.n_krylov_bases for s in dres.node_stats),
            m=float(np.mean([
                s.avg_krylov_dim for s in dres.node_stats if s.krylov_dims
            ])),
        )
        return checks


# -- the pg1t sweeps ---------------------------------------------------------------


class _Sweep(Workload):
    """Shared inputs and stream of the sweeps over the suite case."""

    warmup = 2
    session = None
    spot_digests: list | tuple = ()

    def inputs(self) -> None:
        case = self.ctx.sizes.case
        self.system = assemble(build_netlist(case))
        self.t_end = case.t_end
        self._make_scenarios()

    def _make_scenarios(self) -> None:
        self.scenarios = load_pattern_scenarios(
            self.system, n=self.ctx.sizes.n_scenarios, seed=self.ctx.seed,
            spread=0.5,
        )

    def batch(self, i: int) -> list:
        """Scenarios of timed operation ``i`` (cycling past the warm-up)."""
        timed = len(self.scenarios) - self.warmup
        return [
            self.scenarios[self.warmup + (i * self.chunk + j) % timed]
            for j in range(self.chunk)
        ]

    def _session_info(self, compiled) -> None:
        self.layer["plan.n_nodes"] = compiled.n_nodes
        self.layer["plan.n_gts_points"] = len(compiled.global_points)
        self.layer["plan.compile.dc_s"] = compiled.dc_seconds

    def _warm_up(self) -> None:
        for dres in self.session.sweep(self.scenarios[:self.warmup]):
            self._count(self.setup_counts, dres)

    def op(self, i: int, record: bool) -> tuple[float, int]:
        """One chunk through the session; the first chunk is the spot."""
        scenarios = self.batch(i)
        t0 = time.perf_counter()
        results = self.session.sweep(scenarios, stack="auto")
        wall = time.perf_counter() - t0
        if record:
            self.account(i, results)
        if i == 0:
            self.spot_digests = [digest(r.result.states) for r in results]
        return wall, len(results)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class SweepFull(_Sweep):
    """Serial full-order sweep through one warm session."""

    name = "sweep_full"
    chunk = 2

    def setup(self) -> None:
        compiled = SimulationPlan(
            self.system, OPTS, t_end=self.t_end
        ).compile()
        self._session_info(compiled)
        self.session = Session(compiled)
        self._warm_up()

    def check(self):
        checks = []
        for sc, got in zip(self.batch(0), self.spot_digests):
            FACTORIZATION_CACHE.clear()
            cold = MatexScheduler(sc.bind(self.system), OPTS).run(self.t_end)
            checks.append((
                f"{sc.name} byte-equal to an independent cold run",
                digest(cold.result.states) == got, "",
            ))
        return checks


def _timed_serial_sweep(system, t_end, warm, scenarios, chunk=2):
    """Digests + ms/scenario of an in-process serial session (the base
    the pool's efficiency and the daemon's overhead are stated against)."""
    compiled = SimulationPlan(system, OPTS, t_end=t_end).compile()
    digests, wall = [], 0.0
    with Session(compiled) as session:
        session.sweep(warm)
        for start in range(0, len(scenarios), chunk):
            t0 = time.perf_counter()
            results = session.sweep(scenarios[start:start + chunk])
            wall += time.perf_counter() - t0
            digests.extend(digest(r.result.states) for r in results)
    return digests, wall / len(scenarios) * 1e3


class SweepPool(_Sweep):
    """The same sweep through a persistent two-worker process pool."""

    name = "sweep_pool"
    chunk = 4
    warmup = 4
    executor = None

    def setup(self) -> None:
        self.workers = env.pool_workers()  # never more than the cores
        compiled = SimulationPlan(
            self.system, OPTS, t_end=self.t_end
        ).compile(prime=False)
        self._session_info(compiled)
        self.executor = MultiprocessExecutor(
            self.system, OPTS, max_workers=self.workers, batch_width="auto"
        )
        self.executor.prepare()
        self.session = Session(compiled, executor=self.executor)
        self._warm_up()

    def finish(self) -> None:
        # Private on purpose: the executor publishes no worker pids.  A
        # renamed attribute or an empty pool raises here — a wrong 0
        # would pass for a measurement.
        pids = list(self.executor._pool._processes)
        if not pids:
            raise RuntimeError("the persistent pool has no worker process")
        self.layer["dist.executors.worker_rss_mib"] = max(
            env.vm_hwm_mib(pid) for pid in pids
        )
        sup = self.executor.supervision
        self.layer["dist.supervision.retries"] = sup.retries
        self.layer["dist.supervision.degraded_runs"] = sup.degraded_runs
        self.close()
        self.layer["dist.shm.leaked_segments"] = len(self.leaked_segments())

    def check(self):
        spots = self.batch(0)
        serial, serial_ms = _timed_serial_sweep(
            self.system, self.t_end, self.scenarios[:2], spots
        )
        # Base: workers x this run's own serial session on the spots.
        self.layer["dist.executors.parallel_efficiency"] = (
            self.measured["scenarios_per_s"]
            / (self.workers * 1e3 / serial_ms)
        )
        leaked = self.leaked_segments()
        return [
            ("4-scenario subset byte-equal to a serial Session",
             serial == self.spot_digests, ""),
            ("no repro* segment left in /dev/shm", not leaked,
             ",".join(leaked)),
            ("retries == degraded_runs == 0",
             self.layer["dist.supervision.retries"] == 0
             and self.layer["dist.supervision.degraded_runs"] == 0, ""),
        ]

    def close(self) -> None:
        super().close()
        if self.executor is not None:
            self.executor.close()


class SweepRom(_Sweep):
    """One reduced-order answer per call; the march is bypassed."""

    name = "sweep_rom"

    def inputs(self) -> None:
        z = self.ctx.sizes
        self.warmup = z.rom_warmup
        self.window, self.min_ops = z.rom_window, z.rom_min_ops
        super().inputs()

    def _make_scenarios(self) -> None:
        self.scenarios = load_pattern_scenarios(
            self.system, n=8 * self.ctx.sizes.n_scenarios,
            seed=self.ctx.seed, spread=0.5,
        )

    def setup(self) -> None:
        compiled = SimulationPlan(
            self.system, OPTS, t_end=self.t_end
        ).compile(rom=RomConfig(tol=ROM_TOL))
        if compiled.rom is None:
            raise RuntimeError(f"reduced model: {compiled.rom_error}")
        self._session_info(compiled)
        self.model = compiled.rom
        self.layer["rom.build_s"] = self.model.build_seconds
        self.layer["rom.dim"] = self.model.dim
        self.layer["rom.resident_mib"] = self.model.resident_bytes() / 2**20
        self.session = Session(compiled)
        for sc in self.scenarios[:self.warmup]:
            self._count(
                self.setup_counts, self.session.sweep([sc], rom=True)[0]
            )

    def op(self, i: int, record: bool) -> tuple[float, int]:
        (scenario,) = self.batch(i)
        t0 = time.perf_counter()
        (dres,) = self.session.sweep([scenario], rom=True)
        wall = time.perf_counter() - t0
        if record:
            self.account(i, [dres])
        if not (dres.rom_fallback or dres.rom_bound <= ROM_TOL):
            self.failures.append(
                f"{scenario.name}: bound {dres.rom_bound:.3g} > tol, "
                f"not flagged rom_fallback"
            )
        return wall, 1

    def check(self):
        spots = [self.batch(i)[0] for i in range(self.ctx.sizes.rom_spots)]
        full = self.session.sweep(spots, rom=False)
        err_rel, tightness, dominated = 0.0, [], True
        for sc, ref in zip(spots, full):
            reduced = self.session.sweep([sc], rom=True)[0]
            if reduced.rom_fallback:
                continue
            x = ref.result.states
            err = float(np.abs(reduced.result.states - x).max())
            bound = self.model.answer(
                self.model.input_matrix(sc, None)
            ).bound_abs
            dominated &= bound >= err
            tightness.append(bound / err)
            err_rel = max(err_rel, err / float(np.abs(x - x[0]).max()))
        self.layer["rom.err_rel"] = err_rel
        self.layer["rom.bound_tightness"] = (
            float(np.median(tightness)) if tightness else 0.0
        )
        return [(
            f"bound >= true error on all {len(spots)} spot scenarios",
            dominated, f"max true rel. error {err_rel:.3e}",
        )]


class ServeSweep(_Sweep):
    """The sweep as NDJSON jobs against a live ``repro serve`` daemon."""

    name = "serve_sweep"
    chunk = 2

    def inputs(self) -> None:
        case = self.ctx.sizes.case
        self.deck = self.ctx.workdir / "case.spice"
        if not self.deck.exists():
            self.deck.write_text(
                format_netlist(build_netlist(case), t_end=case.t_end)
            )
        self.system = ingest_file(self.deck).system
        self.t_end = case.t_end
        self._make_scenarios()
        self.daemon = self.client = self.exit_code = None
        self.specs = {
            sc.name: {"name": sc.name,
                      "scale": {str(c): f for c, f in sc.scales}}
            for sc in self.scenarios
        }

    def _job(self, scenarios) -> tuple[float, list[str]]:
        specs = [self.specs[sc.name] for sc in scenarios]
        t0 = time.perf_counter()
        resp = self.client.sweep(specs)
        wall = time.perf_counter() - t0
        return wall, [r["digest"] for r in resp["results"]]

    def setup(self) -> None:
        # Relative socket path: AF_UNIX names are capped at ~107 bytes.
        # One per process: a set-up probe's daemon lives beside ours.
        own = f"serve-{os.getpid()}"
        self.socket = os.path.relpath(self.ctx.workdir / f"{own}.sock")
        self.log = open(self.ctx.workdir / f"{own}.log", "w")
        t0 = time.perf_counter()
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--netlist", str(self.deck), "--socket", self.socket,
             "--processes", "0", "--eps", "1e-6"],
            stdout=self.log, stderr=subprocess.STDOUT, env=env.child_env(),
        )
        while self.client is None:
            if self.daemon.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.daemon.returncode} before "
                    f"listening; see {self.log.name}"
                )
            try:
                self.client = connect(self.socket, timeout=0.0)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() - t0 > 120.0:
                    raise
                time.sleep(0.02)
        self.client.ping()
        self.layer["serve.startup_s"] = time.perf_counter() - t0
        self._job(self.scenarios[:self.warmup])
        self.job_digests: dict[int, list[str]] = {}

    def _jobs(self) -> dict:
        """The daemon's job counters (a request no operation is charged)."""
        with self.ctx.untimed():
            return self.client.status()["jobs"]

    def op(self, i: int, record: bool) -> tuple[float, int]:
        counted = record and i < self.window
        before = self._jobs() if counted else None
        wall, digests = self._job(self.batch(i))
        if i < 2:  # the two spot jobs check() re-runs in process
            self.job_digests[i] = digests
        if counted:
            after = self._jobs()
            for key in ("done", "failed", "rejected"):
                name = f"serve.jobs_{key}"
                self.layer[name] = (
                    self.layer.get(name, 0) + after[key] - before[key]
                )
        return wall, len(digests)

    def finish(self) -> None:
        n = self.ctx.sizes.pings
        t0 = time.perf_counter()
        for _ in range(n):
            self.client.ping()
        self.layer["serve.ping_us"] = (time.perf_counter() - t0) / n * 1e6
        self.jobs_total = self._jobs()
        self.daemon_rss = env.vm_hwm_mib(self.daemon.pid)
        self.close()

    def rss_mib(self) -> float:
        return self.daemon_rss

    def close(self) -> None:
        if self.daemon is None or self.exit_code is not None:
            return
        try:
            self.client.shutdown()
            self.client.close()
        except (OSError, AttributeError):  # no client: never listened
            self.daemon.terminate()
        try:
            self.exit_code = self.daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.exit_code = self.daemon.wait()
        self.log.close()

    def check(self):
        spots = self.batch(0) + self.batch(1)
        local, local_ms = _timed_serial_sweep(
            self.system, self.t_end, self.scenarios[:self.warmup], spots
        )
        # Mean against mean: ``local_ms`` is a mean over the spots.
        self.layer["serve.overhead_ms"] = (
            1e3 / self.measured["scenarios_per_s"] - local_ms
        )
        served = self.job_digests.get(0, []) + self.job_digests.get(1, [])
        leaked = self.leaked_segments()
        return [
            ("digests equal to an in-process Session on 4 scenarios",
             served == local, ""),
            ("jobs.failed == jobs.rejected == 0",
             self.jobs_total["failed"] == self.jobs_total["rejected"] == 0,
             str(self.jobs_total)),
            ("daemon exit code 0", self.exit_code == 0,
             f"exit code {self.exit_code}"),
            ("socket removed", not os.path.exists(self.socket), ""),
            ("no repro* segment left in /dev/shm", not leaked,
             ",".join(leaked)),
        ]


WORKLOADS = {
    cls.name: cls
    for cls in (DeckCold, RunPernode, SweepFull, SweepPool, SweepRom,
                ServeSweep)
}
