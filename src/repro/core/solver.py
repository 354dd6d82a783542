"""MATEX circuit solver — paper Algorithm 2.

One matrix factorisation at the start, then adaptive time stepping with
**no further factorisations**:

* at a **Local Transition Spot** the input slope changes, so the solver
  rebuilds the ETD segment vectors (three ``G⁻¹`` solves) and generates a
  fresh Krylov basis from ``v = x(t) + F`` (Alg. 1);
* at a **Snapshot** (a global transition spot belonging to *other*
  nodes' sources) it reuses the most recent basis, re-evaluating only the
  small-matrix exponential with the elapsed time ``ha = t + h − alts``
  (Alg. 2 line 11).

The Arnoldi convergence test is run at the *first* sub-step length after
the LTS.  For the inverted/rational subspaces this is the conservative
choice: their approximation error *decreases* as ``h`` grows (paper
Fig. 5, re-verified by ``benchmarks/bench_fig5_error_surface.py``), so
later snapshots served with larger ``ha`` are at least as accurate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuit.mna import MNASystem
from repro.core.etd import EtdWorkspace
from repro.core.options import SolverOptions
from repro.core.results import TransientResult
from repro.core.stats import SolverStats
from repro.core.transition import TransitionSchedule, build_schedule
from repro.engine.loop import SteppingLoop
from repro.engine.sinks import ResultSink
from repro.linalg.krylov import make_krylov_operator
from repro.linalg.lu import FACTORIZATION_CACHE

__all__ = ["MatexSolver", "REUSE_SAFETY"]

#: Basis reuse is accepted while the re-evaluated posterior error stays
#: within this factor of the generation-time budget (Fig. 5 says it
#: normally *shrinks* with h; the guard catches exceptions).  Shared
#: with the block-batched runner so reuse decisions coincide.
REUSE_SAFETY = 10.0


@dataclass
class _Alg2State:
    """Mutable cross-step state of one Alg. 2 run (basis + segment)."""

    eps_segment: float
    alts: float                 # time of the last Krylov generation
    basis: object = None        # current KrylovBasis (None before t=0 LTS)
    segment: object = None      # current EtdSegment
    v_alts: np.ndarray | None = None  # Krylov start vector at `alts`


class MatexSolver:
    """Matrix-exponential transient solver for one (sub-)task.

    Parameters
    ----------
    system:
        Assembled MNA descriptor system.
    options:
        Solver options; defaults to R-MATEX with the paper's settings.
    deviation_mode:
        Simulate the response to ``u(t) − u(0)`` from a zero initial
        state.  This is what each distributed node runs; the scheduler
        adds the DC operating point back during superposition.

    Notes
    -----
    Construction performs the factorisation(s): ``C + γG`` (rational),
    ``G`` (inverted) or ``C`` (standard), plus ``G`` for the ETD vectors
    and DC analysis.  For the inverted method the ``G`` factorisation is
    shared — only one LU exists, as in the paper.
    """

    def __init__(
        self,
        system: MNASystem,
        options: SolverOptions | None = None,
        deviation_mode: bool = False,
    ):
        self.system = system
        self.options = options if options is not None else SolverOptions()
        hits0, misses0 = FACTORIZATION_CACHE.counters()
        self.op = make_krylov_operator(
            self.options.method, system.C, system.G, gamma=self.options.gamma
        )
        shared_lu = self.op.lu if self.options.method == "inverted" else None
        self.workspace = EtdWorkspace(
            system, lu_g=shared_lu, deviation_mode=deviation_mode
        )
        hits1, misses1 = FACTORIZATION_CACHE.counters()
        #: factorisations this construction reused from / added to the
        #: process-wide cache (the paper's shared-pencil amortisation).
        self.construction_cache_hits = hits1 - hits0
        self.construction_cache_misses = misses1 - misses0
        self.deviation_mode = deviation_mode
        # Reusable input-grid buffer: the scalar reference march
        # (repro.dist.worker.run_task) calls simulate once per task over
        # one shared grid shape, and bu_series fills a caller-held
        # buffer bit-identically to a fresh allocation.
        self._bu_buffer: np.ndarray | None = None

    # -- public API ---------------------------------------------------------------

    @property
    def factor_seconds(self) -> float:
        """Total one-off factorisation time (the paper's serial part)."""
        total = self.op.factor_seconds
        if self.workspace.lu_g is not self.op.lu:
            total += self.workspace.lu_g.factor_seconds
        return total

    def dc_operating_point(self) -> tuple[np.ndarray, float]:
        """Solve ``G x = B u(0)``; returns the state and wall time."""
        t0 = time.perf_counter()
        x0 = self.workspace.dc_solution()
        return x0, time.perf_counter() - t0

    def simulate(
        self,
        t_end: float,
        x0: np.ndarray | None = None,
        active_inputs: Sequence[int] | None = None,
        schedule: TransitionSchedule | None = None,
        waveform_overrides: dict | None = None,
        sink: ResultSink | None = None,
    ) -> TransientResult:
        """Run Alg. 2 over ``[0, t_end]``.

        Parameters
        ----------
        t_end:
            Simulation horizon.
        x0:
            Initial state.  Defaults to the DC operating point (or zeros
            in deviation mode).
        active_inputs:
            Input columns driving this run (``None`` = all).  The
            schedule marks their slope changes as LTS; all other global
            transition spots become snapshots.
        schedule:
            Pre-built marching schedule; shared across nodes by the
            distributed scheduler so all results align for superposition.
        waveform_overrides:
            Optional ``{column: waveform}`` replacements evaluated
            instead of the originals (split-bump decomposition).  The
            factorisations are untouched — only input evaluation changes.
        sink:
            Destination for the recorded trajectory (default: dense
            in-memory).  Downsampling or on-disk sinks bound the memory
            of very long schedules; see :mod:`repro.engine.sinks`.

        Returns
        -------
        TransientResult
            States at every schedule point, plus statistics.
        """
        opts = self.options
        stats = SolverStats(factor_seconds=self.factor_seconds)

        input_system = self.system
        if waveform_overrides:
            input_system = self.system.with_waveforms(waveform_overrides)

        if schedule is None:
            schedule = build_schedule(
                input_system, t_end, local_inputs=active_inputs
            )

        if x0 is None:
            if self.deviation_mode:
                x0 = np.zeros(self.system.dim)
            else:
                dc_t0 = time.perf_counter()
                x0 = self.workspace.dc_solution()
                stats.dc_seconds = time.perf_counter() - dc_t0
                stats.n_solves_dc += 1
        x = np.asarray(x0, dtype=float).copy()

        points = schedule.points

        state = _Alg2State(eps_segment=opts.eps_abs, alts=points[0])
        reuse_safety = REUSE_SAFETY

        # Solve counts are taken as deltas around each call so the
        # shared-LU case (inverted method) attributes every substitution
        # pair exactly once.
        etd_lu = self.workspace.lu_g

        # Evaluate all inputs over the schedule once (vectorised across
        # pulse sources); segment slopes are exact finite differences of
        # these columns.  In deviation mode the t=0 column is subtracted
        # (constant offsets cancel in the slopes).
        grid_shape = (self.system.dim, len(points))
        if self._bu_buffer is None or self._bu_buffer.shape != grid_shape:
            self._bu_buffer = np.empty(grid_shape)
        bu_grid = input_system.bu_series(
            np.asarray(points), active=active_inputs, out=self._bu_buffer
        )
        if self.deviation_mode:
            bu0 = bu_grid[:, 0].copy()
            bu_grid -= bu0[:, None]

        def finish_step(y: np.ndarray, h: float, out: np.ndarray | None):
            """``y − P(h)`` — in place when the loop provides a buffer.

            The ufunc ``out=`` chain performs the identical operations
            (``h·w2``, ``F − ·``, ``y − ·``) as the allocating
            ``y − segment.P(h)``, so the results are bit-for-bit equal.
            """
            seg = state.segment
            if out is None:
                return y - seg.P(h)
            np.multiply(seg.w2, h, out=out)
            np.subtract(seg.F, out, out=out)
            np.subtract(y, out, out=out)
            return out

        def advance(
            i: int, t: float, t_next: float, x: np.ndarray,
            out: np.ndarray | None = None,
        ):
            """One Alg. 2 step: fresh basis at an LTS, reuse at a snapshot."""
            h = t_next - t
            if schedule.is_lts[i] or state.basis is None:
                # Fresh input segment: new ETD vectors + new Krylov basis.
                before_etd = etd_lu.n_solves
                su = (bu_grid[:, i + 1] - bu_grid[:, i]) / h
                state.segment = self.workspace.segment_from_vectors(
                    t, bu_grid[:, i], su
                )
                stats.n_solves_etd += etd_lu.n_solves - before_etd

                v = x + state.segment.F
                state.eps_segment = (
                    opts.eps_rel * float(np.linalg.norm(v)) + opts.eps_abs
                )
                before_kry = self.op.n_solves
                state.basis = self.op.build_basis(
                    v, h, tol=state.eps_segment,
                    m_max=opts.m_max, min_dim=opts.m_min,
                )
                stats.n_solves_krylov += self.op.n_solves - before_kry
                stats.n_krylov_bases += 1
                stats.krylov_dims.append(state.basis.m)
                state.alts = t
                state.v_alts = v
                return finish_step(state.basis.evaluate(h), h, out)

            # Snapshot: reuse the basis generated at `alts`, after
            # re-checking its posterior error at the longer step.
            ha = t_next - state.alts
            y, reuse_err = state.basis.evaluate_with_error(ha)
            if reuse_err > reuse_safety * state.eps_segment:
                before_kry = self.op.n_solves
                state.basis = self.op.build_basis(
                    state.v_alts, ha, tol=state.eps_segment,
                    m_max=opts.m_max, min_dim=opts.m_min,
                )
                stats.n_solves_krylov += self.op.n_solves - before_kry
                stats.n_krylov_bases += 1
                stats.krylov_dims.append(state.basis.m)
                y = state.basis.evaluate(ha)
            else:
                stats.n_reuses += 1
            return finish_step(y, ha, out)

        advance.supports_out = True
        loop = SteppingLoop(self.system.dim, stats, sink=sink)
        times, states = loop.march_grid(points, x, advance)

        return TransientResult(
            system=self.system,
            times=times,
            states=states,
            stats=stats,
            method=f"matex-{opts.method}",
            sink=sink,
        )
