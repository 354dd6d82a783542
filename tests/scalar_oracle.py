"""The scalar Alg. 2 march — the test suite's parity oracle.

:func:`scalar_simulate` is paper Alg. 2 written literally: one Python
step per grid point through :class:`~repro.engine.loop.SteppingLoop`,
three scalar ``G`` solves at every local transition spot
(:class:`OracleEtd`), a fresh one-column Arnoldi there, and at every
snapshot a dense rank-1 evaluation of the current basis
(``KrylovBasis.evaluate_with_error``) whose posterior error decides
between reuse and a rebuild.  It is what ``MatexSolver.simulate`` ran
before the solver became the width-1 lockstep march of
:mod:`repro.dist.block_runner`; it shares the Arnoldi build and the
small-matrix exponentials with that march, but not its span batching,
its factored rows or its ETD vectors by input shape.

So it is a *tolerance* oracle: it makes the same convergence decisions
(every ``SolverStats`` counter but ``n_solves_etd``, and ``krylov_dims``,
exactly) and agrees
on states to round-off — an ordered rank-1 loop here, a BLAS product
over ``m + 2`` terms there.  How much round-off a case may show is the
oracle's own business: :func:`oracle_spread` measures how far the
oracle moves under seeded ±1-ulp perturbations of its evaluations and
of its ETD ``G`` solves.

:func:`run_task` is the oracle's answer to one node task (the
``ScalarOracleExecutor`` of ``tests/conftest.py``).  It keeps the
posterior ledger step by step too (``SolverStats.posterior_sum``,
``posterior_max``, ``eps_sum``): the oracle for the runner's span-wise
ledger.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.etd import EtdWorkspace
from repro.core.results import TransientResult
from repro.core.solver import REUSE_SAFETY, MatexSolver
from repro.core.stats import SolverStats
from repro.core.transition import TransitionSchedule, build_schedule
from repro.dist.messages import NodeResult, SimulationTask
from repro.engine.loop import SteppingLoop
from repro.engine.sinks import ResultSink
from repro.linalg.krylov import KrylovBasis
from repro.linalg.lu import SparseLU

__all__ = [
    "OracleEtd",
    "OracleSegment",
    "oracle_budget",
    "oracle_spread",
    "run_task",
    "scalar_simulate",
    "ulp_perturbed_oracle",
]


@dataclass(frozen=True)
class OracleSegment:
    """ETD data of one input segment ``[t, next local LTS)`` (Eq. 5).

    ``F`` is the constant offset added to the state before Krylov
    projection and ``w2 = G⁻¹ B s_u`` the slope response, so the
    subtractive term at local step ``h`` is ``P(h) = F − h·w2``.
    """

    t_start: float
    F: np.ndarray
    w2: np.ndarray

    def P(self, h: float) -> np.ndarray:
        """The subtractive term of Eq. (5) at local step ``h``."""
        return self.F - h * self.w2


class OracleEtd:
    """ETD vectors one segment at a time: three scalar ``G`` solves.

    Parameters
    ----------
    system:
        Assembled MNA system.
    lu_g:
        Optional factorisation of ``G`` to share (counted once).
    deviation_mode:
        Evaluate inputs as ``u(t) − u(0)`` in :meth:`segment`.
    """

    def __init__(
        self,
        system,
        lu_g: SparseLU | None = None,
        deviation_mode: bool = False,
    ):
        self.system = system
        self.lu_g = EtdWorkspace(system, lu_g=lu_g).lu_g
        self.deviation_mode = deviation_mode

    @property
    def n_solves(self) -> int:
        """Substitution pairs performed against ``G`` so far."""
        return self.lu_g.n_solves

    def segment(
        self, t: float, t_probe: float, active: Sequence[int] | None = None
    ) -> OracleSegment:
        """The segment starting at ``t``; its slope is the finite
        difference over ``[t, t_probe]`` (exact for PWL inputs)."""
        bu = self.system.bu(t, active=active)
        if self.deviation_mode:
            bu = bu - self.system.bu(0.0, active=active)
        su = self.system.b_slope_fd(t, t_probe, active=active)
        return self.from_vectors(t, bu, su)

    def from_vectors(
        self, t: float, bu: np.ndarray, su: np.ndarray
    ) -> OracleSegment:
        """The segment of ``B·u(t)`` (deviation-shifted if applicable)
        and slope ``B·du/dt``."""
        w1 = self._solve(bu)
        w2 = self._solve(su)
        w3 = self._solve(self.system.C @ w2)
        return OracleSegment(t_start=float(t), F=-w1 + w3, w2=w2)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """One ``G`` solve (the hook :func:`ulp_perturbed_oracle` moves)."""
        return self.lu_g.solve(rhs)


@dataclass
class _OracleState:
    """Mutable cross-step state of one Alg. 2 run (basis + segment)."""

    eps_segment: float
    alts: float                 # time of the last Krylov generation
    basis: object = None        # current KrylovBasis (None before t=0 LTS)
    segment: object = None      # current OracleSegment
    v_alts: np.ndarray | None = None  # Krylov start vector at `alts`


def scalar_simulate(
    solver: MatexSolver,
    t_end: float,
    x0: np.ndarray | None = None,
    active_inputs: Sequence[int] | None = None,
    schedule: TransitionSchedule | None = None,
    waveform_overrides: dict | None = None,
    sink: ResultSink | None = None,
) -> TransientResult:
    """``solver.simulate``'s arguments and result, one step per point.

    Uses the solver's own Krylov operator and ``G`` factors.  The
    default start is the DC point of the active inputs (zeros in
    deviation mode), as ``MatexSolver.simulate``'s.  A repeated grid
    point is recorded without a step.
    """
    opts = solver.options
    stats = SolverStats(factor_seconds=solver.factor_seconds)

    input_system = solver.system
    if waveform_overrides:
        input_system = solver.system.rebind_sources(overrides=waveform_overrides)

    if schedule is None:
        schedule = build_schedule(
            input_system, t_end, local_inputs=active_inputs
        )

    if x0 is None:
        if solver.deviation_mode:
            x0 = np.zeros(solver.system.dim)
        else:
            dc_t0 = time.perf_counter()
            x0 = solver.workspace.dc_solution(active=active_inputs)
            stats.dc_seconds = time.perf_counter() - dc_t0
            stats.n_solves_dc += 1
    x = np.asarray(x0, dtype=float).copy()

    points = schedule.points

    state = _OracleState(eps_segment=opts.eps_abs, alts=points[0])
    reuse_safety = REUSE_SAFETY

    # Solve counts are taken as deltas around each call so the
    # shared-LU case (inverted method) attributes every substitution
    # pair exactly once.
    etd = OracleEtd(solver.system, lu_g=solver.workspace.lu_g)
    etd_lu = etd.lu_g

    # Evaluate all inputs over the schedule once (vectorised across
    # pulse sources); segment slopes are exact finite differences of
    # these columns.  In deviation mode the t=0 column is subtracted
    # (constant offsets cancel in the slopes).
    bu_grid = input_system.bu_series(np.asarray(points), active=active_inputs)
    if solver.deviation_mode:
        bu0 = bu_grid[:, 0].copy()
        bu_grid -= bu0[:, None]

    def commit(err: float) -> None:
        """The posterior ledger: one committed step's estimate."""
        stats.posterior_sum += err
        stats.posterior_max = max(stats.posterior_max, err)

    def advance(i: int, t: float, t_next: float, x: np.ndarray):
        """One Alg. 2 step: fresh basis at an LTS, reuse at a snapshot."""
        h = t_next - t
        if schedule.is_lts[i] or state.basis is None:
            # Fresh input segment: new ETD vectors + new Krylov basis.
            before_etd = etd_lu.n_solves
            su = (bu_grid[:, i + 1] - bu_grid[:, i]) / h
            state.segment = etd.from_vectors(t, bu_grid[:, i], su)
            stats.n_solves_etd += etd_lu.n_solves - before_etd

            v = x + state.segment.F
            state.eps_segment = (
                opts.eps_rel * float(np.linalg.norm(v)) + opts.eps_abs
            )
            before_kry = solver.op.n_solves
            state.basis = solver.op.build_basis(
                v, h, tol=state.eps_segment,
                m_max=opts.m_max, min_dim=opts.m_min,
            )
            stats.n_solves_krylov += solver.op.n_solves - before_kry
            stats.n_krylov_bases += 1
            stats.eps_sum += state.eps_segment
            stats.krylov_dims.append(state.basis.m)
            state.alts = t
            state.v_alts = v
            y, err = state.basis.evaluate_with_error(h)
            commit(err)
            return y - state.segment.P(h)

        # Snapshot: reuse the basis generated at `alts`, after
        # re-checking its posterior error at the longer step.
        ha = t_next - state.alts
        y, reuse_err = state.basis.evaluate_with_error(ha)
        if reuse_err > reuse_safety * state.eps_segment:
            before_kry = solver.op.n_solves
            state.basis = solver.op.build_basis(
                state.v_alts, ha, tol=state.eps_segment,
                m_max=opts.m_max, min_dim=opts.m_min,
            )
            stats.n_solves_krylov += solver.op.n_solves - before_kry
            stats.n_krylov_bases += 1
            stats.eps_sum += state.eps_segment
            stats.krylov_dims.append(state.basis.m)
            y, reuse_err = state.basis.evaluate_with_error(ha)
        else:
            stats.n_reuses += 1
        commit(reuse_err)
        return y - state.segment.P(ha)

    loop = SteppingLoop(solver.system.dim, stats, sink=sink)
    times, states = loop.march_grid(points, x, advance)

    return TransientResult(
        system=solver.system,
        times=times,
        states=states,
        stats=stats,
        method=f"matex-{opts.method}",
        sink=sink,
    )


def run_task(solver: MatexSolver, task: SimulationTask) -> NodeResult:
    """Scalar march of one task against a deviation-mode solver."""
    overrides = task.group.overrides_dict() or None
    schedule = task.schedule
    if schedule is None:
        schedule = build_schedule(
            solver.system,
            task.t_end,
            local_inputs=task.group.input_columns,
            global_points=task.global_points,
            waveform_overrides=overrides,
        )
    res = scalar_simulate(
        solver,
        task.t_end,
        active_inputs=task.group.input_columns,
        schedule=schedule,
        waveform_overrides=overrides,
    )
    return NodeResult(
        task_id=task.task_id,
        group_id=task.group.group_id,
        label=task.group.label,
        times=res.times,
        states=res.states,
        stats=res.stats,
    )


# -- the oracle's own sensitivity -----------------------------------------------------


@contextmanager
def ulp_perturbed_oracle(seed: int):
    """Move the oracle's computed values one ulp up or down.

    Every non-zero entry of each ``KrylovBasis.evaluate_many`` block and
    of each :class:`OracleEtd` ``G`` solve moves by one ulp, in a
    direction drawn from ``seed`` (an exact zero is a structural zero,
    not a rounded value, and stays).  The posterior errors are left
    alone, so the evaluations move only the states the oracle steps
    through; a moved ETD vector also moves the next Krylov start vector.
    """
    rng = np.random.default_rng(seed)
    evaluate_many, solve = KrylovBasis.evaluate_many, OracleEtd._solve

    def nudge(Y):
        up = rng.random(Y.shape) < 0.5
        moved = np.where(up, np.nextafter(Y, np.inf), np.nextafter(Y, -np.inf))
        return np.where(Y == 0.0, Y, moved)

    def perturbed_evaluations(self, hs, with_errors=True):
        Y, errs = evaluate_many(self, hs, with_errors)
        return nudge(Y), errs

    KrylovBasis.evaluate_many = perturbed_evaluations
    OracleEtd._solve = lambda self, rhs: nudge(solve(self, rhs))
    try:
        yield
    finally:
        KrylovBasis.evaluate_many = evaluate_many
        OracleEtd._solve = solve


def oracle_spread(
    run: Callable[[], np.ndarray], n_runs: int = 6, seed: int = 0
) -> float:
    """Largest state change of ``run()`` over ``n_runs`` perturbed runs.

    ``run`` marches the oracle and returns its states; each repetition
    runs it under :func:`ulp_perturbed_oracle` with its own seed.
    """
    base = np.asarray(run())
    spread = 0.0
    for k in range(n_runs):
        with ulp_perturbed_oracle(seed + k):
            moved = np.abs(np.asarray(run()) - base).max()
        spread = max(spread, float(moved))
    return spread


def oracle_budget(scale: float, spread: float, rtol: float = 1e-12) -> float:
    """How far a state may sit from the oracle's: ``rtol`` of the
    response scale, or four times the oracle's own spread when that is
    larger — six seeds sample the spread, they do not bound it."""
    return max(rtol * scale, 4.0 * spread)
