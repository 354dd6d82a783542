"""Shared machinery for the fixed-step implicit baselines (TR / BE).

Both methods factor one shifted matrix at the start and then march with a
single forward/backward substitution pair per step — the strategy of the
TAU power-grid-contest solvers that the paper benchmarks against
(Sec. 2.1): ``N`` uniform steps cost ``N`` substitution pairs after one
LU (paper Eq. 12's ``N·Tbs + Tserial``).

The subclass supplies the shifted left-hand side and the per-step
right-hand side, the factorisation is served by the process-wide
:data:`~repro.linalg.lu.FACTORIZATION_CACHE`, and the marching itself —
recording, statistics — lives in the shared
:class:`~repro.engine.loop.SteppingLoop`.
"""

from __future__ import annotations

import time
from typing import ClassVar, Sequence

import numpy as np
import scipy.sparse as sp

from repro.circuit.mna import MNASystem
from repro.core.results import TransientResult
from repro.core.stats import SolverStats
from repro.engine.loop import SteppingLoop
from repro.engine.sinks import ResultSink
from repro.linalg.lu import FACTORIZATION_CACHE, SparseLU

__all__ = [
    "FixedStepImplicitIntegrator",
    "dc_operating_point",
    "select_record_indices",
]


def dc_operating_point(system: MNASystem) -> tuple[np.ndarray, SparseLU]:
    """DC analysis ``G x = B u(0)``; returns the state and the G-LU.

    The factorisation comes from the process-wide cache, so a DC solve
    after any solver already factored ``G`` costs only a substitution.
    """
    lu_g = FACTORIZATION_CACHE.factor(system.G, label="G")
    return lu_g.solve(system.bu(0.0)), lu_g


def select_record_indices(
    n_steps: int, record_times: Sequence[float] | None, h: float
) -> np.ndarray | None:
    """Map requested record times to step indices (always 0 and last).

    ``None`` (record everything) passes through — the
    :class:`~repro.engine.loop.SteppingLoop` treats it as "no mask".
    """
    if record_times is None:
        return None
    idx = {0, n_steps}
    for t in record_times:
        i = int(round(t / h))
        if 0 <= i <= n_steps:
            idx.add(i)
    return np.array(sorted(idx))


class FixedStepImplicitIntegrator:
    """Base for one-LU fixed-step implicit schemes (TR, BE).

    Parameters
    ----------
    system:
        Assembled MNA system.
    h:
        Uniform step size (the paper's 10ps for Table 3).

    Notes
    -----
    Construction factors the shifted matrix (cache-served); each
    :meth:`simulate` call then costs one substitution pair per step.
    Subclasses set :attr:`method_label` and implement :meth:`_lhs` /
    :meth:`_rhs`.
    """

    method_label: ClassVar[str] = "fixed"

    def __init__(self, system: MNASystem, h: float):
        if h <= 0.0:
            raise ValueError(f"step size must be positive, got {h!r}")
        self.system = system
        self.h = float(h)
        self.lu = FACTORIZATION_CACHE.factor(
            self._lhs(), label=f"{self.method_label}-lhs"
        )
        # Construction cost is attributed to the *first* simulate call;
        # later calls on a reused instance paid no factorisation and
        # must not re-report it (the paper's "serial part" is wall time
        # actually spent).
        self._factor_seconds_pending = self.lu.factor_seconds

    # -- subclass hooks --------------------------------------------------------

    def _lhs(self) -> sp.spmatrix:
        """The shifted matrix factored once (e.g. ``C/h + G/2`` for TR)."""
        raise NotImplementedError

    def _rhs(
        self, x: np.ndarray, bu0: np.ndarray, bu1: np.ndarray
    ) -> np.ndarray:
        """Step right-hand side from ``(x, bu_this_step, bu_next_step)``."""
        raise NotImplementedError

    # -- public API --------------------------------------------------------------

    def simulate(
        self,
        t_end: float,
        x0: np.ndarray | None = None,
        record_times: Sequence[float] | None = None,
        sink: ResultSink | None = None,
    ) -> TransientResult:
        """March ``round(t_end/h)`` uniform steps through the shared loop.

        Parameters
        ----------
        t_end:
            Horizon; must cover at least one step.
        x0:
            Initial state; defaults to the DC operating point.
        record_times:
            Times (multiples of ``h``) whose states should be kept.
            ``None`` keeps every step — fine for small circuits, wasteful
            for suites.
        sink:
            Recorded-state destination (default: dense in-memory).
        """
        n_steps = int(round(t_end / self.h))
        if n_steps < 1:
            raise ValueError(
                f"t_end={t_end!r} shorter than one step h={self.h!r}"
            )

        stats = SolverStats()
        stats.factor_seconds += self._factor_seconds_pending
        self._factor_seconds_pending = 0.0

        if x0 is None:
            t_dc = time.perf_counter()
            x0, lu_g = dc_operating_point(self.system)
            stats.dc_seconds = time.perf_counter() - t_dc
            stats.factor_seconds += lu_g.factor_seconds
            stats.n_solves_dc += 1

        grid = self.h * np.arange(n_steps + 1)
        record = select_record_indices(n_steps, record_times, self.h)
        bu_grid = self.system.bu_series(grid)
        solves_before = self.lu.n_solves

        def advance(i: int, t: float, t_next: float, x: np.ndarray):
            return self.lu.solve(self._rhs(x, bu_grid[:, i], bu_grid[:, i + 1]))

        loop = SteppingLoop(self.system.dim, stats, sink=sink)
        times, states = loop.march_grid(grid, x0, advance, record=record)
        stats.n_solves_krylov = 0
        stats.n_solves_etd = self.lu.n_solves - solves_before

        return TransientResult(
            system=self.system,
            times=times,
            states=states,
            stats=stats,
            method=self.method_label,
            sink=sink,
        )
