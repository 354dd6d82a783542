"""Adaptive trapezoidal method with LTE step control (paper Table 2).

The traditional adaptive competitor: TR whose step size is governed by a
local-truncation-error estimate (Najm, *Circuit Simulation*, 2010).  Its
structural handicap versus MATEX is the whole point of the comparison:
**every step-size change forces a new LU factorisation** of
``C/h + G/2``, while MATEX re-scales a Hessenberg exponent.

Controller
----------
* the TR LTE is ``-h³/12 · x‴``; ``x‴`` is estimated from third divided
  differences of the last four accepted states;
* reject and halve ``h`` when the estimate exceeds ``tol``;
* double ``h`` after several consecutive comfortably-accepted steps
  (estimate below ``tol/16``);
* ``h`` is always clamped so steps land exactly on input transition
  spots (skipping a pulse edge would silently miss the event);
* factorisations are cached by step size — the controller typically
  bounces between a few sizes, and real implementations cache too.

The step-size *policy* lives in :class:`_LteController`; the
accept/reject marching itself is the shared
:meth:`~repro.engine.loop.SteppingLoop.march_adaptive`.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.baselines.fixed_step import dc_operating_point
from repro.circuit.mna import MNASystem
from repro.core.results import TransientResult
from repro.core.stats import SolverStats
from repro.engine.loop import SteppingLoop
from repro.engine.sinks import ResultSink
from repro.linalg.lu import SparseLU

__all__ = ["AdaptiveTrapezoidalIntegrator", "simulate_adaptive_trapezoidal"]


def _third_derivative_estimate(
    history: deque, t_new: float, x_new: np.ndarray
) -> float:
    """Max-norm third divided difference × 3! over the last 4 points."""
    pts = list(history)[-3:] + [(t_new, x_new)]
    if len(pts) < 4:
        return 0.0

    def divided(points):
        if len(points) == 1:
            return points[0][1]
        num = divided(points[1:]) - divided(points[:-1])
        den = points[-1][0] - points[0][0]
        return num / den

    return 6.0 * float(np.max(np.abs(divided(pts))))


class _LteController:
    """Step-size policy of the adaptive TR run (the strategy half).

    Owns the LTE estimate, the per-step-size factorisation cache (served
    by the process-wide cache underneath) and the halve/double policy;
    the :class:`~repro.engine.loop.SteppingLoop` owns everything else.
    """

    def __init__(
        self,
        system: MNASystem,
        stats: SolverStats,
        t_end: float,
        tol: float,
        h_init: float,
        h_min: float,
        h_max: float,
        max_factorizations: int,
        x0: np.ndarray,
    ):
        self.system = system
        self.stats = stats
        self.t_end = t_end
        self.tol = tol
        self.h = h_init
        self.h_min = h_min
        self.h_max = h_max
        self.max_factorizations = max_factorizations
        self.lu_cache: dict[float, SparseLU] = {}
        self.gts = system.global_transition_spots(t_end)
        self.gts_idx = 1
        self.good_streak = 0
        self.history: deque = deque(maxlen=4)
        self.history.append((0.0, np.array(x0, dtype=float)))
        self._c_over = system.C.tocsr()
        self._g_half = (system.G / 2.0).tocsr()
        self._lte = 0.0

    def factored(self, h: float) -> SparseLU:
        # Deliberately NOT routed through the process-wide cache: a
        # thrashing controller can produce dozens of step-size-specific
        # matrices that are never reused across runs, and inserting them
        # would evict the shared pencils (G, C+γG) the global cache
        # exists to amortise.  The per-run dict is the right scope here.
        lu = self.lu_cache.get(h)
        if lu is None:
            if len(self.lu_cache) >= self.max_factorizations:
                raise RuntimeError(
                    f"adaptive TR exceeded {self.max_factorizations} "
                    f"factorisations; tolerance {self.tol!r} may be too tight"
                )
            lu = SparseLU(
                (self.system.C / h + self.system.G / 2.0).tocsc(),
                label=f"TR h={h:g}",
            )
            self.stats.factor_seconds += lu.factor_seconds
            self.stats.n_krylov_bases += 1  # = number of LU factorisations
            self.lu_cache[h] = lu
        return lu

    # -- StepController interface ------------------------------------------------

    def propose(self, t: float) -> float:
        """Clamp the step to land exactly on the next transition spot."""
        while (self.gts_idx < len(self.gts)
               and self.gts[self.gts_idx] <= t * (1 + 1e-12)):
            self.gts_idx += 1
        limit = (self.gts[self.gts_idx] - t
                 if self.gts_idx < len(self.gts) else self.t_end - t)
        step = min(self.h, limit, self.t_end - t)
        # A step below ~100 ulp of the current time cannot advance the
        # march (t + h rounds back to t) — the loop would spin forever.
        # The final approach to t_end legitimately shrinks to ulp scale
        # (step == remaining), so only a *policy*-shrunk step trips this.
        remaining = self.t_end - t
        if step < 1e2 * np.spacing(t) and step < remaining:
            raise RuntimeError(
                f"adaptive TR step-size underflow: dt={step:.3e} is below "
                f"100 ulp of t={t:.3e} and can no longer advance the "
                f"march; tol={self.tol:g} is too tight (or "
                f"h_min={self.h_min:g} too small) for this circuit"
            )
        return step

    def attempt(
        self, t: float, h_step: float, x: np.ndarray
    ) -> tuple[np.ndarray, bool]:
        lu = self.factored(h_step)
        bu0 = self.system.bu(t)
        bu1 = self.system.bu(t + h_step)
        rhs = (self._c_over @ x) / h_step - self._g_half @ x + 0.5 * (bu0 + bu1)
        x_new = lu.solve(rhs)

        d3 = _third_derivative_estimate(self.history, t + h_step, x_new)
        self._lte = (h_step ** 3) / 12.0 * d3
        if self._lte > self.tol and h_step > self.h_min:
            # Reject: halve and retry (new factorisation unless cached).
            self.h = max(h_step / 2.0, self.h_min)
            self.good_streak = 0
            return x_new, False
        return x_new, True

    def accepted(self, t: float, x: np.ndarray) -> None:
        self.history.append((t, np.array(x, dtype=float)))
        if self._lte < self.tol / 16.0:
            self.good_streak += 1
            if self.good_streak >= 3 and self.h < self.h_max:
                self.h = min(self.h * 2.0, self.h_max)
                self.good_streak = 0
        else:
            self.good_streak = 0


class AdaptiveTrapezoidalIntegrator:
    """Adaptive-step TR integrator; see module docstring.

    Parameters
    ----------
    system:
        Assembled MNA system.
    tol:
        Absolute LTE tolerance per step (volts).
    h_init, h_min, h_max:
        Step-size bounds; defaults (resolved per run against the
        horizon) are ``t_end/1000``, ``t_end/65536`` and ``t_end/20``.
    max_factorizations:
        Safety valve against pathological thrashing.
    """

    method_label = "tr-adaptive"

    def __init__(
        self,
        system: MNASystem,
        tol: float = 1e-4,
        h_init: float | None = None,
        h_min: float | None = None,
        h_max: float | None = None,
        max_factorizations: int = 200,
    ):
        self.system = system
        self.tol = tol
        self.h_init = h_init
        self.h_min = h_min
        self.h_max = h_max
        self.max_factorizations = max_factorizations

    def simulate(
        self,
        t_end: float,
        x0: np.ndarray | None = None,
        sink: ResultSink | None = None,
    ) -> TransientResult:
        """Run the LTE-controlled march over ``[0, t_end]``.

        Returns
        -------
        TransientResult
            Accepted-step trajectory.  ``stats.n_krylov_bases`` is abused
            to carry the number of LU factorisations performed (the
            quantity the paper's comparison hinges on);
            ``stats.factor_seconds`` accumulates their wall time.
        """
        h_init = self.h_init if self.h_init is not None else t_end / 1000.0
        h_min = self.h_min if self.h_min is not None else t_end / 65536.0
        h_max = self.h_max if self.h_max is not None else t_end / 20.0
        if not (0 < h_min <= h_init <= h_max):
            raise ValueError(
                f"need 0 < h_min <= h_init <= h_max, got "
                f"{h_min!r}, {h_init!r}, {h_max!r}"
            )

        stats = SolverStats()
        if x0 is None:
            t_dc = time.perf_counter()
            x0, lu_g = dc_operating_point(self.system)
            stats.dc_seconds = time.perf_counter() - t_dc
            stats.factor_seconds += lu_g.factor_seconds
            stats.n_solves_dc += 1
        x0 = np.asarray(x0, dtype=float)

        controller = _LteController(
            self.system, stats, t_end, self.tol,
            h_init, h_min, h_max, self.max_factorizations, x0,
        )
        loop = SteppingLoop(self.system.dim, stats, sink=sink)
        times, states = loop.march_adaptive(t_end, x0, controller)
        stats.n_solves_etd = sum(
            lu.n_solves for lu in controller.lu_cache.values()
        )

        return TransientResult(
            system=self.system,
            times=times,
            states=states,
            stats=stats,
            method=self.method_label,
            sink=sink,
        )


def simulate_adaptive_trapezoidal(
    system: MNASystem,
    t_end: float,
    tol: float = 1e-4,
    h_init: float | None = None,
    h_min: float | None = None,
    h_max: float | None = None,
    x0: np.ndarray | None = None,
    max_factorizations: int = 200,
) -> TransientResult:
    """Adaptive-step TR with LTE control; see the class docstring."""
    return AdaptiveTrapezoidalIntegrator(
        system, tol=tol, h_init=h_init, h_min=h_min, h_max=h_max,
        max_factorizations=max_factorizations,
    ).simulate(t_end, x0=x0)
