"""Reduced-order transient model with a posterior residual bound.

``build_reduced_model`` compresses the descriptor system
``C x' = -G x + B u(t)`` onto the block rational-Krylov subspace of
:mod:`repro.rom.projector` and precomputes everything a scenario sweep
needs, so answering one scenario is four **real** GEMMs instead of a
full-order MATEX march (``n`` unknowns, ``p`` inputs in ``r`` shapes,
``q`` modes, ``K`` grid points; pg1t: 1058, 804 in 100, 200, 145):

* ``Sᵀ·(Mᵀ[Wᵀ | Fᵀ])`` — quasi-static responses ``W = G^-1 B`` and
  modal inputs ``F`` of the ``r`` distinct input shapes ``S``, after a
  sparse group-sum ``M`` of the ``p`` rows: ``2·K·r·(n + 2q)`` flops;
* ``Re(X·[Y | Ẏ])`` in reduced space: ``8·K·q²``;
* the lifts ``V·Re(XY)``, ``Z·Re(XẎ)``, ``Z = G^-1 C V``: ``4·K·q·n``.

≈210 MFLOP on pg1t, against ≈830 for the same formula over all ``p``
input rows with complex ``(n, q)`` lifts ``V·X`` and ``Z·X``.

**Passive projection.**  MNA as stamped here is symmetric but
indefinite (voltage-source and inductor branch rows), and a Galerkin
projection of an indefinite pencil can produce an *unstable* reduced
system even though the circuit is passive.  Negating the branch-current
rows — a pure row scaling that changes no solution — yields the
passive form ``C ⪰ 0``, ``G + Gᵀ ⪰ 0``, for which the projected pencil
``(V'CV, V'GV)`` provably keeps every finite eigenvalue in the closed
left half-plane.

**γ-regularised modal march.**  The reduced pencil is diagonalised
through ``M = (Ĉ + γĜ)^-1 Ĉ`` — the reduced twin of the R-MATEX
rational operator ``(C + γG)^-1 C``.  Its eigenvalues map to pencil
eigenvalues via ``λ = (1 - 1/μ)/γ``; algebraic (singular-``Ĉ``)
directions arrive as ``μ → 0`` and are sent to enormously negative
exponents, exactly how the full-order path treats singular Hessenberg
blocks.  Per distinct segment width ``h`` (the frozen GTS grid has few)
three diagonal propagator vectors are tabulated, so one scenario's
march over the grid is ``K`` small elementwise updates — **exact** for
the piecewise-linear inputs between transition spots, the same
assumption the full-order integrator makes.  The identities
``F/μ = F(1 - γλ)`` and ``h φ1(hλ)/μ = γ(1 - e^{hλ})/(1 - μ)`` keep
every coefficient finite without ever dividing by a vanishing ``μ``.

**Posterior bound.**  Each answered scenario gets a residual-based
error indicator: with ``v(t) = V w(t)`` the lifted reduced trajectory,
the defect ``r(t) = B ũ - C v̇ - G v`` is mapped through ``G^-1`` (the
quasi-static error amplification of a stiff PDN) and the reported
bound is ``safety · max_t ‖G^-1 r(t)‖∞`` over the grid.  The error
``e = x - v`` solves ``C ė = -G e + r`` with ``e(0) = 0``, for which
the grid maximum of ``‖G^-1 r‖`` is the natural stiff-limit estimate;
the ``safety`` factor covers inter-grid excursions and transient
overshoot of that estimate.  Scenarios whose *relative* bound exceeds
``tol`` are transparently re-run on the full-order path by
:meth:`repro.plan.Session.sweep` — the tier accelerates, it never
silently degrades.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from repro.circuit.mna import MNASystem
from repro.circuit.waveforms import sample_waveforms
from repro.core.options import SolverOptions
from repro.core.shapes import _input_shapes, _shape_rows
from repro.rom.projector import BasisInfo, RomBuildError, rational_krylov_basis

__all__ = ["RomConfig", "RomAnswer", "ReducedModel", "build_reduced_model"]

#: Below this |μ| a reduced mode is treated as purely algebraic: its
#: exponent is floored (λ ~ -1/(γ·μ_floor)) so the propagators evaluate
#: in their quasi-static limit instead of overflowing.
MU_FLOOR = 1e-8


@dataclass(frozen=True)
class RomConfig:
    """Accuracy/size knobs of the reduced-order sweep tier.

    Attributes
    ----------
    tol:
        Acceptance threshold on the **relative** posterior bound (the
        absolute bound divided by the scenario's response scale).  A
        scenario above it falls back to the full-order path.
    q_max:
        Reduced-dimension cap handed to the projector.
    moments:
        Rational Krylov moment blocks in the basis (see
        :func:`repro.rom.projector.rational_krylov_basis`).
    deflation_tol:
        Relative pivot threshold for deflating dependent candidate
        columns; the test runs on the diagonal of the projector's
        sketch, ``|R_jj| > deflation_tol·|R_00|``.
    safety:
        Multiplier on the raw residual indicator; the *reported* bound
        is ``safety × max‖G^-1 r‖∞``.  The indicator empirically tracks
        the true error to within a few percent on PDN workloads (bound
        ≈ 2.0 × error on pg1t, ``tests/test_rom.py``), so the default 2.0 is
        a conservative margin, not a fudge looking for tuning.
    """

    tol: float = 0.05
    q_max: int = 200
    moments: int = 2
    deflation_tol: float = 1e-10
    safety: float = 2.0

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.q_max < 1:
            raise ValueError(f"q_max must be >= 1, got {self.q_max}")
        if self.moments < 1:
            raise ValueError(f"moments must be >= 1, got {self.moments}")
        if not 0.0 < self.deflation_tol < 1.0:
            raise ValueError(
                f"deflation_tol must be in (0, 1), "
                f"got {self.deflation_tol!r}"
            )
        if self.safety < 1.0:
            raise ValueError(
                f"safety must be >= 1 (a bound may not shrink the "
                f"indicator), got {self.safety!r}"
            )


@dataclass(frozen=True, eq=False)
class RomAnswer:
    """One scenario answered in reduced space.

    ``states`` is the lifted ``(K, dim)`` trajectory on the plan's GTS
    grid; ``bound_abs``/``bound_rel`` the posterior error bound (already
    including the configured safety factor); ``accepted`` whether the
    relative bound met the tolerance (callers fall back otherwise).
    """

    states: np.ndarray
    bound_abs: float
    bound_rel: float
    accepted: bool
    seconds: float


@dataclass(frozen=True, eq=False)
class ReducedModel:
    """Precomputed reduced-order sweep answerer (picklable).

    Every field is a plain C-contiguous array, so a compiled plan
    carrying the model ships to executor processes unchanged.  All
    heavy operators (``V``, ``G^-1 B``, the modal tables) are baked in
    at build time, transposed so that :meth:`answer` performs only
    real dense products and trajectories come out time-major.
    """

    config: RomConfig
    gamma: float
    n_full: int
    n_inputs: int
    grid: np.ndarray                 # (K,) global transition spots
    mu: np.ndarray                   # (q,) complex eigenvalues of M
    lam: np.ndarray                  # (q,) mapped pencil exponents
    input_map: np.ndarray            # (p, n + 2q)  [(G^-1 B)ᵀ | Fᵀ re,im]
    X: np.ndarray                    # (2q, q) rows 2k, 2k+1: Re, -Im X[:, k]
    Vt: np.ndarray                   # (q, n) basis  Vᵀ
    Zt: np.ndarray                   # (q, n) (G^-1 C V)ᵀ
    U_base: np.ndarray               # (p, K) base inputs on the grid
    shapes: np.ndarray               # (r, K) distinct unit deviation rows
    shape_of: np.ndarray             # (p,) base row -> its shape
    pivot: np.ndarray                # (p,) sample where that shape is 1
    widths: np.ndarray               # (n_h,) distinct segment widths
    propagators: np.ndarray          # (3, n_h, q) diagonal a, b, c per width
    segment: np.ndarray              # (K-1,) grid segment -> width index
    basis: BasisInfo
    build_seconds: float

    # -- geometry ----------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Reduced dimension ``q``."""
        return int(self.mu.shape[0])

    @property
    def n_points(self) -> int:
        """Grid length ``K``."""
        return int(self.grid.shape[0])

    @property
    def n_shapes(self) -> int:
        """Distinct base input shapes ``r`` (rows equal up to amplitude)."""
        return int(self.shapes.shape[0])

    def resident_bytes(self) -> int:
        """Bytes pinned by the model's dense operators and tables."""
        return int(sum(
            v.nbytes for v in vars(self).values()
            if isinstance(v, np.ndarray)
        ))

    # -- scenario inputs ---------------------------------------------------------

    def input_matrix(self, scenario=None, bound: MNASystem | None = None):
        """The ``(p, K)`` input values a scenario puts on the grid.

        Amplitude-only scenarios are served by row-scaling the baked
        base matrix; waveform overrides re-evaluate just the changed
        columns from the scenario-bound system.
        """
        if scenario is None or scenario.is_baseline:
            return self.U_base
        if not scenario.overrides:
            svec = np.ones(self.n_inputs)
            for col, factor in scenario.scales:
                svec[col] = factor
            return self.U_base * svec[:, None]
        if bound is None:
            raise ValueError(
                "scenarios with waveform overrides need the bound "
                "system to re-evaluate the changed columns"
            )
        U = self.U_base.copy()
        cols = list(scenario.changed_columns)
        U[cols] = sample_waveforms([bound.waveforms[c] for c in cols], self.grid)
        return U

    # -- the reduced march -------------------------------------------------------

    def answer(self, U: np.ndarray) -> RomAnswer:
        """March one scenario entirely in reduced space.

        Parameters
        ----------
        U:
            Input values on the grid, shape ``(n_inputs, K)`` (see
            :meth:`input_matrix`).

        Returns
        -------
        RomAnswer
            Lifted trajectory + posterior bound.  ``accepted`` is the
            caller's cue to keep it or fall back.
        """
        t0 = time.perf_counter()
        n, q, K = self.n_full, self.dim, self.n_points

        # Deviation inputs ũ = u - u(0): the march starts from the
        # scenario's DC point, so the reduced state starts at zero and
        # the initial error is exactly zero.
        Ut = U - U[:, :1]
        coef, of, S = _shape_rows(
            U, Ut, self.shapes, self.shape_of, self.pivot
        )
        p = self.n_inputs
        M = sp.csr_matrix((coef, of, np.arange(p + 1)), shape=(p, len(S)))
        per_shape = M.T @ self.input_map           # (r', n + 2q)
        qs = S.T @ per_shape[:, :n]                # quasi-static (K, n)
        FU = (S.T @ per_shape[:, n:]).view(complex)          # (K, q)
        x_dc = U[:, 0] @ self.input_map[:, :n]     # DC point  G^-1 B u(0)

        # Rows of YY[0] are the modal states y, of YY[1] their
        # derivatives; the segment forcing b·Fũ_i + c·Fd_i is formed for
        # all segments at once, leaving y⁺ = a·y + forcing to the loop.
        a, b, c = self.propagators[:, self.segment]
        h = self.widths[self.segment]
        YY = np.empty((2, K, q), dtype=complex)
        Y, Ydot = YY
        Y[0] = 0.0
        Y[1:] = b * FU[:-1] + c * ((FU[1:] - FU[:-1]) / h[:, None])
        for i in range(K - 1):
            Y[i + 1] += a[i] * Y[i]
        # Singular-μ-safe derivatives:  ẏ = λ(y - γFũ) + Fũ.
        np.multiply(self.lam, Y - self.gamma * FU, out=Ydot)
        Ydot += FU

        # Re(X·y) on the re/im-interleaved view is one real product;
        # only then lift, with real (q, n) operands.
        R = YY.view(float).reshape(2 * K, 2 * q) @ self.X
        dev = R[:K] @ self.Vt                      # lifted deviation (K, n)
        res = qs - dev
        res -= R[K:] @ self.Zt
        bound_abs = self.config.safety * _absmax(res)
        scale = max(_absmax(qs), _absmax(dev))
        bound_rel = bound_abs / scale if scale > 0.0 else 0.0

        dev += x_dc
        return RomAnswer(
            states=dev,
            bound_abs=bound_abs,
            bound_rel=bound_rel,
            accepted=bound_rel <= self.config.tol,
            seconds=time.perf_counter() - t0,
        )

    def summary(self) -> str:
        """One-line digest for CLI/bench reporting."""
        b = self.basis
        return (
            f"reduced model: q={self.dim} of n={self.n_full} "
            f"({b.n_candidates} candidates, {b.n_deflated} deflated "
            f"in the sketch{', capped' if b.truncated else ''}), "
            f"{self.n_inputs} inputs in {self.n_shapes} shapes, "
            f"{len(self.widths)} segment widths, "
            f"tol {self.config.tol:g}, safety {self.config.safety:g}, "
            f"{self.resident_bytes() / 2**20:.1f} MiB, "
            f"build {self.build_seconds * 1e3:.0f} ms"
        )


def _absmax(x: np.ndarray) -> float:
    """``max |x|`` without the ``|x|`` temporary."""
    return max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))


def _segment_tables(
    grid: np.ndarray, lam: np.ndarray, mu: np.ndarray, gamma: float
):
    """Diagonal propagators ``(a, b, c)`` per distinct segment width.

    Returns the distinct widths ``(n_h,)``, the stacked ``(3, n_h, q)``
    propagators and each grid segment's index into them.  The exact
    piecewise-linear-input update in modal coordinates is::

        y⁺ = a ⊙ y + b ⊙ (F u_i) + c ⊙ (F d_i)      d_i = (u_{i+1}-u_i)/h

    with ``a = e^{hλ}``, ``b = h φ1(hλ)/μ`` and ``c = h² φ2(hλ)/μ``.
    The μ divisions are folded away through ``λμ = -(1-μ)/γ``::

        b = γ (1 - e^{hλ}) / (1 - μ)
        c = γ (hλ + 1 - e^{hλ}) / (λ (1 - μ))

    so algebraic directions (μ → 0, λ → -∞) evaluate smoothly to their
    quasi-static limits ``a → 0``, ``b → γ/(1-μ)``, ``c → γh/(1-μ)``
    instead of dividing by zero, and the small-``hλ`` branch switches
    to a series to dodge cancellation.
    """
    widths, segment = np.unique(np.diff(grid), return_inverse=True)
    h = widths[:, None]
    one_minus_mu = 1.0 - mu
    z = h * lam
    # λ ≤ 0 by construction, so exp never overflows.
    a = np.exp(z)
    b = gamma * (1.0 - a) / one_minus_mu
    small = np.abs(z) < 1e-5
    lam_safe = np.where(small, 1.0, lam)
    with np.errstate(invalid="ignore"):
        c_big = gamma * (z + 1.0 - a) / (lam_safe * one_minus_mu)
    c_small = -gamma * h * z * (0.5 + z / 6.0 + z * z / 24.0) \
        / one_minus_mu
    c = np.where(small, c_small, c_big)
    return widths, np.stack([a, b, c]), segment


def build_reduced_model(
    system: MNASystem,
    options: SolverOptions,
    t_end: float,
    config: RomConfig,
) -> ReducedModel:
    """Project ``system`` onto the rational-Krylov subspace and bake
    the scenario answerer.

    Raises :class:`~repro.rom.projector.RomBuildError` when no sound
    reduced model can be built — callers (``SimulationPlan.compile``)
    degrade to the full-order path and report why.
    """
    t0 = time.perf_counter()
    gamma = options.gamma
    n = system.dim
    p = system.n_inputs
    C, G = system.C, system.G

    V, info, W, lu_g = rational_krylov_basis(
        C, G, system.B, gamma,
        moments=config.moments,
        q_max=config.q_max,
        deflation_tol=config.deflation_tol,
    )

    # Passive form: negate every branch-current row (voltage sources and
    # inductors live past the node block).  A row scaling changes no
    # solution, but it makes Ĉ ⪰ 0 and sym(Ĝ) ⪰ 0, which is what keeps
    # the projected pencil provably stable.  Vᵀ(D·A) = (D·V)ᵀA, so the
    # flip is applied to the left basis instead of to C, G and B.
    d = np.ones(n)
    d[system.n_nodes:] = -1.0
    Vd = V * d[:, None]
    CV = np.asarray(C @ V)

    Ch = Vd.T @ CV
    Gh = Vd.T @ (G @ V)
    Bh = (system.B.T @ Vd).T               # B sparse or dense, never copied
    Sh = Ch + gamma * Gh
    try:
        lu_sh = sla.lu_factor(Sh)
        M = sla.lu_solve(lu_sh, Ch)
        mu, X = np.linalg.eig(M)
        X = X.astype(complex)    # eig hands back reals for a real spectrum
        F = np.linalg.solve(X, sla.lu_solve(lu_sh, Bh))
    except Exception as exc:
        raise RomBuildError(
            f"reduced pencil diagonalisation failed: {exc}"
        ) from exc
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(F))):
        raise RomBuildError(
            "reduced modal decomposition produced non-finite values"
        )

    # μ → λ through the rational map; floor algebraic modes and clamp
    # rounding-level stability violations (exactly zero in exact
    # arithmetic for the passive form).
    mu_c = np.where(np.abs(mu) < MU_FLOOR, MU_FLOOR, mu)
    lam = (1.0 - 1.0 / mu_c) / gamma
    lam = np.where(lam.real > 0.0, 1j * lam.imag, lam)

    Z = np.asarray(lu_g.solve_many(CV))

    grid = np.asarray(system.global_transition_spots(t_end), dtype=float)
    U_base = sample_waveforms(system.waveforms, grid)
    shapes, shape_of, pivot = _input_shapes(U_base)
    if not len(shapes):
        raise RomBuildError(
            "every input is constant on the grid: nothing to reduce"
        )

    widths, propagators, segment = _segment_tables(grid, lam, mu_c, gamma)

    return ReducedModel(
        config=config,
        gamma=gamma,
        n_full=n,
        n_inputs=p,
        grid=grid,
        mu=mu_c,
        lam=lam,
        input_map=np.concatenate(
            [W.T, np.ascontiguousarray(F.T).view(float)], axis=1
        ),
        X=np.ascontiguousarray(
            np.ascontiguousarray(X.conj()).view(float).T
        ),
        Vt=np.ascontiguousarray(V.T),
        Zt=np.ascontiguousarray(Z.T),
        U_base=U_base,
        shapes=shapes,
        shape_of=shape_of,
        pivot=pivot,
        widths=widths,
        propagators=propagators,
        segment=segment,
        basis=info,
        build_seconds=time.perf_counter() - t0,
    )
