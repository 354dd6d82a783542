"""The Arnoldi build: Alg. 1 for any number of start vectors in lockstep.

There is one Krylov build in the repository, :func:`build_bases_block`:
Arnoldi with classical Gram-Schmidt + one reorthogonalisation pass
(CGS2), happy-breakdown detection and the posterior-error stopping rule
of Eqs. (7)/(8)/(10), returning one reusable
:class:`~repro.linalg.krylov.KrylovBasis` per start vector.
:meth:`KrylovExpmOperator.build_basis
<repro.linalg.krylov.KrylovExpmOperator.build_basis>` is its one-column
call, and the march (:mod:`repro.dist.block_runner`, which
``MatexSolver.simulate`` runs at width 1) calls it once per segment
round for every task that opens a segment.

What batching adds.  The distributed decomposition (paper Sec. 3.4)
gives every node task the *same* MNA pencil, so all their bases are
built against the same sparse LU factors.  With several columns the
routine marches their Arnoldi iterations **in lockstep**: at iteration
``j`` the operator is applied to all still-active columns with one
sparse mat-mat product and one multi-RHS substitution
(``SparseLU.solve_many``) instead of one solve per column, and the
columns that test for convergence share one stacked small-matrix
exponential (:meth:`KrylovExpmOperator.error_estimates
<repro.linalg.krylov.KrylovExpmOperator.error_estimates>`).  Everything
else runs per column on that column's own workspace, and both batched
steps return per column exactly what they return for a column alone, so
a basis does not depend on which columns it was built next to.
``tests/test_block_krylov.py`` checks that across widths and
``tests/test_krylov_golden.py`` pins the bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.arnoldi import ArnoldiBreakdown, _ensure_capacity, _workspace
from repro.linalg.krylov import (
    HessenbergFactors,
    KrylovBasis,
    KrylovExpmOperator,
)

__all__ = ["build_bases_block", "prime_eig_payloads"]

#: Relative tolerance (vs. the pre-orthogonalisation norm of the new
#: vector) declaring a happy breakdown.
_BREAKDOWN_TOL = 1e-14
#: Each convergence test costs an m×m expm; once the basis is large
#: (only MEXP on stiff circuits gets there) testing every iteration
#: would dominate, so past this dimension only every 5th vector tests.
_TEST_THROTTLE_DIM = 60
_TEST_THROTTLE_EVERY = 5


def prime_eig_payloads(bases: list[KrylovBasis]) -> None:
    """Batch-precompute the evaluation eigendecompositions of many bases.

    Every :class:`~repro.linalg.krylov.KrylovBasis` lazily diagonalises
    its ``Hm`` on first evaluation (``eig`` + a condition estimate + one
    small solve — the dominant per-basis setup cost).  Bases built in a
    lockstep round share their dimension, so the whole round primes
    through three stacked gufunc calls whose per-slice results are
    bit-for-bit the single-matrix ones.  Bases that cannot be primed
    (LAPACK non-convergence anywhere in a stack) are simply left lazy —
    the scalar fallback computes the identical payload per basis.
    """
    groups: dict[int, list[KrylovBasis]] = {}
    for b in bases:
        if b.m > 0 and b._eig is None:
            groups.setdefault(b.m, []).append(b)
    for m, group in groups.items():
        stack = np.stack([b.Hm for b in group])
        try:
            d, s = np.linalg.eig(stack)
            e1 = np.zeros(m)
            e1[0] = 1.0
            s_inv_e1 = np.linalg.solve(s, np.tile(e1, (len(group), 1))[..., None])[..., 0]
            conds = np.linalg.cond(s)
        except np.linalg.LinAlgError:
            continue
        for i, b in enumerate(group):
            usable = bool(np.isfinite(conds[i]) and conds[i] < 1e10)
            object.__setattr__(
                b, "_eig", (usable, (d[i], s[i], s_inv_e1[i]))
            )


# -- lockstep Arnoldi -------------------------------------------------------------------


@dataclass
class _Column:
    """Mutable lockstep state of one Arnoldi column."""

    idx: int
    v: np.ndarray
    h: float
    tol: float
    beta: float
    V: np.ndarray | None = None
    H: np.ndarray | None = None
    cap: int = 0
    m: int = 0
    active: bool = False
    happy: bool = False
    #: Estimate/factors of the most recent convergence test, reused by
    #: the finalisation when it happened at the final dimension (getrf
    #: is deterministic: recomputing would give the identical value).
    last_est: float | None = None
    last_est_m: int = -1
    last_factors: HessenbergFactors | None = None


def build_bases_block(
    op: KrylovExpmOperator,
    vs: list,
    hs: list,
    tols: list,
    m_max: int = 100,
    min_dim: int = 2,
) -> list[KrylovBasis]:
    """Build one Krylov basis per column, marching all columns in lockstep.

    Parameters
    ----------
    op:
        The shared Krylov operator (one sparse LU for every column —
        the paper's shared-pencil property).
    vs, hs, tols:
        Per-column start vectors (in MATEX: ``x(t) + F(t, h)``),
        convergence-test step sizes and error budgets ``ε``.
    m_max:
        Hard cap on the basis dimension (MEXP on stiff circuits runs
        into this; I-/R-MATEX converge around m ≈ 10).
    min_dim:
        Do not test convergence before this many vectors (the inverted
        and rational estimates are unreliable for the first couple of
        iterations, paper Sec. 3.3.3).

    Returns
    -------
    list[KrylovBasis]
        One basis per input column; a zero start vector gives the
        trivially converged empty basis (``exp(hA)·0 = 0`` exactly).

    Raises
    ------
    ArnoldiBreakdown
        If the operator returns non-finite values.

    Notes
    -----
    ``op.n_solves`` grows by one per column per lockstep iteration the
    column is active — i.e. by ``basis.m`` per column over the whole
    build.
    """
    n_cols = len(vs)
    if not (len(hs) == len(tols) == n_cols):
        raise ValueError("vs, hs and tols must have equal lengths")
    if n_cols == 0:
        return []
    if m_max < 1:
        raise ValueError("m_max must be at least 1")

    cols: list[_Column] = []
    n = None
    for k in range(n_cols):
        v = np.asarray(vs[k], dtype=float)
        if n is None:
            n = v.shape[0]
        elif v.shape[0] != n:
            raise ValueError("all start vectors must share one dimension")
        beta = float(np.linalg.norm(v))
        cols.append(
            _Column(idx=k, v=v, h=float(hs[k]), tol=float(tols[k]), beta=beta)
        )

    m_cap = min(m_max, n)
    tiny = np.finfo(float).tiny

    for c in cols:
        if c.beta == 0.0:  # repro: allow[RPL005] exact Krylov-breakdown sentinel (norm of the zero vector)
            continue
        c.V, c.H, c.cap = _workspace(m_cap, n)
        np.divide(c.v, c.beta, out=c.V[0])
        c.active = True

    for j in range(m_cap):
        active = [c for c in cols if c.active]
        if not active:
            break
        for c in active:
            c.V, c.H, c.cap = _ensure_capacity(c.V, c.H, c.cap, j + 1, m_cap)

        # One batched operator application for every active column: a
        # single sparse mat-mat product + multi-RHS substitution, with
        # columns bit-identical to per-column scalar applies.
        if len(active) == 1:
            W = op.apply(active[0].V[j])[:, None]
        else:
            block = np.empty((n, len(active)))
            for i, c in enumerate(active):
                block[:, i] = c.V[j]
            W = op.apply_block(block)

        if not np.all(np.isfinite(W)):
            bad = [
                c.idx for i, c in enumerate(active)
                if not np.all(np.isfinite(W[:, i]))
            ]
            raise ArnoldiBreakdown(
                f"operator returned non-finite values at iteration "
                f"{j + 1} (columns {bad})"
            )

        testing: list[_Column] = []
        for i, c in enumerate(active):
            w = np.ascontiguousarray(W[:, i])
            # Breakdown must be judged against the *local* operator
            # scale: e.g. the inverted operator G⁻¹C has tiny norm on
            # fast circuits, so comparing h_{j+1,j} with beta would fire
            # spuriously.  float(sqrt(w·w)) is numpy's exact norm
            # formula for 1-d real vectors, minus the wrapper dispatch.
            w_scale = float(np.sqrt(w.dot(w)))
            # Classical Gram-Schmidt in BLAS-2 form; the second pass
            # (CGS2) restores the numerical robustness of the modified
            # variant written in the paper's Alg. 1, at vectorised speed
            # — essential when MEXP pushes m into the hundreds.  Every
            # basis vector is one contiguous workspace row, so both
            # products stream whole vectors.
            basis_block = c.V[: j + 1]
            for _ in range(2):
                coeffs = basis_block @ w
                w = w - coeffs @ basis_block
                c.H[: j + 1, j] += coeffs
            h_next = float(np.sqrt(w.dot(w)))
            c.H[j + 1, j] = h_next
            c.m = j + 1

            if h_next <= _BREAKDOWN_TOL * max(w_scale, tiny):
                # Invariant subspace: the projection is exact.  The
                # unused extra basis vector is zeroed explicitly (the
                # workspace is allocated with np.empty).
                c.V[j + 1] = 0.0
                c.happy = True
                c.active = False
                continue

            np.divide(w, h_next, out=c.V[j + 1])

            if c.m >= min_dim and not (
                c.m > _TEST_THROTTLE_DIM and c.m % _TEST_THROTTLE_EVERY
            ):
                testing.append(c)

        if testing:
            # All lockstep columns test at the same dimension, so their
            # posterior estimates share one stacked expm.
            m = j + 1
            factors = [op._hess_factors(c.H[:m, :m]) for c in testing]
            ests = op.error_estimates(
                [c.h for c in testing],
                [c.H[: m + 1, :m] for c in testing],
                [c.beta for c in testing],
                factors,
            )
            for c, est, fac in zip(testing, ests, factors):
                c.last_est, c.last_est_m, c.last_factors = est, m, fac
                if est < c.tol:
                    c.active = False

    return [_finalize_basis(op, c) for c in cols]


def _finalize_basis(op: KrylovExpmOperator, c: _Column) -> KrylovBasis:
    """Package one finished column as a reusable basis."""
    if c.m == 0:
        return KrylovBasis(
            Vm=np.zeros((c.v.shape[0], 0)), Hm=np.zeros((0, 0)), beta=0.0,
            h_built=c.h, m=0, error_estimate=0.0, method=op.method,
        )
    # One LU of the final Hessenberg block serves the effective
    # exponent, the posterior estimate and the reuse error row.
    h_square = np.ascontiguousarray(c.H[: c.m, : c.m])
    tested_here = c.last_est_m == c.m
    factors = c.last_factors if tested_here else op._hess_factors(h_square)
    heff = op.effective_hm(h_square, factors=factors)
    if c.happy:
        err = 0.0
        h_next = 0.0
        err_row = None
    else:
        if tested_here:
            err = c.last_est
        else:
            err = op.error_estimate(
                c.h, c.H[: c.m + 1, : c.m], c.beta, factors=factors
            )
        h_next = float(c.H[c.m, c.m - 1])
        err_row = op._error_row(h_square, factors=factors)
    # The workspace rows are the basis: no copy of a vector is made.
    return KrylovBasis(
        Vm=c.V[: c.m].T, Hm=heff, beta=c.beta,
        h_built=c.h, m=c.m, error_estimate=err, method=op.method,
        h_next=h_next, err_row=err_row, _rows=c.V,
    )
