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
exponential (:meth:`KrylovExpmOperator.posterior_tests
<repro.linalg.krylov.KrylovExpmOperator.posterior_tests>`).  Everything
else runs per column on that column's own workspace, and both batched
steps return per column exactly what they return for a column alone, so
a basis does not depend on which columns it was built next to.
``tests/test_block_krylov.py`` checks that across widths and
``tests/test_krylov_golden.py`` pins the bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.linalg.arnoldi import ArnoldiBreakdown, _ensure_capacity, _workspace
from repro.linalg.krylov import KrylovBasis, KrylovExpmOperator, eig_payloads

__all__ = ["build_bases_block", "prime_eig_payloads"]

#: Relative tolerance (vs. the pre-orthogonalisation norm of the new
#: vector) declaring a happy breakdown.
_BREAKDOWN_TOL = 1e-14
#: Each convergence test costs an m×m expm; once the basis is large
#: (only MEXP on stiff circuits gets there) testing every iteration
#: would dominate, so past this dimension only every 5th vector tests.
_TEST_THROTTLE_DIM = 60
_TEST_THROTTLE_EVERY = 5
#: Start vectors per tile of the operator block's transposing copy: a
#: tile's rows stay in cache while they are written out as columns.
_TILE_ROWS = 64


def prime_eig_payloads(bases: list[KrylovBasis]) -> None:
    """Batch-precompute the evaluation eigendecompositions of many bases.

    Every :class:`~repro.linalg.krylov.KrylovBasis` lazily diagonalises
    its ``Hm`` on first evaluation (``eig`` + a condition estimate + one
    small solve — the dominant per-basis setup cost).  Bases built in a
    lockstep round share their dimension, so the whole round primes
    through one :func:`~repro.linalg.krylov.eig_payloads` call, whose
    per-slice results are bit-for-bit the lazy single-matrix ones.  A
    stack that cannot be primed (a non-finite block, LAPACK
    non-convergence anywhere in it) is simply left lazy — each basis then
    computes its own payload.
    """
    groups: dict[int, list[KrylovBasis]] = {}
    for b in bases:
        if b.m > 0 and b._eig is None:
            groups.setdefault(b.m, []).append(b)
    for group in groups.values():
        try:
            eigs = eig_payloads(np.array([b.Hm for b in group]))
        except np.linalg.LinAlgError:
            continue
        for b, eig in zip(group, eigs):
            object.__setattr__(b, "_eig", eig)


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
    #: ``(estimate, heff, row)`` of the most recent convergence test and
    #: its dimension: a basis finished there keeps them as they are.
    last_test: tuple | None = None
    last_test_m: int = -1


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
        v = np.ascontiguousarray(vs[k], dtype=float)
        if n is None:
            n = v.shape[0]
        elif v.shape[0] != n:
            raise ValueError("all start vectors must share one dimension")
        # ``np.linalg.norm``'s formula for a contiguous real vector.
        beta = math.sqrt(v.dot(v))
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
            # The round's vectors become the block's columns in one
            # transposing pass, a cache-sized tile of rows at a time.
            block = np.empty((n, len(active)))
            for lo in range(0, len(active), _TILE_ROWS):
                tile = np.array([c.V[j] for c in active[lo:lo + _TILE_ROWS]])
                block[:, lo:lo + len(tile)] = tile.T
            W = op.apply_block(block)

        testing: list[_Column] = []
        # W is F-ordered: each column is a contiguous row of W.T.
        for c, w in zip(active, W.T):
            # Breakdown must be judged against the *local* operator
            # scale: e.g. the inverted operator G⁻¹C has tiny norm on
            # fast circuits, so comparing h_{j+1,j} with beta would fire
            # spuriously.  sqrt(w·w) is numpy's exact norm formula for
            # 1-d real vectors (one correctly rounded sqrt), minus the
            # wrapper dispatch.
            w_scale = math.sqrt(w.dot(w))
            # A non-finite entry makes the scale non-finite (an overflow
            # of w·w alone does too, so the block is checked then).
            if not math.isfinite(w_scale) and not np.isfinite(W).all():
                bad = [
                    c.idx for i, c in enumerate(active)
                    if not np.all(np.isfinite(W[:, i]))
                ]
                raise ArnoldiBreakdown(
                    f"operator returned non-finite values at iteration "
                    f"{j + 1} (columns {bad})"
                )
            # Classical Gram-Schmidt in BLAS-2 form; the second pass
            # (CGS2) restores the numerical robustness of the modified
            # variant written in the paper's Alg. 1, at vectorised speed
            # — essential when MEXP pushes m into the hundreds.  Every
            # basis vector is one contiguous workspace row, so both
            # products stream whole vectors.
            basis_block = c.V[: j + 1]
            h_col = c.H[: j + 1, j]
            for _ in range(2):
                coeffs = basis_block @ w
                w = w - coeffs @ basis_block
                h_col += coeffs
            h_next = math.sqrt(w.dot(w))
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
            tests = op.posterior_tests(
                [c.h for c in testing],
                [c.H[: m + 1, :m] for c in testing],
                [c.beta for c in testing],
            )
            for c, test in zip(testing, tests):
                c.last_test, c.last_test_m = test, m
                if test[0] < c.tol:
                    c.active = False

    return [_finalize_basis(op, c) for c in cols]


def _finalize_basis(op: KrylovExpmOperator, c: _Column) -> KrylovBasis:
    """Package one finished column as a reusable basis."""
    if c.m == 0:
        return KrylovBasis(
            Vm=np.zeros((c.v.shape[0], 0)), Hm=np.zeros((0, 0)), beta=0.0,
            h_built=c.h, m=0, error_estimate=0.0, method=op.method,
        )
    if c.happy:
        # An invariant subspace: the projection is exact.
        heff = op.effective_hm(c.H[: c.m, : c.m])
        err, h_next, err_row = 0.0, 0.0, None
    else:
        # The test at the final dimension already holds the effective
        # exponent, the estimate and the reuse error row; a dimension
        # that was not tested (below ``min_dim``, or throttled) is now.
        if c.last_test_m != c.m:
            (c.last_test,) = op.posterior_tests(
                [c.h], [c.H[: c.m + 1, : c.m]], [c.beta]
            )
        err, heff, err_row = c.last_test
        if heff is None:
            raise np.linalg.LinAlgError(
                "singular Hessenberg block has no H^{-1} row"
            )
        h_next = float(c.H[c.m, c.m - 1])
    # The workspace rows are the basis: no copy of a vector is made.
    return KrylovBasis(
        Vm=c.V[: c.m].T, Hm=heff, beta=c.beta,
        h_built=c.h, m=c.m, error_estimate=err, method=op.method,
        h_next=h_next, err_row=err_row, _rows=c.V,
    )
