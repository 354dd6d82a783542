"""Lockstep block-Arnoldi: one basis build per column group.

The distributed decomposition (paper Sec. 3.4) gives every node task the
*same* MNA pencil, so all their Krylov bases are built against the same
sparse LU factors.  :func:`build_bases_block` marches the Arnoldi
iterations of many start vectors **in lockstep**: at iteration ``j`` the
operator is applied to all still-active columns with one sparse mat-mat
product and one multi-RHS substitution (``SparseLU.solve_many``) instead
of one scalar solve per column.  Everything else — Gram-Schmidt,
breakdown handling, the posterior-error convergence test — runs
per-column with exactly the arithmetic of :func:`repro.linalg.arnoldi`
/ :meth:`~repro.linalg.krylov.KrylovExpmOperator.build_basis`, so every
returned :class:`~repro.linalg.krylov.KrylovBasis` is **bit-for-bit
identical** to a scalar build of the same column.  That parity is a hard
contract (it is what lets the block-batched distributed fast path claim
the scalar march's validation), enforced by ``tests/test_block_krylov.py``.

The module also houses the *fast Hessenberg kernel*: the posterior error
estimates factor and exponentiate a tiny ``m × m`` Hessenberg block per
Arnoldi iteration, and at m ≈ 10 the SciPy wrapper overhead
(``asarray_chkfinite``, shape validation) costs several times the LAPACK
work itself.  :class:`FastHessenberg` and :func:`fast_expm` call the very
same LAPACK routines (``getrf``/``getrs`` — which is also exactly what
``numpy.linalg.solve``'s ``gesv`` runs internally) through
``scipy.linalg.get_lapack_funcs`` with the validation skipped, producing
bitwise-identical numbers at a fraction of the call overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from repro.linalg.arnoldi import (
    ArnoldiBreakdown,
    _ensure_capacity,
    _initial_capacity,
)
from repro.linalg.expm import _pade13, _THETA13
from repro.linalg.krylov import KrylovBasis, KrylovExpmOperator

__all__ = [
    "build_bases_block",
    "prime_eig_payloads",
    "FastHessenberg",
    "fast_expm",
    "fast_expm_stack",
    "FastEstimator",
]

_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), (np.zeros((2, 2)),))

#: Read-only identity cache for the m ≈ 10 Hessenberg blocks: np.eye in
#: the per-iteration estimates was a visible slice of the batch loop.
_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(m: int) -> np.ndarray:
    """Cached identity — callers must not mutate the returned array."""
    ident = _EYE_CACHE.get(m)
    if ident is None:
        ident = np.eye(m)
        ident.setflags(write=False)
        _EYE_CACHE[m] = ident
    return ident

#: Mirrors of the constants hard-wired in the scalar path
#: (:meth:`KrylovExpmOperator.build_basis` and :func:`arnoldi` defaults).
_BREAKDOWN_TOL = 1e-14
_TEST_THROTTLE_DIM = 60
_TEST_THROTTLE_EVERY = 5


# -- fast small-dense kernel ---------------------------------------------------------


def fast_expm(a: np.ndarray) -> np.ndarray:
    """Bitwise clone of :func:`repro.linalg.expm.expm`, minus overhead.

    Same degree-13 Padé scaling-and-squaring, same 1-norm threshold; the
    Padé solve goes through raw ``getrf``/``getrs`` — the exact pair
    ``numpy.linalg.solve``'s ``gesv`` executes internally — so the result
    matches :func:`~repro.linalg.expm.expm` to the last bit while
    skipping the wrapper validation that dominates at m ≈ 10.
    """
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    if a.shape[0] == 1:
        return np.exp(a)

    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        raise ValueError("expm: matrix contains non-finite entries")

    s = 0
    if norm > _THETA13:
        s = int(np.ceil(np.log2(norm / _THETA13)))
        a = a / (2.0 ** s)

    u, v = _pade13(a)
    lu, piv, info = _GETRF(v - u)
    if info != 0:
        raise np.linalg.LinAlgError("singular Padé denominator")
    r, info = _GETRS(lu, piv, v + u)
    # getrs hands back a Fortran-ordered solution while numpy's gesv
    # returns C order; dgemm results depend on operand layout, so the
    # squaring phase must see the same layout as the canonical expm.
    r = np.ascontiguousarray(r)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    return r


def _fast_expm_e1(a: np.ndarray) -> np.ndarray:
    """First column of ``exp(a)`` via :func:`fast_expm`."""
    return fast_expm(a)[:, 0].copy()


def _pade13_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked [13/13] Padé split, slice-for-slice bitwise with
    :func:`repro.linalg.expm._pade13` (gufunc matmul runs the same dgemm
    per slice)."""
    from repro.linalg.expm import _PADE13 as b

    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    return u, v


def fast_expm_stack(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a ``(B, m, m)`` stack, one slice per matrix.

    Slice ``k`` of the result is **bit-for-bit** ``expm(a[k])``: numpy's
    stacked matmul/solve gufuncs run the identical BLAS/LAPACK call per
    slice, the per-slice 1-norms and scaling powers reproduce the scalar
    control flow, and the squaring phase re-squares exactly the slices
    whose scale demands it.  This is the vectorised heart of the batched
    posterior error estimates: one stacked Padé evaluation replaces one
    small ``expm`` per Arnoldi column per iteration.

    Raises
    ------
    ValueError
        If any slice contains non-finite entries (as the scalar expm
        does for that slice); callers fall back to per-column handling.
    numpy.linalg.LinAlgError
        If any slice's Padé denominator is singular.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (B, m, m) stack, got {a.shape}")
    B, m, _ = a.shape
    if m == 0:
        return np.zeros((B, 0, 0))
    if m == 1:
        return np.exp(a)

    norms = np.abs(a).sum(axis=1).max(axis=1)
    if not np.all(np.isfinite(norms)):
        raise ValueError("expm: matrix contains non-finite entries")

    s = np.zeros(B, dtype=int)
    big = norms > _THETA13
    if np.any(big):
        s[big] = np.ceil(np.log2(norms[big] / _THETA13)).astype(int)
        a = a / (2.0 ** s)[:, None, None]

    u, v = _pade13_stack(a)
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(int(s.max()) if B else 0):
            idx = s > step
            r[idx] = r[idx] @ r[idx]
    return r


class FastHessenberg:
    """Bitwise drop-in for :class:`repro.linalg.krylov.HessenbergFactors`.

    Same ``getrf`` factorisation, same exactly-zero-pivot singularity
    rule, same tiny-identity-shift fallback for the inverse, same
    raise-on-singular contract for the transposed row solve — through
    the raw LAPACK bindings instead of the ``lu_factor``/``lu_solve``
    wrappers (which call the identical routines after ~10× the Python
    overhead).
    """

    def __init__(self, h_square: np.ndarray):
        self.h_square = h_square
        self.m = h_square.shape[0]
        lu, piv, info = _GETRF(h_square)
        self._factors = (lu, piv)
        diag = np.abs(np.diag(lu))
        self.singular = bool(self.m) and float(diag.min()) == 0.0  # repro: allow[RPL005] exact zero pivot is the singularity sentinel

    def _shifted_factors(self):
        delta = 1e-30 * (1.0 + float(np.abs(self.h_square).max()))
        shifted = self.h_square + delta * np.eye(self.m)
        lu, piv, info = _GETRF(shifted)
        return lu, piv

    def inverse(self) -> np.ndarray:
        lu, piv = self._shifted_factors() if self.singular else self._factors
        out, info = _GETRS(lu, piv, _eye(self.m))
        return out

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        if self.singular:
            raise np.linalg.LinAlgError(
                "singular Hessenberg block has no H^{-1} row"
            )
        lu, piv = self._factors
        out, info = _GETRS(lu, piv, rhs, trans=1)
        return out


class FastEstimator:
    """Fast-kernel mirror of one operator's Hessenberg-side arithmetic.

    Reimplements ``error_estimate`` / ``effective_hm`` / ``_error_row``
    of the three :class:`~repro.linalg.krylov.KrylovExpmOperator`
    flavours on top of :class:`FastHessenberg` and :func:`fast_expm`.
    Bit-for-bit parity with the canonical SciPy-wrapped implementations
    is enforced by ``tests/test_block_krylov.py``.
    """

    def __init__(self, op: KrylovExpmOperator):
        self.method = op.method
        self.gamma = getattr(op, "gamma", None)
        if self.method not in ("standard", "inverted", "rational"):
            raise ValueError(f"unknown Krylov method {self.method!r}")

    # -- per-method maps ---------------------------------------------------------

    def factors(self, h_square: np.ndarray) -> FastHessenberg | None:
        if self.method == "standard":
            return None
        return FastHessenberg(h_square)

    def effective_hm(
        self, h_square: np.ndarray, factors: FastHessenberg | None = None
    ) -> np.ndarray:
        if self.method == "standard":
            return -h_square
        if factors is None:
            factors = FastHessenberg(h_square)
        if self.method == "inverted":
            return -factors.inverse()
        return (_eye(h_square.shape[0]) - factors.inverse()) / self.gamma

    def error_row(
        self, h_square: np.ndarray, factors: FastHessenberg | None = None
    ) -> np.ndarray:
        m = h_square.shape[0]
        e_m = np.zeros(m)
        e_m[m - 1] = 1.0
        if self.method == "standard":
            return e_m
        if factors is None:
            factors = FastHessenberg(h_square)
        return factors.solve_transposed(e_m)

    def error_estimate(
        self,
        h: float,
        H: np.ndarray,
        beta: float,
        factors: FastHessenberg | None = None,
    ) -> float:
        if self.method == "standard":
            return self._standard_estimate(h, H, beta)
        return self._hinv_row_estimate(h, H, beta, factors=factors)

    # -- estimate bodies (mirroring krylov.py line for line) ------------------------

    def _standard_estimate(self, h: float, H: np.ndarray, beta: float) -> float:
        m = H.shape[1]
        h_next = float(H[m, m - 1])
        heff = -H[:m, :m]
        aug = np.zeros((m + 1, m + 1))
        aug[:m, :m] = h * heff
        aug[0, m] = h
        try:
            col = fast_expm(aug)[:m, m]
        except (ValueError, np.linalg.LinAlgError):
            return np.inf
        val = abs(col[m - 1])
        if not np.isfinite(val):
            return np.inf
        return beta * abs(h_next) * val

    def _hinv_row_estimate(
        self,
        h: float,
        H: np.ndarray,
        beta: float,
        factors: FastHessenberg | None = None,
    ) -> float:
        m = H.shape[1]
        h_next = float(H[m, m - 1])
        h_square = H[:m, :m]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if factors is None:
                    factors = FastHessenberg(h_square)
                heff = self.effective_hm(h_square, factors=factors)
                col = _fast_expm_e1(h * heff)
                e_m = np.zeros(m)
                e_m[m - 1] = 1.0
                row = factors.solve_transposed(e_m)
                est = beta * abs(h_next * float(row @ col))
        except (ValueError, np.linalg.LinAlgError):
            return np.inf
        if not np.isfinite(est):
            return np.inf
        return est


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


# -- lockstep block Arnoldi ---------------------------------------------------------


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
    converged: bool = False
    happy: bool = False
    applies: int = field(init=False, default=0)
    #: Estimate/factors of the most recent convergence test, reused by
    #: the finalisation when it happened at the final dimension (the
    #: scalar path recomputes the identical value there).
    last_est: float | None = None
    last_est_m: int = -1
    last_factors: FastHessenberg | None = None


def _batched_test_estimates(
    estimator: FastEstimator, testing: list[_Column], m: int
) -> dict[int, float]:
    """Posterior error estimates for all columns testing at dimension ``m``.

    The per-column Hessenberg factorisations stay scalar (raw getrf /
    getrs are a few µs), but the small matrix exponentials — the bulk of
    each estimate — are fused into one :func:`fast_expm_stack` call.
    Any anomaly (singular block, non-finite scaling) routes the affected
    columns through the canonical scalar estimate, so every value is
    bit-for-bit what a scalar build would have computed.
    """
    ests: dict[int, float] = {}
    if estimator.method == "standard" or len(testing) == 1:
        for c in testing:
            ests[c.idx] = estimator.error_estimate(
                c.h, c.H[: m + 1, : m], c.beta
            )
            c.last_est, c.last_est_m, c.last_factors = ests[c.idx], m, None
        return ests

    stacked: list[tuple[_Column, FastHessenberg, np.ndarray, float]] = []
    h_squares = np.empty((len(testing), m, m))
    e_m = np.zeros(m)
    e_m[m - 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for c in testing:
            h_square = c.H[:m, :m]
            factors = FastHessenberg(h_square)
            if factors.singular:
                est = estimator.error_estimate(
                    c.h, c.H[: m + 1, : m], c.beta
                )
                ests[c.idx] = est
                c.last_est, c.last_est_m, c.last_factors = est, m, None
                continue
            row = factors.solve_transposed(e_m)
            h_squares[len(stacked)] = h_square
            stacked.append((c, factors, row, float(c.H[m, m - 1])))
        if stacked:
            R = None
            try:
                # Stacked gesv is bitwise the getrf+getrs pair the
                # scalar inverse runs; the exponent map and scaled
                # exponentials then batch elementwise per slice.
                inv = np.linalg.solve(
                    h_squares[: len(stacked)],
                    np.broadcast_to(_eye(m), (len(stacked), m, m)),
                )
                if estimator.method == "inverted":
                    heffs = -inv
                else:
                    heffs = (_eye(m) - inv) / estimator.gamma
                heffs *= np.array([c.h for c, _, _, _ in stacked])[
                    :, None, None
                ]
                R = fast_expm_stack(heffs)
            except (ValueError, np.linalg.LinAlgError):
                R = None
            for i, (c, factors, row, h_next) in enumerate(stacked):
                if R is None:
                    est = estimator.error_estimate(
                        c.h, c.H[: m + 1, : m], c.beta, factors=factors
                    )
                else:
                    col = np.ascontiguousarray(R[i, :, 0])
                    est = c.beta * abs(h_next * float(row @ col))
                    if not np.isfinite(est):
                        est = np.inf
                ests[c.idx] = est
                c.last_est, c.last_est_m, c.last_factors = est, m, factors
    return ests


def build_bases_block(
    op: KrylovExpmOperator,
    vs: list,
    hs: list,
    tols: list,
    m_max: int = 100,
    min_dim: int = 2,
    estimator: FastEstimator | None = None,
) -> list[KrylovBasis]:
    """Build one Krylov basis per column, marching all columns in lockstep.

    Parameters
    ----------
    op:
        The shared Krylov operator (one sparse LU for every column —
        the paper's shared-pencil property).
    vs, hs, tols:
        Per-column start vectors, convergence-test step sizes and error
        budgets (exactly the arguments the scalar
        :meth:`~repro.linalg.krylov.KrylovExpmOperator.build_basis`
        takes one at a time).
    m_max, min_dim:
        Basis-dimension cap and first-test iteration, shared.
    estimator:
        Hessenberg-side kernel; defaults to a :class:`FastEstimator`
        for ``op`` (bitwise-identical to the canonical estimates).

    Returns
    -------
    list[KrylovBasis]
        One basis per input column, each bit-for-bit equal to
        ``op.build_basis(vs[k], hs[k], tols[k], m_max, min_dim)``.

    Notes
    -----
    The solve accounting matches the scalar path: ``op.n_solves`` grows
    by one per column per lockstep iteration the column is active —
    i.e. by ``basis.m`` per column over the whole build.
    """
    if estimator is None:
        estimator = FastEstimator(op)
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
        if c.beta == 0.0:  # repro: allow[RPL005] exact Krylov-breakdown sentinel, like arnoldi()
            continue  # trivially converged empty subspace, like arnoldi()
        c.cap = _initial_capacity(m_cap)
        c.V = np.empty((n, c.cap + 1))
        c.H = np.zeros((c.cap + 1, c.cap))
        c.V[:, 0] = c.v / c.beta
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
            W = op.apply(active[0].V[:, j])[:, None]
        else:
            block = np.empty((n, len(active)))
            for i, c in enumerate(active):
                block[:, i] = c.V[:, j]
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
            c.applies += 1
            w = np.ascontiguousarray(W[:, i])
            # float(sqrt(w·w)) is numpy's exact norm formula for 1-d
            # real vectors, minus the wrapper dispatch.
            w_scale = float(np.sqrt(w.dot(w)))
            basis_block = c.V[:, : j + 1]
            coeffs = basis_block.T @ w
            w = w - basis_block @ coeffs
            c.H[: j + 1, j] += coeffs
            corr = basis_block.T @ w
            w = w - basis_block @ corr
            c.H[: j + 1, j] += corr
            h_next = float(np.sqrt(w.dot(w)))
            c.H[j + 1, j] = h_next
            c.m = j + 1

            if h_next <= _BREAKDOWN_TOL * max(w_scale, tiny):
                c.V[:, j + 1] = 0.0
                c.happy = True
                c.converged = True
                c.active = False
                continue

            c.V[:, j + 1] = w / h_next

            if c.m >= min_dim:
                # The scalar path throttles the (expensive) test on deep
                # bases; replicated so the stopping decisions coincide.
                if c.m > _TEST_THROTTLE_DIM and c.m % _TEST_THROTTLE_EVERY:
                    continue
                testing.append(c)

        if testing:
            # All lockstep columns test at the same dimension, so their
            # posterior estimates batch into one stacked expm.
            ests = _batched_test_estimates(estimator, testing, j + 1)
            for c in testing:
                if ests[c.idx] < c.tol:
                    c.converged = True
                    c.active = False

    for c in cols:
        c.active = False

    return [_finalize_basis(op, estimator, c) for c in cols]


def _finalize_basis(
    op: KrylovExpmOperator, estimator: FastEstimator, c: _Column
) -> KrylovBasis:
    """Package one finished column exactly like ``build_basis`` does."""
    if c.m == 0:
        return KrylovBasis(
            Vm=np.zeros((c.v.shape[0], 0)), Hm=np.zeros((0, 0)), beta=0.0,
            h_built=c.h, m=0, error_estimate=0.0, method=op.method,
        )
    h_square = np.ascontiguousarray(c.H[: c.m, : c.m])
    factors = c.last_factors if c.last_est_m == c.m else None
    if factors is None:
        factors = estimator.factors(h_square)
    heff = estimator.effective_hm(h_square, factors=factors)
    if c.happy:
        err = 0.0
        h_next = 0.0
        err_row = None
    else:
        # The convergence test at the final dimension already computed
        # this exact estimate (getrf is deterministic); reuse it.
        if c.last_est_m == c.m and c.last_est is not None:
            err = c.last_est
        else:
            err = estimator.error_estimate(
                c.h, c.H[: c.m + 1, : c.m], c.beta, factors=factors
            )
        h_next = float(c.H[c.m, c.m - 1])
        err_row = estimator.error_row(h_square, factors=factors)
    return KrylovBasis(
        Vm=c.V[:, : c.m].copy(), Hm=heff, beta=c.beta,
        h_built=c.h, m=c.m, error_estimate=err, method=op.method,
        h_next=h_next, err_row=err_row,
    )
