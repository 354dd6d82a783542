"""Krylov-subspace approximation of ``exp(hA) v`` for MNA pencils.

This is the numerical heart of MATEX.  The descriptor system
``C x' = -G x + B u`` has ``A = -C⁻¹G``, which is never formed: each
Krylov flavour works through one sparse LU factorisation and reduces
``exp(hA)v`` to the exponential of a tiny Hessenberg matrix:

===========  ==================  ======================  =======================
method       factors (X1)        Arnoldi operator        effective Hm
===========  ==================  ======================  =======================
standard     ``C``               ``C⁻¹ G = -A``          ``-H``          (MEXP)
inverted     ``G``               ``G⁻¹ C = -A⁻¹``        ``-H⁻¹``        (I-MATEX)
rational     ``C + γG``          ``(C+γG)⁻¹C=(I-γA)⁻¹``  ``(I - H̃⁻¹)/γ`` (R-MATEX)
===========  ==================  ======================  =======================

each satisfying ``exp(hA) v ≈ β V_m exp(h·Hm) e_1`` (paper Secs. 2.3,
3.3.1, 3.3.2).  The inverted/rational variants capture the *small*
magnitude eigenvalues of ``A`` first — the ones that dominate the circuit
response — which is why their basis stays around m ≈ 10 where MEXP needs
hundreds on stiff circuits (paper Table 1).

Crucially, the standard method must factor ``C`` and therefore fails on
singular ``C`` (missing node capacitors), requiring MNA regularization;
the inverted/rational methods only factor ``G`` or ``C+γG`` and are
regularization-free (paper Sec. 3.3.3).

A :class:`KrylovBasis` is the reusable artefact of one Arnoldi run: MATEX
re-evaluates it at any step ``h`` inside the current piecewise-linear
input segment just by rescaling the Hessenberg exponent (paper Sec. 2.4,
Alg. 2 line 11).

This module holds what a basis *is* and the per-method mathematics: the
exponent maps, the posterior error estimates of Eqs. (7)/(8)/(10) and
the one small-block LU they share (:class:`HessenbergFactors`).  The
Arnoldi iteration that produces a basis exists once, in
:func:`repro.linalg.block_krylov.build_bases_block`, for any number of
start vectors; :meth:`KrylovExpmOperator.build_basis` is its one-column
call.  The estimates follow the same rule:
:meth:`KrylovExpmOperator.posterior_tests` serves a batch of columns
through one stacked :func:`~repro.linalg.expm.expm`, and a single
column's test is a batch of one — batching adds throughput, never a
second set of arithmetic.  So does the evaluation eigendecomposition
(:func:`eig_payloads`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np
import scipy.sparse as sp
from numpy.linalg import _umath_linalg
from scipy.sparse import _sparsetools

from repro.linalg.expm import GETRF, GETRS, _eye, expm, expm_e1
from repro.linalg.lu import (
    FACTORIZATION_CACHE,
    FactorizationError,
    SparseLU,
    canonical_shift,
)

__all__ = [
    "HessenbergFactors",
    "KrylovBasis",
    "KrylovExpmOperator",
    "StandardKrylov",
    "InvertedKrylov",
    "RationalKrylov",
    "RegularizationRequiredError",
    "eig_payloads",
    "make_krylov_operator",
    "METHOD_NAMES",
]

MethodName = Literal["standard", "inverted", "rational"]

#: Canonical method names with their paper aliases.
METHOD_NAMES = {
    "standard": "standard", "mexp": "standard",
    "inverted": "inverted", "imatex": "inverted", "i-matex": "inverted",
    "rational": "rational", "rmatex": "rational", "r-matex": "rational",
}


class RegularizationRequiredError(FactorizationError):
    """Standard-Krylov (MEXP) needs a non-singular ``C``.

    Raised when ``C`` cannot be factored; the paper's fix is either an MNA
    regularization pass (Chen et al., TCAD'12) or — MATEX's answer —
    switching to the inverted/rational subspaces (Sec. 3.3.3).
    """


def _linalg_failed(err, flag):
    raise np.linalg.LinAlgError("small eigendecomposition failed")


def eig_payloads(hms: np.ndarray) -> list[tuple]:
    """``(usable, (d, s, s_inv_e1))`` with ``Hm = s·diag(d)·s⁻¹`` for each
    slice of a ``(B, m, m)`` stack — the one diagonalisation routine.

    It calls the ``eig``/``solve1``/``svd`` gufuncs that ``np.linalg.eig``/
    ``solve``/``cond`` call, under their floating-point policy, and does
    per slice what they do per call: an all-real spectrum gets real ``d``
    and ``s``; ``usable`` is ``cond(s) < 1e10``, which NaN fails as inf
    does.  A slice's payload does not depend on its stack.  Raises
    ``LinAlgError`` where the wrappers would, for any slice.
    """
    if not np.isfinite(hms).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    e1 = _eye(hms.shape[-1])[0]
    out = []
    with np.errstate(call=_linalg_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        w, vt = _umath_linalg.eig(hms, signature="d->DD")
        for i, real in enumerate((~w.imag.any(axis=-1)).tolist()):
            d, s, t = (w[i].real, vt[i].real, "d") if real else (w[i], vt[i], "D")
            s_inv_e1 = _umath_linalg.solve1(s, e1, signature=t + t + "->" + t)
            sv = _umath_linalg.svd(s, signature=t + "->d")
            out.append((bool(sv[0] / sv[-1] < 1e10), (d, s, s_inv_e1)))
    return out


@dataclass
class KrylovBasis:
    """A reusable Krylov approximation of ``h ↦ exp(hA) v``.

    Built once at a Local Transition Spot, evaluated many times at the
    Snapshots that follow (paper Alg. 2): ``evaluate(h)`` returns
    ``β V_m exp(h·Hm) e_1`` for any ``h``.

    Attributes
    ----------
    Vm:
        ``n × m`` orthonormal basis.
    Hm:
        Effective ``m × m`` matrix (already mapped so the exponent is
        ``h * Hm`` regardless of the generating method).
    beta:
        Norm of the starting vector.
    h_built:
        The step size used for the convergence test when the basis was
        generated.  Fig. 5 shows the approximation only *improves* for
        larger ``h``, so reuse with ``h > h_built`` is safe.
    m:
        Basis dimension.
    error_estimate:
        Posterior error estimate at ``h_built``.
    method:
        Canonical generating-method name.
    h_next:
        Subdiagonal entry ``h_{m+1,m}`` of the generating Arnoldi run
        (0 on happy breakdown).
    err_row:
        Row functional of the posterior estimate, so the error can be
        re-checked at any reuse step via :meth:`error_at`.

    A basis from the Arnoldi build does not own a copy of its vectors:
    ``Vm`` is the transposed view of the build's workspace rows
    (:mod:`repro.linalg.arnoldi`), which :meth:`stacked` hands on.
    """

    Vm: np.ndarray
    Hm: np.ndarray
    beta: float
    h_built: float
    m: int
    error_estimate: float
    method: str
    h_next: float = 0.0
    err_row: np.ndarray | None = None
    _eig: tuple | None = None
    #: The build's workspace (``Vmᵀ`` in its leading rows, then at least
    #: two spare rows) until :meth:`stacked` has handed it on.
    _rows: np.ndarray | None = field(default=None, repr=False)

    #: Above this basis dimension the rank-1 accumulation kernel would
    #: cost more Python round-trips than it saves; fall back to one BLAS
    #: gemv per column (only MEXP on stiff circuits gets here).
    _LOOP_KERNEL_MAX_M = 32

    def _eig_payload(self):
        """Cached eigendecomposition of ``Hm`` (diagonalise once, O(m³)),
        so each evaluation costs O(m²) instead of a fresh Padé ``expm``.
        ``usable`` is False when the eigenvector matrix is ill-conditioned
        (defective ``Hm``) and evaluations must fall back to Padé; the
        payload is :func:`eig_payloads`' for a stack of one."""
        if self._eig is None:
            try:
                (eig,) = eig_payloads(self.Hm[None])
            except np.linalg.LinAlgError:
                eig = (False, None)
            object.__setattr__(self, "_eig", eig)
        return self._eig

    def stacked(self, *rows: np.ndarray) -> np.ndarray:
        """``[V_mᵀ; rows…]``: one C-ordered ``(m + len(rows), n)`` block.

        The first call writes ``rows`` into the spare workspace rows
        behind the basis vectors and returns the workspace's leading
        rows, so the vectors are not copied (the march's span factor
        ``B = [V_mᵀ; F; w_2]`` is built this way).  ``Vm`` stays valid;
        a later call, or a basis without a workspace, gets a new block.
        """
        m, n = self.m, self.Vm.shape[0]
        out = self._rows
        if out is None or out.shape[0] < m + len(rows):
            out = np.empty((m + len(rows), n))
            out[:m] = self.Vm.T
        else:
            out = out[: m + len(rows)]
        self._rows = None
        for k, row in enumerate(rows, start=m):
            out[k] = row
        return out

    def _expm_e1_many(self, hs: np.ndarray) -> np.ndarray:
        """``exp(h·Hm) e_1`` for a whole vector of steps, shape ``(m, K)``.

        The accumulation is an explicit rank-1 loop over the basis
        columns so each output column is **bit-for-bit identical**
        whether evaluated alone (``K = 1``, a step-by-step march such as
        the tests' scalar oracle) or as part of a span batch (the block
        runner, at any width): elementwise broadcasting never changes
        the per-element operation order, whereas BLAS gemm and gemv
        kernels disagree in the last ulp.
        """
        usable, payload = self._eig_payload()
        m = self.m
        if not usable:
            cols = np.empty((m, len(hs)))
            for k, h in enumerate(hs):
                cols[:, k] = expm_e1(float(h) * self.Hm)
            return cols
        d, s, s_inv_e1 = payload
        with np.errstate(over="ignore", invalid="ignore"):
            E = np.exp(np.multiply.outer(d, hs)) * s_inv_e1[:, None]
            if m <= self._LOOP_KERNEL_MAX_M:
                acc = s[:, 0:1] * E[0:1, :]
                for j in range(1, m):
                    acc += s[:, j:j + 1] * E[j:j + 1, :]
            else:
                acc = np.empty((m, len(hs)), dtype=complex)
                for k in range(E.shape[1]):
                    acc[:, k] = s @ np.ascontiguousarray(E[:, k])
            return acc.real

    def evaluate_many(
        self, hs, with_errors: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the basis at many steps at once.

        Returns ``(Y, errs)`` with ``Y`` of shape ``(K, n)`` — row ``k``
        is ``β V_m exp(hs[k]·Hm) e_1`` — and ``errs`` the posterior
        error estimate per step (zeros when the basis carries no error
        row, or when ``with_errors`` is false).  This is the dense
        evaluation of a step-by-step march — the tests' scalar oracle
        (``tests/scalar_oracle.py``) steps through it, and
        ``bench/layer_trace.py`` times it: :meth:`evaluate` /
        :meth:`evaluate_with_error` delegate here with ``K = 1``, so
        batched and per-step evaluations are bit-for-bit
        interchangeable.  The march (:mod:`repro.dist.block_runner`,
        ``MatexSolver.simulate`` included) ships :meth:`coefficients`
        instead and never forms ``Y``.
        """
        hs = np.asarray(hs, dtype=float)
        K = hs.shape[0]
        n = self.Vm.shape[0]
        if self.m == 0:
            return np.zeros((K, n)), np.zeros(K)
        cols = self._expm_e1_many(hs)
        if self.m <= self._LOOP_KERNEL_MAX_M:
            acc = cols[0][:, None] * self.Vm[:, 0][None, :]
            if self.m > 1:
                tmp = np.empty_like(acc)
                for j in range(1, self.m):
                    np.multiply(
                        cols[j][:, None], self.Vm[:, j][None, :], out=tmp
                    )
                    acc += tmp
            Y = np.multiply(acc, self.beta, out=acc)
        else:
            Y = np.empty((K, n))
            for k in range(K):
                Y[k] = self.beta * (
                    self.Vm @ np.ascontiguousarray(cols[:, k])
                )
        if not with_errors:
            return Y, np.zeros(K)
        return Y, self._posterior_errors(cols)

    def _posterior_errors(self, cols: np.ndarray) -> np.ndarray:
        """Posterior error estimate per column of ``exp(h·Hm) e_1``."""
        if self.err_row is None or self.h_next == 0.0:  # repro: allow[RPL005] exact happy-breakdown sentinel
            return np.zeros(cols.shape[1])
        dots = self.err_row[0] * cols[0, :]
        for j in range(1, self.m):
            dots = dots + self.err_row[j] * cols[j, :]
        return self.beta * np.abs(self.h_next * dots)

    def coefficients(self, hs) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of ``β V_m exp(h·Hm) e_1`` in the basis, per step.

        Returns ``(coeffs, errs)``: row ``k`` of the ``(K, m)`` block is
        ``β·exp(hs[k]·Hm) e_1``, so the states :meth:`evaluate_many`
        materialises are ``coeffs @ Vmᵀ`` — the factored form the block
        runner ships instead of a dense span — and ``errs`` are the same
        posterior estimates, from the same small exponentials.
        """
        hs = np.asarray(hs, dtype=float)
        if self.m == 0:
            return np.zeros((hs.shape[0], 0)), np.zeros(hs.shape[0])
        cols = self._expm_e1_many(hs)
        return self.beta * cols.T, self._posterior_errors(cols)

    def evaluate(self, h: float) -> np.ndarray:
        """Return ``β V_m exp(h Hm) e_1`` — the reuse step of Alg. 2."""
        Y, _ = self.evaluate_many([h], with_errors=False)
        return Y[0]

    def error_at(self, h: float) -> float:
        """Posterior error estimate re-evaluated at step ``h``.

        Used by the solver before serving a snapshot from this basis:
        normally the error only shrinks as ``h`` grows (paper Fig. 5),
        and this check catches the exceptions.
        """
        if self.m == 0 or self.err_row is None or self.h_next == 0.0:  # repro: allow[RPL005] exact happy-breakdown sentinel
            return 0.0
        _, errs = self.evaluate_many([h])
        return float(errs[0])

    def evaluate_with_error(self, h: float) -> tuple[np.ndarray, float]:
        """Snapshot fast path: value and posterior error from one
        small-matrix exponential evaluation."""
        Y, errs = self.evaluate_many([h])
        return Y[0], float(errs[0])


class HessenbergFactors:
    """LU factors of one small Hessenberg block — factor once, solve many.

    The inverted/rational error estimates and effective-exponent maps all
    need ``H⁻¹`` products of the *same* ``m × m`` block: the inverse for
    the exponent, and the ``e_m^T H⁻¹`` row for the posterior residual.
    This class factors the block once and serves every product by
    substitution, through the raw ``getrf``/``getrs`` binding it shares
    with :func:`repro.linalg.expm.expm`.

    Singularity handling preserves the pencil semantics: a (near-)
    singular block arises when the start vector lies in the *algebraic*
    part of the descriptor system (``C v ≈ 0`` — e.g. MNA voltage-source
    branch currents): the pencil has an infinite generalised eigenvalue
    there, and the physical flow damps such components instantaneously.
    For the **inverse** we refactor with a tiny positive identity shift,
    mapping those directions to enormous negative exponent entries so
    ``exp(h·Hm)`` sends them to zero (paper Sec. 3.3.3 / Lemma 1).  The
    **row solve** keeps the historical contract instead: on a singular
    block it reports failure (the caller treats the residual estimate as
    "not converged"), never a silently shifted answer.
    """

    def __init__(self, h_square: np.ndarray):
        self.h_square = h_square
        self.m = h_square.shape[0]
        lu, piv, info = GETRF(h_square)
        self._factors = (lu, piv)
        # getrf's info > 0 names the first exactly-zero pivot of U.
        self.singular = info > 0

    def _shifted_factors(self):
        """Factors of the identity-shifted block (singular fallback)."""
        delta = 1e-30 * (1.0 + float(np.abs(self.h_square).max()))
        lu, piv, _info = GETRF(self.h_square + delta * np.eye(self.m))
        return lu, piv

    def inverse(self) -> np.ndarray:
        """``H⁻¹`` by m substitutions against the shared factors."""
        lu, piv = self._shifted_factors() if self.singular else self._factors
        return GETRS(lu, piv, _eye(self.m))[0]

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        """``H^{-T} rhs`` (the ``e_m^T H⁻¹`` row of Eqs. 8/10).

        Raises
        ------
        numpy.linalg.LinAlgError
            If the block is exactly singular — the error estimates rely
            on it to report "not converged".
        """
        if self.singular:
            raise np.linalg.LinAlgError(
                "singular Hessenberg block has no H^{-1} row"
            )
        lu, piv = self._factors
        return GETRS(lu, piv, rhs, trans=1)[0]


def _expm_each(mats: list[np.ndarray]) -> list[np.ndarray | None]:
    """``exp`` of each same-shaped matrix in one stacked call; ``None``
    where it does not exist.

    One slice that cannot be exponentiated (non-finite entries, singular
    Padé denominator) fails the whole stacked call, so the stack is
    retried one matrix at a time.  Slice ``k`` of a stacked
    :func:`~repro.linalg.expm.expm` *is* the single call, so a matrix's
    result does not depend on which route it took.
    """
    if not mats:
        return []
    try:
        return list(expm(np.array(mats)))
    except (ValueError, np.linalg.LinAlgError):
        if len(mats) == 1:
            return [None]
        return [_expm_each([a])[0] for a in mats]


class KrylovExpmOperator:
    """Base class: one factorisation + Arnoldi-based ``exp(hA)v`` products.

    Subclasses define which matrix is factored (``X1``), which is applied
    (``X2``), how the Arnoldi Hessenberg maps to the effective exponent
    matrix, and the posterior error estimate used as the convergence test
    in Alg. 1 lines 10-12.  The Hessenberg-side defaults here are the
    ``H⁻¹`` forms the inverted and rational subspaces share;
    :class:`StandardKrylov`, which never inverts ``H``, overrides them.
    """

    method: str = "base"

    def __init__(self, C: sp.spmatrix, G: sp.spmatrix):
        self.C = sp.csc_matrix(C)
        self.G = sp.csc_matrix(G)
        if self.C.shape != self.G.shape:
            raise ValueError(
                f"C and G must have identical shapes, "
                f"got {self.C.shape} vs {self.G.shape}"
            )
        self._lu: SparseLU | None = None
        self._x2: sp.csc_matrix | None = None
        self._factor()

    # -- subclass hooks --------------------------------------------------------

    def _factor(self) -> None:
        raise NotImplementedError

    def effective_hm(
        self, H: np.ndarray, factors: HessenbergFactors | None = None
    ) -> np.ndarray:
        """Map the Arnoldi Hessenberg block to the exponent matrix.

        ``factors`` lets callers that already factored ``H`` (the error
        estimates, the basis build) reuse the LU instead of refactoring.
        """
        raise NotImplementedError

    def _hess_factors(self, h_square: np.ndarray) -> HessenbergFactors | None:
        """Factor the Hessenberg block once for all ``H⁻¹`` consumers
        (``None`` for a subspace that never inverts ``H``)."""
        return HessenbergFactors(h_square)

    def _estimate_terms(
        self, h: float, H: np.ndarray, beta: float
    ) -> tuple[np.ndarray, Callable[[np.ndarray], float], np.ndarray, np.ndarray]:
        """``(exponent, readout, heff, row)`` of one posterior test: the
        small matrix the estimate exponentiates, the map from its
        exponential to the estimate, and the subspace's effective
        exponent and error row.

        Default: ``β |h_{m+1,m} · e_m^T H⁻¹ exp(h·Hm) e_1|``, the
        regularization-free specialisation of Eqs. (8)/(10): the leading
        operator factors (``A`` resp. ``(I-γA)/γ``) cannot be applied
        when ``C`` is singular, and numerically the remaining row
        functional already tracks the true error within a small factor
        (validated against dense ``expm`` in the test suite).  The extra
        ``e_m^T H⁻¹`` row is empirically the difference between stopping
        correctly and stopping ~10 orders of magnitude too early on
        stiff PDNs.  One LU of the small block serves both ``H⁻¹``
        products — the effective exponent and the row.

        Raises
        ------
        numpy.linalg.LinAlgError
            On an exactly singular block (no ``e_m^T H⁻¹`` row).
        """
        m = H.shape[1]
        h_next = float(H[m, m - 1])
        h_square = H[:m, :m]
        factors = self._hess_factors(h_square)
        row = self._error_row(h_square, factors=factors)
        heff = self.effective_hm(h_square, factors=factors)
        return h * heff, (lambda r: beta * abs(h_next * float(row @ r[:, 0].copy()))), heff, row

    # -- shared machinery --------------------------------------------------------

    @property
    def lu(self) -> SparseLU:
        """The single factorisation this operator performs."""
        return self._lu

    @property
    def n_solves(self) -> int:
        """Forward/backward substitution pairs consumed so far."""
        return self._lu.n_solves

    @property
    def factor_seconds(self) -> float:
        """Wall time of the one-off factorisation."""
        return self._lu.factor_seconds

    def apply(self, v: np.ndarray) -> np.ndarray:
        """One Arnoldi operator application: ``X1⁻¹ (X2 v)``, with ``X2 v``
        the ``csc_matvec`` call SciPy's ``@`` makes, minus its dispatch."""
        x2 = self._x2
        w = np.zeros(x2.shape[0])
        _sparsetools.csc_matvec(*x2.shape, x2.indptr, x2.indices, x2.data, v, w)
        return self._lu.solve(w)

    def apply_block(self, V: np.ndarray) -> np.ndarray:
        """Batched operator application over a dense ``(n, k)`` block.

        One sparse mat-mat product plus one multi-RHS substitution; the
        accounting charges one forward/backward pair per column, and
        each output column is bit-for-bit identical to a scalar
        :meth:`apply` of that column: CSC products scatter
        column-by-column, and the in-place block substitution sweep
        (:mod:`repro.linalg.triangular`) reproduces the scalar sweep's
        accumulation order per column at any batch width.  This is the
        primitive the lockstep Arnoldi builds on.
        """
        x2, k = self._x2, V.shape[1]
        W = np.zeros((x2.shape[0], k))
        _sparsetools.csc_matvecs(*x2.shape, k, x2.indptr, x2.indices, x2.data, V.ravel(), W.ravel())
        return self._lu.solve_many(W)

    def posterior_tests(
        self, hs: list[float], Hs: list[np.ndarray], betas: list[float]
    ) -> list[tuple[float, np.ndarray | None, np.ndarray | None]]:
        """Posterior tests ``(estimate, heff, row)`` of several subspaces
        of one dimension ``m``: what a basis finished there keeps.

        Column ``k`` is the ``(m+1) × m`` Hessenberg block ``Hs[k]``
        tested at step ``hs[k]``; the small exponentials — the bulk of a
        test — go through one stacked :func:`expm`, and a column's result
        does not depend on its companions.  ``inf`` means "not
        converged": an exactly singular block (no ``e_m^T H⁻¹`` row, so
        ``heff`` and ``row`` are ``None``), or a non-finite value — a
        spurious positive Ritz value (oblique projection artefact,
        possible mid-iteration on RLC systems) overflows the small
        exponential, and Arnoldi must keep going.
        """
        tests: list[tuple] = [(np.inf, None, None)] * len(Hs)
        live, exponents, terms = [], [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (h, H, beta) in enumerate(zip(hs, Hs, betas)):
                try:
                    exponent, *rest = self._estimate_terms(h, H, beta)
                except np.linalg.LinAlgError:
                    continue
                live.append(k)
                exponents.append(exponent)
                terms.append(rest)
            for k, (readout, heff, row), r in zip(live, terms, _expm_each(exponents)):
                est = np.inf if r is None else readout(r)
                tests[k] = (est if math.isfinite(est) else np.inf, heff, row)
        return tests

    def _error_row(
        self,
        h_square: np.ndarray,
        factors: HessenbergFactors | None = None,
    ) -> np.ndarray:
        """Row functional of the posterior estimate (for basis reuse)."""
        if factors is None:
            factors = self._hess_factors(h_square)
        m = h_square.shape[0]
        return factors.solve_transposed(_eye(m)[m - 1])

    def build_basis(
        self,
        v: np.ndarray,
        h: float,
        tol: float,
        m_max: int = 100,
        min_dim: int = 2,
    ) -> KrylovBasis:
        """Run Alg. 1: Arnoldi with the posterior-error stopping rule.

        The one-column call of
        :func:`repro.linalg.block_krylov.build_bases_block`.

        Parameters
        ----------
        v:
            Starting vector (in MATEX: ``x(t) + F(t, h)``).
        h:
            The step size used in the convergence test.
        tol:
            Error budget ``ε`` for ``‖r_m(h)‖``.
        m_max:
            Hard cap on the basis dimension (MEXP on stiff circuits runs
            into this; I-/R-MATEX converge around m ≈ 10).
        min_dim:
            Iterations before the first convergence test.
        """
        # Imported here: block_krylov builds on this module's classes.
        from repro.linalg.block_krylov import build_bases_block

        (basis,) = build_bases_block(
            self, [v], [h], [tol], m_max=m_max, min_dim=min_dim
        )
        return basis

    def expm_multiply(
        self,
        v: np.ndarray,
        h: float,
        tol: float = 1e-8,
        m_max: int = 100,
        min_dim: int = 2,
    ) -> tuple[np.ndarray, KrylovBasis]:
        """Approximate ``exp(hA) v``; returns the value and reusable basis."""
        basis = self.build_basis(v, h, tol=tol, m_max=m_max, min_dim=min_dim)
        return basis.evaluate(h), basis


class StandardKrylov(KrylovExpmOperator):
    """MEXP's standard Krylov subspace ``K_m(A, v)`` (paper Sec. 2.3).

    Factors ``C`` (hence *requires regularization* when ``C`` is
    singular) and applies ``C⁻¹G = -A``.  On stiff circuits the basis must
    grow large to capture the dominant small-magnitude eigenvalues, which
    is exactly the weakness Table 1 quantifies.
    """

    method = "standard"

    def _factor(self) -> None:
        try:
            self._lu = FACTORIZATION_CACHE.factor(self.C, label="C")
        except FactorizationError as exc:
            raise RegularizationRequiredError(
                "standard Krylov (MEXP) must factor C, which is singular "
                "for this circuit; regularize the MNA system or use the "
                "inverted/rational methods (paper Sec. 3.3.3)"
            ) from exc
        self._x2 = self.G

    def _hess_factors(self, h_square: np.ndarray) -> None:
        return None

    def effective_hm(
        self, H: np.ndarray, factors: HessenbergFactors | None = None
    ) -> np.ndarray:
        # Arnoldi ran on C⁻¹G = -A, so exp(hA) = exp(-h·H) on the subspace.
        return -H

    def _estimate_terms(
        self, h: float, H: np.ndarray, beta: float
    ) -> tuple[np.ndarray, Callable[[np.ndarray], float], np.ndarray, np.ndarray]:
        """Integrated (hump-aware) version of the Eq. (7) residual.

        On stiff circuits the point residual at τ = h underflows long
        before the approximation is accurate: the residual mass sits in a
        boundary layer τ ≲ 1/‖A‖ (the "hump").  The error transfer
        ``e(h) = ∫ exp((h-τ)A) r(τ) dτ`` suggests the integrated residual

            ‖e(h)‖ ≲ β |h_{m+1,m}| · |e_m^T h·φ1(h·Hm) e_1|

        with ``φ1(z) = (e^z - 1)/z``, evaluated through one augmented
        matrix exponential.  This keeps MEXP iterating until m ≈ h·‖A‖,
        exactly the basis blow-up the paper's Table 1 reports (m in the
        hundreds where I-/R-MATEX need ~10).
        """
        m = H.shape[1]
        h_next = float(H[m, m - 1])
        heff = self.effective_hm(H[:m, :m])
        # exp([[hH, h e1],[0, 0]]) has top-right column h·φ1(hH)·e1.
        aug = np.zeros((m + 1, m + 1))
        aug[:m, :m] = h * heff
        aug[0, m] = h
        row = self._error_row(H[:m, :m])
        return aug, (lambda r: beta * abs(h_next) * abs(r[m - 1, m])), heff, row

    def _error_row(
        self,
        h_square: np.ndarray,
        factors: HessenbergFactors | None = None,
    ) -> np.ndarray:
        m = h_square.shape[0]
        return _eye(m)[m - 1].copy()


class InvertedKrylov(KrylovExpmOperator):
    """I-MATEX inverted subspace ``K_m(A⁻¹, v)`` (paper Sec. 3.3.1).

    Factors ``G`` and applies ``G⁻¹C = -A⁻¹``; small-magnitude eigenvalues
    of ``A`` become dominant in ``A⁻¹`` and are captured by a tiny basis.
    Regularization-free: ``C`` is never factored.
    """

    method = "inverted"

    def _factor(self) -> None:
        self._lu = FACTORIZATION_CACHE.factor(self.G, label="G")
        self._x2 = self.C

    def effective_hm(
        self, H: np.ndarray, factors: HessenbergFactors | None = None
    ) -> np.ndarray:
        # Arnoldi ran on -A⁻¹ ⇒ A ≈ -H⁻¹ on the subspace.
        if factors is None:
            factors = self._hess_factors(H)
        return -factors.inverse()


class RationalKrylov(KrylovExpmOperator):
    """R-MATEX shift-and-invert subspace ``K_m((I-γA)⁻¹, v)`` (Sec. 3.3.2).

    Factors ``C + γG`` and applies ``(C+γG)⁻¹C = (I-γA)⁻¹``.  The shift
    compresses the whole spectrum of ``A`` into the unit disk, so the
    basis dimension is small *and* spread evenly across time points —
    the best performer in the paper.  γ should sit near the order of the
    time steps used (paper: γ = 1e-10 for 10ps-scale stepping; Table 3).

    Parameters
    ----------
    gamma:
        The shift parameter γ in seconds.
    """

    method = "rational"

    def __init__(self, C: sp.spmatrix, G: sp.spmatrix, gamma: float = 1e-10):
        if gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {gamma!r}")
        # Canonicalise γ before it touches the pencil: γ values equal up
        # to arithmetic-order noise (h/2 vs 0.5*h-style derivations) must
        # build the same C+γG and share one FACTORIZATION_CACHE entry.
        self.gamma = canonical_shift(float(gamma))
        super().__init__(C, G)

    def _factor(self) -> None:
        shifted = (self.C + self.gamma * self.G).tocsc()
        self._lu = FACTORIZATION_CACHE.factor(
            shifted, label=f"C+{self.gamma:g}*G", key_extra=("gamma", self.gamma)
        )
        self._x2 = self.C

    def effective_hm(
        self, H: np.ndarray, factors: HessenbergFactors | None = None
    ) -> np.ndarray:
        # Arnoldi ran on (I-γA)⁻¹ ⇒ A ≈ (I - H̃⁻¹)/γ on the subspace.
        if factors is None:
            factors = self._hess_factors(H)
        return (_eye(H.shape[0]) - factors.inverse()) / self.gamma


def make_krylov_operator(
    method: str,
    C: sp.spmatrix,
    G: sp.spmatrix,
    gamma: float = 1e-10,
) -> KrylovExpmOperator:
    """Factory accepting paper aliases (``mexp``/``imatex``/``rmatex``).

    Parameters
    ----------
    method:
        One of :data:`METHOD_NAMES` (case-insensitive).
    C, G:
        The MNA descriptor matrices.
    gamma:
        Shift for the rational method; ignored otherwise.
    """
    canonical = METHOD_NAMES.get(method.lower())
    if canonical is None:
        raise ValueError(
            f"unknown Krylov method {method!r}; "
            f"choose from {sorted(set(METHOD_NAMES))}"
        )
    if canonical == "standard":
        return StandardKrylov(C, G)
    if canonical == "inverted":
        return InvertedKrylov(C, G)
    return RationalKrylov(C, G, gamma=gamma)
