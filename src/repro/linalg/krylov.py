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
(:func:`eig_payloads`), and so do the span coefficients: a lockstep
round's fresh bases are evaluated by :func:`span_coefficients` in one
stacked pass per ``(m, payload dtype)``, and
:meth:`KrylovBasis.coefficients` is that routine on a stack of one.

The stack-of-one rule.  A batched routine is the only copy of its
arithmetic: every element it returns is formed by the same elementwise
operations (and the same BLAS call, slice by slice) as for the item
alone, so a column, a basis or a test never depends on its companions,
on padding, or on the width of the round.  Only the Python around the
kernels is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

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
    "span_coefficients",
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
    does.  The real and the complex slices each go through one ``solve1``
    and one ``svd`` call, which run per slice the call made for it alone,
    so a slice's payload does not depend on its stack.  Raises
    ``LinAlgError`` where the wrappers would, for any slice.
    """
    if not np.isfinite(hms).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    e1 = _eye(hms.shape[-1])[0]
    out: list = [None] * len(hms)
    with np.errstate(call=_linalg_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        w, vt = _umath_linalg.eig(hms, signature="d->DD")
        real = ~w.imag.any(axis=-1)
        # The all-real slices, then the others, each set through one
        # solve1 and one svd call (per slice the call made for it alone).
        for idx, t in ((np.flatnonzero(real), "d"), (np.flatnonzero(~real), "D")):
            if not idx.size:
                continue
            rows = idx.tolist()
            if len(rows) == len(hms):
                idx = slice(None)  # a view, not a copy, of the whole stack
            d, s = (w[idx].real, vt[idx].real) if t == "d" else (w[idx], vt[idx])
            s_inv_e1 = _umath_linalg.solve1(s, e1, signature=t + t + "->" + t)
            sv = _umath_linalg.svd(s, signature=t + "->d")
            usable = (sv[:, 0] / sv[:, -1] < 1e10).tolist()
            for k, i in enumerate(rows):
                out[i] = (usable[k], (d[k], s[k], s_inv_e1[k]))
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

        A usable payload of ``m ≤ _LOOP_KERNEL_MAX_M`` is a stack of one
        through :func:`_expm_e1_stack`; a larger basis accumulates with
        one BLAS gemv per step (only MEXP on stiff circuits gets there),
        and a defective one exponentiates ``h·Hm`` by Padé per step.
        """
        usable, payload = self._eig_payload()
        m = self.m
        if usable and m <= self._LOOP_KERNEL_MAX_M:
            return _expm_e1_stack([payload], hs[None])[0]
        if not usable:
            cols = np.empty((m, len(hs)))
            for k, h in enumerate(hs):
                cols[:, k] = expm_e1(float(h) * self.Hm)
            return cols
        d, s, s_inv_e1 = payload
        with np.errstate(over="ignore", invalid="ignore"):
            E = np.exp(np.multiply.outer(d, hs)) * s_inv_e1[:, None]
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
        return Y, _posterior_errors([self], cols[None])[0]

    def coefficients(self, hs) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of ``β V_m exp(h·Hm) e_1`` in the basis, per step.

        Returns ``(coeffs, errs)``: row ``k`` of the ``(K, m)`` block is
        ``β·exp(hs[k]·Hm) e_1``, so the states :meth:`evaluate_many`
        materialises are ``coeffs @ Vmᵀ`` — the factored form the block
        runner ships instead of a dense span — and ``errs`` are the same
        posterior estimates, from the same small exponentials.  A stack
        of one through :func:`span_coefficients`.
        """
        (out,) = span_coefficients([self], [hs])
        return out

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


def _expm_e1_stack(payloads: list[tuple], H: np.ndarray) -> np.ndarray:
    """``exp(h·Hm) e_1`` of bases with usable payloads ``(d, s, s⁻¹e_1)``
    of one dimension and dtype, at the steps ``H`` (one row per basis):
    a real ``(B, m, K)`` stack.

    The accumulation is an explicit rank-1 loop over the basis columns,
    all elementwise: broadcasting never changes the operations that
    form one element, so a basis's columns are bit-for-bit the same
    alone (``B = K = 1``, a step-by-step march such as the tests' scalar
    oracle), over a span, or beside any other bases in a padded round
    — whereas BLAS gemm and gemv kernels disagree in the last ulp.
    """
    d = np.array([p[0] for p in payloads])
    s = np.array([p[1] for p in payloads])
    s_inv_e1 = np.array([p[2] for p in payloads])
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.exp(d[:, :, None] * H[:, None, :]) * s_inv_e1[:, :, None]
        # s_col[j] is s[:, :, j:j+1] and e_row[j] is E[:, j:j+1, :].
        s_col = s.transpose(2, 0, 1)[:, :, :, None]
        e_row = E.transpose(1, 0, 2)[:, :, None, :]
        acc = s_col[0] * e_row[0]
        for j in range(1, d.shape[1]):
            acc += s_col[j] * e_row[j]
    return acc.real


def _posterior_errors(bases: list, cols: np.ndarray) -> np.ndarray:
    """Posterior error estimate per step of same-``m`` bases, from their
    ``(B, m, K)`` columns of ``exp(h·Hm) e_1``: ``β|h_{m+1,m}·row·col|``,
    zero for a basis without an error row (happy breakdown)."""
    live = [
        i for i, b in enumerate(bases)
        if b.err_row is not None and b.h_next != 0.0  # repro: allow[RPL005] exact happy-breakdown sentinel
    ]
    if len(live) < len(bases):
        errs = np.zeros(cols.shape[::2])
        if live:
            errs[live] = _posterior_errors([bases[i] for i in live], cols[live])
        return errs
    # row[j] is the rows' column j, col[j] is cols[:, j, :].
    row = np.array([b.err_row for b in bases]).T[:, :, None]
    col = cols.transpose(1, 0, 2)
    dots = row[0] * col[0]
    for j in range(1, cols.shape[1]):
        dots = dots + row[j] * col[j]
    h_next, beta = np.array([(b.h_next, b.beta) for b in bases]).T[:, :, None]
    return beta * np.abs(h_next * dots)


def span_coefficients(
    bases: list[KrylovBasis], spans: list[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:meth:`KrylovBasis.coefficients` of many bases, each over its own
    steps, in one stacked evaluation per ``(m, payload dtype)``.

    A lockstep round's fresh bases mostly share a few dimensions: each
    such group pads its steps to its longest span with ``h = 0`` (those
    columns are dropped) and runs :func:`_expm_e1_stack`, the posterior
    estimates and the ``β`` scaling once over the stack — the idiom
    :func:`~repro.linalg.expm.expm` uses.  Each element is formed by the
    same operations as for the basis alone, so a basis's answer does not
    depend on its group.  A basis outside the stacked kernel (``m = 0``,
    a defective payload, ``m > _LOOP_KERNEL_MAX_M``) is evaluated alone.
    """
    out: list = [None] * len(bases)
    groups: dict[tuple, list[int]] = {}
    spans = [np.asarray(hs, dtype=float) for hs in spans]
    for i, (b, hs) in enumerate(zip(bases, spans)):
        if b.m == 0:
            out[i] = np.zeros((len(hs), 0)), np.zeros(len(hs))
            continue
        usable, payload = b._eig_payload()
        if usable and b.m <= KrylovBasis._LOOP_KERNEL_MAX_M:
            groups.setdefault((b.m, payload[0].dtype.char), []).append(i)
        else:
            cols = b._expm_e1_many(hs)
            out[i] = b.beta * cols.T, _posterior_errors([b], cols[None])[0]
    for idx in groups.values():
        group = [bases[i] for i in idx]
        lens = [len(spans[i]) for i in idx]
        if min(lens) == max(lens):
            H = np.array([spans[i] for i in idx])
        else:
            H = np.zeros((len(idx), max(lens)))
            for row, i, K in zip(H, idx, lens):
                row[:K] = spans[i]
        cols = _expm_e1_stack([b._eig[1] for b in group], H)
        errs = _posterior_errors(group, cols)
        coeffs = (np.array([b.beta for b in group])[:, None, None] * cols).transpose(0, 2, 1)
        for g, (i, K) in enumerate(zip(idx, lens)):
            out[i] = coeffs[g, :K], errs[g, :K]
    return out


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


def _expm_each(mats: np.ndarray) -> list[np.ndarray | None]:
    """``exp`` of each matrix of a stack in one stacked call; ``None``
    where it does not exist.

    One slice that cannot be exponentiated (non-finite entries, singular
    Padé denominator) fails the whole stacked call, so the stack is
    retried one matrix at a time.  Slice ``k`` of a stacked
    :func:`~repro.linalg.expm.expm` *is* the single call, so a matrix's
    result does not depend on which route it took.
    """
    if not len(mats):
        return []
    try:
        return list(expm(mats))
    except (ValueError, np.linalg.LinAlgError):
        if len(mats) == 1:
            return [None]
        return [_expm_each(a[None])[0] for a in mats]


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
        # X2's CSC arrays with its rows relabelled into the order the
        # substitution reads (``SparseLU.input_order``), so a product
        # comes out ready to sweep.  Each output row still sums its
        # entries in ascending column order: the bits of ``X2 @ v``.
        x2, order = self._x2, self._lu.input_order
        rows = x2.indices
        if order is not None:
            relabel = np.empty_like(order)
            relabel[order] = np.arange(order.size)
            rows = relabel[rows].astype(rows.dtype)
        self._x2_in = (*x2.shape, x2.indptr, rows, x2.data)

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
        if factors is None:
            factors = self._hess_factors(H)
        return self._exponent_of_inverse(factors.inverse())

    def _exponent_of_inverse(self, inv: np.ndarray) -> np.ndarray:
        """The effective exponent from ``H⁻¹``, elementwise, so a stack
        of inverses maps in one pass."""
        raise NotImplementedError

    def _hess_factors(self, h_square: np.ndarray) -> HessenbergFactors | None:
        """Factor the Hessenberg block once for all ``H⁻¹`` consumers
        (``None`` for a subspace that never inverts ``H``)."""
        return HessenbergFactors(h_square)

    def _test_terms(
        self, hs: list[float], Hs: list[np.ndarray]
    ) -> tuple[list[int], np.ndarray, np.ndarray, list[np.ndarray]]:
        """``(live, exponents, heffs, rows)`` of posterior tests of one
        dimension ``m``: the tests that can run, the ``(L, p, p)`` stack
        of small matrices their estimates exponentiate, and their
        effective exponents and error rows.  Each block is factored on
        its own; the maps to the exponents run once over the stack.

        Default: ``β |h_{m+1,m} · e_m^T H⁻¹ exp(h·Hm) e_1|``, the
        regularization-free specialisation of Eqs. (8)/(10): the leading
        operator factors (``A`` resp. ``(I-γA)/γ``) cannot be applied
        when ``C`` is singular, and numerically the remaining row
        functional already tracks the true error within a small factor
        (validated against dense ``expm`` in the test suite).  The extra
        ``e_m^T H⁻¹`` row is empirically the difference between stopping
        correctly and stopping ~10 orders of magnitude too early on
        stiff PDNs.  One LU of the small block serves both ``H⁻¹``
        products — the effective exponent and the row.  An exactly
        singular block has no ``e_m^T H⁻¹`` row, and no test.
        """
        m = Hs[0].shape[1]
        live, rows, invs = [], [], []
        for k, H in enumerate(Hs):
            factors = self._hess_factors(H[:m, :m])
            try:
                rows.append(self._error_row(H[:m, :m], factors=factors))
            except np.linalg.LinAlgError:
                continue
            live.append(k)
            invs.append(factors.inverse())
        heffs = self._exponent_of_inverse(np.array(invs).reshape(-1, m, m))
        exponents = np.array([hs[k] for k in live])[:, None, None] * heffs
        return live, exponents, heffs, rows

    def _readout(self, r: np.ndarray, H: np.ndarray, beta: float, row) -> float:
        """A test's estimate from the exponential ``r`` of its matrix."""
        m = H.shape[1]
        return beta * abs(float(H[m, m - 1]) * float(row @ r[:, 0].copy()))

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
        the ``csc_matvec`` call SciPy's ``@`` makes, minus its dispatch,
        on X2's rows in the substitution's input order."""
        x2 = self._x2_in
        w = np.zeros(x2[0])
        _sparsetools.csc_matvec(*x2, v, w)
        return self._lu.solve(w, ordered=True)

    def apply_block(self, V: np.ndarray) -> np.ndarray:
        """Batched operator application over a dense ``(n, k)`` block.

        One sparse mat-mat product plus one multi-RHS substitution; the
        accounting charges one forward/backward pair per column, and
        each output column is bit-for-bit identical to a scalar
        :meth:`apply` of that column: CSC products scatter
        column-by-column, and the in-place block substitution sweep
        (:mod:`repro.linalg.triangular`) reproduces the scalar sweep's
        accumulation order per column at any batch width.  The product
        comes out in the sweep's row order, so the block goes to the
        sweep as it is.  This is the primitive the lockstep Arnoldi
        builds on.
        """
        (n_row, n_col, *arrays), k = self._x2_in, V.shape[1]
        W = np.zeros((n_row, k))
        _sparsetools.csc_matvecs(n_row, n_col, k, *arrays, V.ravel(), W.ravel())
        return self._lu.solve_many(W, ordered=True)

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
        if not Hs:
            return tests
        with np.errstate(over="ignore", invalid="ignore"):
            live, exponents, heffs, rows = self._test_terms(hs, Hs)
            for k, heff, row, r in zip(live, heffs, rows, _expm_each(exponents)):
                est = np.inf if r is None else self._readout(r, Hs[k], betas[k], row)
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

    def _test_terms(
        self, hs: list[float], Hs: list[np.ndarray]
    ) -> tuple[list[int], np.ndarray, np.ndarray, list[np.ndarray]]:
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
        m = Hs[0].shape[1]
        heffs = self.effective_hm(np.array([H[:m, :m] for H in Hs]))
        # exp([[hH, h e1],[0, 0]]) has top-right column h·φ1(hH)·e1.
        aug = np.zeros((len(Hs), m + 1, m + 1))
        aug[:, :m, :m] = np.array(hs)[:, None, None] * heffs
        aug[:, 0, m] = hs
        rows = [self._error_row(H[:m, :m]) for H in Hs]
        return list(range(len(Hs))), aug, heffs, rows

    def _readout(self, r: np.ndarray, H: np.ndarray, beta: float, row) -> float:
        m = H.shape[1]
        return beta * abs(float(H[m, m - 1])) * abs(r[m - 1, m])

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

    def _exponent_of_inverse(self, inv: np.ndarray) -> np.ndarray:
        # Arnoldi ran on -A⁻¹ ⇒ A ≈ -H⁻¹ on the subspace.
        return -inv


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

    def _exponent_of_inverse(self, inv: np.ndarray) -> np.ndarray:
        # Arnoldi ran on (I-γA)⁻¹ ⇒ A ≈ (I - H̃⁻¹)/γ on the subspace.
        return (_eye(inv.shape[-1]) - inv) / self.gamma


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
