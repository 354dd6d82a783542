"""Deterministic triangular substitution: one in-place sweep per factor.

The paper denominates its whole complexity argument (Sec. 3.4) in
forward/backward substitution pairs against factors computed **once**, so
the substitution inner loop multiplies everything built on top of it —
the lockstep block march, compiled-plan sweeps, the Table-3 numbers.
Batching those substitutions is only legal here if it is *per-column
deterministic*: the parity web (``tests/test_block_runner.py``,
``tests/test_lu.py``) requires ``solve_many(B)[:, i]`` to be bit-for-bit
``solve(B[:, i])`` at any batch width and offset.  Handing SuperLU a
multi-RHS block breaks that — its supernodal BLAS kernels change
accumulation order with the RHS count (divergent at nrhs = 8 on pg4t's
pencil).

:class:`TriangularFactors` keeps SuperLU's factors in one form, built
when :class:`~repro.linalg.lu.SparseLU` factors: two row-ordered CSR
sweep matrices — the negated strictly-lower part of ``L`` (unit lower),
and the negated, column-scaled strictly-upper part of ``U`` with rows
relabelled ``i → n−1−i`` and every row mirrored — plus both
permutations and the diagonal scaling ``D⁻¹``.  One substitution pair is
one SciPy CSR matvec per factor with its output aliased onto its input.
SciPy's CSR kernels walk rows strictly in order and, within a row,
stored entries in order; on the strictly-lower part of ``L`` in its
natural row order — a topological order of the dependency DAG: row
``i`` only reads rows ``j < i``, all final by the time it is reached —
the aliased call *is* a complete in-place forward substitution.  The
backward sweep is the same call on the relabelled upper part.  Per
output row, contributions accumulate in ascending original columns for
``L`` and descending for ``U``: the order of SuperLU's own column sweep,
which the first check below compares against.

The kernel has two call shapes and no switch:

* one column — :meth:`TriangularFactors.solve`, through
  ``csr_matvec`` (``y[i] = y[i] + Σ a·x``, one running sum per row);
* a block — :meth:`TriangularFactors.solve_many`, through
  ``csr_matvecs`` (``Y[i, :] += a·X[j, :]``, one axpy per entry).

Both apply the same products in the same order to every column, so
``solve_many(B)[:, i]`` is bit-for-bit ``solve(B[:, i])`` at any width.
Each reads its right-hand side in :attr:`TriangularFactors.input_order`
(``perm_r⁻¹``); :meth:`~TriangularFactors.sweep` and
:meth:`~TriangularFactors.sweep_many` take one already in that order, so
a caller that forms its right-hand sides as a product relabels the
product's rows once (the Krylov operator does,
:class:`~repro.linalg.krylov.KrylovExpmOperator`) instead of gathering
every block.  A block then takes one array pass per step: the lower
sweep in place, the row flip, the upper sweep in place, the answer's
rows gathered C-ordered and scaled by ``D⁻¹``, and one transposing copy
into the F-ordered answer (the C-ordered gather runs at copy speed,
where gathering straight into an F-ordered block does not).
Because that leans on private kernels' traversal and rounding, it is
also **checked** at construction, twice:

* the one-column sweep must reproduce SuperLU's own solve of a probe to
  a relative 1e-6 (:meth:`TriangularFactors._verify`), else the export is
  refused and :class:`~repro.linalg.lu.SparseLU` keeps SuperLU's solve;
* the block sweep of two probe columns must be byte-equal to the
  one-column sweep (:meth:`TriangularFactors._verify_sweep`), else
  :attr:`TriangularFactors.sweep_failure` is set and blocks are
  substituted column by column.

``SparseLU.failure`` records which check failed.  Nothing else selects a
path.
"""

from __future__ import annotations

import numpy as np

try:  # SciPy-private kernels; absence degrades to SuperLU's own solve.
    from scipy.sparse import _sparsetools

    _KERNELS_AVAILABLE = hasattr(_sparsetools, "csr_matvec") and hasattr(
        _sparsetools, "csr_matvecs"
    )
except ImportError:  # pragma: no cover - exotic scipy builds
    _sparsetools = None
    _KERNELS_AVAILABLE = False

__all__ = [
    "TriangularExportError",
    "TriangularFactors",
]


class TriangularExportError(RuntimeError):
    """The sweep matrices do not reproduce SuperLU's factorisation.

    Raised when the export probe fails — e.g. a SuperLU build that
    equilibrated the matrix with scalings the handle does not expose
    (:class:`~repro.linalg.lu.SparseLU` then keeps SuperLU's own solve)
    — or when the block sweep is not byte-equal to the one-column sweep
    (recorded as :attr:`TriangularFactors.sweep_failure`).
    """


def _strict_rows(csr, diag_last):
    """Negated strictly-triangular part of one CSR factor.

    Returns ``(indptr, indices, -data)``, the kernels' argument order.
    SciPy's CSC → CSR conversion walks columns in order, so every row
    comes out with ascending columns and the stored diagonal is its
    last entry (``L``) or its first (``U``).  Data is negated once here
    so the kernel's ``y += a·x`` is bit-for-bit a sweep's ``y -= a·x``.
    """
    n = csr.shape[0]
    diag = csr.indptr[1:] - 1 if diag_last else csr.indptr[:-1]
    if not np.array_equal(csr.indices[diag], np.arange(n)):
        raise TriangularExportError("factor rows do not store their diagonal")
    keep = np.ones(csr.nnz, dtype=bool)
    keep[diag] = False
    return (
        (csr.indptr - np.arange(n + 1)).astype(np.intc),
        csr.indices[keep].astype(np.intc, copy=False),
        -csr.data[keep],
    )


class TriangularFactors:
    """SuperLU's factors as one pair of in-place sweep matrices.

    Built and checked once, at construction; nothing it keeps refers to
    the SuperLU object, which the caller may then drop.  Shared by
    every cache view of the owning factorisation.
    """

    def __init__(self, superlu):
        if not _KERNELS_AVAILABLE:
            raise TriangularExportError("scipy substitution kernels unavailable")
        n = superlu.shape[0]
        self.n = n
        L = superlu.L.tocsr()
        if L.dtype != np.float64:
            raise TriangularExportError(f"unsupported dtype {L.dtype}")
        lower = _strict_rows(L, diag_last=True)
        del L
        U = superlu.U.tocsr()
        invd = 1.0 / U.data[U.indptr[:-1]]
        # Column-scale U to unit diagonal: U = (I + Uoff·D⁻¹)·D, so the
        # backward sweep runs on the strictly-upper scaled part and the
        # solution is post-scaled by D⁻¹.
        U.data *= invd[U.indices]
        indptr, indices, data = _strict_rows(U, diag_last=False)
        del U
        # The backward sweep visits rows n-1 … 0 and applies each row's
        # entries in descending column order.  Relabelling i → n-1-i
        # turns it into a forward sweep; reversing the whole entry
        # stream reverses the row order and every row's storage order
        # at once.
        upper = (
            indptr[-1] - indptr[::-1],
            (n - 1) - indices[::-1],
            data[::-1].copy(),
        )
        del indptr, indices, data
        take_in = np.empty(n, dtype=np.intp)
        take_in[superlu.perm_r] = np.arange(n)
        self._take_in = take_in          # w = b[perm_r⁻¹]
        # Row perm_c[k] of the answer is row n-1-perm_c[k] of the
        # relabelled backward sweep's output.
        perm_c = np.asarray(superlu.perm_c, dtype=np.intp)
        self._sweeps = (lower, upper, (n - 1) - perm_c)
        self._invd_out = invd[perm_c]
        #: Why the block sweep is not used, if its check failed.
        self.sweep_failure: str | None = None
        self._verify(superlu)
        try:
            self._verify_sweep()
        except Exception as exc:
            self.sweep_failure = f"{type(exc).__name__}: {exc}"

    # -- checks --------------------------------------------------------------

    def _verify(self, superlu) -> None:
        """One probe solve against SuperLU's own answer.

        Catches sweeps that do not reproduce the factorisation (e.g. a
        SuperLU that equilibrated with scalings the Python handle does
        not expose): those must fall back to SuperLU's own solve rather
        than return silently wrong answers.
        """
        probe = np.cos(np.arange(self.n, dtype=float))
        ref = superlu.solve(probe)
        got = self.solve(probe)
        num = float(np.linalg.norm(got - ref))
        den = float(np.linalg.norm(ref))
        if not np.isfinite(num) or num > 1e-6 * (den + 1e-300):
            raise TriangularExportError(
                "exported L/U factors do not reproduce the SuperLU "
                f"factorisation (probe mismatch {num:.3e} vs ‖x‖={den:.3e})"
            )

    def _verify_sweep(self) -> None:
        """Two probe columns through the block sweep, byte-equal to :meth:`solve`.

        The two call shapes lean on two SciPy-private kernels agreeing
        in traversal and rounding; a build where they do not must
        substitute blocks column by column rather than move a bit.
        """
        t = np.arange(self.n, dtype=float)
        probe = np.column_stack((np.cos(t), np.sin(t)))
        got = self.solve_many(probe)
        for i in range(probe.shape[1]):
            if got[:, i].tobytes() != self.solve(probe[:, i]).tobytes():
                raise TriangularExportError(
                    f"block sweep check failed: probe column {i} is not "
                    "byte-equal to the one-column sweep"
                )

    # -- the two call shapes -------------------------------------------------

    @property
    def input_order(self) -> np.ndarray:
        """Row order the sweeps read their right-hand side in:
        ``solve(b)`` is ``sweep(b[input_order])``."""
        return self._take_in

    def solve(self, b: np.ndarray) -> np.ndarray:
        """One substitution pair: ``csr_matvec`` per factor, in place.

        ``b`` is a float64 vector (``SparseLU.solve`` converts).
        """
        return self.sweep(b[self._take_in])

    def sweep(self, w: np.ndarray) -> np.ndarray:
        """:meth:`solve` of a vector whose rows are already in
        :attr:`input_order`; ``w`` is the sweep's workspace (overwritten)."""
        n = self.n
        lower, upper, take_out = self._sweeps
        _sparsetools.csr_matvec(n, n, *lower, w, w)
        z = w[::-1].copy()
        _sparsetools.csr_matvec(n, n, *upper, z, z)
        # Non-finite input columns legitimately push inf/nan through
        # here, and a huge finite entry overflows in the D⁻¹ scaling;
        # SuperLU's C solve is silent about both, so the kernel is too
        # (test_triangular.py::test_nonfinite_columns_do_not_leak).
        with np.errstate(over="ignore", invalid="ignore"):
            return z[take_out] * self._invd_out

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """All columns in lockstep; per column bit-for-bit :meth:`solve`.

        Returns an F-ordered ``(n, k)`` block.  Raises
        :class:`TriangularExportError` if the sweep check failed.
        """
        return self.sweep_many(
            np.ascontiguousarray(B[self._take_in], dtype=np.float64)
        )

    def sweep_many(self, W: np.ndarray) -> np.ndarray:
        """:meth:`solve_many` of a C-ordered float64 block whose rows are
        already in :attr:`input_order`; ``W`` is overwritten.

        One pass per step over the whole block: the lower sweep in
        place, the row flip, the upper sweep in place, then the answer
        rows gathered C-ordered and scaled by ``D⁻¹`` (the products
        :meth:`sweep` makes), and one transposing copy into the
        F-ordered answer.
        """
        if self.sweep_failure is not None:
            raise TriangularExportError(self.sweep_failure)
        lower, upper, take_out = self._sweeps
        n, w = W.shape
        flat = W.reshape(-1)
        _sparsetools.csr_matvecs(n, n, w, *lower, flat, flat)
        Z = np.ascontiguousarray(W[::-1])
        flat = Z.reshape(-1)
        _sparsetools.csr_matvecs(n, n, w, *upper, flat, flat)
        Y = Z[take_out]
        with np.errstate(over="ignore", invalid="ignore"):
            Y *= self._invd_out[:, None]
        out = np.empty((w, n))
        out[...] = Y.T
        return out.T

    # -- accounting ----------------------------------------------------------

    def nbytes(self) -> int:
        """Actual bytes held: both sweep matrices and the permutations."""
        lower, upper, take_out = self._sweeps
        arrays = (*lower, *upper, take_out, self._take_in, self._invd_out)
        return int(sum(a.nbytes for a in arrays))
