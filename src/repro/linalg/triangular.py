"""Deterministic triangular substitution kernels: one in-place sweep per factor.

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
pencil) — which is why PR 5 fell back to a per-column loop and lost the
batched-march headroom.

This module restores the headroom without giving up a single bit:

* :class:`TriangularFactors` exports SuperLU's factors once, when
  :class:`~repro.linalg.lu.SparseLU` factors — ``L`` (unit lower), the
  column-scaled strictly-upper part of ``U``, both row/column
  permutations and the diagonal scaling — after *verifying* that the
  export reproduces the factorisation.  A verified export is the only
  form the factor is kept in: the ``SparseLU`` drops SuperLU's own
  object (its L+U storage) and the matrix it factored.  An export that
  fails verification (e.g. an equilibrated factorisation) keeps
  SuperLU's own solve instead of being silently wrong.
* The **scalar** path substitutes through SuperLU's non-supernodal
  column-sweep kernel (the one :func:`scipy.sparse.linalg.
  spsolve_triangular` uses) on the exported factors: ascending-column
  sweeps for ``L``, descending for ``U``, one axpy per stored entry.
* The **multi-RHS** path is one CSR block-matvec (``Y += A @ X``) per
  factor with ``Y`` aliased onto ``X``.  SciPy's ``csr_matvecs`` walks
  rows strictly in order and, within a row, stored entries in order,
  so on the strictly-lower part of ``L`` in its natural row order —
  which is a topological order of the dependency DAG: row ``i`` only
  reads rows ``j < i``, all final by the time it is reached — the call
  *is* a complete in-place forward substitution of every column.  The
  backward sweep is the same call on the strictly-upper part with rows
  relabelled ``i → n−1−i`` and every row mirrored.  Per output row,
  contributions accumulate in exactly the order the scalar column sweep
  applies them (ascending original columns for ``L``, descending for
  ``U``), and that order never depends on how many columns ride in the
  block.  ``solve_many(B)[:, i]`` is therefore bit-for-bit
  ``solve(B[:, i])`` **by construction** — and, because the
  construction leans on a private kernel's traversal order, **by
  check**: building the sweeps pushes a two-column probe through them
  and requires byte equality with the scalar path.

There is no switch between kernels.  A factor whose export fails
verification is served by SuperLU's own solve; a factor whose sweep
check fails substitutes its columns one by one through the verified
scalar path, so ``solve`` keeps its bits either way
(``SparseLU.failure`` records why).  Nothing else selects a path.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp

try:  # SciPy-private kernels; absence degrades to SuperLU's own solve.
    from scipy.sparse import _sparsetools
    from scipy.sparse.linalg._dsolve import _superlu

    _KERNELS_AVAILABLE = hasattr(_superlu, "gstrs") and hasattr(
        _sparsetools, "csr_matvecs"
    )
except ImportError:  # pragma: no cover - exotic scipy builds
    _sparsetools = None
    _superlu = None
    _KERNELS_AVAILABLE = False

__all__ = [
    "TriangularExportError",
    "TriangularFactors",
]


class TriangularExportError(RuntimeError):
    """The exported factors do not reproduce SuperLU's factorisation.

    Raised when the export verification probe fails — e.g. a SuperLU
    build that equilibrated the matrix with scalings the handle does not
    expose (:class:`~repro.linalg.lu.SparseLU` then keeps SuperLU's own
    solve) — or when the block sweep is not byte-equal to the scalar one
    (recorded as :attr:`TriangularFactors.sweep_failure`).
    """


def _strict_csr(data, indices, indptr, n, diag_last):
    """Negated strictly-triangular CSR of one CSC factor.

    Returns ``(indptr, indices, -data)``, the kernel's argument order.
    The CSC → CSR conversion walks columns in order, so every row comes
    out with ascending columns and the stored diagonal is its last entry
    (``L``) or its first (``U``).  Data is negated once here so the
    kernel's ``y += a·x`` is bit-for-bit the scalar sweep's ``y -= a·x``.
    """
    csr = sp.csc_array((data, indices, indptr), shape=(n, n)).tocsr()
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
    """SuperLU's factors, exported once, with an in-place block sweep.

    Stage 1 (construction) exports the scalar-path arrays and verifies
    them against one reference SuperLU solve; nothing it keeps refers
    to the SuperLU object, which the caller may then drop.  Stage 2
    (:meth:`ensure_sweeps`, lazy — only multi-RHS consumers pay it)
    builds the two row-ordered sweep matrices and checks the block
    kernel byte-for-byte against the scalar one; a failed check is
    recorded in :attr:`sweep_failure` and never retried.  Both stages
    are built at most once and shared by every cache view of the owning
    factorisation.
    """

    def __init__(self, superlu):
        if not _KERNELS_AVAILABLE:
            raise TriangularExportError("scipy substitution kernels unavailable")
        n = superlu.shape[0]
        self.n = n
        L = superlu.L.tocsc()
        if L.dtype != np.float64:
            raise TriangularExportError(f"unsupported dtype {L.dtype}")
        L.sort_indices()
        U = superlu.U.tocsc()
        U.sort_indices()
        invd = 1.0 / U.diagonal()
        # Column-scale U to unit diagonal: U = (I + Uoff·D⁻¹)·D, so the
        # backward sweep runs on the strictly-upper scaled part (the
        # explicit zero diagonal — the last entry of each sorted column —
        # keeps the sweep's skip-the-pivot entry bookkeeping intact) and
        # the solution is post-scaled by D⁻¹.
        Us_data = U.data * np.repeat(invd, np.diff(U.indptr))
        Us_data[U.indptr[1:] - 1] = 0.0
        self._L_nnz = int(L.nnz)
        self._L_data = L.data
        self._L_indices = L.indices.astype(np.intc, copy=False)
        self._L_indptr = L.indptr.astype(np.intc, copy=False)
        self._U_nnz = int(U.nnz)
        self._U_data = Us_data
        self._U_indices = U.indices.astype(np.intc, copy=False)
        self._U_indptr = U.indptr.astype(np.intc, copy=False)
        take_in = np.empty(n, dtype=np.intp)
        take_in[superlu.perm_r] = np.arange(n)
        self._take_in = take_in          # w = b[perm_r⁻¹]
        # A copy: SuperLU's perm arrays are views that keep it alive.
        self._take_out = np.array(superlu.perm_c, dtype=np.intp)
        self._invd_out = invd[self._take_out].copy()
        self._sweeps = None
        #: Why the block sweep is not used, if its check failed.
        self.sweep_failure: str | None = None
        self._lock = threading.Lock()
        self._verify(superlu)

    # -- verification --------------------------------------------------------

    def _verify(self, superlu) -> None:
        """One probe solve against SuperLU's own answer.

        Catches exports that do not reproduce the factorisation (e.g. a
        SuperLU that equilibrated with scalings the Python handle does
        not expose): those must fall back to SuperLU's own solve rather
        than return silently wrong answers.
        """
        n = self.n
        probe = np.cos(np.arange(n, dtype=float))
        ref = superlu.solve(probe)
        got = self.solve(probe)
        num = float(np.linalg.norm(got - ref))
        den = float(np.linalg.norm(ref))
        if not np.isfinite(num) or num > 1e-6 * (den + 1e-300):
            raise TriangularExportError(
                "exported L/U factors do not reproduce the SuperLU "
                f"factorisation (probe mismatch {num:.3e} vs ‖x‖={den:.3e})"
            )

    def _verify_sweep(self, sweeps) -> None:
        """Two probe columns through the block sweep, byte-equal to :meth:`solve`.

        The sweep leans on a SciPy-private kernel walking rows strictly
        in order with its output aliased onto its input; a build that
        does not (or that rounds ``y += a·x`` differently from the
        scalar sweep's ``y -= a·x``) must be served by SuperLU's own
        solve rather than move a bit.
        """
        t = np.arange(self.n, dtype=float)
        probe = np.column_stack((np.cos(t), np.sin(t)))
        got = self._substitute(sweeps, probe)
        for i in range(probe.shape[1]):
            if got[:, i].tobytes() != self.solve(probe[:, i]).tobytes():
                raise TriangularExportError(
                    f"block sweep check failed: probe column {i} is not "
                    "byte-equal to the scalar column sweep"
                )

    # -- scalar path ---------------------------------------------------------

    def solve(self, b: np.ndarray) -> np.ndarray:
        """One substitution pair through the column-sweep kernel.

        This is the arithmetic definition of a pair: the block sweep
        reproduces it bit-for-bit per column.
        """
        # ``b`` is a float64 vector (``SparseLU.solve`` converts), so the
        # gather is the kernel's contiguous float64 input as it stands.
        x, info = _superlu.gstrs(
            "N",
            self.n, self._L_nnz, self._L_data, self._L_indices, self._L_indptr,
            self.n, self._U_nnz, self._U_data, self._U_indices, self._U_indptr,
            b[self._take_in],
        )
        if info != 0:  # pragma: no cover - factors are nonsingular
            raise TriangularExportError(f"gstrs failed with info={info}")
        # Non-finite input columns legitimately push inf/nan through
        # here, and a huge finite entry overflows in the D⁻¹ scaling;
        # SuperLU's C solve is silent about both, so the kernel is too
        # (test_triangular.py::test_nonfinite_columns_do_not_leak).
        with np.errstate(over="ignore", invalid="ignore"):
            return x[self._take_out] * self._invd_out

    # -- in-place multi-RHS sweep --------------------------------------------

    def ensure_sweeps(self) -> bool:
        """Build and check the sweep matrices once (thread-safe, lazy).

        Returns whether the block sweep serves this factor; ``False``
        when its check failed (see :attr:`sweep_failure`).
        """
        if self._sweeps is not None or self.sweep_failure is not None:
            return self._sweeps is not None
        with self._lock:
            if self._sweeps is None and self.sweep_failure is None:
                try:
                    self._sweeps = self._build_sweeps()
                except Exception as exc:
                    self.sweep_failure = f"{type(exc).__name__}: {exc}"
        return self._sweeps is not None

    def _build_sweeps(self):
        n = self.n
        lower = _strict_csr(
            self._L_data, self._L_indices, self._L_indptr, n, diag_last=True
        )
        indptr, indices, data = _strict_csr(
            self._U_data, self._U_indices, self._U_indptr, n, diag_last=False
        )
        # The backward sweep visits rows n-1 … 0 and applies each
        # row's entries in descending column order.  Relabelling
        # i → n-1-i turns it into a forward sweep; reversing the
        # whole entry stream reverses the row order and every row's
        # storage order at once.
        upper = (
            indptr[-1] - indptr[::-1],
            (n - 1) - indices[::-1],
            data[::-1].copy(),
        )
        sweeps = (lower, upper, n - 1 - self._take_out)
        self._verify_sweep(sweeps)
        return sweeps

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """All columns in lockstep; per column bit-for-bit :meth:`solve`.

        Returns an F-ordered ``(n, k)`` block.  Raises
        :class:`TriangularExportError` if the sweep check failed.
        """
        if not self.ensure_sweeps():
            raise TriangularExportError(self.sweep_failure)
        return self._substitute(self._sweeps, B)

    def _substitute(self, sweeps, B: np.ndarray) -> np.ndarray:
        lower, upper, take_out = sweeps
        n, w = B.shape
        W = np.ascontiguousarray(B[self._take_in], dtype=np.float64)
        flat = W.reshape(-1)
        _sparsetools.csr_matvecs(n, n, w, *lower, flat, flat)
        Z = np.ascontiguousarray(W[::-1])
        flat = Z.reshape(-1)
        _sparsetools.csr_matvecs(n, n, w, *upper, flat, flat)
        out = np.empty((n, w), order="F")
        out[...] = Z[take_out]
        with np.errstate(over="ignore", invalid="ignore"):
            out *= self._invd_out[:, None]
        return out

    # -- accounting ----------------------------------------------------------

    def nbytes(self) -> int:
        """Actual bytes held by the export and (if built) the sweeps."""
        arrays = [
            self._L_data, self._L_indices, self._L_indptr,
            self._U_data, self._U_indices, self._U_indptr,
            self._take_in, self._take_out, self._invd_out,
        ]
        if self._sweeps is not None:
            lower, upper, take_out = self._sweeps
            arrays.extend((*lower, *upper, take_out))
        return int(sum(a.nbytes for a in arrays))
