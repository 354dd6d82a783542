"""SuperLU's column sweep on exported CSC factors: the tests' bit oracle.

:class:`repro.linalg.triangular.TriangularFactors` keeps each factor as
one pair of row-ordered CSR sweep matrices and substitutes through
SciPy's CSR matvec kernels with the output aliased onto the input.  This
module keeps the arithmetic that form replaced — ``L`` and the
column-scaled ``U`` exported as CSC arrays and pushed through SuperLU's
non-supernodal column-sweep kernel ``_superlu.gstrs`` (the one
:func:`scipy.sparse.linalg.spsolve_triangular` uses): ascending-column
sweeps for ``L``, descending for ``U``, one axpy per stored entry, then
the column permutation and ``D⁻¹``.  It shares the SuperLU factorisation
and nothing else, and the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve import _superlu


class ColumnSweepOracle:
    """One substitution pair through ``gstrs`` on the CSC export of ``A``.

    Factors ``A`` exactly as :class:`~repro.linalg.lu.SparseLU` does
    (same ordering, same SuperLU), so both hold the same ``L`` and ``U``.
    """

    def __init__(self, matrix):
        superlu = spla.splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A")
        n = self.n = superlu.shape[0]
        L = superlu.L.tocsc()
        L.sort_indices()
        U = superlu.U.tocsc()
        U.sort_indices()
        invd = 1.0 / U.diagonal()
        # U = (I + Uoff·D⁻¹)·D: the sweep runs on the strictly-upper
        # scaled part (the explicit zero diagonal — the last entry of
        # each sorted column — keeps gstrs's pivot bookkeeping intact).
        u_data = U.data * np.repeat(invd, np.diff(U.indptr))
        u_data[U.indptr[1:] - 1] = 0.0
        self._lower = (
            L.nnz, L.data, L.indices.astype(np.intc), L.indptr.astype(np.intc),
        )
        self._upper = (
            U.nnz, u_data, U.indices.astype(np.intc), U.indptr.astype(np.intc),
        )
        self._take_in = np.empty(n, dtype=np.intp)
        self._take_in[superlu.perm_r] = np.arange(n)
        self._take_out = np.array(superlu.perm_c, dtype=np.intp)
        self._invd_out = invd[self._take_out]

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = _superlu.gstrs(
            "N", self.n, *self._lower, self.n, *self._upper,
            np.asarray(b, dtype=float)[self._take_in],
        )
        assert info == 0, info
        with np.errstate(over="ignore", invalid="ignore"):
            return x[self._take_out] * self._invd_out
