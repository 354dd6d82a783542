"""Stiffness metric of a descriptor system (paper Sec. 4.1).

The paper defines stiffness as ``Re(λ_min)/Re(λ_max)`` of the eigenvalues
of ``A = -C⁻¹G`` — the ratio between the fastest and slowest decay rates
(both real parts are negative for a passive RC network, so the ratio is a
large positive number on stiff circuits; Table 1 goes up to 2.1e16).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from repro.circuit.mna import MNASystem
from repro.linalg.lu import SparseLU

__all__ = ["stiffness", "eigenvalue_extremes"]

#: Above this dimension the dense eigensolver is refused.
_DENSE_LIMIT = 3000


def eigenvalue_extremes(
    system: MNASystem, dense_limit: int = _DENSE_LIMIT
) -> tuple[float, float]:
    """Most- and least-negative real parts of the spectrum of ``-C⁻¹G``.

    Returns
    -------
    (lam_min, lam_max):
        ``lam_min`` is the most negative real part (fastest mode),
        ``lam_max`` the least negative (slowest mode).

    Notes
    -----
    Dense generalised eigensolve for systems up to ``dense_limit``
    unknowns; beyond that a sparse two-sided Arnoldi estimate is used
    (largest-magnitude eigenvalue of ``C⁻¹G`` and of its inverse).
    """
    n = system.dim
    if n <= dense_limit:
        c = np.asarray(system.C.todense(), dtype=float)
        g = np.asarray(system.G.todense(), dtype=float)
        lam = np.linalg.eigvals(np.linalg.solve(c, -g))
        real = lam.real
        finite = real[np.isfinite(real)]
        negative = finite[finite < 0]
        if negative.size == 0:
            raise ValueError("system has no decaying modes")
        return float(negative.min()), float(negative.max())

    # Sparse path: |λ|max of C⁻¹G via Arnoldi on LinearOperator, |λ|min
    # via the inverted operator G⁻¹C.
    lu_c = SparseLU(system.C, label="C")
    lu_g = SparseLU(system.G, label="G")
    g = system.G.tocsr()
    c = system.C.tocsr()

    fast_op = spla.LinearOperator(
        (n, n), matvec=lambda v: lu_c.solve(g @ v)
    )
    slow_op = spla.LinearOperator(
        (n, n), matvec=lambda v: lu_g.solve(c @ v)
    )
    lam_fast = spla.eigs(fast_op, k=1, which="LM", return_eigenvectors=False)
    lam_slow_inv = spla.eigs(slow_op, k=1, which="LM", return_eigenvectors=False)
    lam_min = -abs(complex(lam_fast[0]).real)
    lam_max = -1.0 / abs(complex(lam_slow_inv[0]).real)
    return lam_min, lam_max


def stiffness(system: MNASystem, dense_limit: int = _DENSE_LIMIT) -> float:
    """The paper's stiffness ratio ``Re(λ_min)/Re(λ_max)`` (≥ 1)."""
    lam_min, lam_max = eigenvalue_extremes(system, dense_limit=dense_limit)
    return lam_min / lam_max
