"""Arnoldi workspace and breakdown signalling (paper Alg. 1, lines 1-13).

The Arnoldi iteration builds an orthonormal basis ``V_m`` of the Krylov
subspace ``K_m(Op, v)`` together with the small upper-Hessenberg matrix
``H_m`` satisfying ``Op V_m = V_m H_m + h_{m+1,m} v_{m+1} e_m^T``.

The iteration itself — one Gram-Schmidt loop, marching any number of
start vectors in lockstep — lives in
:func:`repro.linalg.block_krylov.build_bases_block`.  This module owns
what that loop must hold fixed for its results to be reproducible: the
vector-major basis workspace — row ``j`` is basis vector ``v_{j+1}``,
contiguous, so the CGS2 products ``V[:j+1] @ w`` and ``coeffs @ V[:j+1]``
stream whole vectors — with its capacity schedule, and the exception
for an operator that stops returning numbers.

The workspace is also the finished basis's only copy of its vectors.
``KrylovBasis.Vm`` is the transposed view of its leading ``m`` rows,
and the workspace keeps two rows beyond its capacity: during the build
row ``m`` holds ``v_{m+1}``; afterwards rows ``m`` and ``m+1`` are free,
and the march writes a segment's two ETD vectors there, so the span
factor ``B = [V_mᵀ; F; w_2]`` it keeps is the workspace itself
(:meth:`KrylovBasis.stacked <repro.linalg.krylov.KrylovBasis.stacked>`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArnoldiBreakdown"]

#: Initial vector capacity of the basis workspace.  R-MATEX and I-MATEX
#: bases are small — the bench's pg1t sweeps average m = 3.2 (peak 4),
#: its ibmpg deck m = 3.7 (peak 6) — and a workspace is kept for as long
#: as its basis's span, so it starts at four vectors and doubles on
#: demand (only MEXP on stiff circuits grows far).
_INITIAL_CAPACITY = 4
#: Rows beyond the capacity: ``v_{m+1}`` during the build, then room for
#: the two ETD vectors of the span factor behind the basis vectors.
_SPARE_ROWS = 2


def _workspace(m_cap: int, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Fresh ``(V, H, cap)`` workspace for a basis capped at ``m_cap``."""
    cap = min(_INITIAL_CAPACITY, m_cap)
    return np.empty((cap + _SPARE_ROWS, n)), np.zeros((cap + 1, cap)), cap


def _ensure_capacity(
    V: np.ndarray, H: np.ndarray, cap: int, needed: int, m_cap: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Grow the ``(V, H)`` workspace geometrically to hold ``needed`` vectors.

    The capacity schedule is deterministic, and growing ``V`` by rows
    leaves every vector's layout (one contiguous row of length ``n``)
    untouched — BLAS level-2 kernels are only bit-reproducible for
    identical memory layouts.
    """
    if needed <= cap:
        return V, H, cap
    while needed > cap:
        cap = min(2 * cap, m_cap)
    grown_v = np.empty((cap + _SPARE_ROWS, V.shape[1]))
    grown_v[: V.shape[0]] = V
    grown_h = np.zeros((cap + 1, cap))
    grown_h[: H.shape[0], : H.shape[1]] = H
    return grown_v, grown_h, cap


class ArnoldiBreakdown(RuntimeError):
    """Raised only for *unexpected* breakdowns (NaN/Inf in the recursion)."""
