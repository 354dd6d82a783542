"""Arnoldi workspace and breakdown signalling (paper Alg. 1, lines 1-13).

The Arnoldi iteration builds an orthonormal basis ``V_m`` of the Krylov
subspace ``K_m(Op, v)`` together with the small upper-Hessenberg matrix
``H_m`` satisfying ``Op V_m = V_m H_m + h_{m+1,m} v_{m+1} e_m^T``.

The iteration itself — one Gram-Schmidt loop, marching any number of
start vectors in lockstep — lives in
:func:`repro.linalg.block_krylov.build_bases_block`.  This module owns
what that loop must hold fixed for its results to be reproducible: the
vector-major ``(cap+1, n)`` basis workspace — row ``j`` is basis vector
``v_{j+1}``, contiguous, so the CGS2 products ``V[:j+1] @ w`` and
``coeffs @ V[:j+1]`` stream whole vectors and the finished basis is the
leading rows as they stand (``KrylovBasis.Vm`` is their transposed
view) — with its capacity schedule, and the exception for an operator
that stops returning numbers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArnoldiBreakdown"]

#: Initial vector capacity of the basis workspace.  I-/R-MATEX bases
#: stay around m ≈ 10, so allocating the full ``m_max`` (often 300)
#: up front would zero ~2.5 MB per basis for nothing; instead the
#: workspace starts small and doubles on demand.
_INITIAL_CAPACITY = 32


def _initial_capacity(m_cap: int) -> int:
    """Starting workspace capacity for a basis capped at ``m_cap``."""
    return min(_INITIAL_CAPACITY, m_cap)


def _ensure_capacity(
    V: np.ndarray, H: np.ndarray, cap: int, needed: int, m_cap: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Grow the ``(V, H)`` workspace geometrically to hold ``needed`` vectors.

    The capacity schedule is deterministic, and growing ``V`` by rows
    leaves every vector's layout (one contiguous row of length ``n``)
    untouched — BLAS level-2 kernels are only bit-reproducible for
    identical memory layouts.
    """
    while needed > cap:
        cap = min(2 * cap, m_cap)
    if V.shape[0] < cap + 1:
        grown_v = np.empty((cap + 1, V.shape[1]))
        grown_v[: V.shape[0]] = V
        grown_h = np.zeros((cap + 1, cap))
        grown_h[: H.shape[0], : H.shape[1]] = H
        return grown_v, grown_h, cap
    return V, H, cap


class ArnoldiBreakdown(RuntimeError):
    """Raised only for *unexpected* breakdowns (NaN/Inf in the recursion)."""
