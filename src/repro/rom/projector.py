"""Block rational-Krylov projection basis for the MNA pencil.

The reduced-order tier rests on one observation (paper Sec. 2 + the
R-MATEX shift): every quantity a scenario sweep asks for lives close to
a low-dimensional subspace spanned by

* the **quasi-static block** ``G^-1 B`` — the per-input DC responses
  (superposition makes the steady-state part of any input pattern an
  exact linear combination of these columns), and
* the **rational Krylov moment blocks** ``(C + γG)^-1 B``,
  ``(C + γG)^-1 C (C + γG)^-1 B``, … — the transient responses of the
  γ-shifted pencil, the same pencil the full-order R-MATEX march
  factors (so building the basis reuses the cached factorisation and
  its in-place multi-RHS substitution sweep).

The blocks are heavily rank-deficient for realistic PDNs — hundreds of
load currents injected into one stiff grid excite far fewer independent
responses — so the projector deflates them: candidate columns are
normalised and passed through one **pivoted QR**, and columns whose
pivoted diagonal falls below ``deflation_tol`` relative to the leading
pivot are dropped (the same breakdown treatment block-Arnoldi codes
apply per iteration, applied across the whole candidate set so the
``q_max`` budget is spent on the *globally* most independent
directions, not on whichever block happened to be orthogonalised
first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from repro.linalg.lu import FACTORIZATION_CACHE, canonical_shift

__all__ = ["BasisInfo", "RomBuildError", "rational_krylov_basis"]


class RomBuildError(RuntimeError):
    """Reduced-model construction failed (the full-order path remains)."""


@dataclass(frozen=True)
class BasisInfo:
    """How the projection basis was built (reported by ``repro sweep``).

    Attributes
    ----------
    n_candidates:
        Candidate columns generated (``(1 + moments) * n_inputs``).
    n_deflated:
        Candidates dropped as numerically dependent (pivoted-QR
        deflation), *before* the ``q_max`` cap.
    rank:
        Columns kept — the reduced dimension ``q``.
    truncated:
        True when the numerical rank exceeded ``q_max`` and the basis
        was capped (the error bound, not the builder, polices the
        resulting accuracy).
    """

    n_candidates: int
    n_deflated: int
    rank: int
    truncated: bool


def _dense_inputs(B) -> np.ndarray:
    """The input selector as a dense, contiguous ``(n, p)`` block."""
    if sp.issparse(B):
        return np.asarray(B.todense(), dtype=float, order="F")
    return np.asarray(B, dtype=float, order="F")


def rational_krylov_basis(
    C: sp.spmatrix,
    G: sp.spmatrix,
    B,
    gamma: float,
    moments: int = 2,
    q_max: int = 200,
    deflation_tol: float = 1e-10,
) -> tuple[np.ndarray, BasisInfo, np.ndarray]:
    """Orthonormal basis ``V`` for the reduced space, with deflation.

    Parameters
    ----------
    C, G:
        The MNA descriptor matrices (``C x' = -G x + B u``).
    B:
        Input selector, sparse or dense ``(n, p)``.
    gamma:
        Rational shift of the pencil ``S = C + γG`` (must match the
        sweep's solver options so the factorisation cache is shared).
    moments:
        Number of rational moment blocks (``>= 1``); block ``j`` is
        ``(S^-1 C)^(j-1) S^-1 B``.  The quasi-static block ``G^-1 B``
        always rides along.
    q_max:
        Hard cap on the reduced dimension.
    deflation_tol:
        Relative pivot threshold below which a candidate column is
        deflated as linearly dependent.

    Returns
    -------
    (V, info, W):
        ``V`` is ``(n, q)`` with orthonormal columns, ``q <= q_max``;
        ``W = G^-1 B`` is the quasi-static candidate block, handed back
        because the reduced model needs it again (one solve, not two).

    Raises
    ------
    RomBuildError
        On an empty/degenerate input block or a factorisation failure.
    """
    if moments < 1:
        raise ValueError(f"moments must be >= 1, got {moments}")
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    if not 0.0 < deflation_tol < 1.0:
        raise ValueError(
            f"deflation_tol must be in (0, 1), got {deflation_tol!r}"
        )

    Bd = _dense_inputs(B)
    if Bd.size == 0:
        raise RomBuildError("system has no inputs: nothing to project")

    try:
        lu_g = FACTORIZATION_CACHE.factor(G, label="G(rom)")
        S = (C + gamma * G).tocsc()
        lu_s = FACTORIZATION_CACHE.factor(
            S, label="S(rom)", key_extra=canonical_shift(gamma)
        )
    except Exception as exc:  # singular G / S: no reduced model
        raise RomBuildError(
            f"pencil factorisation failed while building the reduced "
            f"basis: {exc}"
        ) from exc

    W = np.asarray(lu_g.solve_many(Bd))
    X = np.asarray(lu_s.solve_many(Bd))
    blocks = [W, X]
    for _ in range(moments - 1):
        X = np.asarray(lu_s.solve_many(np.asarray(C @ X)))
        blocks.append(X)

    cand = np.concatenate(blocks, axis=1)
    if not np.all(np.isfinite(cand)):
        raise RomBuildError(
            "candidate blocks contain non-finite entries (near-singular "
            "pencil?); refusing to build a reduced model"
        )

    # Column-normalise so the pivoted QR ranks *directions*, not input
    # magnitudes (a microamp load deserves the same chance as a rail).
    norms = np.linalg.norm(cand, axis=0)
    dead = norms == 0.0  # repro: allow[RPL005] exactly-zero columns only; near-zero must keep their scale
    norms[dead] = 1.0
    n_candidates = cand.shape[1]

    try:
        Q, R, _ = sla.qr(cand / norms, mode="economic", pivoting=True)
    except Exception as exc:
        raise RomBuildError(f"pivoted QR failed: {exc}") from exc

    diag = np.abs(np.diag(R))
    lead = diag[0] if diag.size else 0.0
    if lead == 0.0:  # repro: allow[RPL005] exact zero leading pivot: all columns numerically zero
        raise RomBuildError(
            "all candidate columns are numerically zero: the inputs do "
            "not excite the system"
        )
    rank = int(np.sum(diag > deflation_tol * lead))
    n_deflated = n_candidates - rank - int(np.sum(dead))
    keep = min(q_max, rank)
    V = np.ascontiguousarray(Q[:, :keep])
    return V, BasisInfo(
        n_candidates=n_candidates,
        n_deflated=max(n_deflated, 0),
        rank=keep,
        truncated=rank > q_max,
    ), W
