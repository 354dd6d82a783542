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
responses — and on the benchmark grids still far wider than the
``q_max`` columns kept (pg1t: 2 412 candidates, numerical rank ≈ 1 000,
200 kept).  The projector therefore picks its columns from a **sketch**
(sketched column-pivoting selection: Halko, Martinsson & Tropp, SIAM
Review 53(2), 2011, §5):

1. **sketch** — the normalised candidates are compressed by a seeded
   Gaussian ``Ω`` of ``k = q_max + SKETCH_OVERSAMPLE`` rows into
   ``Y = Ω·cand``, ``k × N`` instead of ``n × N``;
2. **select** — one pivoted QR of ``Y`` orders the candidates by
   independence; columns whose pivoted diagonal falls below
   ``deflation_tol`` relative to the leading pivot are dependent, and
   the first ``q_max`` of the rest are kept;
3. **thin QR** — one unpivoted QR of the ``n × keep`` selected columns
   is ``V``.

The candidates live in one F-ordered ``n × (1 + moments)·p`` block,
allocated once and filled in place ``FILL_COLUMNS`` input columns at a
time — the ``G`` and ``S`` solves, then the moment recursion — with each
step's columns checked for finiteness and measured for their norms as
they land; only ``W`` is copied out.  The solves and the sparse product
are per-column deterministic, so every column has the bits of the whole
blocks solved at once, without those blocks and their concatenation
held beside it (pg1t: 40.6 MiB traced peak against 65.0).

The selection is *global*: every block competes in the one pivoted QR,
so the ``q_max`` budget goes to the most independent directions of the
whole candidate set, not to whichever block happened to be
orthogonalised first (the per-iteration breakdown test of a block
Arnoldi code).  The Gaussian sketch preserves the column geometry the
pivoting ranks, to within the oversampling's distortion, at a fraction
of the cost; the posterior bound of the reduced model, not the
selection, certifies the accuracy that results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from repro.linalg.lu import FACTORIZATION_CACHE, SparseLU, canonical_shift

__all__ = ["BasisInfo", "RomBuildError", "rational_krylov_basis"]

#: Seed of the Gaussian sketch.  Fixed, so two builds of one system
#: select the same columns and produce the same bits.
SKETCH_SEED = 20110601

#: Sketch rows beyond ``q_max``: enough that the sketch still sees a
#: numerical rank above the cap (and so reports the truncation), and
#: that its distortion of the column geometry stays small.
SKETCH_OVERSAMPLE = 20

#: Input columns per step of the candidate block's in-place fill: each
#: step's solves and products are ``(n, FILL_COLUMNS)`` temporaries,
#: not whole ``(n, p)`` blocks.
FILL_COLUMNS = 128


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
        Dependent candidates among those the sketch ranked.  A sketch
        of ``k`` rows ranks the first ``min(k, nonzero candidates)``
        pivots; of those, the ones whose pivot falls below
        ``deflation_tol`` are counted here, *before* the ``q_max`` cap.
        Candidates past the sketch's ``k`` pivots are not measured and
        not counted (0 on pg1t, where the rank exceeds ``k``).
    rank:
        Columns kept — the reduced dimension ``q``.
    truncated:
        True when the sketch's numerical rank exceeded ``q_max`` and
        the basis was capped (the error bound, not the builder,
        polices the resulting accuracy).  The sketch measures rank up
        to its ``k = q_max + SKETCH_OVERSAMPLE`` rows, so this is
        exact whether or not the cap bites.
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
) -> tuple[np.ndarray, BasisInfo, np.ndarray, SparseLU]:
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
        deflated as linearly dependent; the test runs on the diagonal
        of the sketch's pivoted QR, ``|R_jj| > deflation_tol·|R_00|``.

    Returns
    -------
    (V, info, W, lu_g):
        ``V`` is ``(n, q)`` with orthonormal columns, ``q <= q_max``;
        ``W = G^-1 B`` is the quasi-static candidate block and
        ``lu_g`` the factorisation of ``G`` that produced it, both
        handed back because the reduced model needs them again.

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
        # RationalKrylov's key: a plan's R-MATEX pencil is this matrix,
        # so the build reuses that factor instead of holding a second.
        lu_s = FACTORIZATION_CACHE.factor(
            S, label="S(rom)", key_extra=("gamma", canonical_shift(gamma))
        )
    except Exception as exc:  # singular G / S: no reduced model
        raise RomBuildError(
            f"pencil factorisation failed while building the reduced "
            f"basis: {exc}"
        ) from exc

    # [W | X_1 | … | X_moments], filled in place (module docstring).
    n, p = Bd.shape
    n_candidates = (1 + moments) * p
    cand = np.empty((n, n_candidates), order="F")
    W = np.empty((n, p), order="F")
    norms = np.empty(n_candidates)
    for c0 in range(0, p, FILL_COLUMNS):
        c1 = min(c0 + FILL_COLUMNS, p)
        blocks = [slice(j * p + c0, j * p + c1) for j in range(1 + moments)]
        cand[:, blocks[0]] = lu_g.solve_many(Bd[:, c0:c1])
        cand[:, blocks[1]] = lu_s.solve_many(Bd[:, c0:c1])
        for prev, cur in zip(blocks[1:], blocks[2:]):
            cand[:, cur] = lu_s.solve_many(np.asarray(C @ cand[:, prev]))
        W[:, c0:c1] = cand[:, blocks[0]]
        for cols in blocks:
            if not np.all(np.isfinite(cand[:, cols])):
                raise RomBuildError(
                    "candidate blocks contain non-finite entries "
                    "(near-singular pencil?); refusing to build a reduced "
                    "model"
                )
            norms[cols] = np.linalg.norm(cand[:, cols], axis=0)
    del Bd

    # Column-normalise so the pivoted QR ranks *directions*, not input
    # magnitudes (a microamp load deserves the same chance as a rail).
    dead = norms == 0.0  # repro: allow[RPL005] exactly-zero columns only; near-zero must keep their scale
    norms[dead] = 1.0
    cand /= norms

    k = min(q_max + SKETCH_OVERSAMPLE, n)
    omega = np.random.default_rng(SKETCH_SEED).standard_normal((k, n))
    try:
        R, perm = sla.qr(omega @ cand, mode="r", pivoting=True)
    except Exception as exc:
        raise RomBuildError(f"pivoted QR of the sketch failed: {exc}") from exc

    diag = np.abs(np.diag(R))
    lead = diag[0] if diag.size else 0.0
    if lead == 0.0:  # repro: allow[RPL005] exact zero leading pivot: all columns numerically zero
        raise RomBuildError(
            "all candidate columns are numerically zero: the inputs do "
            "not excite the system"
        )
    rank = int(np.sum(diag > deflation_tol * lead))
    ranked = min(diag.size, n_candidates - int(np.sum(dead)))
    keep = min(q_max, rank)
    Q, _ = sla.qr(cand[:, perm[:keep]], mode="economic", overwrite_a=True)
    return np.ascontiguousarray(Q), BasisInfo(
        n_candidates=n_candidates,
        n_deflated=ranked - rank,
        rank=keep,
        truncated=rank > q_max,
    ), W, lu_g
