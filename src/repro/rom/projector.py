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

The candidate block is never held whole.  ``FILL_COLUMNS`` inputs at
a time, ``B``'s columns are densified, solved — ``G``, ``S``, then the
moment recursion — checked for finiteness, normalised and added to the
sketch ``Y``; only ``W`` and ``Y`` outlive a step.  After the pivoted
QR the kept columns are solved again (each moment chain only as deep
as its kept candidates need).  The solves and the sparse product are
per-column deterministic, so every column has the bits of the whole
blocks solved at once (``tests/test_rom.py`` checks ``V``, ``W`` and
the answers against that oracle).  pg1t's traced peak of the projector
is 23.1 MiB (40.6 when the whole normalised block was held, 65.0 when
the blocks were also concatenated); the re-solve costs ≈ 200 extra
column solves.

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


def _kept_columns(kept, W, B, C, lu_s) -> np.ndarray:
    """The candidates ``kept``, re-solved, in that order.

    The G and S solves and the sparse product are per-column
    deterministic, so each column has the bits the fill gave it; the
    moment chain ``X_b = S^-1 C X_(b-1)`` runs only for the inputs whose
    kept candidates lie that deep.
    """
    p = W.shape[1]
    block, inp = np.divmod(kept, p)
    out = np.empty((W.shape[0], kept.size), order="F")
    out[:, block == 0] = W[:, inp[block == 0]]
    chain = np.unique(inp[block > 0])
    if chain.size:
        X = lu_s.solve_many(_input_columns(B, chain))
        for b in range(1, int(block.max()) + 1):
            here = block == b
            out[:, here] = X[:, np.searchsorted(chain, inp[here])]
            deeper = np.isin(chain, inp[block > b])
            if deeper.any():
                chain = chain[deeper]
                X = lu_s.solve_many(np.asarray(C @ X[:, deeper]))
    return out


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


def _input_columns(B, cols) -> np.ndarray:
    """Columns ``cols`` (a slice or an index array) of the input
    selector as a dense F-ordered block."""
    block = B[:, cols]
    if sp.issparse(block):
        block = block.toarray(order="F")
    return np.asarray(block, dtype=float, order="F")


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
        ``W`` is F-contiguous at the head of a buffer with room for
        ``2·min(q_max, n)`` more values per input, which the model's
        input map grows into in place.

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

    n, p = B.shape
    if n * p == 0:
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

    # Candidate j is block j // p (0: W, b: X_b) of input j % p.  Each
    # step solves its inputs' candidates, measures and normalises them,
    # and adds them to the sketch; only W and the sketch outlive it.
    blocks = 1 + moments
    n_candidates = blocks * p
    # W heads a buffer with room for the model's 2q modal columns per
    # input (q <= min(q_max, n)); see the Returns section.
    W = np.empty(p * (n + 2 * min(q_max, n)))[:n * p].reshape(
        (n, p), order="F"
    )
    k = min(q_max + SKETCH_OVERSAMPLE, n)
    omega = np.random.default_rng(SKETCH_SEED).standard_normal((k, n))
    Y = np.empty((k, n_candidates), order="F")
    norms = np.empty(n_candidates)
    n_dead = 0
    for c0 in range(0, p, FILL_COLUMNS):
        c1 = min(c0 + FILL_COLUMNS, p)
        w = c1 - c0
        Bs = _input_columns(B, slice(c0, c1))
        step = np.empty((n, blocks * w), order="F")
        step[:, :w] = W[:, c0:c1] = lu_g.solve_many(Bs)
        step[:, w:2 * w] = lu_s.solve_many(Bs)
        for j in range(2, blocks):
            step[:, j * w:(j + 1) * w] = lu_s.solve_many(
                np.asarray(C @ step[:, (j - 1) * w:j * w])
            )
        if not np.all(np.isfinite(step)):
            raise RomBuildError(
                "candidate blocks contain non-finite entries "
                "(near-singular pencil?); refusing to build a reduced "
                "model"
            )
        # Column-normalise so the pivoted QR ranks *directions*, not
        # input magnitudes (a microamp load deserves the same chance as
        # a rail).
        cols = (np.arange(blocks)[:, None] * p + np.arange(c0, c1)).ravel()
        norms[cols] = np.linalg.norm(step, axis=0)
        dead = norms[cols] == 0.0  # repro: allow[RPL005] exactly-zero columns only; near-zero must keep their scale
        norms[cols[dead]] = 1.0
        n_dead += int(dead.sum())
        step /= norms[cols]
        Y[:, cols] = omega @ step
    del step, Bs

    try:
        R, perm = sla.qr(Y, mode="r", pivoting=True, overwrite_a=True)
    except Exception as exc:
        raise RomBuildError(f"pivoted QR of the sketch failed: {exc}") from exc
    del Y

    diag = np.abs(np.diag(R))
    lead = diag[0] if diag.size else 0.0
    if lead == 0.0:  # repro: allow[RPL005] exact zero leading pivot: all columns numerically zero
        raise RomBuildError(
            "all candidate columns are numerically zero: the inputs do "
            "not excite the system"
        )
    rank = int(np.sum(diag > deflation_tol * lead))
    ranked = min(diag.size, n_candidates - n_dead)
    keep = min(q_max, rank)
    kept = _kept_columns(perm[:keep], W, B, C, lu_s)
    kept /= norms[perm[:keep]]
    Q, _ = sla.qr(kept, mode="economic", overwrite_a=True)
    return np.ascontiguousarray(Q), BasisInfo(
        n_candidates=n_candidates,
        n_deflated=ranked - rank,
        rank=keep,
        truncated=rank > q_max,
    ), W, lu_g
