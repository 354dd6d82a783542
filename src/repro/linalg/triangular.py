"""Level-scheduled deterministic triangular substitution kernels.

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

* :class:`TriangularFactors` exports SuperLU's factors once per
  :class:`~repro.linalg.lu.SparseLU` — ``L`` (unit lower), the
  column-scaled strictly-upper part of ``U``, both row/column
  permutations and the diagonal scaling — after *verifying* that the
  export reproduces the factorisation (equilibrated factorisations fall
  back to SuperLU's own solve instead of being silently wrong).
* The **scalar** path substitutes through SuperLU's non-supernodal
  column-sweep kernel (the one :func:`scipy.sparse.linalg.
  spsolve_triangular` uses) on the exported factors: ascending-column
  sweeps for ``L``, descending for ``U``, one axpy per stored entry.
* The **multi-RHS** path builds a *level schedule* over each factor —
  topological levels of the triangular dependency DAG, rows relabelled
  into level order — and substitutes all columns in lockstep: each level
  is one CSR block-matvec (``Y += A @ X``) over the previous levels'
  rows.  Per output row, contributions accumulate in exactly the order
  the scalar column sweep applies them (ascending original columns for
  ``L``, descending for ``U``), and that order never depends on how many
  columns ride in the block.  ``solve_many(B)[:, i]`` is therefore
  bit-for-bit ``solve(B[:, i])`` **by construction**, while the level
  kernel runs the batch at C speed (~3x faster than the column loop at
  march widths).

There is no switch between kernels: a factor whose export fails
verification is served by SuperLU's own solve automatically
(:class:`TriangularHolder` records why), and nothing else selects it.
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
    "TriangularHolder",
]


class TriangularExportError(RuntimeError):
    """The exported factors do not reproduce SuperLU's factorisation.

    Raised (and swallowed by :class:`TriangularHolder`, which then
    serves SuperLU's own solve) when the export verification probe fails —
    e.g. a SuperLU build that equilibrated the matrix with scalings the
    handle does not expose.
    """


def _topological_levels(dep_csr: sp.csr_matrix) -> np.ndarray:
    """Longest-path level of every node of a triangular dependency DAG.

    ``dep_csr`` row ``i`` lists the nodes row ``i`` depends on (the
    strictly-triangular entries of one factor).  Vectorised frontier
    peeling: nodes whose remaining in-degree is zero form level ``k``;
    removing their outgoing edges exposes level ``k + 1``.  O(nnz) plus
    one ``O(n)`` scan per level.
    """
    n = dep_csr.shape[0]
    indeg = np.diff(dep_csr.indptr).astype(np.int64)
    dep_csc = dep_csr.tocsc()
    cp, ci = dep_csc.indptr, dep_csc.indices
    level = np.zeros(n, dtype=np.int64)
    frontier = np.flatnonzero(indeg == 0)
    lvl = 0
    while frontier.size:
        level[frontier] = lvl
        lens = cp[frontier + 1] - cp[frontier]
        total = int(lens.sum())
        if total == 0:
            break
        keep = lens > 0
        starts = cp[frontier[keep]]
        lens = lens[keep]
        offsets = np.repeat(
            starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens
        )
        dependents = ci[offsets + np.arange(total)]
        dec = np.bincount(dependents, minlength=n)
        indeg -= dec
        frontier = np.flatnonzero((dec > 0) & (indeg == 0))
        lvl += 1
    return level


def _reverse_rows(csr: sp.csr_matrix) -> sp.csr_matrix:
    """Same CSR matrix with every row's entries mirrored in place.

    The U sweep applies contributions in *descending* column order;
    storing each row reversed lets the level kernel walk storage order.
    """
    indptr = csr.indptr
    lens = np.diff(indptr)
    pos = np.arange(csr.nnz)
    mirror = 2 * np.repeat(indptr[:-1], lens) + np.repeat(lens, lens) - 1 - pos
    return sp.csr_matrix(
        (csr.data[mirror], csr.indices[mirror], indptr.copy()),
        shape=csr.shape,
    )


def _level_blocks(tri_csr, level, n):
    """Relabelled per-level CSR blocks of one strictly-triangular factor.

    Returns ``(perm, pos, blocks)``: ``perm`` maps level order → factor
    order, ``pos`` is its inverse, and each block is
    ``(r0, r1, indptr, indices, neg_data)`` — the level's rows as a
    local CSR whose (relabelled) column indices all point *before*
    ``r0``, so an in-place ``Y += A @ X`` over the shared work array is
    race-free.  Data is negated once here so the kernel's ``y += a·x``
    is bit-for-bit the scalar sweep's ``y -= a·x``.  Row storage order
    is preserved (it encodes the sweep's accumulation order).
    """
    perm = np.argsort(level, kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[perm] = np.arange(n)
    counts = np.bincount(level, minlength=int(level.max()) + 1 if n else 1)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    permuted = tri_csr[perm]
    remapped = pos[permuted.indices]
    blocks = []
    for k in range(len(counts)):
        r0, r1 = int(bounds[k]), int(bounds[k + 1])
        j0, j1 = int(permuted.indptr[r0]), int(permuted.indptr[r1])
        if j0 == j1:
            continue  # no stored entries: the block-matvec is a no-op
        blocks.append((
            r0,
            r1,
            (permuted.indptr[r0:r1 + 1] - permuted.indptr[r0]).astype(np.intc),
            remapped[j0:j1].astype(np.intc),
            -permuted.data[j0:j1],
        ))
    return perm, pos, blocks


class TriangularFactors:
    """SuperLU's factors, exported once, with a level-scheduled kernel.

    Stage 1 (construction) exports the scalar-path arrays and verifies
    them against one reference SuperLU solve; stage 2
    (:meth:`ensure_schedule`, lazy — only multi-RHS consumers pay it)
    builds the level schedules.  Both stages are built at most once and
    shared by every cache view of the owning factorisation.
    """

    def __init__(self, superlu, matrix: sp.csc_matrix):
        if not _KERNELS_AVAILABLE:
            raise TriangularExportError("scipy substitution kernels unavailable")
        if matrix.dtype != np.float64:
            raise TriangularExportError(f"unsupported dtype {matrix.dtype}")
        n = superlu.shape[0]
        self.n = n
        L = superlu.L.tocsc()
        L.sort_indices()
        U = superlu.U.tocsc()
        U.sort_indices()
        invd = 1.0 / U.diagonal()
        # Column-scale U to unit diagonal: U = (I + Uoff·D⁻¹)·D, so the
        # backward sweep runs on the strictly-upper scaled part (the
        # explicit zero diagonal keeps the sweep's skip-the-pivot entry
        # bookkeeping intact) and the solution is post-scaled by D⁻¹.
        Us = (U @ sp.diags_array(invd)).tocsc()
        Us.setdiag(0)
        Us.sort_indices()
        self._L_csc = L
        self._Us_csc = Us
        self._L_nnz = int(L.nnz)
        self._L_data = L.data
        self._L_indices = L.indices.astype(np.intc)
        self._L_indptr = L.indptr.astype(np.intc)
        self._U_nnz = int(Us.nnz)
        self._U_data = Us.data
        self._U_indices = Us.indices.astype(np.intc)
        self._U_indptr = Us.indptr.astype(np.intc)
        take_in = np.empty(n, dtype=np.intp)
        take_in[superlu.perm_r] = np.arange(n)
        self._take_in = take_in          # w = b[perm_r⁻¹]
        self._take_out = np.asarray(superlu.perm_c, dtype=np.intp)
        self._invd_out = invd[self._take_out].copy()
        self._schedule = None
        self._lock = threading.Lock()
        self._verify(superlu, matrix)

    # -- verification --------------------------------------------------------

    def _verify(self, superlu, matrix: sp.csc_matrix) -> None:
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

    # -- scalar path ---------------------------------------------------------

    def solve(self, b: np.ndarray) -> np.ndarray:
        """One substitution pair through the column-sweep kernel.

        This is the arithmetic definition of a pair: the level kernel
        reproduces it bit-for-bit per column.
        """
        w = np.ascontiguousarray(b[self._take_in], dtype=np.float64)
        x, info = _superlu.gstrs(
            "N",
            self.n, self._L_nnz, self._L_data, self._L_indices, self._L_indptr,
            self.n, self._U_nnz, self._U_data, self._U_indices, self._U_indptr,
            w,
        )
        if info != 0:  # pragma: no cover - factors are nonsingular
            raise TriangularExportError(f"gstrs failed with info={info}")
        # Divergent consumers (e.g. forward Euler past its stability
        # limit) legitimately push inf through here; SuperLU's C solve
        # is silent about it, so the kernel is too.
        with np.errstate(over="ignore", invalid="ignore"):
            return x[self._take_out] * self._invd_out

    # -- level-scheduled multi-RHS path --------------------------------------

    def ensure_schedule(self) -> None:
        """Build the level schedules (idempotent, thread-safe, lazy)."""
        if self._schedule is not None:
            return
        with self._lock:
            if self._schedule is not None:
                return
            n = self.n
            lower = sp.tril(self._L_csc, k=-1).tocsr()
            lower.sort_indices()  # ascending columns = the L sweep order
            level_l = _topological_levels(lower)
            p, posp, l_blocks = _level_blocks(lower, level_l, n)
            upper = sp.triu(self._Us_csc, k=1).tocsr()
            upper.sort_indices()
            level_u = _topological_levels(upper)
            q, posq, u_blocks = _level_blocks(
                _reverse_rows(upper), level_u, n
            )
            self._schedule = {
                "l_blocks": l_blocks,
                "u_blocks": u_blocks,
                "take_in_p": self._take_in[p],
                "m_lu": posp[q],                 # L ordering → U ordering
                "take_out_q": posq[self._take_out],
                "n_levels": (
                    int(level_l.max()) + 1,
                    int(level_u.max()) + 1,
                ),
            }
            # The CSC factors only feed the schedule build; drop them so
            # long-lived cache entries hold one copy of each array.
            self._L_csc = None
            self._Us_csc = None

    @property
    def has_schedule(self) -> bool:
        return self._schedule is not None

    @property
    def n_levels(self) -> tuple[int, int] | None:
        """``(L, U)`` level counts once the schedule exists."""
        return self._schedule["n_levels"] if self._schedule else None

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """All columns in lockstep; per column bit-for-bit :meth:`solve`.

        Returns an F-ordered ``(n, k)`` block.  Requires
        :meth:`ensure_schedule`.
        """
        self.ensure_schedule()
        sched = self._schedule
        n, w = B.shape
        W = np.ascontiguousarray(B[sched["take_in_p"]], dtype=np.float64)
        flat = W.reshape(-1)
        for r0, r1, indptr, indices, data in sched["l_blocks"]:
            _sparsetools.csr_matvecs(
                r1 - r0, n, w, indptr, indices, data,
                flat, flat[r0 * w:r1 * w],
            )
        Z = np.ascontiguousarray(W[sched["m_lu"]])
        flat = Z.reshape(-1)
        for r0, r1, indptr, indices, data in sched["u_blocks"]:
            _sparsetools.csr_matvecs(
                r1 - r0, n, w, indptr, indices, data,
                flat, flat[r0 * w:r1 * w],
            )
        out = np.empty((n, w), order="F")
        out[...] = Z[sched["take_out_q"]]
        with np.errstate(over="ignore", invalid="ignore"):
            out *= self._invd_out[:, None]
        return out

    # -- accounting ----------------------------------------------------------

    def nbytes(self) -> int:
        """Actual bytes held by the export and (if built) the schedules."""
        arrays = [
            self._L_data, self._L_indices, self._L_indptr,
            self._U_data, self._U_indices, self._U_indptr,
            self._take_in, self._take_out, self._invd_out,
        ]
        for csc in (self._L_csc, self._Us_csc):
            if csc is not None:
                arrays.extend((csc.data, csc.indices, csc.indptr))
        sched = self._schedule
        if sched is not None:
            arrays.extend(
                (sched["take_in_p"], sched["m_lu"], sched["take_out_q"])
            )
            for blocks in (sched["l_blocks"], sched["u_blocks"]):
                for _, _, indptr, indices, data in blocks:
                    arrays.extend((indptr, indices, data))
        return int(sum(a.nbytes for a in arrays))


class TriangularHolder:
    """Lazily-exported :class:`TriangularFactors`, shared across views.

    One holder per factorisation, shared by every
    :meth:`~repro.linalg.lu.SparseLU._shared_view` of a cache entry, so
    exports and level schedules are built at most once per factor no
    matter how many consumers the :data:`~repro.linalg.lu.
    FACTORIZATION_CACHE` hands out.  Any export failure is recorded and
    all consumers permanently fall back to SuperLU's own solve —
    wrong bits are never an option, slow bits are.
    """

    __slots__ = ("_factors", "_failure", "_lock")

    def __init__(self):
        self._factors: TriangularFactors | None = None
        self._failure: str | None = None
        self._lock = threading.Lock()

    @property
    def failure(self) -> str | None:
        """Why the export fell back to SuperLU's own solve, if it did."""
        return self._failure

    def get(self, superlu, matrix, schedule: bool = False):
        """The shared export, building (stages of) it on first demand.

        Returns ``None`` when the kernel cannot serve this factor —
        the caller must use SuperLU's own solve.
        """
        if self._failure is not None:
            return None
        tri = self._factors
        if tri is None:
            with self._lock:
                if self._factors is None and self._failure is None:
                    try:
                        self._factors = TriangularFactors(superlu, matrix)
                    except Exception as exc:
                        self._failure = f"{type(exc).__name__}: {exc}"
                tri = self._factors
            if tri is None:
                return None
        if schedule and not tri.has_schedule:
            try:
                tri.ensure_schedule()
            except Exception as exc:  # pragma: no cover - defensive
                with self._lock:
                    self._failure = f"{type(exc).__name__}: {exc}"
                    self._factors = None
                return None
        return tri

    def nbytes(self) -> int:
        """Bytes pinned by the export (0 until one is built)."""
        tri = self._factors
        return tri.nbytes() if tri is not None else 0
