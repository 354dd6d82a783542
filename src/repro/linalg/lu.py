"""Sparse LU factorisation wrapper with operation accounting.

The paper's entire complexity argument (Sec. 3.4) is phrased in terms of
*pairs of forward and backward substitutions* against a matrix factored
**once** at the start of the simulation.  This wrapper makes that currency
explicit: every :meth:`SparseLU.solve` increments a counter, and the
factorisation wall-time is recorded separately so experiments can report
"transient part excluding LU" exactly like the paper's Table 3.

The paper uses UMFPACK; SciPy's ``splu`` (SuperLU) plays the same role
here — factor once, reuse many times (documented substitution, DESIGN.md).
:class:`SparseLU` is the only ``splu`` call site (lint rule RPL006) and
so the owner of the one decision that sets what a pair costs, the
fill-reducing column ordering: minimum degree on ``A + Aᵀ``, which on
the pattern-symmetric MNA pencils (``G``, ``C + γG``, ``C``) leaves
about half the fill of SuperLU's default ``COLAMD`` (an ordering of
``AᵀA``, built for unsymmetric matrices).  Pivoting is unchanged, so an
unsymmetric matrix still factors correctly.

On top of the wrapper sits the process-wide :data:`FACTORIZATION_CACHE`:
the paper's amortisation claim (one ``C + γG`` factorisation serves an
entire adaptive run, and — Sec. 3.4 — *every* node task of a distributed
run, since all sub-tasks share the same MNA pencil) made explicit.  The
cache is keyed by a content fingerprint of the matrix plus an optional
extra key (the rational shift γ), and a **hit costs no factorisation
time**: consumers receive a fresh handle that shares the factors but
counts its own substitutions, so solver statistics stay per-consumer.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections import OrderedDict
from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.linalg.triangular import TriangularFactors

__all__ = [
    "SparseLU",
    "FactorizationError",
    "FactorizationCache",
    "FACTORIZATION_CACHE",
    "DEFAULT_CACHE_MAX_ENTRIES",
    "DEFAULT_CACHE_MAX_BYTES",
    "canonical_shift",
    "matrix_fingerprint",
]


class FactorizationError(RuntimeError):
    """Raised when LU factorisation fails (structurally singular matrix)."""


@dataclass
class SparseLU:
    """LU factorisation of a sparse matrix with solve counting.

    The factor is kept in one form only.  SuperLU factors the matrix,
    its L and U become the in-place sweep matrices of
    :class:`~repro.linalg.triangular.TriangularFactors`, verified
    against one SuperLU solve, and then SuperLU's object — its own copy
    of L+U — and the factored matrix are dropped: every pair runs on
    the sweeps.  Only a factor whose export fails verification keeps
    SuperLU's object, whose own solve then serves it.

    Parameters
    ----------
    matrix:
        Square sparse matrix to factor (converted to CSC; not kept).
    label:
        Human-readable tag used in error messages and stats, e.g. ``"G"``
        or ``"C+gamma*G"``.

    Attributes
    ----------
    shape:
        Shape of the factored matrix.
    factor_seconds:
        Wall-clock time spent factoring and building the sweep kernel.
    n_solves:
        Number of forward/backward substitution pairs performed so far.
    """

    matrix: InitVar[sp.spmatrix]
    label: str = "A"
    shape: tuple[int, int] = field(init=False, default=(0, 0))
    factor_seconds: float = field(init=False, default=0.0)
    n_solves: int = field(init=False, default=0)
    _kernel: TriangularFactors | None = field(init=False, repr=False, default=None)
    _superlu: spla.SuperLU | None = field(init=False, repr=False, default=None)
    _export_failure: str | None = field(init=False, repr=False, default=None)

    def __post_init__(self, matrix):
        m = sp.csc_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{self.label}: matrix must be square, got {m.shape}")
        t0 = time.perf_counter()
        try:
            superlu = spla.splu(m, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise FactorizationError(
                f"LU factorisation of {self.label} failed: {exc}"
            ) from exc
        try:
            self._kernel = TriangularFactors(superlu)
        except Exception as exc:
            self._superlu = superlu
            self._export_failure = f"{type(exc).__name__}: {exc}"
        self.factor_seconds = time.perf_counter() - t0
        self.shape = m.shape

    @property
    def failure(self) -> str | None:
        """Why a kernel check does not pass for this factor, if one does not.

        An export failure means SuperLU's own solve answers every pair;
        a sweep failure means :meth:`solve_many` substitutes its columns
        one by one through the one-column sweep.
        """
        if self._kernel is None:
            return self._export_failure
        return self._kernel.sweep_failure

    def solve(self, rhs: np.ndarray, ordered: bool = False) -> np.ndarray:
        """One forward/backward substitution pair: return ``A⁻¹ rhs``.

        Substitutes through the one-column in-place sweep
        (:mod:`repro.linalg.triangular`), which the multi-RHS block
        sweep matches bit-for-bit per column — or, when the export could
        not be verified, through SuperLU's own solve.
        A 2-D right-hand side is routed through :meth:`solve_many` (one
        counted pair per column).  ``ordered``: see :meth:`solve_many`.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim != 1:
            return self.solve_many(rhs, ordered)
        self.n_solves += 1
        kernel = self._kernel
        if kernel is None:
            return self._superlu.solve(rhs)
        return kernel.sweep(rhs if ordered else rhs[kernel.input_order])

    def solve_many(self, rhs: np.ndarray, ordered: bool = False) -> np.ndarray:
        """Solve against a dense block of right-hand sides (columns).

        Counts one substitution pair per column, matching the paper's
        accounting (each column is an independent pair).

        Output contract (pinned by ``tests/test_lu.py``): a 2-D input of
        ``k`` columns — including ``k = 0`` — returns an **F-ordered**
        float64 ``(n, k)`` block; a 1-D input returns a 1-D float64
        vector bit-identical to :meth:`solve`.

        All columns are substituted in lockstep by the in-place block
        sweep of :class:`repro.linalg.triangular.TriangularFactors`:
        each triangular factor is one row-ordered CSR block-matvec with
        its output aliased onto its input, whose per-row accumulation
        order is exactly the scalar column sweep's (ascending original
        columns for ``L``, descending for ``U``).  Each output column
        is therefore **bit-for-bit identical** to :meth:`solve` of that
        column *by construction* (and by a byte-equality probe when the
        factor is built) — at any batch width and any offset within
        the batch — which is the invariant the lockstep block march
        (and the scenario sweeps stacked on top of it) is built on,
        while the batch runs several times faster than substituting
        column by column.  Handing SuperLU the
        whole block instead would not be per-column deterministic: its
        supernodal BLAS kernels change accumulation order with the RHS
        count (bit-stable on pg1t's ``G``, divergent at nrhs = 8 on
        pg4t's pencil).

        A one-column block, and every block of a factor whose sweep
        check failed, goes column by column through :meth:`solve`'s
        path, which keeps the invariant.

        ``ordered=True`` says the rows of ``rhs`` are already in
        :attr:`input_order` (a 2-D ``rhs`` then C-ordered float64); the
        sweeps then skip the gather and overwrite ``rhs``.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 1:
            return self.solve(rhs, ordered)
        n, n_cols = rhs.shape
        self.n_solves += n_cols
        kernel = self._kernel
        if kernel is not None and not ordered:
            rhs = np.ascontiguousarray(rhs[kernel.input_order])
        if kernel is not None and n_cols > 1 and kernel.sweep_failure is None:
            return kernel.sweep_many(rhs)
        pair = self._superlu.solve if kernel is None else kernel.sweep
        out = np.empty((n, n_cols), dtype=float, order="F")
        for i in range(n_cols):
            out[:, i] = pair(np.ascontiguousarray(rhs[:, i]))
        return out

    @property
    def input_order(self) -> np.ndarray | None:
        """Row order the sweeps read a right-hand side in (``None``: as
        given, for SuperLU's own solve).  A caller that forms its
        right-hand sides as a product can relabel the rows of the
        product's matrix once and pass ``ordered=True``."""
        return None if self._kernel is None else self._kernel.input_order

    def prime_kernel(self, wide: bool = True) -> bool:
        """Whether the sweep kernel serves this factor.

        ``wide=True`` asks about blocks (the block sweep's check too),
        ``wide=False`` about single columns.  Both are settled when the
        factor is built; ``False`` names a failed check (see
        :attr:`failure`).
        """
        kernel = self._kernel
        return kernel is not None and (not wide or kernel.sweep_failure is None)

    def resident_bytes(self) -> int:
        """Bytes pinned by this factorisation right now.

        The kernel's actual arrays — both sweep matrices and the
        permutations — the quantity :class:`FactorizationCache`
        budgets with.  A factor SuperLU's own solve serves is estimated
        at 12 bytes (8 data + 4 index) per stored L+U non-zero.
        """
        if self._kernel is not None:
            return self._kernel.nbytes()
        return 12 * int(self._superlu.nnz)

    @classmethod
    def _shared_view(cls, origin: "SparseLU", label: str) -> "SparseLU":
        """A handle sharing ``origin``'s factors with fresh counters.

        Used by :class:`FactorizationCache` on a hit: the substitution
        counters belong to the new consumer, and ``factor_seconds`` is
        zero because the hit paid no factorisation — which is exactly the
        amortisation the cache exists to demonstrate.  The kernel is
        shared too: sweep matrices are built once per factorisation,
        never per view.
        """
        view = object.__new__(cls)
        view.label = label
        view.shape = origin.shape
        view.factor_seconds = 0.0
        view.n_solves = 0
        view._kernel = origin._kernel
        view._superlu = origin._superlu
        view._export_failure = origin._export_failure
        return view


def canonical_shift(gamma: float, sig_digits: int = 12) -> float:
    """Quantize a rational shift γ to its canonical representative.

    γ values that are mathematically equal but derived through different
    arithmetic orders (``h/2`` vs ``(t1-t0)/2`` vs a running sum) can
    differ by an ulp.  Used raw, such values build pencils ``C + γG``
    that differ in the last bit — a silent :data:`FACTORIZATION_CACHE`
    miss that refactors a matrix the cache already holds.  Rounding to
    ``sig_digits`` significant decimal digits (default 12, ~40 bits —
    far below solver accuracy requirements on γ, far above float noise)
    collapses those representations onto one key **and one pencil**, so
    consumers that canonicalise γ before building the shifted matrix
    hit the cache and agree bit-for-bit.

    Values already expressible in ``sig_digits`` digits (every literal
    like ``1e-10`` or ``5e-11``) round-trip unchanged.
    """
    g = float(gamma)
    if g == 0.0 or not math.isfinite(g):  # repro: allow[RPL005] exact zero passes through rounding unchanged
        return g
    return float(f"{g:.{sig_digits - 1}e}")


def matrix_fingerprint(matrix: sp.spmatrix) -> str:
    """Content digest of a sparse matrix (shape + structure + values).

    Two matrices collide only if they are numerically identical in CSC
    form, so a fingerprint match means the cached factors solve the new
    system bit-for-bit.  Hashing is O(nnz) — orders of magnitude cheaper
    than the factorisation it may save.
    """
    m = sp.csc_matrix(matrix)
    h = hashlib.sha256()
    h.update(np.asarray(m.shape, dtype=np.int64).tobytes())
    h.update(m.indptr.tobytes())
    h.update(m.indices.tobytes())
    h.update(np.ascontiguousarray(m.data, dtype=float).tobytes())
    return h.hexdigest()


#: Residency limits of the process-wide cache.
DEFAULT_CACHE_MAX_ENTRIES = 32
DEFAULT_CACHE_MAX_BYTES = 256 << 20


class FactorizationCache:
    """Process-wide LRU cache of :class:`SparseLU` factorisations.

    Keyed by :func:`matrix_fingerprint` plus an optional ``key_extra``
    (e.g. the rational shift γ, so R-MATEX pencils built for different
    shifts never alias even if their entries happened to coincide).

    Every :meth:`factor` call returns a handle with **its own** solve
    counters: the first consumer gets the original (carrying the real
    ``factor_seconds``), later consumers get shared views that report
    zero factorisation time — the amortised cost of a hit.

    The cache is per-process.  Worker processes of the distributed
    :class:`~repro.dist.executors.MultiprocessExecutor` each grow their
    own (their factors cannot be shipped through a pipe); the in-process
    :class:`~repro.dist.executors.SerialExecutor` shares one cache with
    the scheduler, which is where the Sec. 3.4 "same pencil, many tasks"
    reuse shows up as hits.

    Residency is bounded two ways: at most ``max_entries`` factors, and
    at most ``max_bytes`` of factor storage (the sweep matrices of
    :mod:`repro.linalg.triangular`, measured exactly).  Sweeps over
    many large pencils therefore evict old factors instead of pinning
    multi-GB of LU data for the life of the process; call :meth:`clear`
    to release everything eagerly.

    The process-wide :data:`FACTORIZATION_CACHE` holds the fixed limits
    :data:`DEFAULT_CACHE_MAX_ENTRIES` / :data:`DEFAULT_CACHE_MAX_BYTES`;
    a private cache (tests) takes its own through the constructor.
    The ``evictions`` counter — surfaced by ``repro info`` and
    :class:`~repro.dist.messages.DistributedResult` — tells when a sweep
    over many pencils is silently thrashing the residency limits.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_CACHE_MAX_ENTRIES,
        max_bytes: int = DEFAULT_CACHE_MAX_BYTES,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, SparseLU] = OrderedDict()
        self._bytes: dict[tuple, int] = {}
        self._external: dict[str, int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _entry_bytes(lu: "SparseLU") -> int:
        """Resident bytes of one entry (:meth:`SparseLU.resident_bytes`)."""
        return lu.resident_bytes()

    def factor(
        self,
        matrix: sp.spmatrix,
        label: str = "A",
        key_extra: object = None,
    ) -> SparseLU:
        """Return an LU of ``matrix``, reusing cached factors when possible.

        Parameters
        ----------
        matrix:
            Square sparse matrix; fingerprinted by content.
        label:
            Label for the returned handle (hits keep their own label so
            error messages stay truthful about the consumer).
        key_extra:
            Extra hashable key component, e.g. the γ of a shifted pencil.
        """
        key = (matrix_fingerprint(matrix), key_extra)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return SparseLU._shared_view(cached, label)
            self.misses += 1
        # Factor outside the lock: a rare duplicate factorisation beats
        # serialising every factorisation in the process behind one lock.
        lu = SparseLU(matrix, label=label)
        with self._lock:
            self._entries[key] = lu
            self._bytes[key] = self._entry_bytes(lu)
            self._evict_to_limits_locked()
        return lu

    def _evict_to_limits_locked(self) -> None:
        """Evict LRU entries until both residency bounds hold.

        A single pencil larger than the whole byte budget ends up
        passing through uncached (it is evicted too) rather than
        pinning arbitrary memory for the life of the process.  Caller
        holds ``self._lock``.
        """
        while self._entries and (
            len(self._entries) > self.max_entries
            or sum(self._bytes.values()) > self.max_bytes
        ):
            evicted, _ = self._entries.popitem(last=False)
            self._bytes.pop(evicted, None)
            self.evictions += 1

    def register_external(self, key: str, nbytes: int) -> None:
        """Account dense derived operators against the cache's books.

        Consumers that bake large dense operators *out of* cached
        factors — e.g. a :class:`repro.rom.ReducedModel` inside a
        compiled plan — register their footprint here so ``repro info``
        and :meth:`stats` report the true pinned memory.  External
        bytes are observability only: they are owned by their objects
        (a plan keeps its model alive regardless of LRU pressure), so
        they never trigger or suffer evictions.  Re-registering a key
        overwrites its size; ``nbytes <= 0`` unregisters.
        """
        with self._lock:
            if nbytes > 0:
                self._external[str(key)] = int(nbytes)
            else:
                self._external.pop(str(key), None)

    def unregister_external(self, key: str) -> None:
        """Drop one external registration (idempotent)."""
        with self._lock:
            self._external.pop(str(key), None)

    def stats(self) -> dict[str, int]:
        """One consistent snapshot of counters, residency and limits."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "resident_bytes": sum(self._bytes.values()),
                "external_bytes": sum(self._external.values()),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
            }

    def counters(self) -> tuple[int, int]:
        """Snapshot of ``(hits, misses)`` for delta-based attribution."""
        with self._lock:
            return self.hits, self.misses

    @property
    def resident_bytes(self) -> int:
        """Estimated bytes currently pinned by cached factors."""
        with self._lock:
            return sum(self._bytes.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all cached factors and zero the hit/miss/eviction counters."""
        with self._lock:
            self._entries.clear()
            self._bytes.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


#: The process-wide cache used by solvers, workers and the scheduler.
FACTORIZATION_CACHE = FactorizationCache()
