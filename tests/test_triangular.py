"""Tests for the level-scheduled deterministic substitution kernel.

The batched march, the scenario sweeps and the per-node/block parity web
all rest on one invariant: ``solve_many(B)[:, i]`` is bit-for-bit
``solve(B[:, i])`` at any batch width, at any offset, under any column
permutation.  This module pins that invariant directly against the
kernel (property-based over random batch shapes), exercises the
automatic SuperLU path of a factor whose export fails verification, and
checks that the factor cache's byte accounting sees the exported factors
and schedules.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import SparseLU
from repro.linalg.triangular import (
    TriangularExportError,
    TriangularFactors,
    TriangularHolder,
)


def build_pencil(n: int = 60, seed: int = 7) -> sp.csc_matrix:
    """A sparse nonsymmetric pencil with nontrivial fill and pivoting."""
    rng = np.random.default_rng(seed)
    diags = sp.diags_array(1.0 + rng.uniform(0.5, 2.0, size=n))
    offdiag = sp.random_array(
        (n, n), density=0.08, rng=rng, data_sampler=rng.standard_normal
    )
    return sp.csc_matrix(diags + 0.3 * offdiag)


@pytest.fixture(scope="module")
def pencil():
    return build_pencil()


@pytest.fixture(scope="module")
def pencil_lu(pencil):
    return SparseLU(pencil, label="tri-test")


class TestExport:
    def test_export_verifies_on_suite_pencil(self, pencil_lu):
        tri = pencil_lu._tri.get(pencil_lu._lu, pencil_lu.matrix)
        assert tri is not None
        assert pencil_lu._tri.failure is None

    def test_schedule_levels_cover_all_rows(self, pencil_lu):
        tri = pencil_lu._tri.get(
            pencil_lu._lu, pencil_lu.matrix, schedule=True
        )
        assert tri.has_schedule
        n_l, n_u = tri.n_levels
        assert 1 <= n_l <= tri.n
        assert 1 <= n_u <= tri.n

    def test_scalar_path_solves_the_system(self, pencil, pencil_lu):
        tri = pencil_lu._tri.get(pencil_lu._lu, pencil_lu.matrix)
        b = np.cos(np.arange(pencil.shape[0], dtype=float))
        x = tri.solve(b)
        assert np.allclose(pencil @ x, b, rtol=1e-10, atol=1e-12)

    def test_holder_failure_falls_back_permanently(self, pencil):
        class _Broken:
            shape = pencil.shape

            def __getattr__(self, name):
                raise RuntimeError("no factors here")

        holder = TriangularHolder()
        assert holder.get(_Broken(), pencil) is None
        assert holder.failure is not None
        # Permanent: a later call with a *good* factorisation still
        # declines — wrong-once means SuperLU-forever for this holder.
        good = SparseLU(pencil)
        assert holder.get(good._lu, good.matrix) is None
        assert holder.nbytes() == 0

    def test_non_float64_matrix_rejected(self, pencil):
        lu = SparseLU(pencil)
        complex_matrix = pencil.astype(np.complex128)
        with pytest.raises(TriangularExportError, match="dtype"):
            TriangularFactors(lu._lu, complex_matrix)

    def test_unverified_export_is_served_by_superlu(
        self, pencil, rng, monkeypatch
    ):
        """The one path to SuperLU's own solve: a failed verification.

        Every answer is then ``lu._lu.solve`` of that column, nothing is
        exported, and the holder says why.
        """
        def refuse(self, superlu, matrix):
            raise TriangularExportError("probe mismatch (injected)")

        monkeypatch.setattr(TriangularFactors, "_verify", refuse)
        lu = SparseLU(pencil)
        block = rng.normal(size=(pencil.shape[0], 6))
        ref = np.empty_like(block, order="F")
        for i in range(6):
            ref[:, i] = lu._lu.solve(block[:, i].copy())
        assert lu.solve(block[:, 0]).tobytes() == ref[:, 0].tobytes()
        out = lu.solve_many(block)
        assert out.flags.f_contiguous
        assert out.tobytes(order="F") == ref.tobytes(order="F")
        assert lu.solve_many(block[:, :1]).tobytes() == ref[:, 0].tobytes()
        assert lu.prime_kernel() is False
        assert lu._tri.nbytes() == 0
        assert "probe mismatch (injected)" in lu._tri.failure
        assert lu.n_solves == 8


class TestPerColumnBitwiseParity:
    """The core invariant, property-based over batch geometry."""

    @given(
        width=st.integers(min_value=1, max_value=40),
        offset=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        permute=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_width_offset_permutation(
        self, pencil_lu, width, offset, seed, permute
    ):
        """solve_many[:, i] == solve(col i) bitwise, however batched.

        Columns are drawn at a random offset inside a wider block and
        optionally permuted: neither a column's neighbours, nor its
        position, nor the batch width may change a single bit.
        """
        rng = np.random.default_rng(seed)
        n = pencil_lu.shape[0]
        block = rng.normal(size=(n, offset + width))[:, offset:]
        if permute:
            block = block[:, rng.permutation(width)]
        ref = np.column_stack(
            [pencil_lu.solve(block[:, i]) for i in range(width)]
        )
        assert pencil_lu.solve_many(block).tobytes() == ref.tobytes()

    def test_nrhs8_regression_on_ill_scaled_pencil(self):
        """The divergence width that sank raw multi-RHS SuperLU.

        pg4t's pencil ``C + γG`` mixes ~1e-15 capacitances with ~1e10
        voltage-row entries; SuperLU's supernodal kernels switch BLAS
        shapes at nrhs = 8 and change accumulation order there.  The
        level kernel must hold per-column parity on the same kind of
        ill-scaled pencil at exactly that width.
        """
        from repro.pdn import build_case

        system, _ = build_case("pg4t")
        pencil = (system.C + 1e-10 * system.G).tocsc()
        lu = SparseLU(pencil, "pg4t-pencil")
        rng = np.random.default_rng(8)
        block = rng.normal(size=(system.dim, 8))
        ref = np.column_stack([lu.solve(block[:, i]) for i in range(8)])
        assert lu.solve_many(block).tobytes() == ref.tobytes()

    def test_overflow_columns_stay_silent_and_aligned(self, pencil_lu):
        """Divergent consumers push inf through; no warnings, same bits."""
        n = pencil_lu.shape[0]
        block = np.full((n, 3), 1e300)
        block[:, 1] = 1.0
        with np.errstate(over="raise", invalid="raise"):
            out = pencil_lu.solve_many(block)
            ref = pencil_lu.solve(block[:, 1])
        assert out[:, 1].tobytes() == ref.tobytes()


class TestCacheByteAccounting:
    """Exports and schedules must show up in the factor-cache budget."""

    def test_resident_bytes_grow_with_export_and_schedule(self, pencil):
        from repro.linalg.lu import FactorizationCache

        cache = FactorizationCache(max_entries=4, max_bytes=1 << 30)
        lu = cache.factor(pencil, label="tri-bytes")
        base = cache.resident_bytes
        assert base >= 12 * 2 * pencil.nnz  # matrix + at least its fill

        assert lu.prime_kernel(wide=False)
        exported = cache.resident_bytes
        assert exported > base

        assert lu.prime_kernel(wide=True)
        scheduled = cache.resident_bytes
        assert scheduled > exported

        stats = cache.stats()
        assert stats["resident_bytes"] == scheduled

    def test_shared_views_share_one_export(self, pencil):
        from repro.linalg.lu import FactorizationCache

        cache = FactorizationCache(max_entries=4, max_bytes=1 << 30)
        first = cache.factor(pencil, label="a")
        first.prime_kernel(wide=True)
        view = cache.factor(pencil, label="b")
        assert view._tri is first._tri
        # The view serves the already-built schedule, no rebuild.
        tri = view._tri.get(view._lu, view.matrix, schedule=True)
        assert tri is first._tri.get(first._lu, first.matrix)
