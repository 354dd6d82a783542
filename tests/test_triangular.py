"""Tests for the deterministic substitution kernel (one sweep per factor).

The batched march, the scenario sweeps and the per-node/block parity web
all rest on one invariant: ``solve_many(B)[:, i]`` is bit-for-bit
``solve(B[:, i])`` at any batch width, at any offset, under any column
permutation.  This module pins that invariant directly against the
kernel (property-based over random batch shapes, then on the factor
shapes and input forms a random pencil never produces), pins both call
shapes byte-for-byte to SuperLU's column sweep on the exported CSC
factors (``tests/triangular_oracle.py``), exercises the fallbacks of a
factor whose export (SuperLU's own solve) or sweep check (the
one-column sweep, column by column) fails, and checks that a verified
factor is held as one copy of its sweep matrices and that the factor
cache's byte accounting sees exactly those arrays.
"""

import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import SparseLU, triangular
from repro.linalg.triangular import TriangularExportError, TriangularFactors
from tests.triangular_oracle import ColumnSweepOracle


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
        assert pencil_lu._kernel is not None
        assert pencil_lu.failure is None
        assert pencil_lu.prime_kernel(wide=False)

    def test_verified_factor_is_held_as_its_kernel_alone(self, pencil):
        """Neither SuperLU's object (its own L+U) nor the factored
        matrix outlives a verified export: the kernel's arrays are the
        factor's whole footprint."""
        lu = SparseLU(pencil)
        assert lu._superlu is None
        assert not hasattr(lu, "matrix")
        assert lu.shape == pencil.shape
        assert lu.resident_bytes() == lu._kernel.nbytes() == _held_bytes(lu._kernel)

    def test_sweep_rows_only_read_earlier_rows(self, pencil, pencil_lu):
        """What makes one aliased pass a substitution: row ``i`` reads
        only rows ``< i``, in ascending order, and every strictly
        triangular entry of the factor is in exactly one row (counted
        on the oracle's CSC export of the same factorisation)."""
        tri = pencil_lu._kernel
        lower, upper, take_out = tri._sweeps
        n = tri.n
        oracle = ColumnSweepOracle(pencil)
        for (indptr, indices, data), nnz in (
            (lower, oracle._lower[0] - n),
            (upper, oracle._upper[0] - n),
        ):
            assert indptr[0] == 0 and indptr[-1] == nnz == data.size
            for i in range(n):
                cols = indices[indptr[i]:indptr[i + 1]]
                assert np.all(cols < i)
                assert np.all(np.diff(cols) > 0)
        assert sorted(take_out) == list(range(n))

    def test_scalar_path_solves_the_system(self, pencil, pencil_lu):
        tri = pencil_lu._kernel
        b = np.cos(np.arange(pencil.shape[0], dtype=float))
        x = tri.solve(b)
        assert np.allclose(pencil @ x, b, rtol=1e-10, atol=1e-12)

    def test_non_float64_matrix_rejected(self, pencil):
        lu = SparseLU(pencil.astype(np.complex128))
        assert lu._kernel is None and lu._superlu is not None
        assert "unsupported dtype complex128" in lu.failure

    def test_unverified_export_is_served_by_superlu(
        self, pencil, rng, monkeypatch
    ):
        """The one path to SuperLU's own solve: a failed verification.

        Every answer is then SuperLU's own solve of that column, no
        kernel is kept, and ``failure`` says why.
        """
        def refuse(self, superlu):
            raise TriangularExportError("probe mismatch (injected)")

        monkeypatch.setattr(TriangularFactors, "_verify", refuse)
        lu = SparseLU(pencil)
        block = rng.normal(size=(pencil.shape[0], 6))
        ref = np.empty_like(block, order="F")
        for i in range(6):
            ref[:, i] = lu._superlu.solve(block[:, i].copy())
        assert lu.solve(block[:, 0]).tobytes() == ref[:, 0].tobytes()
        out = lu.solve_many(block)
        assert out.flags.f_contiguous
        assert out.tobytes(order="F") == ref.tobytes(order="F")
        assert lu.solve_many(block[:, :1]).tobytes() == ref[:, 0].tobytes()
        assert lu.prime_kernel() is False
        assert lu._kernel is None
        assert lu.resident_bytes() == 12 * lu._superlu.nnz
        assert "probe mismatch (injected)" in lu.failure
        assert lu.n_solves == 8

    def test_failed_sweep_check_is_served_by_the_scalar_kernel(
        self, pencil, rng, monkeypatch
    ):
        """A block kernel that moves one bit is never used.

        The block sweep relies on a second SciPy-private kernel agreeing
        with the one-column one in traversal and rounding; if a build
        breaks that, the byte-equality probe at factorisation catches
        it, and every block is substituted column by column through the
        verified one-column sweep — so ``solve`` keeps its bits.
        """
        real = triangular._sparsetools

        def off_by_one_ulp(n_row, n_col, n_vecs, ap, aj, ax, x, y):
            real.csr_matvecs(n_row, n_col, n_vecs, ap, aj, ax, x, y)
            y[-1] = np.nextafter(y[-1], np.inf)

        monkeypatch.setattr(
            triangular,
            "_sparsetools",
            types.SimpleNamespace(
                csr_matvec=real.csr_matvec, csr_matvecs=off_by_one_ulp
            ),
        )
        lu = SparseLU(pencil)
        oracle = ColumnSweepOracle(pencil)
        block = rng.normal(size=(pencil.shape[0], 5))
        ref = np.empty_like(block, order="F")
        for i in range(5):
            ref[:, i] = oracle.solve(block[:, i])
        assert lu.prime_kernel(wide=False) is True  # the export is fine
        assert lu.prime_kernel() is False
        assert "block sweep check failed" in lu.failure
        assert lu.resident_bytes() == _held_bytes(lu._kernel)
        with pytest.raises(TriangularExportError, match="block sweep"):
            lu._kernel.solve_many(block)
        out = lu.solve_many(block)
        assert out.flags.f_contiguous
        assert out.tobytes(order="F") == ref.tobytes(order="F")
        assert lu.solve(block[:, 0]).tobytes() == ref[:, 0].tobytes()

    def test_refused_sweep_check_keeps_the_one_column_sweep(
        self, pencil, monkeypatch
    ):
        """The column-by-column fallback is reachable by making
        ``_verify_sweep`` refuse (``_verify``: see above)."""
        def refuse(self):
            raise TriangularExportError("refused (injected)")

        monkeypatch.setattr(TriangularFactors, "_verify_sweep", refuse)
        lu = SparseLU(pencil)
        assert lu.prime_kernel(wide=False) and not lu.prime_kernel()
        assert "refused (injected)" in lu.failure


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
        block sweep must hold per-column parity on the same kind of
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


ORACLE_PENCILS = (
    "pg1t-G", "pg1t-C+gG", "pg4t-G", "pg4t-C+gG", "pencil60", "rlc-C+gG",
)


def _suite_pencil(name: str) -> sp.csc_matrix:
    """``G`` or ``C + γG`` of pg1t or pg4t, the 60×60 test pencil, or an
    RLC grid's pencil (package inductors add branch rows)."""
    from repro.circuit import assemble
    from repro.pdn import (
        PdnConfig, WorkloadSpec, attach_pulse_loads, build_case,
        generate_power_grid,
    )

    if name == "pencil60":
        return build_pencil()
    if name.startswith("rlc"):
        net = generate_power_grid(PdnConfig(
            rows=8, cols=8, n_pads=2, l_package=2e-10, seed=9,
        ))
        attach_pulse_loads(net, WorkloadSpec(
            n_sources=12, n_shapes=4, t_end=2e-9, time_grid_points=12, seed=9,
        ))
        system = assemble(net)
        return system.C + 1e-12 * system.G
    system, _ = build_case(name.split("-")[0])
    return system.G if name.endswith("-G") else system.C + 1e-10 * system.G


class TestBitOracle:
    """Both call shapes are byte-equal to SuperLU's column sweep.

    The oracle is the arithmetic the sweep matrices replaced: ``gstrs``
    on the CSC export of the same factorisation.  64 right-hand sides
    spanning 16 decades go through ``solve`` one by one and through
    ``solve_many`` in blocks of 1, 2, 7 and 64 columns.
    """

    @pytest.mark.parametrize("name", ORACLE_PENCILS)
    def test_every_column_matches_the_column_sweep(self, name):
        matrix = _suite_pencil(name)
        lu = SparseLU(matrix, label=name)
        assert lu.failure is None
        oracle = ColumnSweepOracle(matrix)
        n = matrix.shape[0]
        rng = np.random.default_rng(36)
        block = rng.standard_normal((n, 64)) * np.logspace(-8, 8, 64)
        ref = [oracle.solve(block[:, i]).tobytes() for i in range(64)]
        for i in range(64):
            assert lu.solve(block[:, i]).tobytes() == ref[i], i
        for width in (1, 2, 7, 64):
            for lo in range(0, 64, width):
                out = lu.solve_many(block[:, lo:lo + width])
                for j in range(out.shape[1]):
                    assert out[:, j].tobytes() == ref[lo + j], (width, lo + j)


def _ladder(n: int) -> sp.csc_matrix:
    """Tridiagonal RC-ladder pencil: every row depends on the previous."""
    return sp.diags_array(
        [-np.ones(n - 1), np.linspace(2.5, 3.5, n), -np.ones(n - 1)],
        offsets=[-1, 0, 1],
    ).tocsc()


def _pivoting(n: int = 40) -> sp.csc_matrix:
    """Tiny diagonal under a dominant cyclic shift: SuperLU must pivot."""
    shift = sp.csc_matrix(
        (np.linspace(2.0, 3.0, n), (np.arange(n), (np.arange(n) + 1) % n)),
        shape=(n, n),
    )
    return (sp.eye_array(n) * 1e-3 + shift + 0.1 * _ladder(n)).tocsc()


STRUCTURED = {
    "ladder": _ladder(400),  # dependency depth = n
    "diagonal": sp.diags_array(np.linspace(1.0, 2.0, 30)).tocsc(),
    "n=1": sp.csc_matrix(np.array([[2.5]])),
    "n=2": sp.csc_matrix(np.array([[2.0, -1.0], [-0.5, 3.0]])),
    "pivoting": _pivoting(),
}


def assert_columns_match_scalar(lu: SparseLU, block) -> np.ndarray:
    """``solve_many(block)[:, i]`` is byte-equal to ``solve(block[:, i])``."""
    out = lu.solve_many(block)
    cols = np.asarray(block, dtype=float)
    assert out.flags.f_contiguous and out.dtype == np.float64
    assert lu.failure is None
    for i in range(cols.shape[1]):
        assert out[:, i].tobytes() == lu.solve(cols[:, i]).tobytes(), i
    return out


class TestParityBeyondTheRandomPencil:
    """Factor shapes and input forms the hypothesis pencil never draws."""

    @pytest.mark.parametrize("name", sorted(STRUCTURED))
    def test_structured_factors(self, name, rng):
        matrix = STRUCTURED[name]
        lu = SparseLU(matrix, label=name)
        assert lu.prime_kernel(wide=True)
        for width in (2, 9):
            block = rng.normal(size=(matrix.shape[0], width))
            out = assert_columns_match_scalar(lu, block)
            assert np.allclose(matrix @ out, block, rtol=1e-9, atol=1e-12)

    def test_pivoting_case_really_pivots(self):
        lu = SparseLU(STRUCTURED["pivoting"])
        assert not np.array_equal(lu._kernel._take_in, np.arange(lu.shape[0]))

    def test_empty_strict_triangles(self):
        lu = SparseLU(STRUCTURED["diagonal"])
        assert lu.prime_kernel(wide=True)
        lower, upper, _ = lu._kernel._sweeps
        assert lower[2].size == 0 and upper[2].size == 0

    def test_input_forms(self, pencil_lu, rng):
        n = pencil_lu.shape[0]
        wide = rng.normal(size=(n, 12))
        forms = {
            "fortran": np.asfortranarray(wide),
            "column-sliced": wide[:, 3:10:2],
            "row-strided": rng.normal(size=(2 * n, 4))[::2],
            "float32": wide.astype(np.float32),
            "list": wide[:, :3].tolist(),
        }
        for block in forms.values():
            assert_columns_match_scalar(pencil_lu, block)

    def test_nonfinite_columns_do_not_leak(self, pencil_lu, rng):
        """``inf``/``nan`` columns ride next to finite ones untouched.

        Non-finite input columns reach the kernel as they are; the
        finite columns keep their bytes, the others keep the scalar
        path's values, and nothing warns.
        """
        n = pencil_lu.shape[0]
        block = rng.normal(size=(n, 5))
        block[3, 1] = np.inf
        block[:, 2] = np.nan
        block[n // 2, 3] = -np.inf
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            out = pencil_lu.solve_many(block)
            refs = [pencil_lu.solve(block[:, i]) for i in range(5)]
        for i in (0, 4):
            assert np.all(np.isfinite(out[:, i]))
            assert out[:, i].tobytes() == refs[i].tobytes()
        for i in (1, 2, 3):
            assert not np.all(np.isfinite(out[:, i]))
            assert np.array_equal(out[:, i], refs[i], equal_nan=True)


def _held_bytes(obj) -> int:
    """Sum of ``.nbytes`` over every distinct array reachable from ``obj``."""
    seen: dict[int, int] = {}

    def walk(value):
        if isinstance(value, np.ndarray):
            seen[id(value)] = value.nbytes
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)

    for value in vars(obj).values():
        walk(value)
    return sum(seen.values())


class TestCacheByteAccounting:
    """The sweep matrices and permutations are the factor-cache budget."""

    def test_nbytes_is_the_sum_of_held_arrays(self, pencil):
        """One copy of each factor: 8 data + 4 index bytes per strictly
        triangular entry, two row pointers, two permutations and
        ``D⁻¹`` — the bytes a verified factor holds, all of them."""
        from repro.linalg.lu import FactorizationCache

        cache = FactorizationCache(max_entries=4, max_bytes=1 << 30)
        lu = cache.factor(pencil, label="tri-bytes")
        tri = lu._kernel
        n = pencil.shape[0]
        lower, upper, _ = tri._sweeps
        strict = lower[2].size + upper[2].size
        for wide in (False, True):
            assert lu.prime_kernel(wide=wide)
        assert tri.nbytes() == _held_bytes(tri) >= 12 * pencil.nnz
        assert tri.nbytes() == 12 * strict + 8 * (n + 1) + 24 * n
        assert cache.resident_bytes == tri.nbytes()
        assert cache.stats()["resident_bytes"] == tri.nbytes()

    def test_shared_views_share_one_export(self, pencil):
        from repro.linalg.lu import FactorizationCache

        cache = FactorizationCache(max_entries=4, max_bytes=1 << 30)
        first = cache.factor(pencil, label="a")
        first.prime_kernel(wide=True)
        view = cache.factor(pencil, label="b")
        assert view._kernel is first._kernel
        # The view serves the already-built sweeps, no rebuild.
        sweeps = first._kernel._sweeps
        assert view.prime_kernel(wide=True)
        assert view._kernel._sweeps is sweeps
