"""Unit tests for the counting sparse-LU wrapper."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg import FactorizationError, SparseLU


@pytest.fixture
def spd_matrix(rng):
    a = rng.normal(size=(12, 12))
    return sp.csc_matrix(a @ a.T + 12 * np.eye(12))


class TestSolve:
    def test_solution_correct(self, spd_matrix, rng):
        lu = SparseLU(spd_matrix, label="test")
        b = rng.normal(size=12)
        x = lu.solve(b)
        assert np.allclose(spd_matrix @ x, b)

    def test_solve_many_block(self, spd_matrix, rng):
        lu = SparseLU(spd_matrix)
        b = rng.normal(size=(12, 4))
        x = lu.solve_many(b)
        assert np.allclose(spd_matrix @ x, b)

    def test_counter_increments(self, spd_matrix, rng):
        lu = SparseLU(spd_matrix)
        for _ in range(3):
            lu.solve(rng.normal(size=12))
        assert lu.n_solves == 3
        lu.solve_many(rng.normal(size=(12, 5)))
        assert lu.n_solves == 8

    def test_factor_time_recorded(self, spd_matrix):
        lu = SparseLU(spd_matrix)
        assert lu.factor_seconds >= 0.0


class TestValidation:
    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            SparseLU(sp.csc_matrix(np.ones((2, 3))))

    def test_structurally_singular_raises(self):
        m = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(FactorizationError):
            SparseLU(m, label="singular")

    def test_label_in_error_message(self):
        m = sp.csc_matrix(np.zeros((2, 2)))
        with pytest.raises(FactorizationError, match="myC"):
            SparseLU(m, label="myC")


class TestMultiRhsBitStability:
    """solve_many must be per-column bit-identical at ANY batch width.

    Handing SuperLU a multi-RHS block substitutes supernodes through
    BLAS kernels whose accumulation order depends on the RHS count and
    the factor's supernode shapes — bit-stable on some matrices,
    divergent at single-digit widths on others (pg4t's pencil).
    SparseLU.solve_many therefore runs the in-place block sweep of
    :mod:`repro.linalg.triangular`, whose per-row accumulation order is
    the scalar column sweep's by construction and never depends on the
    batch; this is the invariant the lockstep block march (and the
    scenario-sweep stacking on top of it) is built on.  Deeper coverage
    (random widths/offsets, kernel escape hatches) lives in
    ``tests/test_triangular.py``.
    """

    def test_wide_blocks_match_individual_solves(self, spd_matrix, rng):
        lu = SparseLU(spd_matrix)
        width = 300
        block = rng.normal(size=(spd_matrix.shape[0], width))
        ref = np.column_stack(
            [lu.solve(block[:, i]) for i in range(width)]
        )
        out = lu.solve_many(block)
        assert out.tobytes() == ref.tobytes()

    def test_batching_is_alignment_independent(self, spd_matrix, rng):
        """A column's bits don't depend on its position in the batch."""
        lu = SparseLU(spd_matrix)
        block = rng.normal(size=(spd_matrix.shape[0], 96))
        whole = lu.solve_many(block)
        shifted = lu.solve_many(block[:, 7:])
        assert whole[:, 7:].tobytes() == shifted.tobytes()

    def test_pg4t_pencil_regression(self):
        """The matrix family where raw multi-RHS SuperLU diverges."""
        from repro.pdn import build_case

        system, _ = build_case("pg4t")
        pencil = (system.C + 1e-10 * system.G).tocsc()
        lu = SparseLU(pencil, "pencil")
        rng = np.random.default_rng(1)
        block = rng.normal(size=(system.dim, 16))
        ref = np.column_stack(
            [lu.solve(block[:, i]) for i in range(16)]
        )
        # lu.solve counted 16 pairs; solve_many counts 16 more.
        assert lu.solve_many(block).tobytes() == ref.tobytes()
        assert lu.n_solves == 32

    def test_solve_counting_matches_column_count(self, spd_matrix, rng):
        lu = SparseLU(spd_matrix)
        lu.solve_many(rng.normal(size=(spd_matrix.shape[0], 37)))
        assert lu.n_solves == 37


class TestSolveManyContract:
    """Output-contract pins for solve_many (documented in its docstring).

    Before the level-kernel rewire, the 1-D path returned a 2-D block
    and the 0-column edge case produced a C-ordered array — consumers
    that relied on the documented F-ordered ``(n, k)`` contract (the
    zero-copy transport slicing columns out of the march block) only
    worked by accident.  These tests pin every branch of the contract.
    """

    def test_two_d_input_returns_f_ordered_float64(self, spd_matrix, rng):
        lu = SparseLU(spd_matrix)
        out = lu.solve_many(rng.normal(size=(12, 5)))
        assert out.shape == (12, 5)
        assert out.dtype == np.float64
        assert out.flags.f_contiguous

    def test_single_column_block_stays_two_d(self, spd_matrix, rng):
        lu = SparseLU(spd_matrix)
        b = rng.normal(size=(12, 1))
        out = lu.solve_many(b)
        assert out.shape == (12, 1)
        assert out.flags.f_contiguous
        assert out[:, 0].tobytes() == lu.solve(b[:, 0]).tobytes()

    def test_one_d_input_returns_one_d_bitwise_solve(self, spd_matrix, rng):
        lu = SparseLU(spd_matrix)
        b = rng.normal(size=12)
        out = lu.solve_many(b)
        assert out.ndim == 1
        assert out.dtype == np.float64
        assert out.tobytes() == lu.solve(b).tobytes()

    def test_zero_columns_returns_empty_f_ordered(self, spd_matrix):
        lu = SparseLU(spd_matrix)
        out = lu.solve_many(np.empty((12, 0)))
        assert out.shape == (12, 0)
        assert out.dtype == np.float64
        assert out.flags.f_contiguous
        assert lu.n_solves == 0

    def test_list_input_accepted(self, spd_matrix):
        lu = SparseLU(spd_matrix)
        b = [float(i) for i in range(12)]
        out = lu.solve_many(b)
        assert out.ndim == 1
        assert out.tobytes() == lu.solve(np.asarray(b, dtype=float)).tobytes()


class TestStructureMatchedOrdering:
    """Fill is a count that repeats exactly, so it is pinned as one:
    minimum degree on ``A + Aᵀ`` suits the pattern-symmetric MNA
    pencils (COLAMD left 42 682 non-zeros here)."""

    def test_pg1t_fill_and_level_depth(self):
        from repro.pdn import build_case

        system, _case = build_case("pg1t")
        for matrix in (system.G, system.C + 1e-10 * system.G):
            lu = SparseLU(matrix)
            lower, upper, _ = lu._kernel._sweeps
            # Strict parts from the sweep arrays, plus both diagonals.
            nnz = lower[2].size + upper[2].size + 2 * lu.shape[0]
            assert nnz <= 30_000
