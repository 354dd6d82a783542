"""Unit tests for the Arnoldi process — the one lockstep build.

The generic-matrix operator is ``StandardKrylov(identity, A)``: it
factors ``C = I`` and applies ``C⁻¹G = A``, and its exponent map is just
``Hm = -H``.  Every property is checked at one column and at four (the
column under test rides at position 1 of a 4-column lockstep build).
``TestWorkspace`` pins the memory contract: a basis's vectors exist
once, in its workspace, which is sized for R-MATEX's small bases.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg import ArnoldiBreakdown, StandardKrylov
from repro.linalg.block_krylov import build_bases_block

WIDTHS = (1, 4)

#: tol = 0 never passes the posterior test (``est < tol``); tol = inf
#: passes the first one Arnoldi runs.
NEVER, AT_FIRST_TEST = 0.0, np.inf


def build(a, v, width, m_max, tol=NEVER, min_dim=2):
    """Basis of ``K_m(a, v)`` out of a ``width``-column build, and H."""
    n = a.shape[0]
    op = StandardKrylov(sp.identity(n, format="csc"), sp.csc_matrix(a))
    rng = np.random.default_rng(width)
    vs = [rng.normal(size=n) for _ in range(width)]
    pos = min(1, width - 1)
    vs[pos] = v
    bases = build_bases_block(
        op, vs, [1.0] * width, [tol] * width, m_max=m_max, min_dim=min_dim
    )
    assert op.n_solves == sum(b.m for b in bases)
    basis = bases[pos]
    return basis, -basis.Hm


class TestArnoldiRelations:
    def test_orthonormal_basis(self, rng):
        a = rng.normal(size=(30, 30))
        v = rng.normal(size=30)
        for width in WIDTHS:
            basis, _ = build(a, v, width, m_max=12)
            assert basis.m == 12
            vtv = basis.Vm.T @ basis.Vm
            assert np.allclose(vtv, np.eye(12), atol=1e-12)

    def test_arnoldi_identity(self, rng):
        """A V_m = V_m H + h_{m+1,m} v_{m+1} e_mᵀ  (the recurrence)."""
        a = rng.normal(size=(25, 25))
        v = rng.normal(size=25)
        for width in WIDTHS:
            basis, h = build(a, v, width, m_max=10)
            residual = a @ basis.Vm - basis.Vm @ h
            # Only the last column is non-zero: h_{m+1,m} v_{m+1}, a
            # vector of norm h_next orthogonal to the basis.
            assert np.allclose(residual[:, :-1], 0.0, atol=1e-10)
            assert np.linalg.norm(residual[:, -1]) == pytest.approx(basis.h_next)
            assert np.allclose(basis.Vm.T @ residual[:, -1], 0.0, atol=1e-10)
            assert np.allclose(basis.Vm[:, 0], v / np.linalg.norm(v))

    def test_beta_is_start_norm(self, rng):
        v = rng.normal(size=10)
        for width in WIDTHS:
            basis, _ = build(np.eye(10), v, width, m_max=3)
            assert basis.beta == pytest.approx(np.linalg.norm(v))

    def test_hessenberg_structure(self, rng):
        a = rng.normal(size=(20, 20))
        v = rng.normal(size=20)
        for width in WIDTHS:
            _, h = build(a, v, width, m_max=8)
            assert h.shape == (8, 8)
            for i in range(8):
                for j in range(8):
                    if i > j + 1:
                        assert h[i, j] == 0.0


class TestBreakdown:
    def test_happy_breakdown_on_invariant_subspace(self):
        # v is an eigenvector: the subspace is invariant after 1 step.
        a = np.diag([1.0, 2.0, 3.0])
        v = np.array([1.0, 0.0, 0.0])
        for width in WIDTHS:
            basis, _ = build(a, v, width, m_max=3)
            assert basis.m == 1
            assert basis.h_next == 0.0
            assert basis.error_estimate == 0.0
            assert basis.err_row is None

    def test_low_rank_operator_breaks_down_early(self, rng):
        u = rng.normal(size=15)
        w = rng.normal(size=15)
        a = np.outer(u, w)  # rank 1
        v = rng.normal(size=15)
        for width in WIDTHS:
            basis, _ = build(a, v, width, m_max=10)
            assert basis.h_next == 0.0
            assert basis.m <= 3

    def test_small_scale_operator_not_mistaken_for_breakdown(self, rng):
        # Operator with tiny norm (like G^-1 C on fast circuits) must not
        # trigger a spurious happy breakdown.
        a = 1e-14 * rng.normal(size=(20, 20))
        v = rng.normal(size=20)
        for width in WIDTHS:
            basis, _ = build(a, v, width, m_max=8)
            assert basis.h_next > 0.0
            assert basis.m == 8

    def test_zero_start_vector(self):
        for width in WIDTHS:
            basis, _ = build(np.eye(5), np.zeros(5), width, m_max=3)
            assert basis.m == 0
            assert basis.beta == 0.0
            assert basis.error_estimate == 0.0
            assert basis.Vm.shape == (5, 0)
            assert np.array_equal(basis.evaluate(1.0), np.zeros(5))

    def test_nonfinite_operator_raises(self, rng):
        a = np.eye(5)
        a[2, 2] = np.nan
        for width in WIDTHS:
            with pytest.raises(ArnoldiBreakdown):
                build(a, rng.normal(size=5), width, m_max=3)


class TestConvergenceControl:
    def test_callback_stops_iteration(self, rng):
        """The posterior test ends the build at the dimension it passes."""
        a = rng.normal(size=(30, 30))
        v = rng.normal(size=30)
        for width in WIDTHS:
            basis, _ = build(a, v, width, m_max=20, tol=AT_FIRST_TEST)
            assert basis.m == 2  # the default min_dim
            assert basis.h_next > 0.0
            assert basis.err_row is not None

    def test_min_dim_defers_checks(self, rng):
        a = rng.normal(size=(30, 30))
        v = rng.normal(size=30)
        for width in WIDTHS:
            basis, _ = build(
                a, v, width, m_max=20, tol=AT_FIRST_TEST, min_dim=5
            )
            assert basis.m == 5

    def test_m_max_caps_dimension(self, rng):
        a = rng.normal(size=(40, 40))
        v = rng.normal(size=40)
        for width in WIDTHS:
            basis, _ = build(a, v, width, m_max=7)
            assert basis.m == 7
            assert basis.h_next > 0.0
            # Never converged: the estimate is reported, not zeroed.
            assert basis.error_estimate > 0.0

    def test_m_max_validation(self, rng):
        for width in WIDTHS:
            with pytest.raises(ValueError):
                build(np.eye(5), rng.normal(size=5), width, m_max=0)


class TestWorkspace:
    """The workspace is the basis's only copy of its vectors."""

    def test_small_bases_fit_the_initial_workspace(self, rng):
        """m ≤ 4 (R-MATEX's usual size): four vectors plus two spare
        rows, and ``Vm`` is a view of them."""
        a = rng.normal(size=(30, 30))
        v = rng.normal(size=30)
        for width in WIDTHS:
            basis, _ = build(a, v, width, m_max=4)
            assert basis.m == 4
            assert basis._rows.shape == (4 + 2, 30)
            assert np.shares_memory(basis.Vm, basis._rows)

    def test_workspace_doubles_up_to_the_cap(self, rng):
        a = rng.normal(size=(40, 40))
        v = rng.normal(size=40)
        for width in WIDTHS:
            basis, _ = build(a, v, width, m_max=13)  # 4 -> 8 -> 13
            assert basis.m == 13
            assert basis._rows.shape == (13 + 2, 40)
            vtv = basis.Vm.T @ basis.Vm
            assert np.allclose(vtv, np.eye(13), atol=1e-12)

    def test_stacked_writes_behind_the_vectors_once(self, rng):
        a = rng.normal(size=(30, 30))
        v = rng.normal(size=30)
        f, w = rng.normal(size=30), rng.normal(size=30)
        basis, _ = build(a, v, 1, m_max=3)
        before = basis.Vm.copy()
        block = basis.stacked(f, w)
        assert block.shape == (5, 30) and block.flags.c_contiguous
        assert np.shares_memory(block, basis.Vm)
        assert np.array_equal(block[:3], before.T)
        assert np.array_equal(block[3], f) and np.array_equal(block[4], w)
        assert basis.Vm.tobytes() == before.tobytes()
        # The spare rows are handed on once: a second block is new.
        again = basis.stacked(w, f)
        assert not np.shares_memory(again, block)
        assert np.array_equal(again[:3], before.T)
        assert np.array_equal(block[3], f)

    def test_empty_basis_stacks_the_rows_alone(self, rng):
        basis, _ = build(np.eye(5), np.zeros(5), 1, m_max=3)
        f = rng.normal(size=5)
        block = basis.stacked(f, -f)
        assert block.shape == (2, 5)
        assert np.array_equal(block, np.stack([f, -f]))
