"""Unit tests for the three Krylov exp(hA)v operators."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.linalg import (
    InvertedKrylov,
    RationalKrylov,
    RegularizationRequiredError,
    StandardKrylov,
    dense_a_matrix,
    make_krylov_operator,
)

METHODS = ["standard", "inverted", "rational"]


@pytest.fixture
def dense_a(rc_ladder_system):
    return dense_a_matrix(rc_ladder_system.C, rc_ladder_system.G)


class TestAccuracy:
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_dense_expm(self, method, rc_ladder_system, dense_a, rng):
        s = rc_ladder_system
        v = rng.normal(size=s.dim)
        h = 1e-11
        exact = sla.expm(h * dense_a) @ v
        op = make_krylov_operator(method, s.C, s.G, gamma=h)
        basis = op.build_basis(v, h, tol=1e-10 * np.linalg.norm(v),
                               m_max=s.dim)
        y = basis.evaluate(h)
        assert np.allclose(y, exact, rtol=1e-7, atol=1e-9 * np.linalg.norm(v))

    @pytest.mark.parametrize("method", METHODS)
    def test_error_estimate_is_honest(self, method, mesh_system, rng):
        """True error must not exceed the estimate by a large factor."""
        s = mesh_system
        a = dense_a_matrix(s.C, s.G)
        v = rng.normal(size=s.dim)
        h = 1e-11
        tol = 1e-6 * np.linalg.norm(v)
        op = make_krylov_operator(method, s.C, s.G, gamma=h)
        basis = op.build_basis(v, h, tol=tol, m_max=s.dim)
        y = basis.evaluate(h)
        true_err = np.linalg.norm(y - sla.expm(h * a) @ v)
        assert true_err < 50.0 * tol

    def test_small_bases_for_spectral_transforms(self, mesh_system, rng):
        """I-/R-MATEX must converge with far fewer vectors than MEXP."""
        s = mesh_system
        v = rng.normal(size=s.dim)
        h = 1e-11
        tol = 1e-8 * np.linalg.norm(v)
        dims = {}
        for method in METHODS:
            op = make_krylov_operator(method, s.C, s.G, gamma=h)
            basis = op.build_basis(v, h, tol=tol, m_max=s.dim)
            dims[method] = basis.m
        assert dims["inverted"] < dims["standard"]
        assert dims["rational"] < dims["standard"]


class TestEffectiveHm:
    def test_standard_negates(self, rc_ladder_system):
        op = StandardKrylov(rc_ladder_system.C, rc_ladder_system.G)
        h = np.array([[2.0, 1.0], [0.5, 3.0]])
        assert np.allclose(op.effective_hm(h), -h)

    def test_inverted_negated_inverse(self, rc_ladder_system):
        op = InvertedKrylov(rc_ladder_system.C, rc_ladder_system.G)
        h = np.array([[2.0, 1.0], [0.5, 3.0]])
        assert np.allclose(op.effective_hm(h), -np.linalg.inv(h))

    def test_rational_shift_invert_map(self, rc_ladder_system):
        gamma = 1e-11
        op = RationalKrylov(rc_ladder_system.C, rc_ladder_system.G, gamma=gamma)
        # For H = (I - gamma*L)^-1 the map must recover L exactly.
        lam = np.diag([-1e9, -2e10])
        h = np.linalg.inv(np.eye(2) - gamma * lam)
        assert np.allclose(op.effective_hm(h), lam)


class TestRegularizationFree:
    def test_standard_requires_invertible_c(self, small_pdn_system):
        with pytest.raises(RegularizationRequiredError):
            StandardKrylov(small_pdn_system.C, small_pdn_system.G)

    @pytest.mark.parametrize("method", ["inverted", "rational"])
    def test_spectral_transforms_handle_singular_c(
        self, method, small_pdn_system, rng
    ):
        s = small_pdn_system
        op = make_krylov_operator(method, s.C, s.G, gamma=1e-11)
        v = rng.normal(size=s.dim)
        basis = op.build_basis(v, 1e-11, tol=1e-8 * np.linalg.norm(v),
                               m_max=s.dim)
        y = basis.evaluate(1e-11)
        assert np.all(np.isfinite(y))
        assert basis.m >= 1


class TestBasisReuse:
    def test_evaluate_consistent_across_calls(self, rc_ladder_system, rng):
        """A basis evaluates the same bits at its step however often and
        whatever else it was evaluated at in between (snapshot reuse)."""
        s = rc_ladder_system
        v = rng.normal(size=s.dim)
        op = RationalKrylov(s.C, s.G, gamma=1e-11)
        basis = op.build_basis(v, 1e-11, tol=1e-10)
        y = basis.evaluate(1e-11)
        basis.evaluate(3e-11)
        assert basis.evaluate(1e-11).tobytes() == y.tobytes()

    def test_reuse_at_larger_h_stays_accurate(self, mesh_system, rng):
        """The Fig. 5 property that justifies snapshot reuse."""
        s = mesh_system
        a = dense_a_matrix(s.C, s.G)
        v = rng.normal(size=s.dim)
        op = RationalKrylov(s.C, s.G, gamma=1e-11)
        tol = 1e-7 * np.linalg.norm(v)
        basis = op.build_basis(v, 1e-11, tol=tol, m_max=s.dim)
        err_small = np.linalg.norm(
            basis.evaluate(1e-11) - sla.expm(1e-11 * a) @ v
        )
        err_large = np.linalg.norm(
            basis.evaluate(8e-11) - sla.expm(8e-11 * a) @ v
        )
        assert err_large < 10.0 * max(err_small, tol)

    def test_evaluate_with_error_matches_parts(self, mesh_system, rng):
        s = mesh_system
        op = RationalKrylov(s.C, s.G, gamma=1e-11)
        v = rng.normal(size=s.dim)
        basis = op.build_basis(v, 1e-11, tol=1e-6 * np.linalg.norm(v))
        y, err = basis.evaluate_with_error(3e-11)
        assert np.allclose(y, basis.evaluate(3e-11))
        assert err == pytest.approx(basis.error_at(3e-11))

    def test_zero_vector_gives_empty_basis(self, rc_ladder_system):
        op = RationalKrylov(rc_ladder_system.C, rc_ladder_system.G, gamma=1e-11)
        basis = op.build_basis(np.zeros(rc_ladder_system.dim), 1e-11, tol=1e-8)
        y = basis.evaluate(1e-11)
        assert basis.m == 0
        assert np.all(y == 0.0)
        assert basis.error_at(1e-10) == 0.0


class TestFactoryAndAccounting:
    @pytest.mark.parametrize("alias,cls", [
        ("mexp", StandardKrylov),
        ("MEXP", StandardKrylov),
        ("imatex", InvertedKrylov),
        ("I-MATEX", InvertedKrylov),
        ("rmatex", RationalKrylov),
        ("rational", RationalKrylov),
    ])
    def test_aliases(self, alias, cls, rc_ladder_system):
        op = make_krylov_operator(alias, rc_ladder_system.C, rc_ladder_system.G)
        assert isinstance(op, cls)

    def test_unknown_method_rejected(self, rc_ladder_system):
        with pytest.raises(ValueError, match="unknown"):
            make_krylov_operator("cholesky", rc_ladder_system.C,
                                 rc_ladder_system.G)

    def test_gamma_validation(self, rc_ladder_system):
        with pytest.raises(ValueError):
            RationalKrylov(rc_ladder_system.C, rc_ladder_system.G, gamma=0.0)

    def test_solve_counting(self, rc_ladder_system, rng):
        s = rc_ladder_system
        op = RationalKrylov(s.C, s.G, gamma=1e-11)
        assert op.n_solves == 0
        basis = op.build_basis(rng.normal(size=s.dim), 1e-11, tol=0.0,
                               m_max=5)
        assert op.n_solves == basis.m

    def test_shape_mismatch_rejected(self, rc_ladder_system):
        import scipy.sparse as sp

        with pytest.raises(ValueError, match="identical shapes"):
            RationalKrylov(rc_ladder_system.C, sp.eye(3).tocsc())
