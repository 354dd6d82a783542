"""Property-based tests for the linear-algebra kernels (hypothesis)."""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg import StandardKrylov, expm

# Small well-scaled random matrices.
square = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: hnp.arrays(
        np.float64, (n, n),
        elements=st.floats(-3.0, 3.0, allow_nan=False),
    )
)


@given(a=square)
@settings(max_examples=60)
def test_expm_matches_scipy(a):
    assert np.allclose(expm(a), sla.expm(a), rtol=1e-9, atol=1e-10)


@given(a=square)
@settings(max_examples=40)
def test_expm_inverse_identity(a):
    """exp(A) · exp(−A) = I (up to conditioning of the exponential)."""
    prod = expm(a) @ expm(-a)
    kappa = max(1.0, float(np.abs(expm(a)).max() * np.abs(expm(-a)).max()))
    assert np.allclose(prod, np.eye(a.shape[0]), atol=1e-12 * kappa + 1e-9)


@given(a=square)
@settings(max_examples=40)
def test_expm_determinant_is_exp_trace(a):
    """Jacobi's formula: log det exp(A) = tr(A) (stable in log space).

    The achievable accuracy shrinks with ‖A‖: scaling-and-squaring
    loses ~ε·‖A‖ per squaring in the small eigenvalues, which logdet
    sums over all n of them (SciPy's expm drifts identically — e.g.
    ~3e-4 for the all-3.0 10×10 matrix, whose trace is 30).
    """
    n = a.shape[0]
    sign, logdet = np.linalg.slogdet(expm(a))
    assert sign > 0
    tol = 1e-6 + 5e-6 * n * max(1.0, np.linalg.norm(a, 1))
    assert np.isclose(logdet, np.trace(a), rtol=1e-6, atol=tol)


@given(a=square, s=st.floats(0.1, 2.0))
@settings(max_examples=40)
def test_expm_semigroup_on_commuting_scalings(a, s):
    """exp((1+s)A) = exp(A) · exp(sA) (A commutes with itself)."""
    lhs = expm((1.0 + s) * a)
    rhs = expm(a) @ expm(s * a)
    scale = max(1.0, np.abs(lhs).max())
    assert np.allclose(lhs, rhs, rtol=1e-7, atol=1e-8 * scale)


@given(
    n=st.integers(min_value=3, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40)
def test_arnoldi_orthonormality_and_recurrence(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    v = rng.normal(size=n)
    if np.linalg.norm(v) < 1e-12:
        return
    m_max = min(6, n)
    # StandardKrylov(I, A) applies C⁻¹G = A; tol = 0 never converges.
    op = StandardKrylov(sp.identity(n, format="csc"), sp.csc_matrix(a))
    basis = op.build_basis(v, 1.0, tol=0.0, m_max=m_max)
    vm, h = basis.Vm, -basis.Hm
    assert np.allclose(vm.T @ vm, np.eye(basis.m), atol=1e-10)
    # A V_m = V_m H + h_{m+1,m} v_{m+1} e_mᵀ: the residual lives in the
    # last column, has norm h_next and is orthogonal to the basis.
    scale = max(1.0, float(np.abs(a).max()))
    residual = a @ vm - vm @ h
    assert np.allclose(residual[:, :-1], 0.0, atol=1e-8 * scale)
    assert np.isclose(
        np.linalg.norm(residual[:, -1]), basis.h_next, atol=1e-8 * scale
    )
    assert np.allclose(vm.T @ residual[:, -1], 0.0, atol=1e-8 * scale)
