"""Property-based tests for the linear-algebra kernels (hypothesis)."""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
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


def _threes_with_a_zero_corner():
    a = np.full((10, 10), 3.0)
    a[0, 0] = 0.0
    return a


@given(a=square)
@example(a=_threes_with_a_zero_corner())
@settings(max_examples=40)
def test_expm_determinant_is_exp_trace(a):
    """Jacobi's formula: log det exp(A) = tr(A) (stable in log space).

    log det is only as well conditioned as ``E = exp(A)`` lets it be: an
    elementwise relative error δ in ``E`` moves it by at most
    ``δ·Σ|E⁻¹|∘|E|ᵀ`` (``|tr(E⁻¹·dE)|``).  Both factors come from SciPy's
    ``expm``, not from the routine under test, so an inflated ``expm``
    cannot widen its own tolerance.  δ = 100·n·ε: the measured error is
    at most 16·ε·Σ over 20 000 random, constant, {−3, 0, 3} and
    triangular matrices.  The pinned example (trace 27, κ(exp A) ≈ 1e14)
    misses 27 by 1.6e-3 — as even the correctly rounded exponential
    does, by 2.3e-3 — against 0.19·ε·Σ.
    """
    n = a.shape[0]
    sign, logdet = np.linalg.slogdet(expm(a))
    assert sign > 0
    spread = np.sum(np.abs(sla.expm(-a)) * np.abs(sla.expm(a)).T)
    delta = 100 * n * np.finfo(float).eps
    assert abs(logdet - np.trace(a)) <= delta * spread


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
