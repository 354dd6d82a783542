"""Micro-benchmarks of the computational kernels (Sec. 3.4 constants).

Measures the primitives the paper's complexity model is built from:

* ``Tbs``   — one forward/backward substitution pair,
* the in-place multi-RHS substitution sweep vs the per-column
  loop (the batched-march multiplier; gated, see
  ``check_perf_regression.py``),
* Arnoldi basis construction (m substitution pairs + orthogonalisation),
* ``TH+Te`` — one small-exponential snapshot evaluation, comparing the
  eigendecomposition fast path against plain Padé (our ablation: the
  cache is what makes ``K·(TH+Te)`` negligible at scaled sizes),
* the dense Padé ``expm`` itself vs SciPy's.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.linalg import RationalKrylov, SparseLU, expm
from repro.linalg.krylov import KrylovBasis


@pytest.fixture(scope="module")
def system(pg1t):
    return pg1t[0]


def test_substitution_pair(benchmark, system):
    """Tbs: the unit cost of both TR steps and Arnoldi iterations."""
    lu = SparseLU((system.C + 1e-10 * system.G).tocsc(), label="probe")
    rhs = np.random.default_rng(0).normal(size=system.dim)
    benchmark(lambda: lu.solve(rhs))


def test_multi_rhs_substitution_batched(benchmark, system, record_metric):
    """In-place lockstep block sweep vs the per-column scalar loop.

    Both paths produce bit-identical blocks (asserted — the invariant
    the batched march rests on); the block sweep must keep a healthy
    multiple over the column loop at march-like widths or the restored
    3x batched-march gate erodes from below.
    """
    import time

    lu = SparseLU((system.C + 1e-10 * system.G).tocsc(), label="probe")
    block = np.random.default_rng(3).normal(size=(system.dim, 128))
    lu.prime_kernel(wide=True)  # pay export + sweep build outside timing

    def column_loop():
        """The denominator: one scalar pair per column, F-ordered."""
        out = np.empty(block.shape, order="F")
        for i in range(block.shape[1]):
            out[:, i] = lu.solve(block[:, i])
        return out

    assert lu.solve_many(block).tobytes() == column_loop().tobytes()

    column_walls, block_walls = [], []
    for _ in range(7):  # interleaved best-of, like the march gate
        t0 = time.perf_counter()
        column_loop()
        column_walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        lu.solve_many(block)
        block_walls.append(time.perf_counter() - t0)
    kernel_speedup = min(column_walls) / min(block_walls)

    record_metric("column_wall_seconds", min(column_walls))
    record_metric("block_wall_seconds", min(block_walls))
    record_metric("kernel_speedup", kernel_speedup)
    assert kernel_speedup >= 1.5, (
        f"block sweep must be >= 1.5x the column loop at width 128, "
        f"got {kernel_speedup:.2f}x"
    )
    benchmark(lambda: lu.solve_many(block))


def test_arnoldi_basis_build(benchmark, system):
    rng = np.random.default_rng(0)
    op = RationalKrylov(system.C, system.G, gamma=1e-10)
    v = rng.normal(size=system.dim)
    benchmark(lambda: op.build_basis(v, 1e-11, tol=1e-9, m_max=30))


def _make_basis(system, m=10):
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(system.dim, m)))
    hm = np.diag(-np.logspace(9, 12, m)) + 0.1 * rng.normal(size=(m, m))
    return KrylovBasis(Vm=q, Hm=hm, beta=1.0, h_built=1e-11, m=m,
                       error_estimate=0.0, method="rational")


def test_snapshot_eval_with_eig_cache(benchmark, system):
    """TH+Te on the fast path (eigendecomposition cached)."""
    basis = _make_basis(system)
    basis.evaluate(1e-11)  # warm the cache
    benchmark(lambda: basis.evaluate(3e-11))


def test_snapshot_eval_pade_only(benchmark, system):
    """Ablation: the same evaluation with the cache disabled."""
    basis = _make_basis(system)
    object.__setattr__(basis, "_eig", (False, None))  # force Padé path
    benchmark(lambda: basis.evaluate(3e-11))


@pytest.mark.parametrize("m", [8, 32])
def test_dense_expm_pade(benchmark, m):
    rng = np.random.default_rng(2)
    a = rng.normal(size=(m, m))
    ours = benchmark(lambda: expm(a))
    assert np.allclose(ours, sla.expm(a), rtol=1e-10, atol=1e-11)
