"""Tests for the process-wide factorisation cache."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import MatexSolver, SolverOptions
from repro.linalg.krylov import RationalKrylov
from repro.linalg.lu import (
    FACTORIZATION_CACHE,
    FactorizationCache,
    FactorizationError,
    canonical_shift,
    matrix_fingerprint,
)


def spd(seed: int, n: int = 8) -> sp.csc_matrix:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return sp.csc_matrix(a @ a.T + n * np.eye(n))


class TestFingerprint:
    def test_identical_content_matches(self):
        m = spd(1)
        assert matrix_fingerprint(m) == matrix_fingerprint(m.copy())
        # Format conversions preserve content, hence the fingerprint.
        assert matrix_fingerprint(m) == matrix_fingerprint(m.tocsr())

    def test_value_change_differs(self):
        m = spd(1)
        other = m.copy()
        other[0, 0] += 1e-9
        assert matrix_fingerprint(m) != matrix_fingerprint(other)

    def test_shape_differs(self):
        assert matrix_fingerprint(spd(1, 8)) != matrix_fingerprint(spd(1, 9))


class TestCacheBehaviour:
    def test_hit_shares_factors_with_fresh_counters(self):
        cache = FactorizationCache()
        m = spd(2)
        first = cache.factor(m, label="first")
        second = cache.factor(m.copy(), label="second")
        assert cache.hits == 1 and cache.misses == 1
        assert second is not first
        assert second._kernel is first._kernel  # the factors are shared
        assert second.factor_seconds == 0.0  # the hit cost nothing
        assert first.factor_seconds >= 0.0

        b = np.arange(8.0)
        np.testing.assert_array_equal(first.solve(b), second.solve(b))
        assert first.n_solves == 1 and second.n_solves == 1  # independent

    def test_key_extra_separates_entries(self):
        cache = FactorizationCache()
        m = spd(3)
        cache.factor(m, key_extra=("gamma", 1e-10))
        cache.factor(m, key_extra=("gamma", 1e-9))
        assert cache.misses == 2 and cache.hits == 0

    def test_lru_eviction(self):
        cache = FactorizationCache(max_entries=2)
        a, b, c = spd(4), spd(5), spd(6)
        cache.factor(a)
        cache.factor(b)
        cache.factor(a)          # refresh a
        cache.factor(c)          # evicts b (least recently used)
        assert len(cache) == 2
        cache.factor(a)
        assert cache.hits == 2   # a stayed
        cache.factor(b)
        assert cache.misses == 4  # b had to re-factor

    def test_clear(self):
        cache = FactorizationCache()
        cache.factor(spd(7))
        assert cache.resident_bytes > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.resident_bytes == 0
        assert cache.counters() == (0, 0)

    def test_byte_budget_evicts(self):
        probe = FactorizationCache()
        per_entry = probe._entry_bytes(probe.factor(spd(10)))
        # Budget for ~2 entries: the third insert must evict the oldest.
        cache = FactorizationCache(max_entries=32,
                                   max_bytes=int(2.5 * per_entry))
        cache.factor(spd(11))
        cache.factor(spd(12))
        cache.factor(spd(13))
        assert len(cache) == 2
        assert cache.resident_bytes <= cache.max_bytes
        cache.factor(spd(13))
        assert cache.hits == 1      # newest survived
        cache.factor(spd(11))
        assert cache.misses == 4    # oldest was evicted

    def test_oversized_entry_passes_through_uncached(self):
        probe = FactorizationCache()
        per_entry = probe._entry_bytes(probe.factor(spd(14)))
        cache = FactorizationCache(max_bytes=max(1, per_entry // 2))
        lu = cache.factor(spd(15))
        b = np.arange(8.0)
        assert np.allclose(spd(15) @ lu.solve(b), b)  # still usable
        assert len(cache) == 0  # but never pinned

    def test_singular_matrix_not_cached(self):
        cache = FactorizationCache()
        singular = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(FactorizationError):
            cache.factor(singular, label="bad")
        assert len(cache) == 0

    def test_max_entries_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            FactorizationCache(max_entries=0)


class TestGammaCanonicalisation:
    def test_literals_round_trip_unchanged(self):
        for g in (1e-10, 5e-11, 0.5, 1.0, 2.2e-16, 1e3):
            assert canonical_shift(g) == g
        assert canonical_shift(0.0) == 0.0
        assert canonical_shift(np.inf) == np.inf

    def test_ulp_noise_collapses(self):
        g = 3e-10
        assert canonical_shift(np.nextafter(g, np.inf)) == g
        assert canonical_shift(np.nextafter(g, 0.0)) == g
        # The classic arithmetic-order pair.
        assert canonical_shift(0.1 + 0.2) == canonical_shift(0.3)
        assert (0.1 + 0.2) != 0.3  # the raw floats really do differ

    def test_equal_gamma_requests_factor_once(self, mesh_system):
        """γ derived through different arithmetic orders must share one
        cache entry — previously an exact-float key missed silently."""
        FACTORIZATION_CACHE.clear()
        g = 1e-10
        g_noisy = float(np.nextafter(g, np.inf))
        assert g_noisy != g
        op1 = RationalKrylov(mesh_system.C, mesh_system.G, gamma=g)
        op2 = RationalKrylov(mesh_system.C, mesh_system.G, gamma=g_noisy)
        assert op1.gamma == op2.gamma  # canonicalised before the pencil
        hits, misses = FACTORIZATION_CACHE.counters()
        assert (hits, misses) == (1, 1)
        assert op2.lu._kernel is op1.lu._kernel  # shared factors

    def test_distinct_gammas_still_separate(self, mesh_system):
        FACTORIZATION_CACHE.clear()
        RationalKrylov(mesh_system.C, mesh_system.G, gamma=1e-10)
        RationalKrylov(mesh_system.C, mesh_system.G, gamma=2e-10)
        hits, misses = FACTORIZATION_CACHE.counters()
        assert (hits, misses) == (0, 2)


class TestSolverIntegration:
    def test_second_solver_construction_is_all_hits(self, mesh_system):
        opts = SolverOptions(method="rational", gamma=1e-10)
        MatexSolver(mesh_system, opts)  # primes the cache
        second = MatexSolver(mesh_system, opts)
        # Rational solver owns two factorisations (C+γG and G) — both
        # served from the cache, hence zero factorisation wall time.
        assert second.construction_cache_hits == 2
        assert second.construction_cache_misses == 0
        assert second.factor_seconds == 0.0

    def test_cached_solver_trajectory_identical(self, mesh_system):
        opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
        x0 = np.zeros(mesh_system.dim)
        cold = MatexSolver(mesh_system, opts).simulate(1e-9, x0=x0)
        warm = MatexSolver(mesh_system, opts).simulate(1e-9, x0=x0)
        np.testing.assert_array_equal(cold.states, warm.states)

    def test_inverted_still_shares_g_between_op_and_workspace(
        self, mesh_system
    ):
        solver = MatexSolver(
            mesh_system, SolverOptions(method="inverted", gamma=1e-10)
        )
        # One handle, not merely one underlying factorisation: ETD and
        # Krylov substitutions are counted against the same LU, as the
        # paper's single-LU I-MATEX requires.
        assert solver.workspace.lu_g is solver.op.lu

    def test_global_cache_counters_move(self, mesh_system):
        hits0, _ = FACTORIZATION_CACHE.counters()
        MatexSolver(mesh_system, SolverOptions(method="rational"))
        MatexSolver(mesh_system, SolverOptions(method="rational"))
        hits1, _ = FACTORIZATION_CACHE.counters()
        assert hits1 > hits0
