"""FACTORIZATION_CACHE residency limits and eviction accounting."""

import scipy.sparse as sp

from repro.linalg.lu import (
    DEFAULT_CACHE_MAX_BYTES,
    DEFAULT_CACHE_MAX_ENTRIES,
    FACTORIZATION_CACHE,
    FactorizationCache,
)


def diag(k: float, n: int = 8) -> sp.csc_matrix:
    return sp.identity(n, format="csc") * k


class TestLimits:
    def test_process_wide_cache_holds_the_constants(self):
        stats = FACTORIZATION_CACHE.stats()
        assert stats["max_entries"] == DEFAULT_CACHE_MAX_ENTRIES == 32
        assert stats["max_bytes"] == DEFAULT_CACHE_MAX_BYTES == 256 << 20


class TestEvictionAccounting:
    def test_entry_limit_evictions_are_counted(self):
        cache = FactorizationCache(max_entries=2)
        for k in (1.0, 2.0, 3.0):
            cache.factor(diag(k))
        assert len(cache) == 2
        assert cache.evictions == 1
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["max_entries"] == 2

    def test_clear_zeroes_evictions(self):
        cache = FactorizationCache(max_entries=1)
        cache.factor(diag(1.0))
        cache.factor(diag(2.0))
        assert cache.evictions == 1
        cache.clear()
        assert cache.evictions == 0
        assert cache.stats()["resident_bytes"] == 0


class TestEvictionsSurfaceInResults:
    def test_distributed_result_reports_thrash(self, mesh_system, monkeypatch):
        """A too-small cache during a run shows up on the result."""
        from repro.core import SolverOptions
        from repro.dist import MatexScheduler

        FACTORIZATION_CACHE.clear()
        monkeypatch.setattr(FACTORIZATION_CACHE, "max_entries", 1)
        try:
            dres = MatexScheduler(
                mesh_system, SolverOptions(method="rational", gamma=1e-10)
            ).run(1e-9)
            # G and C+gammaG fight over a single slot: must evict.
            assert dres.factor_cache_evictions >= 1
        finally:
            FACTORIZATION_CACHE.clear()
