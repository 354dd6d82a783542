"""Solver statistics.

The paper's evaluation currency is explicit (Sec. 3.4): pairs of
forward/backward substitutions, Krylov dimensions (average ``ma`` and peak
``mp`` — Table 1), and wall-clock split into serial part (LU + DC) and
"pure transient computing" (Table 3).  :class:`SolverStats` collects all
of it so every experiment can print paper-style rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SolverStats"]


@dataclass
class SolverStats:
    """Operation counts and timing of one transient run.

    Attributes
    ----------
    n_steps:
        Time steps marched (= number of GTS intervals visited).
    n_krylov_bases:
        Krylov subspace generations (= LTS visited); the rest of the
        steps reused an existing basis (paper Alg. 2 line 11).
    n_reuses:
        Steps served from a reused basis.
    krylov_dims:
        Dimension of every generated basis (``ma``/``mp`` derive from it).
    n_solves_krylov:
        Substitution pairs consumed inside Arnoldi iterations.
    n_solves_etd:
        Substitution pairs consumed building the ETD auxiliary vectors
        F/P: two ``G⁻¹`` solves per input shape (Alg. 2 literally takes
        three per input segment).
    n_solves_dc:
        Substitution pairs for the DC operating point.
    factor_seconds:
        Wall time of matrix factorisation(s) — the paper's serial part.
        Factorisations served by the process-wide
        :data:`~repro.linalg.lu.FACTORIZATION_CACHE` cost (and report)
        ~zero here; the hit counters below record how often that
        amortisation fired.
    dc_seconds:
        Wall time of DC analysis.
    transient_seconds:
        Wall time of the stepping loop itself ("pure transient
        computing", the ``trmatex``/``t1000`` quantity of Table 3).
    n_factor_cache_hits:
        Factorisations this run reused from the process-wide cache
        (Sec. 3.4's shared-pencil claim, made measurable).
    n_factor_cache_misses:
        Factorisations this run actually performed (and cached).
    posterior_sum, posterior_max:
        The posterior ledger: sum and largest of the posterior error
        estimates (Eqs. 7/8/10) of every step the march committed.
    eps_sum:
        Sum of the generation budgets ``ε = eps_rel·‖v‖ + eps_abs`` of
        every Krylov basis built — what the ledger is allowed.
    gc_collections:
        Cyclic-GC passes that ran inside the timed march (counted once
        per march, on its first task).  The march pauses the collector,
        so this is 0 unless something inside it collects explicitly.
    """

    n_steps: int = 0
    n_krylov_bases: int = 0
    n_reuses: int = 0
    krylov_dims: list[int] = field(default_factory=list)
    n_solves_krylov: int = 0
    n_solves_etd: int = 0
    n_solves_dc: int = 0
    factor_seconds: float = 0.0
    dc_seconds: float = 0.0
    transient_seconds: float = 0.0
    n_factor_cache_hits: int = 0
    n_factor_cache_misses: int = 0
    posterior_sum: float = 0.0
    posterior_max: float = 0.0
    eps_sum: float = 0.0
    gc_collections: int = 0

    @property
    def n_solves_transient(self) -> int:
        """Substitution pairs in the transient part (Krylov + ETD)."""
        return self.n_solves_krylov + self.n_solves_etd

    @property
    def n_solves_total(self) -> int:
        """All substitution pairs including DC analysis."""
        return self.n_solves_transient + self.n_solves_dc

    @property
    def avg_krylov_dim(self) -> float:
        """The paper's ``ma`` (Table 1)."""
        if not self.krylov_dims:
            return 0.0
        return sum(self.krylov_dims) / len(self.krylov_dims)

    @property
    def peak_krylov_dim(self) -> int:
        """The paper's ``mp`` (Table 1)."""
        return max(self.krylov_dims, default=0)

    @property
    def total_seconds(self) -> float:
        """Factorisation + DC + transient wall time (Table 2's Total)."""
        return self.factor_seconds + self.dc_seconds + self.transient_seconds

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Elementwise accumulation (used to aggregate node stats)."""
        return SolverStats(
            n_steps=self.n_steps + other.n_steps,
            n_krylov_bases=self.n_krylov_bases + other.n_krylov_bases,
            n_reuses=self.n_reuses + other.n_reuses,
            krylov_dims=self.krylov_dims + other.krylov_dims,
            n_solves_krylov=self.n_solves_krylov + other.n_solves_krylov,
            n_solves_etd=self.n_solves_etd + other.n_solves_etd,
            n_solves_dc=self.n_solves_dc + other.n_solves_dc,
            factor_seconds=self.factor_seconds + other.factor_seconds,
            dc_seconds=self.dc_seconds + other.dc_seconds,
            transient_seconds=self.transient_seconds + other.transient_seconds,
            n_factor_cache_hits=(
                self.n_factor_cache_hits + other.n_factor_cache_hits
            ),
            n_factor_cache_misses=(
                self.n_factor_cache_misses + other.n_factor_cache_misses
            ),
            posterior_sum=self.posterior_sum + other.posterior_sum,
            posterior_max=max(self.posterior_max, other.posterior_max),
            eps_sum=self.eps_sum + other.eps_sum,
            gc_collections=self.gc_collections + other.gc_collections,
        )

    def summary(self) -> str:
        """Compact human-readable digest."""
        return (
            f"steps={self.n_steps} bases={self.n_krylov_bases} "
            f"reuses={self.n_reuses} ma={self.avg_krylov_dim:.1f} "
            f"mp={self.peak_krylov_dim} solves={self.n_solves_total} "
            f"t={self.total_seconds:.3f}s"
        )
