"""The paper's analytic speedup model (Sec. 3.4, Eqs. 11-12).

With ``K`` global transition spots, ``k`` local spots per node, average
Krylov dimension ``m``, substitution-pair cost ``Tbs``, small-exponential
evaluation cost ``TH + Te`` and serial part ``Tserial``::

    Speedup  = (K·m·Tbs + K·(TH+Te) + Tserial)
             / (k·m·Tbs + K·(TH+Te) + Tserial)                    (11)

    Speedup' = (N·Tbs + Tserial)
             / (k·m·Tbs + K·(TH+Te) + Tserial)                    (12)

Eq. 11 is distributed-MATEX over single-node MATEX; Eq. 12 is over the
fixed-step baseline with ``N`` steps.  ``repro.experiments.speedup_model``
fits the constants from measured runs and compares the model with
measured speedups (``results/speedup_model.txt``).

A node issues ``k·m + 2q`` substitution pairs for Eq. 12's ``k·m``: the
ETD vectors cost two ``G`` solves per input shape of the node (``q``,
one per bump group on pg1t), not Alg. 2's three per transition spot.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SpeedupModel"]


@dataclass(frozen=True)
class SpeedupModel:
    """Cost constants of the Sec. 3.4 model.

    Attributes
    ----------
    t_bs:
        Seconds per forward/backward substitution pair.
    t_he:
        Seconds per small-exponential evaluation (``TH + Te``).
    t_serial:
        Serial seconds (LU factorisation + DC analysis).
    """

    t_bs: float
    t_he: float
    t_serial: float = 0.0

    def single_node_cost(self, K: int, m: float) -> float:
        """Runtime of non-decomposed MATEX (numerator of Eq. 11)."""
        return K * m * self.t_bs + K * self.t_he + self.t_serial

    def distributed_cost(self, K: int, k: int, m: float) -> float:
        """Runtime of one distributed node (denominator of Eq. 11/12)."""
        return k * m * self.t_bs + K * self.t_he + self.t_serial

    def fixed_step_cost(self, N: int) -> float:
        """Runtime of the fixed-step baseline (numerator of Eq. 12)."""
        return N * self.t_bs + self.t_serial

    def speedup_over_single(self, K: int, k: int, m: float) -> float:
        """Eq. (11)."""
        return self.single_node_cost(K, m) / self.distributed_cost(K, k, m)

    def speedup_over_fixed(self, N: int, K: int, k: int, m: float) -> float:
        """Eq. (12)."""
        return self.fixed_step_cost(N) / self.distributed_cost(K, k, m)
