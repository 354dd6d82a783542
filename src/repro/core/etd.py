"""Exponential-time-differencing auxiliary vectors (paper Eq. 5/6).

For ``C x' = -G x + B u`` with piecewise-linear ``u`` of slope ``s_u``
over a segment starting at ``t``, the exact update is

    x(t+h) = exp(hA) (x(t) + F) − P(h),      A = -C⁻¹G,

with (derivation in DESIGN.md — only ``G⁻¹`` solves appear, which is the
regularization-free property of paper Sec. 3.3.3)::

    w1 = G⁻¹ B u(t)         (1 solve)
    w2 = G⁻¹ B s_u          (1 solve)
    w3 = G⁻¹ C w2           (1 solve)
    F    = -w1 + w3
    P(h) = F − h · w2

``F`` is *constant* within the segment and ``P`` is affine in ``h`` — the
algebra behind Krylov-basis reuse at snapshots: the basis built on
``v = x(t) + F`` serves every step length until the next local transition
spot, at the cost of re-evaluating one small matrix exponential.

The march does not solve per segment: ``B u`` is linear in a node's few
input shapes, so :class:`~repro.dist.block_runner.BlockNodeRunner`
solves ``G⁻¹b_j`` and ``G⁻¹CG⁻¹b_j`` once per shape against the
:class:`EtdWorkspace`'s ``G`` factors and forms every segment's ``w2``
and ``F`` as their combinations.  The tests' scalar oracle keeps the
per-segment form (``tests/scalar_oracle.py``) and checks it against the
dense formula.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuit.mna import MNASystem
from repro.linalg.lu import FACTORIZATION_CACHE, SparseLU

__all__ = ["EtdWorkspace"]


class EtdWorkspace:
    """Owns (or shares) the LU factorisation of ``G``.

    The ETD vectors and the DC operating point are ``G`` solves.  The
    I-MATEX solver already factors ``G`` for its Krylov operator, in
    which case the same :class:`~repro.linalg.lu.SparseLU` is shared and
    each substitution is counted once, exactly as a real implementation
    would behave.

    Parameters
    ----------
    system:
        Assembled MNA system.
    lu_g:
        Optional pre-existing factorisation of ``G`` to share.
    """

    def __init__(self, system: MNASystem, lu_g: SparseLU | None = None):
        self.system = system
        if lu_g is None:
            lu_g = FACTORIZATION_CACHE.factor(system.G, label="G")
        self.lu_g = lu_g

    def dc_solution(self, active: Sequence[int] | None = None) -> np.ndarray:
        """DC operating point: solve ``G x = B u(0)`` (one solve)."""
        return self.lu_g.solve(self.system.bu(0.0, active=active))

    @property
    def n_solves(self) -> int:
        """Substitution pairs performed against ``G`` so far."""
        return self.lu_g.n_solves
