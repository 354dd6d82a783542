"""MNA regularization: eliminate algebraic variables from singular ``C``.

The paper (Secs. 2.4, 3.3.3) points out that MEXP — the standard Krylov
method — must factor ``C``, so on typical PDN netlists (voltage-source
branch rows and capacitor-free nodes make ``C`` singular) it first needs
the "practical regularization technique" of Chen, Weng & Cheng (IEEE
TCAD 31(7), 2012) — the paper's reference [3].  MATEX's spectral
transforms avoid this entirely, but to make the comparison complete this
module implements the technique.

Split the unknowns by whether their ``C`` row/column carries dynamics::

    [Cd 0] [xd]'   = - [G11 G12] [xd] + [Bd] u
    [0  0] [xa]        [G21 G22] [xa]   [Ba]

The algebraic block gives ``xa = G22⁻¹ (Ba u − G21 xd)``; substituting
into the dynamic block yields the regularized ODE system

    Cd xd' = -(G11 − G12 G22⁻¹ G21) xd + (Bd − G12 G22⁻¹ Ba) u

with non-singular ``Cd`` — exactly what MEXP (or the dense oracle)
needs.  :class:`RegularizedSystem` keeps the recovery map
so full-state trajectories can be reconstructed.

The Schur complement ``G12 G22⁻¹ G21`` is formed explicitly; it is dense
in general, so this is intended for the moderate sizes where one would
actually run MEXP — the paper's point being precisely that this cost is
avoidable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.circuit.mna import MNASystem
from repro.linalg.lu import SparseLU

__all__ = ["RegularizedSystem", "regularize"]

#: Entries below this (relative to the largest |C| entry) count as zero.
_ZERO_ROW_RTOL = 1e-300


@dataclass
class RegularizedSystem:
    """A reduced non-singular-``C`` system plus the state recovery map.

    Attributes
    ----------
    system:
        The reduced :class:`~repro.circuit.mna.MNASystem`-like triple is
        exposed as ``Cd``, ``Gd``, ``Bd`` (the netlist is shared for
        node bookkeeping; dynamic row order is recorded separately).
    dynamic_index:
        Original state indices kept as dynamic unknowns (``xd``).
    algebraic_index:
        Original state indices eliminated (``xa``).
    """

    source: MNASystem
    Cd: sp.csc_matrix
    Gd: np.ndarray
    Bd: np.ndarray
    dynamic_index: np.ndarray
    algebraic_index: np.ndarray
    _lu_g22: SparseLU
    _g21: sp.csc_matrix
    _ba: np.ndarray

    @property
    def dim(self) -> int:
        """Number of dynamic unknowns."""
        return len(self.dynamic_index)

    def reduce_state(self, x_full: np.ndarray) -> np.ndarray:
        """Project a full state onto the dynamic unknowns."""
        return np.asarray(x_full, dtype=float)[self.dynamic_index]

    def expand_state(self, xd: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Recover the full MNA state from ``xd`` and the input vector.

        Solves the algebraic constraint ``G22 xa = Ba u − G21 xd``.
        """
        xd = np.asarray(xd, dtype=float)
        full = np.empty(self.source.dim)
        full[self.dynamic_index] = xd
        if len(self.algebraic_index):
            rhs = self._ba @ np.asarray(u, dtype=float) - self._g21 @ xd
            full[self.algebraic_index] = self._lu_g22.solve(rhs)
        return full

    def bu_reduced(self, t: float) -> np.ndarray:
        """The reduced input term ``(Bd − G12 G22⁻¹ Ba) u(t)``."""
        return self.Bd @ self.source.input_vector(t)


def regularize(system: MNASystem) -> RegularizedSystem:
    """Eliminate the algebraic unknowns of a singular-``C`` MNA system.

    Parameters
    ----------
    system:
        Assembled descriptor system.  Systems whose ``C`` is already
        non-singular are returned with an empty algebraic block (the
        reduction is then the identity).

    Returns
    -------
    RegularizedSystem

    Raises
    ------
    repro.linalg.lu.FactorizationError
        If the algebraic block ``G22`` is singular — the netlist then
        has a genuinely ill-posed constraint (e.g. a voltage-source
        loop), not just a singular ``C``.
    """
    c = system.C.tocsr()
    # A row is algebraic when it carries no capacitive/inductive stamp.
    row_nnz = np.diff(c.indptr)
    dynamic_mask = row_nnz > 0
    dynamic_index = np.flatnonzero(dynamic_mask)
    algebraic_index = np.flatnonzero(~dynamic_mask)

    g = system.G.tocsc()
    b = system.B.tocsc()

    cd = system.C[dynamic_index][:, dynamic_index].tocsc()
    g11 = g[dynamic_index][:, dynamic_index]
    g12 = g[dynamic_index][:, algebraic_index]
    g21 = g[algebraic_index][:, dynamic_index].tocsc()
    g22 = g[algebraic_index][:, algebraic_index].tocsc()
    bd = np.asarray(b[dynamic_index].todense())
    ba = np.asarray(b[algebraic_index].todense())

    if len(algebraic_index) == 0:
        return RegularizedSystem(
            source=system,
            Cd=cd,
            Gd=np.asarray(g11.todense()),
            Bd=bd,
            dynamic_index=dynamic_index,
            algebraic_index=algebraic_index,
            _lu_g22=None,
            _g21=g21,
            _ba=ba,
        )

    lu_g22 = SparseLU(g22, label="G22")
    # Schur complement: G11 - G12 G22^{-1} G21  (dense result).
    g22_inv_g21 = lu_g22.solve_many(np.asarray(g21.todense()))
    g22_inv_ba = lu_g22.solve_many(ba) if ba.size else ba
    gd = np.asarray(g11.todense()) - np.asarray(g12.todense()) @ g22_inv_g21
    bd_red = bd - np.asarray(g12.todense()) @ g22_inv_ba

    return RegularizedSystem(
        source=system,
        Cd=cd,
        Gd=gd,
        Bd=bd_red,
        dynamic_index=dynamic_index,
        algebraic_index=algebraic_index,
        _lu_g22=lu_g22,
        _g21=g21,
        _ba=ba,
    )
