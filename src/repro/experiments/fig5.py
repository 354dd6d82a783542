"""Figure 5 — rational-Krylov error vs step size and basis dimension.

Reproduces the paper's Fig. 5: the error
``|exp(hA)v − β V_m exp(h·Hm) e_1|`` of the rational (shift-and-invert)
Krylov approximation on a small matrix, swept over the step ``h`` and the
basis dimension ``m``, with a dense ``expm`` as ground truth (the paper
uses MATLAB's; we use our Padé implementation, which is itself validated
against SciPy).

The paper's observation — crucial for snapshot reuse in Alg. 2 — is that
for fixed ``m`` the error *decreases* as ``h`` increases, because larger
steps make the well-captured small-magnitude eigenvalues dominate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from repro.analysis.tables import Table
from repro.circuit.mna import assemble
from repro.linalg.krylov import RationalKrylov
from repro.pdn.rc_mesh import stiff_rc_mesh

__all__ = ["Fig5Point", "run_fig5"]


@dataclass(frozen=True)
class Fig5Point:
    """One (m, h) error sample."""

    m: int
    h: float
    error: float


def run_fig5(
    rows: int = 8,
    cols: int = 8,
    gamma: float = 1e-11,
    dims: list[int] | None = None,
    steps: list[float] | None = None,
    seed: int = 7,
) -> tuple[Table, list[Fig5Point]]:
    """Sweep the rational-Krylov error surface.

    Parameters
    ----------
    rows, cols:
        Mesh size; "A is a relative small matrix" in the paper, so the
        dense exponential stays exact and cheap.
    gamma:
        Fixed shift (the paper fixes γ for the whole figure).
    dims:
        Basis dimensions to sample (default 2..12).
    steps:
        Step sizes (default 8 log-spaced points in [1e-12, 1e-9]).
    seed:
        RNG seed for the start vector.

    Returns
    -------
    (table, points):
        A rendered m × h error table and the raw samples.
    """
    dims = dims if dims is not None else [2, 4, 6, 8, 10, 12]
    steps = steps if steps is not None else list(
        np.logspace(-12, -9, 8)
    )

    net = stiff_rc_mesh(
        rows, cols, fast_ratio=20.0, slow_ratio=1e4, n_sources=2, seed=seed
    )
    system = assemble(net)
    c = np.asarray(system.C.todense())
    g = np.asarray(system.G.todense())
    a = -np.linalg.solve(c, g)

    rng = np.random.default_rng(seed)
    v = rng.normal(size=system.dim)

    op = RationalKrylov(system.C, system.G, gamma=gamma)

    points: list[Fig5Point] = []
    table = Table(
        ["m \\ h"] + [f"{h:.1e}" for h in steps],
        title="Fig. 5: |exp(hA)v - beta*Vm*exp(h*Hm)*e1| (rational Krylov)",
    )
    for m in dims:
        # tol = 0 never passes the posterior test: a basis of exactly m
        # vectors (fewer only on a happy breakdown).
        basis = op.build_basis(v, steps[0], tol=0.0, m_max=m)
        row_errors = []
        for h in steps:
            exact = sla.expm(h * a) @ v
            approx = basis.beta * (basis.Vm @ sla.expm(h * basis.Hm)[:, 0])
            err = float(np.linalg.norm(exact - approx))
            points.append(Fig5Point(m=basis.m, h=float(h), error=err))
            row_errors.append(f"{err:.1e}")
        table.add_row([str(basis.m)] + row_errors)
    return table, points


if __name__ == "__main__":  # pragma: no cover - manual driver
    tbl, _ = run_fig5()
    print(tbl.render())
