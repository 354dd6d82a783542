"""Table 1 — MEXP vs I-MATEX vs R-MATEX on stiff RC meshes.

Reproduces the paper's Sec. 4.1 experiment: transient simulation of RC
meshes over [0, 0.3ns] with 5ps steps, at three stiffness levels, with a
tiny-step backward-Euler reference (0.05ps, exactly as the paper).
Reported per (stiffness, method): average and peak Krylov basis
dimension (``ma``/``mp``), relative error, and the runtime speedup over
MEXP.

Expected shape (paper Table 1): MEXP's basis grows with stiffness into
the tens/hundreds while I-MATEX and R-MATEX stay around 5-20 and run
orders of magnitude faster; all methods hit comparable accuracy.
Absolute speedups are smaller here than the paper's 229X-2735X because
both the mesh and MEXP's basis are scaled down (``results/table1.txt``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.errors import relative_error_pct
from repro.analysis.tables import Table
from repro.baselines.reference import reference_backward_euler
from repro.circuit.mna import assemble
from repro.core.options import SolverOptions
from repro.core.solver import MatexSolver
from repro.core.transition import build_schedule
from repro.pdn.rc_mesh import stiff_rc_mesh
from repro.pdn.stiffness import eigenvalue_extremes

__all__ = ["Table1Row", "STIFFNESS_LEVELS", "run_table1"]

#: The three stiffness levels: (label, fast_ratio, slow_ratio).  The
#: knobs scale both spectral extremes so the measured stiffness walks up
#: by decades while MEXP's basis requirement (∝ h·|λ_fast|) grows too.
STIFFNESS_LEVELS: list[tuple[str, float, float]] = [
    ("low", 10.0, 1e3),
    ("medium", 30.0, 1e6),
    ("high", 90.0, 1e9),
]

#: Method order of the paper's Table 1.
METHODS = ["standard", "inverted", "rational"]

METHOD_LABELS = {
    "standard": "MEXP",
    "inverted": "I-MATEX",
    "rational": "R-MATEX",
}


@dataclass
class Table1Row:
    """One (stiffness, method) measurement."""

    level: str
    stiffness: float
    method: str
    ma: float
    mp: int
    err_pct: float
    seconds: float
    speedup_vs_mexp: float
    n_solves: int


def run_table1(
    rows: int = 20,
    cols: int = 20,
    t_end: float = 3e-10,
    h: float = 5e-12,
    h_ref: float = 5e-14,
    eps_abs: float = 1e-10,
    m_max: int = 360,
    levels: list[tuple[str, float, float]] | None = None,
    n_sources: int = 5,
    verbose: bool = False,
) -> tuple[Table, list[Table1Row]]:
    """Run the Table 1 experiment.

    Parameters
    ----------
    rows, cols:
        Mesh size (paper does not disclose theirs; 20x20 keeps the dense
        reference and eigensolve cheap).
    t_end, h:
        The paper's [0, 0.3ns] window with 5ps steps.
    h_ref:
        Reference BE step (paper: 0.05ps).
    eps_abs:
        Absolute Arnoldi error budget ε (the ETD offset vectors scale
        with the slow time constant, so a relative budget would be
        meaningless on stiff meshes).
    m_max:
        Krylov dimension cap.
    levels:
        Override the stiffness ladder.
    n_sources:
        Pulse loads per mesh.
    verbose:
        Print each row as it is measured.

    Returns
    -------
    (table, rows):
        A rendered-table object and the raw measurements.
    """
    levels = levels if levels is not None else STIFFNESS_LEVELS
    grid = [i * h for i in range(int(round(t_end / h)) + 1)]
    table = Table(
        ["Stiffness", "Method", "ma", "mp", "Err(%)", "Spdp"],
        title="Table 1: MEXP vs I-MATEX vs R-MATEX (stiff RC meshes)",
    )
    out: list[Table1Row] = []

    for label, fast_ratio, slow_ratio in levels:
        net = stiff_rc_mesh(
            rows, cols, fast_ratio=fast_ratio, slow_ratio=slow_ratio,
            n_sources=n_sources,
        )
        system = assemble(net)
        lam_min, lam_max = eigenvalue_extremes(system)
        stiff = lam_min / lam_max

        x0 = np.zeros(system.dim)
        ref = reference_backward_euler(
            system, t_end, h_ref, x0=x0, record_times=grid
        )
        schedule = build_schedule(system, t_end, global_points=grid)

        timings: dict[str, float] = {}
        level_rows: list[Table1Row] = []
        for method in METHODS:
            opts = SolverOptions(
                method=method, gamma=h, eps_rel=0.0, eps_abs=eps_abs,
                m_max=m_max,
            )
            solver = MatexSolver(system, opts)
            t0 = time.perf_counter()
            res = solver.simulate(t_end, x0=x0, schedule=schedule)
            wall = time.perf_counter() - t0
            timings[method] = wall
            err = relative_error_pct(res, ref, times=np.asarray(grid))
            level_rows.append(
                Table1Row(
                    level=label,
                    stiffness=stiff,
                    method=method,
                    ma=res.stats.avg_krylov_dim,
                    mp=res.stats.peak_krylov_dim,
                    err_pct=err,
                    seconds=wall,
                    speedup_vs_mexp=0.0,
                    n_solves=res.stats.n_solves_transient,
                )
            )
        for row in level_rows:
            row.speedup_vs_mexp = timings["standard"] / timings[row.method]
            table.add_row([
                f"{row.stiffness:.1e}",
                METHOD_LABELS[row.method],
                f"{row.ma:.1f}",
                row.mp,
                f"{row.err_pct:.4f}",
                "--" if row.method == "standard" else f"{row.speedup_vs_mexp:.1f}X",
            ])
            if verbose:
                print(table.rows[-1])
        out.extend(level_rows)
    return table, out


if __name__ == "__main__":  # pragma: no cover - manual driver
    tbl, _ = run_table1(verbose=False)
    print(tbl.render())
