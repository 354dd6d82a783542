"""Quickstart: build a small PDN, simulate it with R-MATEX, check vs TR.

Run:  python examples/quickstart.py

Builds a 12x12 synthetic power grid with a handful of pulse loads,
computes the DC operating point, runs the single-node MATEX solver
(rational Krylov — the paper's best performer), and cross-checks the
worst-case supply droop against a fine-step trapezoidal simulation.
"""

import numpy as np

from repro.circuit import assemble
from repro.core import MatexSolver, SolverOptions
from repro.baselines import simulate_trapezoidal
from repro.pdn import PdnConfig, WorkloadSpec, attach_pulse_loads, generate_power_grid


def main() -> None:
    # 1. Build the circuit: a 12x12 grid, 4 VDD pads, 40 pulse loads.
    t_end = 1e-8  # 10 ns
    net = generate_power_grid(PdnConfig(rows=12, cols=12, n_pads=4, seed=7))
    attach_pulse_loads(
        net,
        WorkloadSpec(n_sources=40, n_shapes=8, t_end=t_end,
                     time_grid_points=30, seed=7),
    )
    system = assemble(net)
    print(f"circuit: {system.summary()}")
    print(f"C singular: {system.is_c_singular()} "
          f"(no problem: R-MATEX is regularization-free)")

    # 2. Simulate with MATEX (one LU factorisation, adaptive stepping).
    solver = MatexSolver(system, SolverOptions(method="rational", gamma=1e-10))
    result = solver.simulate(t_end)
    st = result.stats
    print(f"MATEX: {st.n_steps} steps, {st.n_krylov_bases} Krylov bases "
          f"(avg dim {st.avg_krylov_dim:.1f}), "
          f"{st.n_solves_transient} substitution pairs")

    # 3. Worst droop across the grid.
    vdd = 1.8
    node_v = result.states[:, : system.n_nodes]
    droop = vdd - node_v.min()
    t_worst = result.times[np.unravel_index(node_v.argmin(), node_v.shape)[0]]
    print(f"worst droop: {droop * 1e3:.2f} mV at t = {t_worst * 1e9:.2f} ns")

    # 4. Cross-check against a fine trapezoidal run on the same grid.
    tr = simulate_trapezoidal(system, 2e-12, t_end,
                              record_times=list(result.times))
    diff = np.abs(result.sample(result.times)[:, : system.n_nodes]
                  - tr.sample(result.times)[:, : system.n_nodes])
    print(f"max |MATEX - TR(2ps)| over all nodes/times: {diff.max():.2e} V")
    assert diff.max() < 1e-3, "solutions disagree"
    print("OK")


if __name__ == "__main__":
    main()
