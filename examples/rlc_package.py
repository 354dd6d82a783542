"""Package inductance: RLC ringing on the rails.

Run:  python examples/rlc_package.py

Adds bond-wire/package inductance to the VDD pads and watches the rail
ring after each switching event — the full descriptor-system path
(inductor branch currents as MNA unknowns) handled by the
regularization-free R-MATEX solver without any special casing.
"""

import numpy as np

from repro.analysis import droop_report
from repro.baselines import simulate_trapezoidal
from repro.circuit import assemble
from repro.core import MatexSolver, SolverOptions, build_schedule
from repro.pdn import PdnConfig, WorkloadSpec, attach_pulse_loads, generate_power_grid


def main() -> None:
    t_end = 3e-9
    results = {}
    for l_pkg in [0.0, 3e-10]:
        net = generate_power_grid(PdnConfig(
            rows=10, cols=10, n_pads=2, l_package=l_pkg, seed=5,
        ))
        attach_pulse_loads(net, WorkloadSpec(
            n_sources=15, n_shapes=3, t_end=t_end,
            time_grid_points=10, seed=5,
        ))
        system = assemble(net)
        # Dense output grid so the ringing is visible.
        grid = list(np.linspace(0.0, t_end, 301))
        solver = MatexSolver(
            system, SolverOptions(method="rational", gamma=1e-10,
                                  eps_rel=1e-9),
        )
        res = solver.simulate(
            t_end, schedule=build_schedule(system, t_end, global_points=grid)
        )
        results[l_pkg] = (system, res)
        report = droop_report(res, vdd=1.8,
                              node_filter=lambda n: n.startswith("n"))
        label = f"L_pkg = {l_pkg * 1e9:.1f} nH"
        print(f"{label:16s}: {report.summary()}")

        # Cross-check against fine trapezoidal.
        tr = simulate_trapezoidal(system, 1e-12, t_end)
        nn = system.n_nodes
        diff = np.abs(res.sample(res.times)[:, :nn]
                      - tr.sample(res.times)[:, :nn])
        print(f"{'':16s}  vs TR(1ps): max diff {diff.max():.2e} V")

    # Quantify the ringing the inductors introduce.
    (_, flat), (_, ringing) = results[0.0], results[3e-10]
    v_flat = flat.voltage("n5_5")
    v_ring = ringing.voltage("n5_5")
    osc_flat = float(np.std(np.diff(v_flat)))
    osc_ring = float(np.std(np.diff(v_ring)))
    print(f"\nstep-to-step rail movement at n5_5: "
          f"{osc_flat * 1e3:.3f} mV (RC) vs {osc_ring * 1e3:.3f} mV (RLC)")
    assert osc_ring > osc_flat, "package L should add ringing"
    print("package inductance produces visible ringing — OK")


if __name__ == "__main__":
    main()
