"""Split-bump decomposition on periodic, clock-like workloads (Fig. 3).

Run:  python examples/periodic_workload.py

Real switching currents repeat with the clock.  A periodic source keeps
re-triggering Krylov generations on whichever node owns it — unless its
bumps are *split* across nodes, the paper's aggressive Fig. 3
decomposition.  This example builds a grid driven by periodic loads and
compares three decompositions:

* ``source``      — one node per source (each sees every repetition),
* ``bump``        — group by pulse shape (periodic sources still keep
  all their repetitions on one node),
* ``bump-split``  — every individual bump is its own unit, regrouped by
  absolute timing; per-node LTS collapses to one bump's worth.
"""

import numpy as np

from repro.circuit import Pulse, assemble
from repro.core import SolverOptions
from repro.dist import MatexScheduler
from repro.pdn import PdnConfig, generate_power_grid


def main() -> None:
    t_end = 2e-9
    net = generate_power_grid(PdnConfig(rows=10, cols=10, n_pads=4, seed=11))
    # Clock-aligned periodic loads: 3 phases x repeated every 500 ps.
    rng = np.random.default_rng(11)
    nodes = [n for n in net.node_names() if not n.startswith(("pad", "s"))]
    for k in range(24):
        phase = (k % 3) * 1.5e-10
        net.add_current_source(
            f"Iclk{k}", nodes[int(rng.integers(len(nodes)))], "0",
            Pulse(0.0, float(rng.uniform(2e-4, 2e-3)),
                  t_delay=5e-11 + phase, t_rise=1e-11,
                  t_width=6e-11, t_fall=1e-11, t_period=5e-10),
        )
    system = assemble(net)
    print(f"circuit: {system.summary()}, horizon {t_end*1e9:.0f} ns "
          f"(4 clock periods)")

    opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-7)
    baseline = None
    for decomposition in ["source", "bump", "bump-split"]:
        scheduler = MatexScheduler(system, opts, decomposition=decomposition)
        dres = scheduler.run(t_end)
        max_lts = max(s.n_krylov_bases for s in dres.node_stats)
        max_pairs = dres.max_node_substitution_pairs
        print(f"{decomposition:11s}: {dres.n_nodes:3d} nodes | "
              f"max LTS/node {max_lts:3d} | "
              f"max pairs/node {max_pairs:4d} | "
              f"trmatex {dres.tr_matex * 1e3:6.1f} ms")
        if baseline is None:
            baseline = dres.result.states
        else:
            diff = np.max(np.abs(dres.result.states - baseline))
            assert diff < 1e-6, f"decompositions disagree: {diff}"
    print("\nAll three decompositions produce the same waveforms; the "
          "split-bump variant needs the fewest Krylov generations per "
          "node (Fig. 3's point).")


if __name__ == "__main__":
    main()
