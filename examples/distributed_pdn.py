"""Distributed MATEX: bump-shape decomposition + superposition.

Run:  python examples/distributed_pdn.py [--processes N]

Builds the pg1t suite case, decomposes its load sources into bump-shape
groups (paper Fig. 3), simulates every group on its own (emulated or
real) computing node and superposes — then verifies against fixed-step
trapezoidal and prints the paper's Table-3-style timing split.

With ``--processes N`` the groups run on an actual multiprocessing pool
instead of the serial emulation.
"""

import argparse

import numpy as np

from repro.analysis import error_metrics
from repro.baselines import simulate_trapezoidal
from repro.core import SolverOptions
from repro.dist import MatexScheduler, MultiprocessExecutor
from repro.pdn import build_case


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--case", default="pg1t")
    parser.add_argument("--processes", type=int, default=0,
                        help="worker processes (0 = serial emulation)")
    args = parser.parse_args()

    system, case = build_case(args.case)
    print(f"case {case.name}: {system.summary()}")

    scheduler = MatexScheduler(
        system,
        SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6),
        decomposition="bump",
    )
    groups = scheduler.groups()
    print(f"{system.n_current_inputs} load sources fall into "
          f"{len(groups)} bump groups (computing nodes)")

    executor = None
    if args.processes > 0:
        executor = MultiprocessExecutor(
            system, scheduler.options, max_workers=args.processes
        )
    dres = scheduler.run(case.t_end, executor=executor)
    print(f"per-node substitution pairs (max): "
          f"{dres.max_node_substitution_pairs}")
    print(f"trmatex (max node transient): {dres.tr_matex * 1e3:.1f} ms | "
          f"tr_total: {dres.tr_total * 1e3:.1f} ms")

    gts = list(dres.result.times)
    tr = simulate_trapezoidal(system, case.h_tr, case.t_end, record_times=gts)
    print(f"TR h=10ps: t1000 = {tr.stats.transient_seconds * 1e3:.1f} ms "
          f"({tr.stats.n_steps} substitution pairs)")

    errs = error_metrics(dres.result, tr, times=np.asarray(gts))
    print(f"MATEX vs TR difference: max {errs['max']:.2e} V, "
          f"avg {errs['avg']:.2e} V")
    print(f"transient speedup (Spdp4): "
          f"{tr.stats.transient_seconds / dres.tr_matex:.1f}X")


if __name__ == "__main__":
    main()
