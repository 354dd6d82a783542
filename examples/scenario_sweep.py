"""Scenario sweeps through a compiled plan: factor once, reuse forever.

Run:  python examples/scenario_sweep.py [--case pg4t] [--scenarios 8]
      python examples/scenario_sweep.py --processes 2

The realistic PDN workload is one grid under many what-if switching
patterns.  This example compiles the suite case **once** into a
:class:`repro.plan.SimulationPlan` (decomposition, DC analysis, shared
schedules, factorisation priming), then streams N load-pattern
scenarios through a single :class:`repro.plan.Session` — and verifies
that every scenario's superposed trajectory is bit-for-bit identical to
an independent cold ``MatexScheduler`` run on the rebound system.

With ``--processes N`` the sweep runs on a **persistent** worker pool
(the context-manager lifecycle of ``MultiprocessExecutor``): workers
and their per-process factorisation caches survive across scenarios.
"""

import argparse
import time

from repro.core import SolverOptions
from repro.dist import MatexScheduler, MultiprocessExecutor
from repro.linalg.lu import FACTORIZATION_CACHE
from repro.pdn import build_case, load_pattern_scenarios
from repro.plan import Session, SimulationPlan


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--case", default="pg4t")
    parser.add_argument("--scenarios", type=int, default=8)
    parser.add_argument("--processes", type=int, default=0,
                        help="persistent worker processes (0 = in-process)")
    args = parser.parse_args()

    system, case = build_case(args.case)
    opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6)
    scenarios = load_pattern_scenarios(
        system, n=args.scenarios, seed=2014, spread=0.4
    )

    t0 = time.perf_counter()
    compiled = SimulationPlan(system, opts, t_end=case.t_end).compile(
        prime=args.processes == 0
    )
    print(compiled.summary())

    if args.processes:
        executor = MultiprocessExecutor(
            system, opts, max_workers=args.processes, batch_width="auto"
        )
        with executor, Session(compiled, executor=executor) as session:
            results = session.sweep(scenarios)
    else:
        with Session(compiled) as session:
            results = session.sweep(scenarios)
    warm_wall = time.perf_counter() - t0

    vdd_rows = slice(0, system.n_nodes)
    for scenario, dres in zip(scenarios, results):
        rails = dres.result.states[:, vdd_rows]
        print(f"  {scenario.name}: min rail {rails.min():.6g} V, "
              f"trmatex {dres.tr_matex * 1e3:.2f} ms, "
              f"LU cache {dres.factor_cache_hits}h/"
              f"{dres.factor_cache_misses}m")

    # Verify one scenario against an independent cold run.
    probe = scenarios[-1]
    FACTORIZATION_CACHE.clear()
    cold = MatexScheduler(probe.bind(system), opts).run(case.t_end)
    match = (cold.result.states.tobytes()
             == results[-1].result.states.tobytes())
    print(f"sweep: {len(results)} scenarios in {warm_wall:.2f} s; "
          f"bitwise parity with a cold run: {match}")
    if not match:
        raise SystemExit("parity violation — this is a bug")


if __name__ == "__main__":
    main()
