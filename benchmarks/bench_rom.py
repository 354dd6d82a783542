"""Benchmark: the reduced-order sweep tier (repro.rom).

ISSUE-7 headline: a ≥1000-scenario what-if sweep answered from the
rational-Krylov reduced model runs **at least 10× faster per scenario**
than the warm full-order sweep (itself the fast path: compiled plan +
stacked lockstep marches + factored node trajectories), while every
scenario is either

* accepted with a posterior relative error bound below the configured
  tolerance — spot-checked here against the full-order trajectory,
  which must sit inside the *absolute* bound, or
* transparently re-run on the full-order path (bit-identical results),
  with the fallback rate held under 5 %.

The full-order rate is measured on a warm subset (marching all 1000
scenarios full-order would dominate the bench for no extra
information); the reduced tier answers the whole sweep.

Recorded metrics (gated by ``check_perf_regression.py``):

* ``rom_speedup``          — full-order warm ms/scenario ÷ ROM
  ms/scenario (floor: 10 — a ratio whose *denominator* is the
  full-order march: 476.8 / 18.7 = 25.5 before node trajectories
  became factored, 248.1 / 14.7 = 16.9 after; the reduced tier did
  not get slower, the full-order tier got 1.9× faster),
* ``fallback_rate``        — fraction re-run full-order (ceiling: 0.05),
* ``rom_dim`` / ``rom_input_shapes`` — reduced dimension ``q`` and
  distinct input shapes ``r`` the answer's GEMMs run over,
* ``max_bound_rel`` / ``max_err_rel`` — worst posterior bound over the
  sweep and worst observed error over the parity sample.
"""

import time

import numpy as np

from repro.core import SolverOptions
from repro.linalg.lu import FACTORIZATION_CACHE
from repro.pdn import load_pattern_scenarios
from repro.plan import Session, SimulationPlan
from repro.rom import RomConfig

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6)

#: The acceptance-criteria sweep width.
N_SCENARIOS = 1000
#: Warm full-order scenarios used to estimate the per-scenario rate.
N_FULL_SAMPLE = 16
#: Scenarios spot-checked against their full-order trajectory.
PARITY_INDICES = (0, 249, 499, 749, 999)


def test_rom_sweep_speedup(pg1t, record_metric):
    system, case = pg1t
    scenarios = load_pattern_scenarios(
        system, n=N_SCENARIOS, seed=2014, spread=0.5
    )

    # Warm full-order rate: compile once, absorb the one-off lazy costs
    # with a baseline run, then time a stacked sample sweep.
    FACTORIZATION_CACHE.clear()
    compiled_full = SimulationPlan(
        system, OPTS, t_end=case.t_end
    ).compile()
    with Session(compiled_full) as session:
        session.run()
        t0 = time.perf_counter()
        session.sweep(scenarios[:N_FULL_SAMPLE], stack="auto")
        full_wall = time.perf_counter() - t0
    full_ms = full_wall / N_FULL_SAMPLE * 1e3

    # Reduced tier: one projection at compile, then the whole sweep.
    config = RomConfig()
    t0 = time.perf_counter()
    compiled = SimulationPlan(system, OPTS, t_end=case.t_end).compile(
        rom=config
    )
    build_wall = time.perf_counter() - t0
    assert compiled.rom is not None, compiled.rom_error
    model = compiled.rom

    with Session(compiled) as session:
        t0 = time.perf_counter()
        results = session.sweep(scenarios)
        rom_wall = time.perf_counter() - t0
        accepted, fallbacks = session.rom_accepted, session.rom_fallbacks

        # Every scenario consulted the model and is accounted for.
        assert accepted + fallbacks == N_SCENARIOS
        assert all(r.rom_dim == model.dim for r in results)
        bounds = [r.rom_bound for r in results if not r.rom_fallback]
        assert all(b <= config.tol for b in bounds)

        # Full-order parity spot checks: accepted answers must sit
        # inside their absolute posterior bound; fallbacks are the
        # full-order path and must match bit-for-bit.
        max_err_rel = 0.0
        full_spot = session.sweep(
            [scenarios[i] for i in PARITY_INDICES], rom=False
        )
        for idx, r_full in zip(PARITY_INDICES, full_spot):
            r_rom = results[idx]
            if r_rom.rom_fallback:
                assert (r_rom.result.states.tobytes()
                        == r_full.result.states.tobytes())
                continue
            err = float(
                np.abs(r_rom.result.states - r_full.result.states).max()
            )
            ans = model.answer(model.input_matrix(scenarios[idx], None))
            assert err <= ans.bound_abs, (
                f"scenario {idx}: error {err:.3e} above the certified "
                f"bound {ans.bound_abs:.3e}"
            )
            scale = float(np.abs(
                r_full.result.states - r_full.result.states[0]
            ).max())
            max_err_rel = max(max_err_rel, err / scale)

    rom_ms = rom_wall / N_SCENARIOS * 1e3
    speedup = full_ms / rom_ms
    fallback_rate = fallbacks / N_SCENARIOS

    record_metric("n_scenarios", N_SCENARIOS)
    record_metric("rom_dim", model.dim)
    record_metric("rom_input_shapes", model.n_shapes)
    record_metric("rom_build_seconds", build_wall)
    record_metric("full_ms_per_scenario", full_ms)
    record_metric("rom_ms_per_scenario", rom_ms)
    record_metric("rom_speedup", speedup)
    record_metric("fallback_rate", fallback_rate)
    record_metric("max_bound_rel", max(bounds, default=0.0))
    record_metric("max_err_rel", max_err_rel)
    record_metric("rom_resident_mib", model.resident_bytes() / 2**20)

    # Acceptance criteria (mirrored by the CI gate's floor/ceiling).
    # Floor re-based 18 -> 10 when the full-order denominator fell from
    # 476.8 to 248.1 ms/scenario (factored node trajectories).
    assert speedup >= 10.0, (
        f"rom speedup {speedup:.1f}x < 10x "
        f"(full {full_ms:.1f} ms/scenario, rom {rom_ms:.2f})"
    )
    assert fallback_rate <= 0.05, (
        f"fallback rate {fallback_rate:.3f} > 0.05 "
        f"({fallbacks}/{N_SCENARIOS} scenarios re-ran full-order)"
    )
