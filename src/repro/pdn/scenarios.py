"""What-if scenario generators for PDN workloads.

The realistic PDN verification workload is "one grid, hundreds of
what-if input patterns": the same power grid is re-simulated under many
switching-activity hypotheses — higher activity in one block, a quiet
corner, a global derating.  Because activity hypotheses rescale load
*amplitudes* without moving clock-aligned transition times, every
pattern is expressible as a :class:`~repro.plan.Scenario` of amplitude
scalings — exactly the class of scenarios a compiled
:class:`~repro.plan.SimulationPlan` executes without recompiling.

The generators here work on any assembled system with pulse/PWL current
loads: the Table-3 suite grids (:func:`repro.pdn.suite.build_case`) and
the synthesized ibmpg-style decks streamed through
:mod:`repro.circuit.ingest` alike.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.mna import MNASystem
from repro.plan.scenario import Scenario

__all__ = ["load_pattern_scenarios"]


def _varying_load_columns(system: MNASystem) -> list[int]:
    """Load-current input columns that actually switch."""
    return [
        k for k in system.current_input_indices
        if not system.waveforms[k].is_constant()
    ]


def load_pattern_scenarios(
    system: MNASystem,
    n: int = 8,
    seed: int = 2014,
    spread: float = 0.5,
) -> list[Scenario]:
    """``n`` random switching-activity patterns over a system's loads.

    Each scenario rescales every varying load current by an independent
    factor drawn uniformly from ``[1 - spread, 1 + spread]`` — the
    "different blocks switch with different intensity" workload.  All
    factors stay positive (``spread`` must be < 1), so no source ever
    degenerates to a constant and every scenario is valid against a
    compiled plan of the base system.

    Deterministic given ``seed`` — and deterministic *across platforms*:
    the factors come from one ``np.random.default_rng(seed)`` (PCG64),
    whose ``uniform`` stream is specified bit-exactly by NumPy
    independent of OS and word size, so ``repro sweep --scenarios
    random:<n>:<seed>`` names the same workload everywhere
    (``tests/test_cli.py`` pins the stream).  Seeds must be
    non-negative (``default_rng`` rejects negative ones).  Usable for
    the Table-3 suite cases and streamed ibmpg-style decks alike.
    """
    if not 0.0 < spread < 1.0:
        raise ValueError(f"spread must be in (0, 1), got {spread!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cols = _varying_load_columns(system)
    if not cols:
        raise ValueError(
            "system has no varying load-current inputs to rescale"
        )
    rng = np.random.default_rng(seed)
    scenarios = []
    for i in range(n):
        factors = rng.uniform(1.0 - spread, 1.0 + spread, size=len(cols))
        scenarios.append(
            Scenario(
                name=f"pattern{i}",
                scales={c: float(f) for c, f in zip(cols, factors)},
            )
        )
    return scenarios

