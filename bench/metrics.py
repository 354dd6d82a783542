"""What the benchmark reports: names and units, and how a phase is summarised.

``BENCHMARK.json`` is the single list of workloads and metrics (name,
unit, direction, bound); this module only reads it.  What each layer
metric should move, and on which workload, is the last column of the
per-layer table in ``README.md`` — written down *before* anything is
optimised.

Conventions:

* ``*_s`` layer metrics are **self-time seconds per scenario answered**
  in the traced phase (so a layer's share is ``layer_s /
  (scenario_ms / 1000)``), except the :data:`SETUP_LAYERS`, which are
  reported from the phase where the workload pays them — per cold run
  on ``deck_cold``, once during set-up everywhere else;
* ``count`` metrics cover the workload's fixed *count window* (the
  first operations of the traced phase, plus set-up for the cache
  counters) and repeat exactly at a fixed seed;
* a layer that a workload bypasses reports 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

MANIFEST = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
WORKLOADS = tuple(w["name"] for w in MANIFEST["workloads"])
PER_LAYER = tuple(m["name"] for m in MANIFEST["per_layer"])
UNITS = {
    m["name"]: m["unit"]
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]
}

#: Layers whose cost is one-off per plan; see the module docstring.
SETUP_LAYERS = frozenset({
    "plan.compile_s", "plan.compile.dc_s", "linalg.lu.factor_s",
    "linalg.lu.factor_calls", "linalg.triangular.prime_s", "rom.build_s",
    "dist.executors.prepare_s", "serve.startup_s",
})

#: Samples a phase needs before its 95th percentile has ten beyond it.
P95_MIN_SAMPLES = 200


def low_quartile(samples) -> float:
    """First quartile of the samples (the second fastest of five).

    The statistic of every bounded timing.  Noise on the shared reference
    box is one-sided: its floor holds within a few per cent while stretches
    of +15..40 % come and go, often covering more than half of a run.  A
    run's median then says how much of the run those stretches covered; its
    first quartile stays put until they cover three quarters of it, and,
    unlike the minimum, does not rest on one lucky reading.
    """
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


def summarise(phase: dict) -> dict:
    """Timing summary of one timed phase ``{"walls", "scenarios"}``.

    ``per_scenario_ms`` are the samples (operation wall / scenarios in
    it); ``scenario_ms`` their first quartile (:func:`low_quartile`) and
    ``median_ms`` their median; ``scenarios_per_s`` the scenarios over the
    summed operation wall, so outliers count; ``p95_ms`` is 0 when the
    phase has too few samples for a tail percentile.
    """
    walls, scenarios = phase["walls"], phase["scenarios"]
    per = [w / n * 1e3 for w, n in zip(walls, scenarios)]
    if not per:
        return {"per_scenario_ms": [], "scenario_ms": 0.0, "median_ms": 0.0,
                "scenarios_per_s": 0.0, "p95_ms": 0.0}
    return {
        "per_scenario_ms": per,
        "scenario_ms": low_quartile(per),
        "median_ms": statistics.median(per),
        "scenarios_per_s": sum(scenarios) / sum(walls),
        "p95_ms": (
            sorted(per)[int(0.95 * len(per))]
            if len(per) >= P95_MIN_SAMPLES else 0.0
        ),
    }
