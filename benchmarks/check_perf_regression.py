"""Perf-regression gate: compare fresh benchmark JSONs to baselines.

Every benchmark module writes ``benchmarks/results/<module>.json`` with
one entry per test (wall seconds + metrics + peak RSS — see
``conftest.py``).  CI snapshots the committed baselines, re-runs the
gated benches, and calls this script::

    python benchmarks/check_perf_regression.py BASELINE_DIR FRESH_DIR \
        --modules bench_kernels bench_table3_distributed --factor 1.5

A test regresses when its fresh wall time exceeds ``factor`` times the
committed baseline.  Tests without a baseline entry (newly added) and
sub-threshold timings (< ``--min-seconds``, pure noise) are reported
but never fail the gate.  The factor can be overridden with the
``PERF_GATE_FACTOR`` environment variable (e.g. for slow CI runners).

On top of the relative wall-time comparison, :data:`METRIC_FLOORS`
gates a handful of *recorded metrics* against absolute floors taken
from the fresh run only: ratios like the batched-march speedup or the
level-kernel multiple are self-normalising (both sides measured on the
same machine in the same process), so unlike wall times they can be
held to a hard number regardless of how slow the runner is.
:data:`METRIC_CEILINGS` is the mirror image for metrics that must stay
*small* — the reduced-order tier's fallback rate (a ratio), and one
deliberately lenient absolute ceiling on ``warm_ms_per_scenario`` that
catches only catastrophic slowdowns, not runner jitter.  A gated
metric missing from the fresh run fails the gate — silently dropping
the measurement must not pass as green.

Exit status: 0 when no gated test regressed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_MODULES = (
    "bench_kernels",
    "bench_table3_distributed",
    "bench_ingest",
    "bench_sweep",
    "bench_rom",
)

#: Absolute floors on recorded metrics, checked against the FRESH run:
#: ``{module: {test: {metric: floor}}}``.  These are machine-relative
#: ratios, so a hard floor is meaningful on any runner.  They mirror
#: the in-bench asserts (belt and braces: the gate also catches a
#: baseline regenerated from a run whose asserts were skipped).
METRIC_FLOORS: dict[str, dict[str, dict[str, float]]] = {
    # Both ratios are against the scalar reference march — run_task of
    # tests/scalar_oracle.py, the suite's parity oracle and no longer a
    # package code path: it shares the Arnoldi build and the G solves
    # with the block march but none of its span or lockstep batching, so
    # no optimisation of the executors can speed it up.  batched_speedup was
    # raised 3.0 -> 3.5 with factored node trajectories (3.54 -> 4.72
    # measured); width1_speedup (1.71 -> 1.76) keeps its floor.
    "bench_table3_distributed": {
        "test_block_batched_march": {
            "batched_speedup": 3.5,
            "width1_speedup": 1.3,
        },
    },
    "bench_kernels": {
        "test_multi_rhs_substitution_batched": {"kernel_speedup": 1.5},
    },
    # full_ms_per_scenario / rom_ms_per_scenario.  Re-based 18 -> 10 when
    # the denominator — the warm full-order sweep — fell from 476.8 to
    # 248.1 ms/scenario (factored node trajectories); the reduced
    # answer itself went 18.7 -> 14.7 ms (25.5x -> 16.9x).  Kept at 10
    # when minimum-degree factors halved the fill per substitution pair:
    # denominator 253.7 -> 213.4 ms/scenario, answer 16.0 -> 15.1 ms
    # (15.9x -> 14.1x).
    "bench_rom": {
        "test_rom_sweep_speedup": {"rom_speedup": 10.0},
    },
    # Two warm pool workers against one warm serial session (CI pins
    # one BLAS thread per process for this file; unpinned, the leg
    # skips and the missing metric fails the gate).
    "bench_sweep": {
        "test_pool_sweep_vs_serial_session": {"pool_speedup_vs_serial": 1.4},
    },
}

#: Absolute ceilings on recorded metrics, checked against the FRESH
#: run (same shape as :data:`METRIC_FLOORS`).  ``fallback_rate`` is a
#: ratio and therefore machine-independent; the
#: ``warm_ms_per_scenario`` ceiling is deliberately ~an order of
#: magnitude above the measured value so it only trips on a
#: catastrophic regression of the warm sweep path, never on a slow
#: runner.
METRIC_CEILINGS: dict[str, dict[str, dict[str, float]]] = {
    "bench_rom": {
        "test_rom_sweep_speedup": {"fallback_rate": 0.05},
    },
    "bench_sweep": {
        "test_sweep_vs_cold_runs": {"warm_ms_per_scenario": 5000.0},
    },
}


def load_results(path: Path) -> dict[str, dict]:
    """``{test name -> entry}`` from one module's results JSON."""
    payload = json.loads(path.read_text())
    return {t["name"]: t for t in payload.get("tests", [])}


def compare_module(
    module: str,
    baseline_dir: Path,
    fresh_dir: Path,
    factor: float,
    min_seconds: float,
) -> list[str]:
    """Return the list of regression messages for one module."""
    baseline_path = baseline_dir / f"{module}.json"
    fresh_path = fresh_dir / f"{module}.json"
    if not fresh_path.exists():
        return [f"{module}: fresh results missing ({fresh_path})"]
    if not baseline_path.exists():
        print(f"{module}: no committed baseline — skipping (first run?)")
        return []

    baseline = load_results(baseline_path)
    fresh = load_results(fresh_path)
    failures: list[str] = []

    for name, base_entry in sorted(baseline.items()):
        base_wall = base_entry.get("wall_seconds")
        fresh_entry = fresh.get(name)
        if fresh_entry is None:
            print(f"{module}::{name}: missing from fresh run (renamed?)")
            continue
        fresh_wall = fresh_entry.get("wall_seconds")
        if base_wall is None or fresh_wall is None:
            continue
        ratio = fresh_wall / base_wall if base_wall > 0 else float("inf")
        verdict = "ok"
        if fresh_wall >= min_seconds and ratio > factor:
            verdict = "REGRESSION"
            failures.append(
                f"{module}::{name}: {base_wall:.3f}s -> {fresh_wall:.3f}s "
                f"({ratio:.2f}x > {factor:.2f}x)"
            )
        print(
            f"{module}::{name}: baseline {base_wall:.3f}s, "
            f"fresh {fresh_wall:.3f}s ({ratio:.2f}x) [{verdict}]"
        )

    for bounds_table, kind in (
        (METRIC_FLOORS, "floor"),
        (METRIC_CEILINGS, "ceiling"),
    ):
        for test_name, bounds in bounds_table.get(module, {}).items():
            fresh_entry = fresh.get(test_name)
            if fresh_entry is None:
                failures.append(
                    f"{module}::{test_name}: gated test missing from "
                    f"fresh run"
                )
                continue
            metrics = fresh_entry.get("metrics", {})
            for metric, limit in sorted(bounds.items()):
                value = metrics.get(metric)
                if value is None:
                    failures.append(
                        f"{module}::{test_name}: metric {metric!r} not "
                        f"recorded ({kind} {limit:g})"
                    )
                    continue
                passed = (
                    value >= limit if kind == "floor" else value <= limit
                )
                verdict = "ok" if passed else "REGRESSION"
                if not passed:
                    failures.append(
                        f"{module}::{test_name}: {metric} = {value:.2f} "
                        f"{'below' if kind == 'floor' else 'above'} "
                        f"{kind} {limit:g}"
                    )
                print(
                    f"{module}::{test_name}: {metric} = {value:.2f} "
                    f"({kind} {limit:g}) [{verdict}]"
                )

    base_rss = max(
        (e.get("peak_rss_kb", 0) for e in baseline.values()), default=0
    )
    fresh_rss = max(
        (e.get("peak_rss_kb", 0) for e in fresh.values()), default=0
    )
    if base_rss and fresh_rss:
        print(
            f"{module}: peak RSS baseline {base_rss / 1024:.0f} MiB, "
            f"fresh {fresh_rss / 1024:.0f} MiB "
            f"({fresh_rss / base_rss:.2f}x, informational)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on benchmark wall-time regressions."
    )
    parser.add_argument("baseline_dir", type=Path,
                        help="directory with the committed baseline JSONs")
    parser.add_argument("fresh_dir", type=Path,
                        help="directory with freshly generated JSONs")
    parser.add_argument("--modules", nargs="*", default=list(DEFAULT_MODULES),
                        help="module stems to gate (default: kernel, "
                             "Table-3 and ingest benches)")
    parser.add_argument("--factor", type=float,
                        default=float(os.environ.get("PERF_GATE_FACTOR",
                                                     "1.5")),
                        help="allowed slowdown factor (default 1.5, or "
                             "PERF_GATE_FACTOR)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore tests faster than this (timer noise)")
    args = parser.parse_args(argv)

    failures: list[str] = []
    for module in args.modules:
        failures.extend(
            compare_module(module, args.baseline_dir, args.fresh_dir,
                           args.factor, args.min_seconds)
        )

    if failures:
        print("\nPerformance regressions detected:")
        for msg in failures:
            print(f"  {msg}")
        return 1
    print("\nNo performance regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
