"""The measuring child: one workload, one pass, one fresh process.

``run.py`` spawns this file once per measurement, so peak RSS, imports
and lazy initialisation of one workload never leak into another.  The
child prints one JSON object on its last stdout line.

Pass layout::

    untraced : inputs | set-up  | ops | probe | ops | checks
    traced   : inputs | set-up* | reference op, traced* op, ...   | checks
                                  (* = layer wrappers installed)

``--seconds`` is operation time, so it excludes the *probes*: further
fresh processes that run only inputs and set-up (this file again, with
``setup_only``) and report their ``setup_s``.  They sit between the
operations, evenly spaced, because the reference box slows down in
bursts of a few seconds: samples of one metric taken back to back would
share a burst, samples spread over the run do not.

The traced pass interleaves unwrapped *reference* operations with the
wrapped ones, on the same inputs, until each kind has ``--seconds`` of
operation time: the tracing overhead is then a paired measurement
inside one process that machine drift hits both sides of equally.
End-to-end numbers only ever come from an untraced pass.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

for _var in env.BLAS_VARS:  # before numpy: the pin is read at import
    if os.environ.get(_var) != "1":
        raise SystemExit(f"bench child: {_var} is not pinned to 1")

import metrics  # noqa: E402
from layer_trace import SETUP, Tracer  # noqa: E402

from repro.linalg.lu import FACTORIZATION_CACHE  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Context  # noqa: E402

#: A set-up probe that has not reported by then is killed.
PROBE_TIMEOUT_S = 60.0


def setup_probe(spec: dict) -> float:
    """``setup_s`` of one more fresh process on the same inputs."""
    probe = {**spec, "setup_only": True, "probes": 0,
             "spawned_at": time.perf_counter()}
    proc = subprocess.run(
        [sys.executable, __file__, json.dumps(probe)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up probe exited with {proc.returncode}: {proc.stderr[-400:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_phases(wl, tracer, seconds: float, breaks=()) -> dict:
    """Closed loop: the next operation starts when the previous returned.

    Untraced pass: one phase.  Traced pass: every operation runs twice,
    once unwrapped (the reference, not accounted) and once wrapped, the
    order alternating so neither kind always runs second.
    ``breaks`` are callables run between operations, evenly spaced over
    ``seconds`` of operation time.
    """
    kinds = ("untraced",) if tracer is None else ("untraced", "traced")
    phases = {kind: {"walls": [], "scenarios": []} for kind in kinds}
    breaks = list(breaks)
    n_breaks = len(breaks)

    def spent() -> float:
        return min(sum(phase["walls"]) for phase in phases.values())

    wl.rewind()
    i = 0
    # A traced pass ends on an even count, so each kind ran first equally
    # often (the first of a pair pays for memory the second finds mapped).
    while i < wl.min_ops or spent() < seconds or (
        tracer is not None and i % 2
    ):
        for kind in kinds if i % 2 == 0 else kinds[::-1]:
            traced = kind == "traced"
            if traced:
                tracer.op = i
                tracer.install()
            try:
                wall, n = wl.op(i, record=traced or tracer is None)
            except Exception as exc:  # a raising operation is a failed one
                wl.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
                return phases
            finally:
                if traced:
                    tracer.uninstall()
            phases[kind]["walls"].append(wall)
            phases[kind]["scenarios"].append(n)
        i += 1
        due = seconds * (n_breaks - len(breaks) + 1) / (n_breaks + 1)
        if breaks and spent() >= due:
            breaks.pop(0)()
    return phases


def layer_metrics(wl, tracer, phases, inputs_s: float,
                  resident_mib: float) -> dict:
    """Every per-layer metric of one traced pass (0 for a bypassed layer)."""
    out = dict.fromkeys(metrics.PER_LAYER, 0.0)
    traced, reference = phases["traced"], phases["untraced"]
    ops = range(len(traced["walls"]))
    window = range(min(wl.window, len(ops)))
    n_scen = max(sum(traced["scenarios"]), 1)

    timed = tracer.self_times(ops)
    in_window = tracer.self_times(window)
    in_setup = tracer.self_times([SETUP])
    for span in set(timed) | set(in_setup):
        seconds, calls = f"{span}_s", f"{span}_calls"
        if span == "core.superposition.superpose":
            calls = "core.superposition.calls"
        paid_in_setup = (
            seconds in metrics.SETUP_LAYERS and seconds not in wl.per_op_layers
        )
        if seconds in out:
            out[seconds] = (
                in_setup.get(span, (0.0, 0))[0] if paid_in_setup
                else timed.get(span, (0.0, 0))[0] / n_scen
            )
        if calls in out:
            out[calls] = (in_setup if paid_in_setup else in_window).get(
                span, (0.0, 0)
            )[1]
    for key in ("linalg.lu.solve_many_cols", "dist.block_runner.width",
                "dist.shm.bytes", "serve.request_bytes"):
        out[key] = tracer.counter(window, key)
    out["dist.executors.worker_busy_s"] = (
        tracer.counter(ops, "dist.executors.worker_busy_s") / n_scen
    )
    pool_runs = timed.get("dist.executors.run", (0.0, 0))[1]
    if pool_runs:
        out["dist.executors.worker_imbalance"] = (
            tracer.counter(ops, "dist.executors.worker_imbalance") / pool_runs
        )

    # Public counters the program returned (no wrapper involved).
    for key, total in wl.phase_seconds.items():
        out[key] = total / n_scen
    if out["circuit.ingest.parse_s"]:
        out["circuit.ingest.cards_per_s"] = (
            wl.layer["circuit.ingest.cards"] / out["circuit.ingest.parse_s"]
        )
    w, s = wl.window_counts, wl.setup_counts
    hits, misses = w["hits"] + s["hits"], w["misses"] + s["misses"]
    out["linalg.lu.cache_hits"] = hits
    out["linalg.lu.cache_misses"] = misses
    out["linalg.lu.cache_evictions"] = w["evictions"] + s["evictions"]
    out["linalg.lu.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    out["linalg.lu.resident_mib"] = resident_mib
    out["linalg.lu.substitution_pairs"] = w["pairs"]
    out["linalg.krylov.bases"] = w["bases"]
    out["linalg.krylov.reuses"] = w["reuses"]
    out["core.solver.steps"] = w["steps"]
    if w["steps"]:
        out["linalg.krylov.reuse_ratio"] = w["reuses"] / w["steps"]
    if wl.window_dims:
        out["linalg.krylov.avg_dim"] = statistics.fmean(wl.window_dims)
        out["linalg.krylov.peak_dim"] = max(wl.window_dims)
    consulted = w["rom_accepted"] + w["rom_fallbacks"]
    if consulted:
        out["rom.accepted"] = w["rom_accepted"]
        out["rom.fallbacks"] = w["rom_fallbacks"]
        out["rom.fallback_rate"] = w["rom_fallbacks"] / consulted
        out["rom.bound_max"] = w["rom_bound_max"]
    out.update(wl.layer)

    # The benchmark's own numbers.
    ref, trc = metrics.summarise(reference), metrics.summarise(traced)
    out["bench.inputs_s"] = inputs_s
    out["bench.scenario_median_ms"] = ref["median_ms"]
    out["bench.scenario_p95_ms"] = ref["p95_ms"]
    out["bench.scenarios_per_s"] = ref["scenarios_per_s"]
    if ref["scenario_ms"]:
        out["trace.overhead_pct"] = (
            (trc["scenario_ms"] - ref["scenario_ms"]) / ref["scenario_ms"] * 100
        )
    if traced["walls"]:
        out["trace.coverage"] = tracer.root_seconds(ops) / sum(traced["walls"])
    return out


def run(spec: dict) -> dict:
    sizes = SMOKE if spec["smoke"] else FULL
    tracer = Tracer() if spec["trace"] else None
    ctx = Context(spec["seed"], sizes, Path(spec["workdir"]), tracer)
    wl = WORKLOADS[spec["workload"]](ctx)
    try:
        t0 = time.perf_counter()
        wl.inputs()
        inputs_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.install()
        wl.setup()
        # perf_counter is CLOCK_MONOTONIC, shared with the parent: set-up
        # is timed from the spawn, so interpreter start and imports count.
        setup_s = time.perf_counter() - spec["spawned_at"] - inputs_s
        if tracer is not None:
            tracer.uninstall()
        if spec["setup_only"]:
            return {"setup_s": setup_s}

        setup_samples = [setup_s]
        phases = timed_phases(
            wl, tracer, spec["seconds"],
            [lambda: setup_samples.append(setup_probe(spec))] * spec["probes"],
        )
        wl.finish()
        peak_rss_mib = wl.rss_mib()
        resident_mib = FACTORIZATION_CACHE.stats()["resident_bytes"] / 2**20
        wl.measured = metrics.summarise(phases["untraced"])
        checks = wl.check()
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()

    failed_checks = [c for c in checks if not c[1]]
    answered = sum(sum(p["scenarios"]) for p in phases.values())
    result = {
        "workload": wl.name,
        "setup_samples": setup_samples,
        "phases": phases,
        "peak_rss_mib": peak_rss_mib,
        # An operation is one scenario answered or one correctness check.
        "attempted": answered + len(wl.failures) + len(checks),
        "failed": len(wl.failures) + len(failed_checks),
        "failures": wl.failures[:20],
        "checks": [
            {"name": name, "ok": bool(ok), "detail": detail}
            for name, ok, detail in checks
        ],
        "fingerprint": env.fingerprint(spec["seed"]),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(
            wl, tracer, phases, inputs_s, resident_mib
        )
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w") as f:
                json.dump({"workload": wl.name, "spans": tracer.spans}, f)
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
