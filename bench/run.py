#!/usr/bin/env python3
"""The benchmark of record: one command, six workloads, two passes.

::

    python bench/run.py [--seed 2014] [--out FILE]       # everything
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
    python bench/run.py --compare A.json B.json

Without ``--workload`` every workload of ``BENCHMARK.json`` runs twice —
untraced for the end-to-end metrics, then traced for the per-layer
metrics — each measurement in its own fresh subprocess
(:mod:`child`), every output checked, every metric printed by name with
its unit; the exit status is non-zero if any check failed.  With
``--workload`` (the form the benchmark contract drives) one workload
runs one pass and the last stdout line is the contract's JSON object.

This process never imports numpy or the program: it generates nothing
and measures nothing itself, it only spawns children with the pinned
environment of :mod:`env` and folds their reports.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import env
import metrics
from compare import compare

#: Scratch space (decks, sockets, daemon logs), emptied after every
#: measurement.  Inside the checkout because the benchmark contract lets
#: a run write nowhere else; ``.gitignore`` names it.
WORK = env.ROOT / ".bench_work"
#: Operation seconds per extra fresh-process set-up of an untraced
#: measurement; ``setup_s`` is the first quartile over these probes and
#: the measuring child's own set-up (8 s: 2 samples, 24 s: 4).  A probe
#: costs 2-5 s of a contract run that may take ~20 s, so there is one.
SECONDS_PER_PROBE = 8.0
#: Default ``--seconds`` of the untraced pass in the all-workloads form,
#: as a multiple of the contract's ``run_seconds`` (the traced pass keeps
#: ``run_seconds``).  The contract's runs are short because its driver
#: makes 136 of them and compares medians over ten; one set held against
#: another set has no such averaging, so its end-to-end sections are
#: longer instead.
SUITE_FACTOR = 3
#: A child that has not reported by then is killed (contract: 180 s).
CHILD_TIMEOUT_S = 160.0


def spawn_child(spec: dict, workdir: Path) -> dict:
    """Run one child to completion; its last stdout line is its report."""
    spec = {**spec, "workdir": str(workdir), "spawned_at": time.perf_counter()}
    proc = subprocess.Popen(
        [sys.executable, str(env.ROOT / "bench" / "child.py"),
         json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env.child_env(), cwd=env.ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(
            f"bench: {spec['workload']} child exceeded {CHILD_TIMEOUT_S:g}s"
        ) from None
    finally:
        # The child leads its own session: whatever it left running (a
        # hung child, a pool worker or daemon orphaned by a crash) dies
        # with it.  A clean exit leaves the group empty.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit(
            f"bench: {spec['workload']} child exited with {proc.returncode}"
        )
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, spans_path: str | None = None) -> dict:
    """One pass of one workload in a fresh child (and its set-up probes)."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke, "setup_only": False,
            "probes": 0 if trace else round(seconds / SECONDS_PER_PROBE),
            "spans_path": spans_path}
    try:
        return spawn_child(spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(report: dict) -> dict:
    """The end-to-end metrics of an untraced report, with their samples."""
    summary = metrics.summarise(report["phases"]["untraced"])
    per_scenario = summary["per_scenario_ms"]
    if not per_scenario:
        raise SystemExit(
            f"bench: {report['workload']} timed no operation: "
            f"{report['failures']}"
        )
    values = {
        "scenario_ms": (summary["scenario_ms"], per_scenario),
        "peak_rss_mib": (report["peak_rss_mib"], []),
        "setup_s": (metrics.low_quartile(report["setup_samples"]),
                    report["setup_samples"]),
    }
    return {
        name: {"value": value, "unit": metrics.UNITS[name],
               "n": max(len(samples), 1), "samples": samples}
        for name, (value, samples) in values.items()
    }


def per_layer(report: dict) -> dict:
    return {
        name: {"value": value, "unit": metrics.UNITS[name]}
        for name, value in report["layers"].items()
    }


def report_failures(report: dict) -> None:
    for check in report["checks"]:
        if not check["ok"]:
            print(f"FAILED check [{report['workload']}] {check['name']}: "
                  f"{check['detail']}", file=sys.stderr)
    for failure in report["failures"]:
        print(f"FAILED op [{report['workload']}] {failure}", file=sys.stderr)


def run_contract(args) -> int:
    """``--workload``: one pass, the contract's JSON on the last line."""
    seconds = args.seconds or metrics.MANIFEST["run_seconds"]
    report = measure(args.workload, args.seed, seconds,
                     bool(args.trace), args.smoke)
    report_failures(report)
    chosen = per_layer(report) if args.trace else end_to_end(report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in chosen.items()
        },
    }))
    return 0 if report["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced; table, JSON, exit status."""
    run_seconds = metrics.MANIFEST["run_seconds"]
    seconds = {
        "untraced": args.seconds or SUITE_FACTOR * run_seconds,
        "traced": args.seconds or run_seconds,
    }
    doc = {"schema": 1, "smoke": args.smoke, "seed": args.seed,
           "seconds": seconds, "workloads": {}}
    failed_total = 0
    for wl in metrics.WORKLOADS:
        spans = (
            f"{os.path.splitext(args.out)[0]}.{wl}.spans.json"
            if args.out else None
        )
        plain = measure(wl, args.seed, seconds["untraced"], False, args.smoke)
        traced = measure(wl, args.seed, seconds["traced"], True, args.smoke,
                         spans)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        failed_total += failed
        entry = doc["workloads"][wl] = {
            "end_to_end": end_to_end(plain),
            "per_layer": per_layer(traced),
            "ops_attempted": attempted,
            "ops_failed": failed,
            "failed_share": failed / attempted,
            "checks": plain["checks"] + traced["checks"],
        }
        doc["fingerprint"] = plain["fingerprint"]
        report_failures(plain)
        report_failures(traced)
        print(f"\n== {wl}  ({attempted} ops attempted, {failed} failed, "
              f"failed_share {failed / attempted:g})")
        for name, m in entry["end_to_end"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} "
                  f"n={m['n']}")
        for name, m in entry["per_layer"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print("\nfingerprint:", json.dumps(doc["fingerprint"]))
    if args.smoke:
        print("SMOKE run: tiny sizes, not a measurement")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
        print(f"wrote {args.out}")
    print("FAILED" if failed_total else "all checks passed")
    return 1 if failed_total else 0


def main(argv=None) -> int:
    if not (env.SRC / "repro").is_dir():
        raise SystemExit(
            f"bench: the program under test is missing ({env.SRC}/repro)"
        )
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float,
                        help="operation time per timed section (default: "
                             "run_seconds of BENCHMARK.json; the untraced "
                             f"pass of the all-workloads form {SUITE_FACTOR} x "
                             "that)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result JSON (and span files)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed sizes; stamped, never a measurement")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, metrics.MANIFEST)
    if args.workload:
        return run_contract(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
