"""``run.py --compare A.json B.json``: hold B against A, metric by metric.

Applies the bounds fixed in ``BENCHMARK.json``: relative for the
end-to-end metrics, absolute zero for ``failed_share``, exact equality
for count-type layer metrics (they repeat exactly at a fixed seed, so
any difference is a behaviour change, not noise).  Every ratio is B/A —
the base is always A.  A pair inside its bound whose own samples spread
wider than the bound is reported ``unresolved``, never ``unchanged``.
"""

from __future__ import annotations

import json
import statistics


def iqr_spread(samples) -> float | None:
    """Inter-quartile distance as a share of the median (None: too few)."""
    if not samples or len(samples) < 2:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4)
    med = statistics.median(samples)
    return (q3 - q1) / med if med else None


def _end_to_end_row(spec: dict, a: dict, b: dict) -> tuple[str, str]:
    va, vb, bound = a["value"], b["value"], spec["bound"]
    worse = (vb - va) / va if spec["better"] == "lower" else (va - vb) / va
    if worse > bound:
        return "WORSE", f"beyond the {bound:.0%} bound"
    spreads = [
        s for s in (iqr_spread(a.get("samples")), iqr_spread(b.get("samples")))
        if s is not None
    ]
    if spreads and max(spreads) > bound:
        return "unresolved", f"sample IQR spread {max(spreads):.1%} > bound"
    if worse < -bound:
        return "better", ""
    return "unchanged", ""


def compare(path_a: str, path_b: str, manifest: dict) -> int:
    """Print one row per (workload, metric); 1 on any violation."""
    with open(path_a) as fa, open(path_b) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    if doc_a.get("smoke") or doc_b.get("smoke"):
        print("note: a smoke result is not a measurement")
    for key in ("nproc", "cpu_model", "blas_threads"):
        fa_, fb_ = doc_a["fingerprint"].get(key), doc_b["fingerprint"].get(key)
        if fa_ != fb_:
            print(f"note: fingerprints differ on {key}: {fa_!r} vs {fb_!r}")

    e2e = {m["name"]: m for m in manifest["end_to_end"]}
    counts = {m["name"] for m in manifest["per_layer"] if m["unit"] == "count"}
    violations = 0
    print(f"{'workload':<12} {'metric':<38} {'A':>13} {'B':>13} "
          f"{'B/A':>7}  status")
    for wl in (w["name"] for w in manifest["workloads"]):
        ra, rb = doc_a["workloads"].get(wl), doc_b["workloads"].get(wl)
        if ra is None or rb is None:
            print(f"{wl:<12} missing from {'A' if ra is None else 'B'}")
            violations += 1
            continue
        rows = []
        for name, spec in e2e.items():
            a, b = ra["end_to_end"][name], rb["end_to_end"][name]
            rows.append((name, a["value"], b["value"],
                         *_end_to_end_row(spec, a, b)))
        fa_, fb_ = ra["failed_share"], rb["failed_share"]
        rows.append(("failed_share", fa_, fb_,
                     "WORSE" if fb_ > fa_ else "unchanged",
                     "absolute bound 0"))
        for name, a in ra["per_layer"].items():
            va, vb = a["value"], rb["per_layer"][name]["value"]
            if name in counts:
                status = ("unchanged", "") if va == vb else (
                    "WORSE", "count metrics must repeat exactly")
            else:
                status = ("info", "")
            rows.append((name, va, vb, *status))
        for name, va, vb, status, why in rows:
            ratio = f"{vb / va:7.3f}" if va else "      -"
            print(f"{wl:<12} {name:<38} {va:>13.6g} {vb:>13.6g} {ratio}  "
                  f"{status}{' (' + why + ')' if why else ''}")
            violations += status == "WORSE"
    print(f"compare: {violations} violation(s); every ratio is B/A "
          f"(base: {path_a})")
    return 1 if violations else 0
