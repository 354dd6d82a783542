"""Smoke test of the benchmark of record (collected by tier-1 pytest).

Runs every workload through ``run.py --smoke`` (tiny fixed sizes, both
passes) and holds the emitted names against ``BENCHMARK.json`` — so the
manifest, ``metrics.py`` and what the runner prints cannot drift apart —
then exercises ``--compare`` and the contract's one-workload form.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = run_bench("--smoke", "--seconds", "0.1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out, json.loads(out.read_text()), proc.stdout


def test_emitted_names_equal_the_manifest(smoke):
    _, doc, stdout = smoke
    assert doc["smoke"] is True  # can never pass for a measurement
    assert list(doc["workloads"]) == WORKLOADS
    for name in [*WORKLOADS, *END_TO_END, *PER_LAYER]:
        assert NAME.fullmatch(name), name
    for wl, entry in doc["workloads"].items():
        for section, expected in (("end_to_end", END_TO_END),
                                  ("per_layer", PER_LAYER)):
            got = {k: v["unit"] for k, v in entry[section].items()}
            assert got == expected, (wl, section)
            assert all(got.values()), "every metric carries a unit"
        for name in [*END_TO_END, *PER_LAYER]:
            assert name in stdout
        assert entry["failed_share"] == 0, entry["checks"]
        assert entry["end_to_end"]["scenario_ms"]["n"] >= 2
        assert entry["per_layer"]["trace.coverage"]["value"] >= 0.9, wl


def test_manifest_stays_inside_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    assert "setup_s" in END_TO_END
    # ISSUE 11: a metric that cannot hold 20 % is lengthened or demoted.
    assert all(0 < m["bound"] <= 0.20 for m in MANIFEST["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in MANIFEST["workloads"])


def test_contract_form_prints_one_json_line():
    proc = run_bench("--workload", "sweep_rom", "--seed", "7",
                     "--seconds", "0.1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_compare_passes_on_itself_and_fails_on_a_doctored_copy(smoke, tmp_path):
    out, doc, _ = smoke
    same = run_bench("--compare", str(out), str(out))
    assert same.returncode == 0, same.stdout

    slower = json.loads(json.dumps(doc))
    slower["workloads"]["sweep_full"]["end_to_end"]["scenario_ms"]["value"] *= 2
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    worse = run_bench("--compare", str(out), str(path))
    assert worse.returncode == 1 and "WORSE" in worse.stdout

    recount = json.loads(json.dumps(doc))
    pairs = recount["workloads"]["run_pernode"]["per_layer"]
    pairs["linalg.lu.substitution_pairs"]["value"] += 1
    path = tmp_path / "recount.json"
    path.write_text(json.dumps(recount))
    changed = run_bench("--compare", str(out), str(path))
    assert changed.returncode == 1 and "repeat exactly" in changed.stdout


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(["ruff", "check", "--no-cache", str(BENCH)],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
