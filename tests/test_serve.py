"""``repro serve`` daemon tests (repro.serve + the CLI entry point).

The daemon is exercised the way operators run it — a real subprocess
serving a real unix stream socket — covering the ISSUE-8 contracts:

* NDJSON protocol encode/decode and config validation,
* run/sweep digests are bit-identical to a local in-process session,
* a failed job (unknown plan) answers ``kind="job"`` and the daemon
  lives on,
* bounded admission: a full queue rejects with ``kind="busy"``,
* SIGTERM drains: the in-flight job is still answered, the daemon
  exits 0 and removes its socket,
* a mid-job worker SIGKILL is healed by the serve-default RetryPolicy
  (retries reported, digest unchanged, no leaked shm segments).
"""

import hashlib
import os
import signal
import socket as socketmod
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.circuit import format_netlist
from repro.circuit.ingest import ingest_file
from repro.core import SolverOptions
from repro.plan import Session, SimulationPlan, scenario_from_spec
from repro.serve import (
    MAX_LINE,
    ProtocolError,
    ServeConfig,
    ServeError,
    connect,
)
from repro.serve.protocol import decode, encode

from tests.conftest import build_small_pdn

T_END = 1e-9
SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestProtocol:
    def test_roundtrip(self):
        msg = {"id": 1, "op": "run", "scenario": {"scale_loads": 1.5}}
        assert decode(encode(msg)) == msg

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode(b"[1, 2, 3]\n")

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"{nope\n")

    def test_decode_rejects_oversize(self):
        line = b'{"pad": "' + b"x" * MAX_LINE + b'"}\n'
        with pytest.raises(ProtocolError):
            decode(line)


class TestServeConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_queue": 0},
        {"job_timeout": 0.0},
        {"job_timeout": -1.0},
        {"processes": -1},
    ])
    def test_validation(self, kwargs, tmp_path):
        with pytest.raises(ValueError):
            ServeConfig(socket_path=str(tmp_path / "s.sock"), **kwargs)


# -- daemon-subprocess harness ----------------------------------------------------


@pytest.fixture(scope="module")
def deck(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "grid.spice"
    path.write_text(format_netlist(build_small_pdn(), t_end=T_END))
    return path


def start_daemon(tmp_path, deck, *extra):
    """Launch ``repro serve`` in its own session; returns (proc, socket)."""
    sock = tmp_path / "repro.sock"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULTS_STATE", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--netlist", str(deck), "--socket", str(sock),
         "--t-end", "1n", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, start_new_session=True,
    )
    return proc, sock


def stop_daemon(proc):
    """SIGTERM the daemon and assert a clean drain (exit 0)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0, out
    return out


def raw_connection(sock_path):
    s = socketmod.socket(socketmod.AF_UNIX, socketmod.SOCK_STREAM)
    s.connect(str(sock_path))
    s.settimeout(60.0)
    return s, s.makefile("rb")


def local_digests(deck, specs):
    """What the daemon must answer: in-process session digests."""
    res = ingest_file(str(deck))
    options = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-7)
    compiled = SimulationPlan(
        res.system, options, t_end=T_END,
        decomposition="bump", batch="auto",
    ).compile()
    scenarios = [
        scenario_from_spec(s, res.system, index=i) if s is not None
        else None
        for i, s in enumerate(specs)
    ]
    with Session(compiled) as session:
        results = session.sweep(scenarios)
    return [
        hashlib.sha256(r.result.states.tobytes()).hexdigest()
        for r in results
    ]


HOT = {"name": "hot", "scale_loads": 1.3}


class TestDaemonBasics:
    def test_ping_run_sweep_status_and_job_errors(self, tmp_path, deck):
        proc, sock = start_daemon(tmp_path, deck)
        try:
            with connect(sock, timeout=30.0) as c:
                assert c.ping()["pong"] is True

                expected = local_digests(deck, [HOT, None])
                run = c.run(scenario=HOT)
                assert run["digest"] == expected[0]
                assert run["scenario"] == "hot"
                assert run["degraded_runs"] == 0

                sweep = c.sweep([HOT, {"name": "base"}])
                digests = [r["digest"] for r in sweep["results"]]
                assert digests == expected

                # A failed job answers kind="job"; the daemon lives on.
                with pytest.raises(ServeError) as excinfo:
                    c.run(plan="nonexistent")
                assert excinfo.value.kind == "job"
                assert "unknown plan" in str(excinfo.value)

                # An unknown op is a protocol error, not a death.
                bad = c.request("frobnicate", check=False)
                assert bad["ok"] is False and bad["kind"] == "protocol"

                status = c.status()
                assert status["draining"] is False
                assert status["jobs"]["done"] == 2  # the run + the sweep
                assert status["jobs"]["failed"] == 1
                # jobs_answered counts scenarios: 1 run + 2 swept.
                assert status["plans"]["default"]["jobs_answered"] == 3
        finally:
            out = stop_daemon(proc)
        assert "drained" in out
        assert not sock.exists()

    def test_load_op_compiles_a_second_plan(self, tmp_path, deck):
        """The load op compiles the deck under a new name with the
        request's settings (horizon from the deck's .tran); its baseline
        digest equals an in-process session over the same plan, and an
        unknown key answers kind="job" without killing the daemon."""
        proc, sock = start_daemon(tmp_path, deck)
        try:
            with connect(sock, timeout=30.0) as c:
                loaded = c.load(deck, name="second", eps=1e-6,
                                decomposition="source", batch="off")
                assert loaded["plan"] == "second"

                res = ingest_file(str(deck))
                compiled = SimulationPlan(
                    res.system, SolverOptions(eps_rel=1e-6),
                    t_end=res.stats.tran_stop,
                    decomposition="source", batch="off",
                ).compile()
                with Session(compiled) as session:
                    (expected,) = session.sweep([None])
                run = c.run(plan="second")
                assert run["digest"] == hashlib.sha256(
                    expected.result.states.tobytes()).hexdigest()
                assert run["digest"] != c.run()["digest"]

                with pytest.raises(ServeError) as excinfo:
                    c.load(deck, name="third", eps_rel=1e-6)
                assert excinfo.value.kind == "job"
                assert "eps_rel" in str(excinfo.value)
                assert "accepted: name, netlist, t_end" in str(excinfo.value)

                status = c.status()
                assert sorted(status["plans"]) == ["default", "second"]
                assert status["jobs"]["failed"] == 1
        finally:
            stop_daemon(proc)

    def test_load_checks_the_horizon_before_the_deck_opens(self, tmp_path, deck):
        """A load with t_end = -1 answers kind="job" naming the horizon;
        its netlist does not exist, so opening it would have named the
        file instead."""
        proc, sock = start_daemon(tmp_path, deck)
        try:
            with connect(sock, timeout=30.0) as c:
                with pytest.raises(ServeError) as excinfo:
                    c.load(tmp_path / "missing.spice", name="late", t_end=-1)
                assert excinfo.value.kind == "job"
                assert "t_end must be positive and finite, got -1" in str(excinfo.value)
                assert "missing.spice" not in str(excinfo.value)
                assert sorted(c.status()["plans"]) == ["default"]
        finally:
            stop_daemon(proc)

    def test_busy_rejection_when_queue_is_full(self, tmp_path, deck):
        """--max-queue 1 + a slow in-flight job: the third client is
        rejected immediately with kind="busy"."""
        proc, sock = start_daemon(
            tmp_path, deck,
            "--max-queue", "1", "--batch", "off",
            "--faults", "delay@0:1.5",
        )
        try:
            connect(sock, timeout=30.0).close()  # wait for readiness
            sa, fa = raw_connection(sock)
            sa.sendall(encode({"id": 1, "op": "run"}))
            time.sleep(0.5)   # job A dequeued, asleep under the delay
            sb, fb = raw_connection(sock)
            sb.sendall(encode({"id": 2, "op": "run"}))
            time.sleep(0.3)   # job B admitted; the queue is now full
            sc, fc = raw_connection(sock)
            sc.sendall(encode({"id": 3, "op": "run"}))

            rejected = decode(fc.readline())
            assert rejected["ok"] is False
            assert rejected["kind"] == "busy"

            a = decode(fa.readline())
            b = decode(fb.readline())
            assert a["ok"] is True and b["ok"] is True
            assert a["digest"] == b["digest"]
            for s, f in ((sa, fa), (sb, fb), (sc, fc)):
                f.close()
                s.close()
        finally:
            stop_daemon(proc)

    def test_sigterm_drain_answers_accepted_jobs(self, tmp_path, deck):
        """SIGTERM mid-job: the accepted job is still answered, then the
        daemon exits 0 and removes its socket."""
        proc, sock = start_daemon(
            tmp_path, deck, "--batch", "off", "--faults", "delay@0:2",
        )
        connect(sock, timeout=30.0).close()
        s, f = raw_connection(sock)
        s.sendall(encode({"id": 1, "op": "run"}))
        time.sleep(0.5)  # the job is executing (asleep under the delay)
        proc.send_signal(signal.SIGTERM)
        answer = decode(f.readline())
        assert answer["ok"] is True
        (expected,) = local_digests(deck, [None])
        assert answer["digest"] == expected
        f.close()
        s.close()
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "drained (1 done, 0 failed, 0 rejected)" in out
        assert not sock.exists()

    def test_draining_daemon_rejects_new_jobs(self, tmp_path, deck):
        proc, sock = start_daemon(
            tmp_path, deck, "--batch", "off", "--faults", "delay@0:2",
        )
        connect(sock, timeout=30.0).close()
        s, f = raw_connection(sock)
        s.sendall(encode({"id": 1, "op": "run"}))
        time.sleep(0.5)
        # An op-level shutdown drains exactly like SIGTERM; this live
        # connection's next job must be cleanly rejected.
        s.sendall(encode({"id": 2, "op": "shutdown"}))
        time.sleep(0.5)  # let the drain start (job 1 is still executing)
        s.sendall(encode({"id": 3, "op": "run"}))
        answers = {}
        for _ in range(3):
            msg = decode(f.readline())
            answers[msg["id"]] = msg
        assert answers[1]["ok"] is True       # accepted before the drain
        assert answers[2]["ok"] is True       # the shutdown ack
        assert answers[3]["ok"] is False
        assert answers[3]["kind"] == "draining"
        f.close()
        s.close()
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "1 done, 0 failed, 1 rejected" in out


class TestDaemonSurvivesWorkerDeath:
    def test_mid_job_worker_sigkill_is_healed(self, tmp_path, deck):
        """--processes 2 + an injected worker kill: the serve-default
        RetryPolicy heals the job, the digest matches the in-process
        answer, the daemon stays up, and nothing leaks in /dev/shm."""
        shm = Path("/dev/shm")
        before = (
            {p.name for p in shm.glob("repro*")} if shm.is_dir() else set()
        )
        proc, sock = start_daemon(
            tmp_path, deck, "--processes", "2", "--faults", "kill@0",
        )
        try:
            with connect(sock, timeout=30.0) as c:
                run = c.run(scenario=HOT)
                assert run["retries"] >= 1
                assert run["degraded_runs"] == 0
                (expected,) = local_digests(deck, [HOT])
                assert run["digest"] == expected

                # The daemon survived the broken pool: same socket, same
                # warm plan, next job answers without retries.
                again = c.run(scenario=HOT)
                assert again["digest"] == expected
                assert again["retries"] == 0

                status = c.status()
                sup = status["plans"]["default"]["supervision"]
                assert sup["retries"] >= 1
                assert sup["pool_failures"] >= 1
                assert sup["degradations"] == 0
        finally:
            out = stop_daemon(proc)
        assert "drained (2 done, 0 failed, 0 rejected)" in out
        after = (
            {p.name for p in shm.glob("repro*")} if shm.is_dir() else set()
        )
        assert after - before == set()

    def test_client_connect_times_out_cleanly(self, tmp_path):
        with pytest.raises((FileNotFoundError, ConnectionRefusedError)):
            connect(tmp_path / "nonexistent.sock", timeout=0.3)

    def test_client_reports_closed_connection(self, tmp_path, deck):
        proc, sock = start_daemon(tmp_path, deck)
        try:
            c = connect(sock, timeout=30.0)
            c.ping()
        finally:
            stop_daemon(proc)
        with pytest.raises((ServeError, ConnectionError)):
            c.ping()
        c.close()
