"""The suite's /dev/shm leak sanitizer reclaims only its own segments."""

import os
import subprocess
import sys

from tests.conftest import reclaimable_segment


def segment(pid: int) -> str:
    return f"repro{pid}xdeadbeeft0"


class TestReclaimableSegment:
    def test_own_pid_is_reclaimable(self):
        assert reclaimable_segment(segment(os.getpid()))

    def test_live_parent_pid_is_left_alone(self):
        """Another live process (say, a second pytest session) owns its
        segments: reclaiming them would break its runs."""
        assert not reclaimable_segment(segment(os.getppid()))

    def test_finished_subprocess_pid_is_reclaimable(self):
        """A finished (and reaped) worker or CLI subprocess of this
        session leaves its segments to the session."""
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait() == 0
        assert reclaimable_segment(segment(child.pid))

    def test_foreign_names_are_left_alone(self):
        assert not reclaimable_segment("repro_other")
        assert not reclaimable_segment("psm_1234")
