"""Unit tests for LTS/GTS/Snapshot schedules (paper Sec. 3.1)."""

import pytest

from repro.core import TransitionSchedule, build_schedule


class TestFullSystemSchedule:
    def test_all_points_are_lts_without_decomposition(self, small_pdn_system):
        sched = build_schedule(small_pdn_system, 1e-9)
        assert all(sched.is_lts)
        assert sched.points[0] == 0.0
        assert sched.points[-1] == 1e-9

    def test_t_end_validation(self, small_pdn_system):
        with pytest.raises(ValueError):
            build_schedule(small_pdn_system, 0.0)


class TestDecomposedSchedule:
    def test_local_flags_match_own_waveform(self, small_pdn_system):
        s = small_pdn_system
        # Input 0 = I0 (delay 1e-10); input 1 = I1 (delay 2e-10).
        sched = build_schedule(s, 1e-9, local_inputs=(0,))
        own = set(s.local_transition_spots(0, 1e-9))
        for t, is_lts in zip(sched.points, sched.is_lts):
            if t == 0.0:
                assert is_lts  # initial basis always generated
            elif is_lts:
                assert any(abs(t - o) <= 1e-9 * max(t, 1e-30) for o in own)

    def test_snapshots_are_other_groups_spots(self, small_pdn_system):
        s = small_pdn_system
        sched0 = build_schedule(s, 1e-9, local_inputs=(0,))
        sched1 = build_schedule(s, 1e-9, local_inputs=(1,))
        # Grids identical, flags complementary except t=0 and t_end.
        assert sched0.points == sched1.points
        interior = list(zip(sched0.points, sched0.is_lts, sched1.is_lts))[1:-1]
        for t, a, b in interior:
            assert a != b, f"point {t} flagged LTS for both singleton groups"

    def test_counts(self, small_pdn_system):
        s = small_pdn_system
        sched = build_schedule(s, 1e-9, local_inputs=(0,))
        assert sched.n_points == len(sched.points)
        # I0 has 5 LTS in range (0 + 4 bump corners); t=0 overlaps.
        assert sched.n_lts == 5

    def test_shared_global_points(self, small_pdn_system):
        s = small_pdn_system
        gts = s.global_transition_spots(1e-9)
        a = build_schedule(s, 1e-9, local_inputs=(0,), global_points=gts)
        b = build_schedule(s, 1e-9, local_inputs=(1,), global_points=gts)
        assert a.points == b.points

    def test_global_points_clipped_and_padded(self, small_pdn_system):
        sched = build_schedule(
            small_pdn_system, 1e-9,
            local_inputs=(0,),
            global_points=[2e-10, 5e-10, 2.0],  # 2.0 out of range
        )
        assert sched.points[0] == 0.0
        assert sched.points[-1] == 1e-9
        assert 2.0 not in sched.points


class TestScheduleContainer:
    def test_segments_triples(self):
        sched = TransitionSchedule(
            points=(0.0, 1.0, 2.0), is_lts=(True, False, True), t_end=2.0
        )
        assert sched.segments() == [(0.0, 1.0, True), (1.0, 2.0, False)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TransitionSchedule(points=(0.0,), is_lts=(True, False), t_end=1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TransitionSchedule(points=(), is_lts=(), t_end=1.0)
