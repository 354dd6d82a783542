"""Unit tests for error metrics, the speedup model and table rendering."""

import numpy as np
import pytest

from repro.analysis import (
    SpeedupModel,
    Table,
    avg_error,
    error_metrics,
    max_error,
    relative_error_pct,
)
from repro.core import TransientResult
from repro.core.stats import SolverStats


@pytest.fixture
def pair(small_pdn_system):
    s = small_pdn_system
    times = np.array([0.0, 1e-10, 2e-10])
    base = np.zeros((3, s.dim))
    other = base.copy()
    other[:, 0] = [0.0, 0.1, 0.2]  # node-voltage column differs
    other[:, s.n_nodes] = 99.0  # branch-current diff must be ignored
    a = TransientResult(s, times, base, SolverStats())
    b = TransientResult(s, times, other, SolverStats())
    return a, b


class TestErrorMetrics:
    def test_max_and_avg(self, pair):
        a, b = pair
        m = error_metrics(b, a)
        assert m["max"] == pytest.approx(0.2)
        assert m["avg"] == pytest.approx(
            0.3 / (3 * a.system.n_nodes)
        )

    def test_branch_currents_ignored(self, pair):
        a, b = pair
        assert max_error(b, a) == pytest.approx(0.2)  # not 99

    def test_identity_is_zero(self, pair):
        a, _ = pair
        assert max_error(a, a) == 0.0
        assert avg_error(a, a) == 0.0

    def test_relative_error_pct(self, small_pdn_system):
        s = small_pdn_system
        times = np.array([0.0, 1e-10])
        ref = np.full((2, s.dim), 2.0)
        approx = ref.copy()
        approx[1, 0] = 2.1
        r = TransientResult(s, times, ref, SolverStats())
        x = TransientResult(s, times, approx, SolverStats())
        assert relative_error_pct(x, r) == pytest.approx(5.0)

    def test_relative_error_zero_reference(self, small_pdn_system):
        s = small_pdn_system
        times = np.array([0.0])
        z = TransientResult(s, times, np.zeros((1, s.dim)), SolverStats())
        assert relative_error_pct(z, z) == 0.0


class TestSpeedupModel:
    def test_eq11_reduces_to_one_without_decomposition(self):
        model = SpeedupModel(t_bs=1e-3, t_he=1e-5, t_serial=0.1)
        assert model.speedup_over_single(K=100, k=100, m=10) == pytest.approx(1.0)

    def test_eq11_grows_with_decomposition(self):
        model = SpeedupModel(t_bs=1e-3, t_he=1e-5, t_serial=0.0)
        s_coarse = model.speedup_over_single(K=100, k=50, m=10)
        s_fine = model.speedup_over_single(K=100, k=5, m=10)
        assert s_fine > s_coarse > 1.0

    def test_eq12_against_hand_computation(self):
        model = SpeedupModel(t_bs=2.0, t_he=1.0, t_serial=3.0)
        # (N*Tbs + Ts) / (k*m*Tbs + K*THe + Ts)
        expected = (1000 * 2.0 + 3.0) / (5 * 10 * 2.0 + 100 * 1.0 + 3.0)
        assert model.speedup_over_fixed(N=1000, K=100, k=5, m=10) \
            == pytest.approx(expected)

    def test_speedup_saturates_when_snapshots_dominate(self):
        model = SpeedupModel(t_bs=1e-3, t_he=1e-3, t_serial=0.0)
        s1 = model.speedup_over_fixed(N=1000, K=100, k=5, m=10)
        s2 = model.speedup_over_fixed(N=1000, K=100, k=1, m=10)
        # K*THe floor limits the gain of further decomposition.
        assert s2 / s1 < 2.0


class TestTable:
    def test_render_alignment(self):
        t = Table(["name", "value"], title="demo")
        t.add_row(["a", 1.0])
        t.add_row(["longer", 123456.0])
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert all(len(row) == len(lines[1]) for row in lines[1:])

    def test_row_width_validation(self):
        t = Table(["a"])
        with pytest.raises(ValueError):
            t.add_row([1, 2])

    def test_float_formatting(self):
        t = Table(["x"])
        t.add_row([1.23456e-7])
        assert "1.23e-07" in t.render() or "1.23e-7" in t.render()
