"""Unit tests for TransientResult, SolverStats and SolverOptions."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import SolverOptions, TransientResult
from repro.core.stats import SolverStats


@pytest.fixture
def result(small_pdn_system):
    times = np.array([0.0, 1e-10, 2e-10, 4e-10])
    states = np.outer([0.0, 1.0, 2.0, 4.0], np.ones(small_pdn_system.dim))
    return TransientResult(small_pdn_system, times, states,
                           SolverStats(), method="test")


class TestTransientResult:
    def test_interpolation_midpoint(self, result):
        assert result.at(5e-11)[0] == pytest.approx(0.5)
        assert result.at(3e-10)[0] == pytest.approx(3.0)

    def test_clamping_outside_range(self, result):
        assert result.at(-1.0)[0] == 0.0
        assert result.at(1.0)[0] == 4.0

    def test_exact_grid_points(self, result):
        for i, t in enumerate(result.times):
            assert result.at(t)[0] == pytest.approx(result.states[i, 0])

    def test_sample_stacks_rows(self, result):
        out = result.sample(np.array([0.0, 1e-10]))
        assert out.shape == (2, result.states.shape[1])

    def test_voltage_series(self, result, small_pdn_system):
        v = result.voltage("g0_0")
        idx = small_pdn_system.node_index("g0_0")
        assert np.allclose(v, result.states[:, idx])
        assert np.all(result.voltage("0") == 0.0)

    def test_shifted(self, result):
        shifted = result.shifted(np.ones(result.states.shape[1]))
        assert np.allclose(shifted.states, result.states + 1.0)

    def test_validation_shape(self, small_pdn_system):
        with pytest.raises(ValueError, match="inconsistent"):
            TransientResult(small_pdn_system, np.array([0.0, 1.0]),
                            np.zeros((3, small_pdn_system.dim)))

    def test_validation_monotone_times(self, small_pdn_system):
        with pytest.raises(ValueError, match="non-decreasing"):
            TransientResult(small_pdn_system, np.array([1.0, 0.0]),
                            np.zeros((2, small_pdn_system.dim)))


class TestSolverStats:
    def test_dim_aggregates(self):
        st = SolverStats(krylov_dims=[4, 6, 8])
        assert st.avg_krylov_dim == 6.0
        assert st.peak_krylov_dim == 8

    def test_empty_dims(self):
        st = SolverStats()
        assert st.avg_krylov_dim == 0.0
        assert st.peak_krylov_dim == 0

    def test_solve_totals(self):
        st = SolverStats(n_solves_krylov=10, n_solves_etd=6, n_solves_dc=1)
        assert st.n_solves_transient == 16
        assert st.n_solves_total == 17

    def test_merge(self):
        a = SolverStats(n_steps=2, krylov_dims=[3], factor_seconds=1.0)
        b = SolverStats(n_steps=3, krylov_dims=[5], factor_seconds=0.5)
        c = a.merge(b)
        assert c.n_steps == 5
        assert c.krylov_dims == [3, 5]
        assert c.factor_seconds == 1.5

    def test_summary_string(self):
        assert "ma=" in SolverStats(krylov_dims=[2]).summary()


class TestSolverOptions:
    def test_aliases_canonicalised(self):
        assert SolverOptions(method="MEXP").method == "standard"
        assert SolverOptions(method="rmatex").method == "rational"
        assert SolverOptions(method="I-MATEX").method == "inverted"

    def test_with_method(self):
        """A copy with another method is canonicalised like a new one."""
        opts = SolverOptions(method="rational", gamma=2e-10)
        other = replace(opts, method="imatex")
        assert other.method == "inverted"
        assert other.gamma == 2e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(method="simpson")
        with pytest.raises(ValueError):
            SolverOptions(gamma=-1.0)
        with pytest.raises(ValueError):
            SolverOptions(eps_rel=-1e-9)
        with pytest.raises(ValueError):
            SolverOptions(m_max=0)
