"""Unit tests for the fixed-step baselines (TR, BE) and references."""

import numpy as np
import pytest

from repro.baselines import (
    TrapezoidalIntegrator,
    dc_operating_point,
    reference_backward_euler,
    reference_exact,
    simulate_backward_euler,
    simulate_trapezoidal,
)
from repro.linalg import exact_transient


def max_err_vs_exact(result, system, t_end):
    times, X = exact_transient(system, np.zeros(system.dim), t_end,
                               extra_times=list(result.times))
    lookup = {round(float(t), 18): X[i] for i, t in enumerate(times)}
    worst = 0.0
    for i, t in enumerate(result.times):
        key = round(float(t), 18)
        if key in lookup:
            worst = max(worst, float(np.max(np.abs(result.states[i]
                                                   - lookup[key]))))
    return worst


class TestTrapezoidal:
    def test_accuracy(self, mesh_system):
        res = simulate_trapezoidal(mesh_system, 1e-12, 1e-9,
                                   x0=np.zeros(mesh_system.dim))
        # TR's own discretisation error at h=1ps on 30-50ps edges.
        assert max_err_vs_exact(res, mesh_system, 1e-9) < 1e-5

    def test_second_order_convergence(self, mesh_system):
        errs = []
        for h in [4e-12, 2e-12, 1e-12]:
            res = simulate_trapezoidal(mesh_system, h, 1e-9,
                                       x0=np.zeros(mesh_system.dim))
            errs.append(max_err_vs_exact(res, mesh_system, 1e-9))
        # Halving h should cut the error by ~4 (order 2).
        assert errs[0] / errs[1] > 2.5
        assert errs[1] / errs[2] > 2.5

    def test_one_solve_per_step(self, mesh_system):
        res = simulate_trapezoidal(mesh_system, 1e-11, 1e-9,
                                   x0=np.zeros(mesh_system.dim))
        assert res.stats.n_steps == 100
        assert res.stats.n_solves_etd == 100

    def test_record_times_subset(self, mesh_system):
        res = simulate_trapezoidal(
            mesh_system, 1e-11, 1e-9, x0=np.zeros(mesh_system.dim),
            record_times=[5e-10],
        )
        assert len(res.times) == 3  # 0, 5e-10, t_end
        assert np.any(np.isclose(res.times, 5e-10, rtol=1e-12))

    def test_step_validation(self, mesh_system):
        with pytest.raises(ValueError):
            simulate_trapezoidal(mesh_system, -1.0, 1e-9)
        with pytest.raises(ValueError):
            simulate_trapezoidal(mesh_system, 1e-8, 1e-9)

    def test_handles_singular_c(self, small_pdn_system):
        res = simulate_trapezoidal(small_pdn_system, 1e-11, 1e-9)
        assert np.all(np.isfinite(res.states))

    def test_reused_instance_reports_factor_time_once(self, mesh_system):
        """A reused integrator must not re-bill factorisation wall time."""
        tr = TrapezoidalIntegrator(mesh_system, 1e-11)
        x0 = np.zeros(mesh_system.dim)
        first = tr.simulate(1e-9, x0=x0)
        second = tr.simulate(1e-9, x0=x0)
        assert first.stats.factor_seconds >= 0.0
        assert second.stats.factor_seconds == 0.0  # nothing was factored


class TestBackwardEuler:
    def test_accuracy_first_order(self, mesh_system):
        errs = []
        for h in [2e-12, 1e-12]:
            res = simulate_backward_euler(mesh_system, h, 1e-9,
                                          x0=np.zeros(mesh_system.dim))
            errs.append(max_err_vs_exact(res, mesh_system, 1e-9))
        assert 1.5 < errs[0] / errs[1] < 3.0  # order ~1

    def test_be_less_accurate_than_tr(self, mesh_system):
        h = 2e-12
        tr = simulate_trapezoidal(mesh_system, h, 1e-9,
                                  x0=np.zeros(mesh_system.dim))
        be = simulate_backward_euler(mesh_system, h, 1e-9,
                                     x0=np.zeros(mesh_system.dim))
        assert (max_err_vs_exact(be, mesh_system, 1e-9)
                > max_err_vs_exact(tr, mesh_system, 1e-9))

    def test_reference_wrapper_label(self, mesh_system):
        ref = reference_backward_euler(mesh_system, 1e-10, 1e-12)
        assert ref.method == "reference-be"


class TestDcAndExactReference:
    def test_dc_operating_point(self, small_pdn_system):
        x, lu = dc_operating_point(small_pdn_system)
        assert small_pdn_system.node_voltage(x, "pad") == pytest.approx(1.8)
        assert lu.n_solves == 1

    def test_reference_exact_defaults_to_dc(self, mesh_system):
        ref = reference_exact(mesh_system, 1e-9)
        assert ref.method == "reference-exact"
        assert ref.times[0] == 0.0
        assert ref.times[-1] == 1e-9
