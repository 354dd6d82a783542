"""Unit and accuracy tests for the MATEX circuit solver (Alg. 2)."""

import numpy as np
import pytest

from repro.baselines import reference_backward_euler
from repro.core import MatexSolver, SolverOptions, build_schedule
from repro.linalg import exact_transient

METHODS = ["standard", "inverted", "rational"]


class TestAccuracyAgainstOracle:
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_exact_etd(self, method, mesh_system):
        s = mesh_system
        t_end = 1e-9
        x0 = np.zeros(s.dim)
        times, X = exact_transient(s, x0, t_end)
        solver = MatexSolver(
            s, SolverOptions(method=method, gamma=1e-10, eps_rel=1e-8)
        )
        res = solver.simulate(t_end, x0=x0)
        assert np.allclose(res.times, times)
        assert np.max(np.abs(res.states - X)) < 1e-6

    def test_dc_initial_condition_default(self, small_pdn_system):
        s = small_pdn_system
        solver = MatexSolver(s, SolverOptions(method="rational", gamma=1e-11))
        res = solver.simulate(1e-9)
        # Initial state is the DC operating point: pad at 1.8 V.
        assert s.node_voltage(res.states[0], "pad") == pytest.approx(1.8)
        assert res.stats.n_solves_dc == 1

    def test_singular_c_regular_run(self, small_pdn_system):
        """R-MATEX on singular C vs tiny-step BE (no regularization)."""
        s = small_pdn_system
        t_end = 1e-9
        solver = MatexSolver(
            s, SolverOptions(method="rational", gamma=1e-11, eps_rel=1e-8)
        )
        res = solver.simulate(t_end)
        ref = reference_backward_euler(
            s, t_end, 1e-13, record_times=list(res.times)
        )
        diff = np.abs(res.sample(res.times)[:, : s.n_nodes]
                      - ref.sample(res.times)[:, : s.n_nodes])
        assert diff.max() < 5e-5


class TestReuseMechanics:
    def test_snapshots_reuse_basis(self, mesh_system):
        s = mesh_system
        sched = build_schedule(s, 1e-9, local_inputs=(0, 2))
        solver = MatexSolver(
            s, SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8),
            deviation_mode=True,
        )
        res = solver.simulate(1e-9, active_inputs=[0, 2], schedule=sched)
        st = res.stats
        assert st.n_reuses > 0
        assert st.n_krylov_bases + st.n_reuses == st.n_steps

    def test_reuse_is_accurate(self, mesh_system):
        s = mesh_system
        t_end = 1e-9
        sched = build_schedule(s, t_end, local_inputs=(0, 2))
        times, X = exact_transient(s, np.zeros(s.dim), t_end, active=[0, 2],
                                   extra_times=list(sched.points))
        solver = MatexSolver(
            s, SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8),
            deviation_mode=True,
        )
        res = solver.simulate(t_end, active_inputs=[0, 2], schedule=sched)
        lookup = {round(float(t), 18): X[i] for i, t in enumerate(times)}
        for i, t in enumerate(res.times):
            ref = lookup[round(float(t), 18)]
            assert np.max(np.abs(res.states[i] - ref)) < 1e-6

    def test_fewer_solves_with_decomposition(self, mesh_system):
        s = mesh_system
        t_end = 1e-9
        opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
        full = MatexSolver(s, opts).simulate(t_end, x0=np.zeros(s.dim))
        sched = build_schedule(s, t_end, local_inputs=(1,))
        part = MatexSolver(s, opts, deviation_mode=True).simulate(
            t_end, active_inputs=[1], schedule=sched
        )
        assert (part.stats.n_solves_transient
                < full.stats.n_solves_transient)


class TestBookkeeping:
    def test_stats_consistency(self, mesh_system):
        solver = MatexSolver(
            mesh_system, SolverOptions(method="rational", gamma=1e-10)
        )
        res = solver.simulate(1e-9, x0=np.zeros(mesh_system.dim))
        st = res.stats
        assert st.n_steps == len(res.times) - 1
        assert len(st.krylov_dims) == st.n_krylov_bases
        assert st.n_solves_krylov == sum(st.krylov_dims)
        # Two G solves per input shape, not three per segment: I1 and I3
        # share one pulse shape, I2 has its own, and u(0) = 0 adds no
        # constant one.
        assert st.n_solves_etd == 2 * 2 < 3 * st.n_krylov_bases
        assert st.transient_seconds >= 0.0

    def test_inverted_shares_g_factorization(self, mesh_system):
        solver = MatexSolver(
            mesh_system, SolverOptions(method="inverted", gamma=1e-10)
        )
        assert solver.workspace.lu_g is solver.op.lu

    def test_rational_has_two_factorizations(self, mesh_system):
        solver = MatexSolver(
            mesh_system, SolverOptions(method="rational", gamma=1e-10)
        )
        assert solver.workspace.lu_g is not solver.op.lu
        assert solver.factor_seconds >= solver.op.factor_seconds

    def test_zero_inputs_hold_equilibrium(self, rc_ladder_system):
        """With u ≡ 0 and x0 = 0 nothing should move."""
        s = rc_ladder_system
        solver = MatexSolver(
            s, SolverOptions(method="rational", gamma=1e-11),
            deviation_mode=True,
        )
        sched = build_schedule(s, 1e-9, local_inputs=())
        res = solver.simulate(1e-9, active_inputs=[], schedule=sched)
        assert np.allclose(res.states, 0.0)

    def test_method_label(self, mesh_system):
        solver = MatexSolver(mesh_system, SolverOptions(method="imatex"))
        res = solver.simulate(5e-10, x0=np.zeros(mesh_system.dim))
        assert res.method == "matex-inverted"
