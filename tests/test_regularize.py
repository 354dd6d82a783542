"""Tests for the MNA regularization substrate (paper ref [3]).

Verifies that eliminating the algebraic unknowns produces a
non-singular-``C`` ODE system whose trajectory — expanded back to the
full state — matches the regularization-free R-MATEX solver, and that
MEXP (standard Krylov), which refuses the raw singular-``C`` system,
runs happily on the regularized one.
"""

import numpy as np
import pytest

from repro.circuit.regularize import regularize
from repro.core import MatexSolver, SolverOptions
from repro.linalg import (
    RegularizationRequiredError,
    StandardKrylov,
    etd_exact_step,
)


class TestReduction:
    def test_splits_algebraic_rows(self, small_pdn_system):
        reg = regularize(small_pdn_system)
        s = small_pdn_system
        # The V-source branch row is algebraic; all 16 grid nodes have
        # caps; the pad node has no cap -> algebraic too.
        assert len(reg.algebraic_index) == 2
        assert reg.dim + 2 == s.dim

    def test_reduced_c_nonsingular(self, small_pdn_system):
        reg = regularize(small_pdn_system)
        cd = np.asarray(reg.Cd.todense())
        assert np.linalg.matrix_rank(cd) == reg.dim

    def test_identity_on_nonsingular_c(self, rc_ladder_system):
        reg = regularize(rc_ladder_system)
        assert len(reg.algebraic_index) == 0
        assert reg.dim == rc_ladder_system.dim
        x = np.arange(reg.dim, dtype=float)
        assert np.allclose(reg.expand_state(x, np.zeros(1)), x)

    def test_state_roundtrip(self, small_pdn_system, rng):
        """reduce . expand recovers the dynamic part exactly and the
        algebraic part consistently with the constraints."""
        reg = regularize(small_pdn_system)
        s = small_pdn_system
        # Take a *consistent* full state: the DC operating point.
        from repro.baselines import dc_operating_point

        x_full, _ = dc_operating_point(s)
        xd = reg.reduce_state(x_full)
        back = reg.expand_state(xd, s.input_vector(0.0))
        assert np.allclose(back, x_full, atol=1e-12)


class TestRegularizedDynamics:
    def test_matches_rmatex_trajectory(self, small_pdn_system):
        """March the regularized ODE exactly (dense) and compare the
        expanded full states with the regularization-free solver."""
        s = small_pdn_system
        reg = regularize(s)
        t_end = 1e-9
        ref = MatexSolver(
            s, SolverOptions(method="rational", gamma=1e-11, eps_rel=1e-10)
        ).simulate(t_end)

        cd = np.asarray(reg.Cd.todense())
        ad = -np.linalg.solve(cd, reg.Gd)
        xd = reg.reduce_state(ref.states[0])
        for i in range(len(ref.times) - 1):
            t0, t1 = ref.times[i], ref.times[i + 1]
            h = t1 - t0
            bu0 = reg.bu_reduced(t0)
            bu1 = reg.bu_reduced(t1)
            b0 = np.linalg.solve(cd, bu0)
            slope = np.linalg.solve(cd, (bu1 - bu0) / h)
            xd = etd_exact_step(ad, xd, b0, slope, h)
        full = reg.expand_state(xd, s.input_vector(ref.times[-1]))
        assert np.max(np.abs(full - ref.states[-1])) < 1e-6

    def test_mexp_runs_after_regularization(self, small_pdn_system):
        """The paper's point: MEXP needs [3]; after it, it works."""
        s = small_pdn_system
        with pytest.raises(RegularizationRequiredError):
            StandardKrylov(s.C, s.G)

        reg = regularize(s)
        import scipy.sparse as sp

        op = StandardKrylov(reg.Cd, sp.csc_matrix(reg.Gd))
        rng = np.random.default_rng(0)
        v = rng.normal(size=reg.dim)
        basis = op.build_basis(v, 1e-11,
                               tol=1e-8 * np.linalg.norm(v),
                               m_max=reg.dim)
        y = basis.evaluate(1e-11)
        assert np.all(np.isfinite(y))
        assert basis.m >= 1
