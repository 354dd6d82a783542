"""Unit tests for the ETD segment vectors (Eq. 5 machinery).

The per-segment form — three ``G`` solves per segment — lives in the
scalar oracle (:class:`tests.scalar_oracle.OracleEtd`); the march forms
the same vectors from two solves per input shape
(``tests/test_shape_etd.py``) against the solver's
:class:`~repro.core.etd.EtdWorkspace`, whose DC point and ``G`` sharing
are checked here too.
"""

import numpy as np
import pytest

from repro.core import EtdWorkspace
from repro.linalg import SparseLU, dense_a_matrix
from tests.scalar_oracle import OracleEtd


def dense_f(system, t, t_probe, active=None):
    """Direct dense evaluation of ``F = A⁻¹b + A⁻²s`` (paper Eq. 5).

    Uses the textbook form with ``A = -C⁻¹G`` explicitly, which is an
    independent derivation from the production code's G-solve route.
    """
    a = dense_a_matrix(system.C, system.G)
    c = np.asarray(system.C.todense())
    bu = system.bu(t, active=active)
    su = system.b_slope_fd(t, t_probe, active=active)
    b = np.linalg.solve(c, bu)
    s = np.linalg.solve(c, su)
    a_inv = np.linalg.inv(a)
    return a_inv @ b + a_inv @ (a_inv @ s)


class TestSegmentVectors:
    def test_f_matches_dense_formula(self, rc_ladder_system):
        s = rc_ladder_system
        ws = OracleEtd(s)
        t, t_probe = 1.2e-10, 1.4e-10  # inside the pulse rise
        seg = ws.segment(t, t_probe)
        f_dense = dense_f(s, t, t_probe)
        assert np.allclose(seg.F, f_dense, rtol=1e-9, atol=1e-18)

    def test_p_is_affine_in_h(self, rc_ladder_system):
        ws = OracleEtd(rc_ladder_system)
        seg = ws.segment(1.2e-10, 1.4e-10)
        h1, h2 = 1e-11, 3e-11
        p1, p2 = seg.P(h1), seg.P(h2)
        # P(h) = F - h*w2: check the affine identity at a third point.
        h3 = 2e-11
        p3_expected = p1 + (p2 - p1) * (h3 - h1) / (h2 - h1)
        assert np.allclose(seg.P(h3), p3_expected)

    def test_p_at_zero_is_f(self, rc_ladder_system):
        ws = OracleEtd(rc_ladder_system)
        seg = ws.segment(1.2e-10, 1.4e-10)
        assert np.allclose(seg.P(0.0), seg.F)

    def test_segment_from_input_vectors_equivalent(self, rc_ladder_system):
        s = rc_ladder_system
        ws = OracleEtd(s)
        t, t_probe = 1.2e-10, 1.4e-10
        direct = ws.segment(t, t_probe)
        via_vectors = ws.from_vectors(
            t, s.bu(t), s.b_slope_fd(t, t_probe)
        )
        assert np.allclose(direct.F, via_vectors.F)
        assert np.allclose(direct.w2, via_vectors.w2)

    def test_three_solves_per_segment(self, rc_ladder_system):
        ws = OracleEtd(rc_ladder_system)
        before = ws.n_solves
        ws.segment(1.2e-10, 1.4e-10)
        assert ws.n_solves - before == 3

    def test_flat_segment_has_zero_w2(self, rc_ladder_system):
        ws = OracleEtd(rc_ladder_system)
        # Pulse flat top: [1.5e-10, 3.5e-10].
        seg = ws.segment(2e-10, 2.5e-10)
        assert np.allclose(seg.w2, 0.0)


class TestDeviationMode:
    def test_deviation_subtracts_initial_input(self, small_pdn_system):
        s = small_pdn_system
        ws_dev = OracleEtd(s, deviation_mode=True)
        # At t=0 the deviation input is exactly zero, so F must vanish
        # (pulse sources start at 0 but the V pad does not).
        seg = ws_dev.segment(0.0, 5e-11)
        assert np.allclose(seg.F, 0.0, atol=1e-20)

    def test_deviation_same_slope(self, small_pdn_system):
        s = small_pdn_system
        ws = OracleEtd(s)
        ws_dev = OracleEtd(s, deviation_mode=True)
        t, tp = 1.1e-10, 1.15e-10  # inside I0's rise
        assert np.allclose(
            ws.segment(t, tp).w2, ws_dev.segment(t, tp).w2
        )


class TestDcAndSharing:
    def test_dc_solution_solves_g(self, small_pdn_system):
        s = small_pdn_system
        ws = EtdWorkspace(s)
        x = ws.dc_solution()
        assert np.allclose(s.G @ x, s.bu(0.0), atol=1e-12)
        # VDD pad should sit at 1.8 V.
        assert s.node_voltage(x, "pad") == pytest.approx(1.8)

    def test_shared_lu_counts_once(self, rc_ladder_system):
        lu = SparseLU(rc_ladder_system.G, label="G")
        ws = EtdWorkspace(rc_ladder_system, lu_g=lu)
        OracleEtd(rc_ladder_system, lu_g=ws.lu_g).segment(1.2e-10, 1.4e-10)
        assert lu.n_solves == ws.n_solves == 3
        assert ws.lu_g is lu
