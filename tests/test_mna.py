"""Unit tests for MNA assembly: stamps checked against hand calculations."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.circuit import Netlist, assemble
from repro.circuit.waveforms import PWL, sample_waveforms
from repro.pdn.suite import build_case
from repro.plan import SimulationPlan
from tests import waveform_oracle as oracle


def dense(m):
    return np.asarray(m.todense())


class TestResistorCapacitorStamps:
    def test_two_node_divider(self):
        # 0 --R1-- a --R2-- b --R3-- 0, C at each node.
        net = Netlist()
        net.add_resistor("R1", "0", "a", 2.0)
        net.add_resistor("R2", "a", "b", 4.0)
        net.add_resistor("R3", "b", "0", 8.0)
        net.add_capacitor("Ca", "a", "0", 1e-12)
        net.add_capacitor("Cb", "b", "0", 2e-12)
        sys_ = assemble(net)
        g = dense(sys_.G)
        expected_g = np.array([
            [0.5 + 0.25, -0.25],
            [-0.25, 0.25 + 0.125],
        ])
        assert np.allclose(g, expected_g)
        c = dense(sys_.C)
        assert np.allclose(c, np.diag([1e-12, 2e-12]))

    def test_floating_capacitor_stamp(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_resistor("R2", "b", "0", 1.0)
        net.add_capacitor("C1", "a", "b", 3e-12)
        sys_ = assemble(net)
        c = dense(sys_.C)
        assert np.allclose(c, 3e-12 * np.array([[1, -1], [-1, 1]]))

    def test_g_symmetric_for_rc_only(self, rc_ladder_system):
        g = dense(rc_ladder_system.G)
        assert np.allclose(g, g.T)


class TestSourceStamps:
    def test_voltage_source_rows(self):
        net = Netlist()
        net.add_voltage_source("V1", "a", "0", 1.5)
        net.add_resistor("R1", "a", "0", 3.0)
        sys_ = assemble(net)
        g = dense(sys_.G)
        # Row/col layout: [v_a, i_V1].
        assert g[0, 1] == 1.0      # KCL coupling
        assert g[1, 0] == 1.0      # branch equation
        assert sys_.bu(0.0)[1] == 1.5
        # DC solve: G x = B u gives v_a = 1.5.
        x = np.linalg.solve(g, sys_.bu(0.0))
        assert x[0] == pytest.approx(1.5)
        assert x[1] == pytest.approx(-0.5)  # source supplies 0.5 A

    def test_current_source_sign_convention(self):
        # I from node a to ground: positive value pulls a DOWN.
        net = Netlist()
        net.add_resistor("R1", "a", "0", 2.0)
        net.add_current_source("I1", "a", "0", 1.0)
        sys_ = assemble(net)
        x = np.linalg.solve(dense(sys_.G), sys_.bu(0.0))
        assert x[0] == pytest.approx(-2.0)

    def test_inductor_branch(self):
        net = Netlist()
        net.add_voltage_source("V1", "a", "0", 1.0)
        net.add_inductor("L1", "a", "b", 1e-9)
        net.add_resistor("R1", "b", "0", 5.0)
        sys_ = assemble(net)
        # At DC the inductor is a short: v_b = 1.0, i_L = 0.2.
        x = np.linalg.solve(dense(sys_.G), sys_.bu(0.0))
        row = sys_.n_nodes + 1  # after the voltage source's branch row
        assert x[sys_.node_index("b")] == pytest.approx(1.0)
        assert x[row] == pytest.approx(0.2)
        # The inductance appears in C on the branch row.
        c = dense(sys_.C)
        assert c[row, row] == pytest.approx(-1e-9)

    def test_input_ordering_currents_then_voltages(self, small_pdn_system):
        s = small_pdn_system
        assert s.n_current_inputs == 2
        assert list(s.current_input_indices) == [0, 1]
        assert s.n_inputs == 3


class TestInputEvaluation:
    def test_fast_vector_matches_scalar(self, small_pdn_system):
        s = small_pdn_system
        for t in [0.0, 1.3e-10, 2.5e-10, 7e-10]:
            fast = s.input_vector(t)
            slow = np.array([oracle.value(w, t) for w in s.waveforms])
            assert np.allclose(fast, slow)

    def test_active_subset(self, small_pdn_system):
        s = small_pdn_system
        u = s.input_vector(2e-10, active=[0])
        assert u[1] == 0.0 and u[2] == 0.0
        assert u[0] == s.waveforms[0].value(2e-10)

    def test_b_slope_fd_exact_on_linear_segment(self, small_pdn_system):
        s = small_pdn_system
        # Inside the rise of I0: [1e-10, 1.2e-10].
        fd = s.b_slope_fd(1.05e-10, 1.15e-10)
        w = s.waveforms[0]
        du = np.zeros(s.n_inputs)
        du[0] = (w.v2 - w.v1) / w.t_rise
        assert np.allclose(fd, s.B @ du)

    def test_b_slope_fd_rejects_bad_interval(self, small_pdn_system):
        with pytest.raises(ValueError):
            small_pdn_system.b_slope_fd(1e-10, 1e-10)

    def test_bu_series_matches_pointwise(self, small_pdn_system):
        s = small_pdn_system
        times = np.array([0.0, 1.1e-10, 2.2e-10, 5e-10])
        series = s.bu_series(times)
        for k, t in enumerate(times):
            assert np.allclose(series[:, k], s.bu(t))

    def test_bu_series_active_subset(self, small_pdn_system):
        s = small_pdn_system
        times = np.array([1.5e-10, 3e-10])
        series = s.bu_series(times, active=[1])
        for k, t in enumerate(times):
            assert np.allclose(series[:, k], s.bu(t, active=[1]))


def _golden(name):
    from tests.test_golden_digests import CASES

    return CASES[name]()[0]


def _pg1t_with_pwl():
    """pg1t with a PWL load, which reads its waveform's ``value``."""
    system = build_case("pg1t")[0]
    pwl = PWL([(0.0, 0.0), (2e-9, 1e-3), (5e-9, -2e-4), (7e-9, 0.0)])
    return system.rebind_sources(overrides={0: pwl, 5: pwl.scaled(0.3)})


#: The suite's systems with the most pulse inputs, and the golden cases'.
SYSTEMS = {
    "pg1t": lambda: build_case("pg1t")[0],
    "pg1t-pwl": _pg1t_with_pwl,
    "pg4t": lambda: build_case("pg4t")[0],
    "rlc-rebuild": lambda: _golden("rlc-rebuild"),
    "mesh-bump-split": lambda: _golden("mesh-bump-split"),
}


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def big_system(request):
    return SYSTEMS[request.param]()


class TestInputTable:
    """``input_vector`` reads one table, whole or by subset."""

    @staticmethod
    def times(system):
        gts = np.array(system.global_transition_spots(1e-8))
        mids = 0.5 * (gts[:-1] + gts[1:])
        return np.concatenate([gts, mids, np.nextafter(gts, np.inf)])

    def test_subset_equals_whole_vector_rows(self, big_system):
        s = big_system
        rng = np.random.default_rng(5)
        subsets = [
            list(range(s.n_inputs)),
            list(range(0, s.n_inputs, 3)),
            sorted(rng.choice(s.n_inputs, size=max(1, s.n_inputs // 4),
                              replace=False).tolist()),
        ]
        for t in self.times(s):
            whole = s.input_vector(t)
            for active in subsets:
                part = s.input_vector(t, active)
                assert part[active].tobytes() == whole[active].tobytes()
                rest = np.ones(s.n_inputs, dtype=bool)
                rest[active] = False
                assert not part[rest].any()

    def test_table_agrees_with_sample_waveforms_at_zero(self, big_system):
        """``x_dc`` (the table) and the march's ``u(0)`` (sampled) must
        start from the same input bits."""
        s = big_system
        sampled = sample_waveforms(s.waveforms, [0.0])[:, 0]
        assert s.input_vector(0.0).tobytes() == sampled.tobytes()


class TestPickle:
    """A pickled system carries its fields, not its lazy caches."""

    def test_round_trip_answers_bit_identical(self, big_system):
        s = big_system
        s.input_vector(0.0)
        s.node_index(s.node_names()[0])  # fill both caches
        assert {"_input_table", "_rows"} <= vars(s).keys()
        back = pickle.loads(pickle.dumps(s))
        assert not {"_input_table", "_rows"} & vars(back).keys()
        active = list(range(0, s.n_inputs, 3))
        for t in TestInputTable.times(s)[::7]:
            assert back.input_vector(t).tobytes() == s.input_vector(t).tobytes()
            assert (back.input_vector(t, active).tobytes()
                    == s.input_vector(t, active).tobytes())
        for name in s.node_names()[::11] + ("0", "gnd", "VSS"):
            assert back.node_index(name) == s.node_index(name)
        assert back.summary() == s.summary()

    def test_compiled_pg1t_system_pickles_its_fields_only(self):
        system, case = build_case("pg1t")
        compiled = SimulationPlan(system, t_end=case.t_end).compile()
        s = compiled.system
        assert "_input_table" in vars(s)  # the DC analysis filled it
        data = pickle.dumps(s)
        fields = pickle.dumps(tuple(
            getattr(s, f.name) for f in dataclasses.fields(s)
        ))
        # No netlist and no cache: the pickle is the fields plus the
        # object's own framing (~100 bytes).  pg1t at this writing:
        # 219 kB, of which C/G/B are 96 kB, the 804 waveforms 63 kB
        # and their transition-spot memos 50 kB.
        assert len(data) <= len(fields) + 256
        assert len(data) < 240_000
        assert not any(
            isinstance(v, Netlist) for v in vars(pickle.loads(data)).values()
        )


class TestStructure:
    def test_singularity_detection(self, small_pdn_system, rc_ladder_system):
        assert small_pdn_system.is_c_singular()      # V-source branch row
        assert not rc_ladder_system.is_c_singular()  # caps everywhere

    def test_gts_includes_horizon(self, small_pdn_system):
        gts = small_pdn_system.global_transition_spots(1e-9)
        assert gts[0] == 0.0
        assert gts[-1] == 1e-9

    def test_gts_union_of_lts(self, small_pdn_system):
        s = small_pdn_system
        gts = set(s.global_transition_spots(1e-9))
        for k in range(s.n_inputs):
            for t in s.local_transition_spots(k, 1e-9):
                assert any(abs(t - g) <= 1e-18 + 1e-9 * g for g in gts)

    def test_node_voltage_lookup(self, small_pdn_system):
        s = small_pdn_system
        x = np.arange(s.dim, dtype=float)
        assert s.node_voltage(x, "g0_0") == x[s.node_index("g0_0")]
        assert s.node_voltage(x, "0") == 0.0
        assert s.node_voltage(x, "pad") == x[s.node_index("pad")]
