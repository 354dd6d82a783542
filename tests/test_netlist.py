"""Unit tests for elements and the netlist container."""

import pytest

from repro.circuit import DC, Netlist, NetlistError, assemble
from repro.circuit.elements import Capacitor, Resistor


class TestElements:
    def test_resistor_conductance(self):
        r = Resistor("R1", "a", "b", 4.0)
        assert r.conductance == 0.25
        assert r.nodes() == ("a", "b")

    def test_resistor_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            Resistor("R1", "a", "b", 0.0)

    def test_capacitor_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            Capacitor("C1", "a", "b", -1e-12)


class TestNetlistConstruction:
    def test_node_indices_are_dense_and_stable(self):
        net = Netlist()
        net.add_resistor("R1", "a", "b", 1.0)
        net.add_resistor("R2", "b", "c", 1.0)
        assert net.node_index("a") == 0
        assert net.node_index("b") == 1
        assert net.node_index("c") == 2
        assert net.node_names() == ("a", "b", "c")

    def test_ground_aliases(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_resistor("R2", "b", "gnd", 1.0)
        net.add_resistor("R3", "c", "GND", 1.0)
        for g in ("0", "gnd", "GND"):
            assert net.node_index(g) == -1
        assert net.n_nodes == 3

    def test_duplicate_names_rejected(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(NetlistError, match="duplicate"):
            net.add_resistor("R1", "b", "0", 1.0)

    def test_both_terminals_grounded_rejected(self):
        net = Netlist()
        with pytest.raises(NetlistError, match="grounded"):
            net.add_resistor("R1", "0", "gnd", 1.0)

    def test_unknown_node_lookup(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(NetlistError, match="unknown node"):
            net.node_index("zz")

    def test_float_waveform_becomes_dc(self):
        net = Netlist()
        v = net.add_voltage_source("V1", "a", "0", 1.8)
        assert isinstance(v.waveform, DC)
        assert v.waveform.level == 1.8

    def test_container_protocol(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        assert "R1" in net
        assert net["R1"].resistance == 1.0
        assert len(net) == 1


class TestUnknownBlocks:
    def test_dim_counts_branch_currents(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_voltage_source("V1", "b", "0", 1.0)
        net.add_resistor("R2", "b", "a", 1.0)
        net.add_inductor("L1", "a", "c", 1e-9)
        net.add_resistor("R3", "c", "0", 1.0)
        u = net.unknowns
        assert u.n_nodes == 3
        assert u.n_vsrc == 1
        assert u.n_ind == 1
        assert net.dim == 5

    def test_vsource_and_inductor_row_layout(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_voltage_source("V1", "a", "0", 1.0)
        net.add_inductor("L1", "a", "b", 1e-9)
        net.add_resistor("R2", "b", "0", 1.0)
        # Branch rows follow the node block: voltage sources, then
        # inductors.  V1's row holds its branch equation v(a) = u, L1's
        # row carries -L on C's diagonal.
        system = assemble(net)
        a, v_row, l_row = net.node_index("a"), net.n_nodes, net.n_nodes + 1
        assert system.G[v_row, a] == 1.0
        assert system.B[v_row, 0] == 1.0
        assert system.C[l_row, l_row] == -1e-9
        assert system.dim == net.n_nodes + 2


class TestValidation:
    def test_empty_netlist_rejected(self):
        with pytest.raises(NetlistError, match="empty"):
            Netlist().validate()

    def test_floating_node_detected(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        # b-c island touches ground only through a capacitor: no DC path.
        net.add_resistor("R2", "b", "c", 1.0)
        net.add_capacitor("C1", "c", "0", 1e-12)
        with pytest.raises(NetlistError, match="no DC path"):
            net.validate()

    def test_inductor_provides_dc_path(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_inductor("L1", "a", "b", 1e-9)
        net.validate()  # must not raise

    def test_valid_circuit_passes(self, rc_ladder):
        rc_ladder.validate()

    def test_summary_mentions_counts(self, rc_ladder):
        s = rc_ladder.summary()
        assert "10 R" in s and "10 C" in s and "1 I" in s
