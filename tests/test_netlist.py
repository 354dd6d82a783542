"""Unit tests for the netlist container and its per-element rules."""

import math

import numpy as np
import pytest

from repro.circuit import (
    DC, IngestError, Netlist, NetlistError, assemble, format_netlist,
    ingest_text, parse_netlist,
)
from repro.circuit.netlist import GROUND_NAMES
from tests.stamp_oracle import element_rows


class TestElements:
    def test_resistor_conductance(self):
        net = Netlist()
        net.add_resistor("R1", "a", "b", 4.0)
        net.add_resistor("R2", "b", "0", 1.0)
        (r1, _) = element_rows(net)
        assert (r1.kind, r1.pos, r1.neg, r1.value) == ("r", "a", "b", 4.0)
        assert assemble(net).G[0, 0] == 0.25  # 1/R is what G stamps

    def test_resistor_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            Netlist().add_resistor("R1", "a", "b", 0.0)

    def test_capacitor_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            Netlist().add_capacitor("C1", "a", "b", -1e-12)


class TestOneRule:
    """Each per-element rule raises from one place, for the API and the reader."""

    @pytest.mark.parametrize("add, letter", [
        ("add_resistor", "R"), ("add_capacitor", "C"), ("add_inductor", "L"),
    ])
    @pytest.mark.parametrize("value, token", [
        (0, "0"), (-1, "-1"), (math.inf, "1e999"), (math.nan, None),
    ])
    def test_value_positive_and_finite(self, add, letter, value, token):
        net = Netlist()
        with pytest.raises(NetlistError, match="positive and finite") as api:
            getattr(net, add)(f"{letter}1", "a", "0", value)
        assert len(net) == 0 and net.n_nodes == 0  # nothing appended
        if token is None:  # no number token reads as nan: the grammar says no
            with pytest.raises(IngestError, match="^line 2: not a SPICE number"):
                ingest_text(f"R0 a 0 1\n{letter}1 a 0 nan\n")
            return
        for read in (ingest_text, parse_netlist):
            with pytest.raises(IngestError) as deck:
                read(f"R0 a 0 1\n{letter}1 a 0 {token}\n")
            assert str(deck.value) == f"line 2: {api.value}"

    def test_nan_and_inf_never_reach_the_matrices(self):
        # Both used to be accepted and stamped into C and G.
        for value in (math.nan, math.inf):
            net = Netlist()
            net.add_resistor("R1", "a", "0", 1.0)
            with pytest.raises(NetlistError):
                net.add_capacitor("C1", "a", "0", value)
            with pytest.raises(NetlistError):
                net.add_resistor("R2", "a", "0", value)
            system = assemble(net)
            assert np.isfinite(system.G.data).all()
            assert system.C.nnz == 0

    @pytest.mark.parametrize("card, build, message", [
        ("R1 a 0 2", lambda n: n.add_resistor("R1", "a", "0", 2.0),
         "duplicate element name 'R1'"),
        ("R2 0 gnd 2", lambda n: n.add_resistor("R2", "0", "gnd", 2.0),
         "element 'R2' has both terminals grounded"),
    ])
    def test_api_and_reader_say_the_same(self, card, build, message):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(NetlistError) as api:
            build(net)
        assert str(api.value) == message
        with pytest.raises(IngestError) as deck:
            ingest_text(f"R1 a 0 1\n{card}\n")
        assert str(deck.value) == f"line 2: {message}"

    def test_empty_node_name_rejected(self):
        net = Netlist()
        with pytest.raises(NetlistError, match="empty node name"):
            net.add_resistor("R1", "a", "", 1.0)
        assert net.node_names() == () and len(net) == 0

    def test_system_shape_fixed_at_assemble(self):
        # The system owns its node names: appending to the netlist after
        # the stamp changes neither its matrices nor what it reports.
        net = Netlist("grid")
        net.add_resistor("R1", "a", "0", 1.0)
        system = assemble(net)
        net.add_resistor("R2", "b", "0", 1.0)
        assert system.dim == 1 and system.n_nodes == 1
        assert system.node_names() == ("a",)
        assert system.summary() == "grid: 1 nodes, 1 R, 0 C, 0 L, 0 V, 0 I (dim 1)"
        with pytest.raises(NetlistError, match="unknown node"):
            system.node_index("b")
        assert not any(isinstance(v, Netlist) for v in vars(system).values())

    def test_appendable_after_assemble(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        first = assemble(net)
        net.add_resistor("R2", "a", "b", 2.0)
        net.add_capacitor("C1", "b", "0", 1e-12)
        second = assemble(net)
        assert first.dim == 1 and second.dim == 2
        assert format_netlist(net).splitlines()[1:4] == [
            "R1 a 0 1.0", "R2 a b 2.0", "C1 b 0 1e-12",
        ]


class TestNetlistConstruction:
    def test_node_indices_are_dense_and_stable(self):
        net = Netlist()
        net.add_resistor("R1", "a", "b", 1.0)
        net.add_resistor("R2", "b", "c", 1.0)
        system = assemble(net, validate=False)
        assert system.node_index("a") == 0
        assert system.node_index("b") == 1
        assert system.node_index("c") == 2
        assert net.node_names() == system.node_names() == ("a", "b", "c")

    def test_ground_aliases(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_resistor("R2", "b", "gnd", 1.0)
        net.add_resistor("R3", "c", "GND", 1.0)
        system = assemble(net)
        for g in GROUND_NAMES:
            assert system.node_index(g) == -1
        assert net.n_nodes == system.n_nodes == 3

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
            assemble(net).node_index("zz")

    def test_float_waveform_becomes_dc(self):
        net = Netlist()
        net.add_voltage_source("V1", "a", "0", 1.8)
        (v,) = net.voltage_waveforms
        assert isinstance(v, DC)
        assert v.level == 1.8

    def test_container_protocol(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        assert net.element_names() == ("R1",)
        assert net.columns().values.tolist() == [1.0]
        assert len(net) == 1


class TestUnknownBlocks:
    def test_dim_counts_branch_currents(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_voltage_source("V1", "b", "0", 1.0)
        net.add_resistor("R2", "b", "a", 1.0)
        net.add_inductor("L1", "a", "c", 1e-9)
        net.add_resistor("R3", "c", "0", 1.0)
        assert net.n_nodes == 3
        assert net.counts["v"] == 1
        assert net.counts["l"] == 1
        assert assemble(net).dim == 5

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
        a, v_row, l_row = system.node_index("a"), net.n_nodes, net.n_nodes + 1
        assert system.G[v_row, a] == 1.0
        assert system.B[v_row, 0] == 1.0
        assert system.C[l_row, l_row] == -1e-9
        assert system.dim == net.n_nodes + 2


class TestValidation:
    def test_empty_netlist_rejected(self):
        with pytest.raises(NetlistError, match="empty"):
            assemble(Netlist())

    def test_floating_node_detected(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        # b-c island touches ground only through a capacitor: no DC path.
        net.add_resistor("R2", "b", "c", 1.0)
        net.add_capacitor("C1", "c", "0", 1e-12)
        with pytest.raises(NetlistError, match="no DC path"):
            assemble(net)

    def test_inductor_provides_dc_path(self):
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_inductor("L1", "a", "b", 1e-9)
        assemble(net)  # must not raise

    def test_valid_circuit_passes(self, rc_ladder):
        assemble(rc_ladder)

    def test_summary_mentions_counts(self, rc_ladder):
        s = assemble(rc_ladder).summary()
        assert "10 R" in s and "10 C" in s and "1 I" in s


#: A hostile element or node name: its messages quote a clip of it.
LONG = 100_000


def _clipped(message: str, name: str) -> None:
    """``message`` is short and quotes ``name`` as its head and length."""
    assert len(message) < 200
    assert f"{name[:80]!r}… ({LONG} characters)" in message


class TestLongNamesAreClipped:
    """Every name a rule quotes goes through ``parser.quote``."""

    def test_bad_value(self):
        name = "R" + "v" * (LONG - 1)
        with pytest.raises(NetlistError) as exc:
            Netlist().add_resistor(name, "a", "0", -1.0)
        _clipped(str(exc.value), name)

    def test_duplicate_name(self):
        name = "R" + "d" * (LONG - 1)
        net = Netlist()
        net.add_resistor(name, "a", "0", 1.0)
        with pytest.raises(NetlistError) as exc:
            net.add_resistor(name, "a", "0", 1.0)
        _clipped(str(exc.value), name)
        assert str(exc.value).endswith(f"… ({LONG} characters)")

    def test_empty_node_name(self):
        name = "R" + "e" * (LONG - 1)
        with pytest.raises(NetlistError) as exc:
            Netlist().add_resistor(name, "", "0", 1.0)
        _clipped(str(exc.value), name)

    def test_both_terminals_grounded(self):
        name = "R" + "g" * (LONG - 1)
        with pytest.raises(NetlistError) as exc:
            Netlist().add_resistor(name, "0", "gnd", 1.0)
        _clipped(str(exc.value), name)

    def test_floating_node(self):
        node = "n" * LONG
        net = Netlist()
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_capacitor("C1", node, "0", 1e-12)
        with pytest.raises(NetlistError, match="no DC path") as exc:
            assemble(net)
        _clipped(str(exc.value), node)
