"""Tests for the one deck reader (repro.circuit.ingest).

The load-bearing property is **bit-identity**: a deck written in element
insertion order must read back into an :class:`MNASystem` whose CSC
arrays are byte-for-byte equal to ``assemble(netlist)`` — node index
assignment, stamp sequence and duplicate-summation order all preserved.
Generated and read netlists are one form with one stamp, so each is
also held against the per-element oracle of ``tests/stamp_oracle.py``,
and the reader's card loop against the one it replaced
(``tests/parse_oracle.py``).
"""

import dataclasses
import gc
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    DC,
    PWL,
    IngestError,
    Netlist,
    NetlistError,
    ParseError,
    Pulse,
    assemble,
    format_netlist,
    ingest_file,
    ingest_text,
    parse_netlist,
)
from repro.circuit.netlist import GROUND_NAMES
from repro.core import SolverOptions
from repro.dist import MatexScheduler
from repro.pdn import (
    PdnConfig,
    WorkloadSpec,
    attach_pulse_loads,
    generate_power_grid,
    synthesize_ibmpg,
)
from tests.conftest import build_multi_source_mesh, build_small_pdn
from tests.parse_oracle import oracle_parse_netlist
from tests.stamp_oracle import oracle_assemble


def build_inductor_pdn():
    """A package-inductor PDN built through the API, never parsed."""
    net = generate_power_grid(PdnConfig(rows=6, cols=6, l_package=5e-10, n_pads=3))
    attach_pulse_loads(net, WorkloadSpec(n_sources=5, n_shapes=2, time_grid_points=8))
    assert net.counts["l"]
    return net


def assert_bit_identical(ref, streamed):
    """CSC arrays of G/C/B byte-for-byte equal, plus the node map."""
    for name in ("G", "C", "B"):
        a, b = getattr(ref, name), getattr(streamed, name)
        assert a.shape == b.shape, name
        np.testing.assert_array_equal(a.indptr, b.indptr, err_msg=name)
        np.testing.assert_array_equal(a.indices, b.indices, err_msg=name)
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    assert ref.node_names() == streamed.node_names()
    assert ref.waveforms == streamed.waveforms
    assert ref.n_current_inputs == streamed.n_current_inputs


def _error_line(exc: Exception) -> int | None:
    """The 1-based line an error message names, if it names one."""
    m = re.match(r"line (\d+):", str(exc))
    return int(m.group(1)) if m else None


class TestRoundTripBitIdentity:
    @pytest.mark.parametrize(
        "build", [build_small_pdn, build_multi_source_mesh, build_inductor_pdn]
    )
    def test_insertion_order_roundtrip(self, build):
        net = build()
        text = format_netlist(net, t_end=1e-9, order="insertion")
        res = ingest_text(text)
        assert_bit_identical(assemble(net), res.system)
        assert_bit_identical(oracle_assemble(net), res.system)
        assert res.stats.tran_stop == 1e-9

    def test_pdn_with_inductors_roundtrip(self, tmp_path):
        cfg = PdnConfig(rows=8, cols=8, l_package=5e-10, n_pads=3)
        wl = WorkloadSpec(n_sources=6, n_shapes=2, t_end=1e-9,
                          time_grid_points=8)
        path = tmp_path / "grid.spice"
        net = synthesize_ibmpg(path, cfg, wl)
        res = ingest_file(path)
        assert_bit_identical(assemble(net), res.system)
        assert_bit_identical(oracle_assemble(net), res.system)
        # The deck advertises its own horizon.
        assert res.stats.tran_stop == pytest.approx(1e-9)
        assert res.stats.n_inductors == 3
        assert res.stats.dim == res.system.dim

    def test_streamed_system_runs_distributed_identically(self, small_pdn):
        text = format_netlist(small_pdn, order="insertion")
        streamed = ingest_text(text).system
        opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-7)
        ref = MatexScheduler(assemble(small_pdn), opts).run(1e-9)
        got = MatexScheduler(streamed, opts).run(1e-9)
        np.testing.assert_array_equal(ref.result.states, got.result.states)


class TestDialect:
    def test_comments_blanks_continuations_suffixes(self):
        res = ingest_text(
            "* a title comment\n"
            "\n"
            "R1 n1_1 0 4.7k\n"
            "C1 n1_1 0 10p\n"
            "Iload n1_1 0 PULSE(0 1m\n"
            "+ 100p 20p\n"
            "+ 20p 100p)\n"
            ".tran 1p 1n\n"
            ".end\n"
        )
        s = res.system
        assert s.dim == 1
        assert s.G[0, 0] == pytest.approx(1.0 / 4700.0)
        assert s.C[0, 0] == pytest.approx(1e-11)
        assert isinstance(s.waveforms[0], Pulse)
        assert res.stats.tran_step == pytest.approx(1e-12)
        assert res.stats.tran_stop == pytest.approx(1e-9)

    def test_title_line_and_ground_aliases(self):
        res = ingest_text(
            "my power grid\n"
            "Rg n_0_1 gnd 1.0\n"
            "Vs n_0_1 GND 1.8\n"
        )
        assert res.system.title == "my power grid"
        assert res.system.node_names() == ("n_0_1",)
        assert isinstance(res.system.waveforms[0], DC)

    def test_pwl_and_dc_sources(self):
        res = ingest_text(
            "R1 a 0 1\n"
            "V1 a 0 DC 1.8\n"
            "I1 a 0 PWL(0 0 1n 1m)\n"
        )
        wf = res.system.waveforms
        assert wf[0] == PWL([(0.0, 0.0), (1e-9, 1e-3)])  # current first
        assert wf[1] == DC(1.8)

    def test_end_stops_parsing(self):
        res = ingest_text("R1 a 0 1\n.end\nR2 b 0 nonsense\n")
        assert res.stats.n_resistors == 1

    def test_cards_after_end_not_counted(self):
        res = ingest_text("R1 a 0 1\n.end\nR1 a 0 1\n")  # dup after .end: fine
        assert res.stats.n_cards == 1


class TestErrors:
    def test_malformed_card_has_line_number(self):
        with pytest.raises(IngestError, match="line 2"):
            ingest_text("R1 a 0 1\nR2 a\n")

    def test_continuation_without_card(self):
        # Raised by the shared card tokeniser (parser.iter_logical_cards).
        with pytest.raises(ParseError, match="continuation"):
            ingest_text("+ 1 2 3\n")

    def test_unsupported_element_type(self):
        with pytest.raises(IngestError, match="unsupported element type"):
            ingest_text("R1 a 0 1\nQ1 a b c model\n")

    def test_duplicate_element_name(self):
        with pytest.raises(IngestError, match="duplicate element name"):
            ingest_text("R1 a 0 1\nR1 a 0 2\n")

    def test_both_terminals_grounded(self):
        with pytest.raises(IngestError, match="both terminals grounded"):
            ingest_text("R1 0 gnd 1\n")

    def test_nonpositive_value_rejected(self):
        with pytest.raises(IngestError, match="positive"):
            ingest_text("R1 a 0 -5\n")

    def test_floating_node_rejected(self):
        # A cap-only node has no DC path to ground.
        with pytest.raises(NetlistError, match="no DC path to ground"):
            ingest_text("R1 a 0 1\nC2 b 0 1p\n")

    def test_validate_false_skips_connectivity(self):
        res = ingest_text("R1 a 0 1\nC2 b 0 1p\n", validate=False)
        assert res.system.dim == 2

    def test_empty_netlist(self):
        with pytest.raises(NetlistError, match="empty netlist"):
            ingest_text("* nothing here\n")

    @pytest.mark.parametrize("deck, line", [
        ("R1 a 0 -1\nR1 a 0 2\n", 1),              # value before duplicate
        ("R1 a 0 xx\nQ1 a b c m\n", 1),            # value before unsupported
        ("C1 a 0 0\nR2 0 0 1\n", 1),               # value before both-grounded
        ("R1 a 0 1\nI1 a 0 PWL(0 1 2)\nR3 b\n", 2),  # waveform before malformed
    ])
    def test_first_faulty_line_matches_object_parser(self, deck, line):
        with pytest.raises(ParseError) as ref:
            oracle_parse_netlist(deck)
        with pytest.raises(ParseError) as got:  # waveform errors stay ParseError
            ingest_text(deck)
        assert _error_line(got.value) == _error_line(ref.value) == line

    @pytest.mark.parametrize("kind", ["R", "C", "L"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "infinity", "1_000"])
    def test_float_spellings_outside_the_grammar(self, kind, token):
        # float() accepts these; the SPICE number grammar does not.
        with pytest.raises(IngestError, match=r"^line 2: not a SPICE number"):
            ingest_text(f"R0 a 0 1\n{kind}1 a 0 {token}\n")

    def test_floating_nodes_listed_in_first_appearance_order(self):
        floating = ["f6", "f2", "f0", "f5", "f1", "f4", "f3"]
        deck = "R0 a 0 1\n" + "".join(
            f"C{k} {node} 0 1p\n" for k, node in enumerate(floating)
        )
        with pytest.raises(NetlistError) as exc:
            ingest_text(deck)
        assert str(exc.value) == (
            f"7 node(s) have no DC path to ground, e.g. {floating[:5]!r}; "
            f"G would be singular"
        )
        with pytest.raises(NetlistError) as ref:
            assemble(oracle_parse_netlist(deck))
        assert str(ref.value) == str(exc.value)
        assert ingest_text(deck, validate=False).system.dim == 8
        # The same circuit built through the API, not parsed: assemble(),
        # its insertion-order deck and the oracle all agree.
        net = Netlist("api")
        net.add_resistor("R0", "a", "0", 1.0)
        for k, node in enumerate(floating):
            net.add_capacitor(f"C{k}", node, "0", 1e-12)
        for build in (lambda: assemble(net),
                      lambda: ingest_text(format_netlist(net, order="insertion")),
                      lambda: oracle_assemble(net)):
            with pytest.raises(NetlistError) as api:
                build()
            assert str(api.value) == str(exc.value)

    def test_floating_through_a_chain_and_an_inductor(self):
        # a-b-c reach ground only through a capacitor; d through L and V.
        deck = ("R1 a b 1\nR2 b c 1\nC1 c 0 1p\n"
                "L1 d e 1n\nV1 e 0 1\nR3 g 0 1\n")
        message = r"3 node\(s\).*\['a', 'b', 'c'\]"
        with pytest.raises(NetlistError, match=message):
            ingest_text(deck)
        net = Netlist("api")
        net.add_resistor("R1", "a", "b", 1.0)
        net.add_resistor("R2", "b", "c", 1.0)
        net.add_capacitor("C1", "c", "0", 1e-12)
        net.add_inductor("L1", "d", "e", 1e-9)
        net.add_voltage_source("V1", "e", "0", 1.0)
        net.add_resistor("R3", "g", "0", 1.0)
        for build in (lambda: assemble(net),
                      lambda: ingest_text(format_netlist(net, order="insertion")),
                      lambda: oracle_assemble(net)):
            with pytest.raises(NetlistError, match=message):
                build()


# -- differential grammar fuzz: the reader vs the card loop it replaced ----------------

_FUZZ_NODES = ["a", "b", "n1_2"]
_FUZZ_TERMINALS = _FUZZ_NODES * 6 + sorted(GROUND_NAMES)  # ground ~1 in 5
_GOOD_VALUES = ["1", "2.5", "4.7k", "10p", "1meg", "3e-3", ".5u", "2MEG", "7ohm"]
_BAD_VALUES = ["nan", "inf", "1_0", "-1", "0"]
_GOOD_SOURCES = ["1.8", "DC 1.8", "dc 0", "PULSE(0 1m 1n 1n 1n 2n)",
                 "pulse(0 2m 0 1p 1p 1n 4n)", "PWL(0 0 1n 1m)", "PWL(1n 1m 2n 0)"]
_BAD_SOURCES = ["PWL(0 1 2)", "nan", "DC inf", "PULSE(1)", "DC 1_0"]
_DIRECTIVES = [".op", ".tran 1p 1n", ".tran 2n", ".print tran v(a)", ".end",
               ".tran nan 1n"]  # the last: see test_streamed_and_object_paths_agree


@st.composite
def fuzz_decks(draw) -> str:
    """Small decks over the whole card dialect, good and bad tokens mixed."""
    rare = st.integers(0, 15).map(lambda k: k == 0)
    terminal = st.sampled_from(_FUZZ_TERMINALS)
    lines: list[str] = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["pdn fuzz deck", "R grid", "* header"])))
    for k, node in enumerate(_FUZZ_NODES):  # ground ties, so some decks pass
        if draw(st.integers(0, 3)):
            lines.append(f"Rb{k} {node} {draw(terminal)} 1k")
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.integers(0, 19))
        if shape == 0:
            card = "Q1 a b c model"
        elif shape == 1:
            card = f"R{draw(st.integers(0, 5))} a"
        elif shape == 2:
            card = draw(st.sampled_from(_DIRECTIVES))
        else:
            letter = draw(st.sampled_from("RCLVIrclvi"))
            if letter in "RCLrcl":
                spec = draw(st.sampled_from(_BAD_VALUES if draw(rare) else _GOOD_VALUES))
            else:
                spec = draw(st.sampled_from(_BAD_SOURCES if draw(rare) else _GOOD_SOURCES))
            sep = draw(st.sampled_from([" ", "\t", "  "]))
            card = sep.join([f"{letter}{draw(st.integers(0, 5))}",
                             draw(terminal), draw(terminal), spec])
        tokens = card.split()
        if len(tokens) > 1 and draw(rare):  # fold the tail onto '+' lines
            cut = draw(st.integers(1, len(tokens) - 1))
            card = " ".join(tokens[:cut]) + "\n+ " + " ".join(tokens[cut:])
        if draw(rare):
            lines.append(draw(st.sampled_from(["", "   ", "* comment"])))
        lines.append(card)
    return "\n".join(lines) + "\n"


class TestGrammarFuzz:
    @given(deck=fuzz_decks())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_streamed_and_object_paths_agree(self, deck):
        """Same typed error on the same line, or the same bits.

        The object path is the replaced card loop
        (``tests/parse_oracle.py``) then both ``assemble`` and the
        per-element oracle, which must agree with each other on every
        deck.  One known divergence, between the reader and the oracle
        only (``parse_netlist`` is the reader without the stamp): the reader
        parses ``.tran`` (it is the deck's default horizon) and raises on
        a bad value there, while the oracle ignores every ``.tran`` card.
        """
        got = ref = None
        try:
            streamed = ingest_text(deck).system
        except (ParseError, NetlistError) as exc:
            got = exc
        try:
            net = oracle_parse_netlist(deck)
        except (ParseError, NetlistError) as exc:
            ref = exc
        else:
            try:
                oracle = oracle_assemble(net)
            except NetlistError as exc:
                ref = exc
                with pytest.raises(NetlistError) as same:
                    assemble(net)
                assert str(same.value) == str(exc)
            else:
                assembled = assemble(net)
                assert_bit_identical(oracle, assembled)
        line = None if got is None else _error_line(got)
        if line is not None and deck.splitlines()[line - 1].startswith(".tran"):
            ref_line = None if ref is None else _error_line(ref)
            assert ref_line is None or ref_line > line, (got, ref)
            return
        assert (got is None) == (ref is None), (got, ref)
        if got is None:
            assert_bit_identical(assembled, streamed)
        else:
            assert line == _error_line(ref), (got, ref)
            if isinstance(got, NetlistError):  # validation: same message
                assert str(got) == str(ref)


class TestHostileDecks:
    """A hostile deck is a ParseError naming its line, never a traceback."""

    @staticmethod
    def _line(exc) -> int:
        assert isinstance(exc, ParseError), exc
        return _error_line(exc)

    def test_undecodable_second_line(self, tmp_path):
        path = tmp_path / "bad.spice"
        path.write_bytes(b"R1 a 0 1\nR2 a 0 \xff\n")
        with pytest.raises(ParseError, match=r"^line 2: byte 0xff is not utf-8"):
            ingest_file(path)

    @pytest.mark.parametrize("bad", [1, 2, 8191, 49931, 50002, 50009])
    def test_undecodable_line_in_a_large_deck(self, tmp_path, bad):
        # 50 010 lines, 1.1 MB: the decoder fails a block ahead of the
        # cards read so far, and the error still names the bad line.
        lines = [b"R0 n0 0 1"] + [
            b"R%d n%d n%d 1.5" % (k, k, k - 1) for k in range(1, 50010)
        ]
        lines[bad - 1] += b" \xfe"
        path = tmp_path / "big.spice"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert path.stat().st_size > 1 << 20
        with pytest.raises(ParseError) as exc:
            ingest_file(path)
        assert self._line(exc.value) == bad

    @pytest.mark.parametrize("deck, line, message", [
        ("R1 a 0 1\nR2 a 0 1\x00\n", 2, "not a SPICE number"),      # NUL in a card
        ("R1 a 0 1\n\x00R2 a 0 1\n", 2, "unsupported element type"),
        ("R1 a 0 1\nI1 a 0 PULSE(0 1m\n+ 1n", 2, "cannot parse source"),  # EOF in a + chain
        ("R1 a 0 1\nR2 a", 2, "malformed card"),                     # EOF mid-card
        ("R1 a 0 1\nV1 a 0", 2, "malformed card"),
    ])
    def test_truncated_and_nul_cards(self, tmp_path, deck, line, message):
        path = tmp_path / "deck.spice"
        path.write_text(deck)
        for read in (lambda: ingest_file(path), lambda: ingest_text(deck),
                     lambda: parse_netlist(deck)):
            with pytest.raises(ParseError, match=message) as exc:
                read()
            assert self._line(exc.value) == line

    def test_one_very_long_line(self, tmp_path):
        path = tmp_path / "long.spice"
        path.write_text("R1 a 0 1\nR2 " + "a" * (1 << 21) + " 0\nR3 a 0 1\n")
        with pytest.raises(ParseError, match="malformed card") as exc:
            ingest_file(path)
        assert self._line(exc.value) == 2
        # The card is quoted as a clipped head plus its length.
        message = str(exc.value)
        assert len(message) < 200
        assert message.endswith(f"… ({3 + (1 << 21) + 2} characters)")

    @pytest.mark.parametrize("card, fragment", [
        ("X" + "y" * 500 + " a 0 1", "unsupported element type 'Xyyy"),
        ("R1 a 0 " + "9" * 400 + "z!", "not a SPICE number: '9999"),
        ("I1 a 0 DC 1 " + "2 " * 300, "cannot parse source value 'DC 1 2"),
    ])
    def test_long_tokens_are_clipped(self, card, fragment):
        with pytest.raises(ParseError, match=re.escape(fragment)) as exc:
            ingest_text("R0 a 0 1\n" + card + "\n")
        assert self._line(exc.value) == 2
        assert len(str(exc.value)) < 200
        assert "characters)" in str(exc.value)


class TestIngestedNetlist:
    def test_netlist_interface(self, small_pdn):
        text = format_netlist(small_pdn, order="insertion")
        system = ingest_text(text).system
        ref = assemble(small_pdn)
        assert system.n_nodes == ref.n_nodes == small_pdn.n_nodes
        assert system.dim == ref.dim
        assert system.counts == ref.counts == small_pdn.counts
        for name in ref.node_names():
            assert system.node_index(name) == ref.node_index(name)
        assert system.node_index("0") == -1
        with pytest.raises(NetlistError, match="unknown node"):
            system.node_index("no_such_node")
        # summary matches the generated system's field for field (the
        # title differs: the writer emits it as a comment, not a title line)
        assert (system.summary().split(": ", 1)[1]
                == ref.summary().split(": ", 1)[1])
        # One form: the read netlist holds the generated one's columns.
        streamed, ref = parse_netlist(text), small_pdn
        assert streamed.n_nodes == ref.n_nodes
        assert streamed.counts == ref.counts
        assert len(streamed) == len(ref)
        assert streamed.element_names() == ref.element_names()
        for a, b in zip(streamed.columns(), ref.columns()):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
        assert streamed.current_waveforms == ref.current_waveforms
        assert streamed.voltage_waveforms == ref.voltage_waveforms

    def test_node_voltage_reporting(self, small_pdn):
        system = ingest_text(
            format_netlist(small_pdn, order="insertion")
        ).system
        x = np.arange(float(system.dim))
        idx = system.node_index("g3_3")
        assert system.node_voltage(x, "g3_3") == x[idx]
        assert system.node_voltage(x, "g0_0") == x[0]


class TestSystemWithoutNetlist:
    """An ingested system keeps node names and counts, not the netlist."""

    @staticmethod
    def _reaches(root, cls) -> bool:
        """Whether ``root``'s object graph (types, modules and functions
        aside) holds an instance of ``cls``."""
        seen, stack = set(), [root]
        skip = (type, types.ModuleType, types.FunctionType)
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, skip):
                continue
            if isinstance(obj, cls):
                return True
            seen.add(id(obj))
            stack.extend(gc.get_referents(obj))
        return False

    def test_ingested_system_reaches_no_netlist(self, small_pdn, tmp_path):
        path = tmp_path / "grid.spice"
        path.write_text(format_netlist(small_pdn, t_end=1e-9))
        res = ingest_file(path)
        assert not self._reaches(res, Netlist)
        assert self._reaches(small_pdn, Netlist)  # the walk can see one
        # The counts are read before the netlist goes (values as recorded
        # when the system still kept it).
        counts = small_pdn.counts
        assert dataclasses.astuple(res.stats)[:10] == (
            44, 17, 25, 16, 0, 1, 2, 18, 69, 16,
        ) == (
            len(small_pdn), small_pdn.n_nodes, counts["r"], counts["c"],
            counts["l"], counts["v"], counts["i"], res.system.dim,
            res.system.G.nnz, res.system.C.nnz,
        )
        assert res.system.node_names() == small_pdn.node_names()


class TestWriterOrders:
    def test_by_type_unchanged_default(self, small_pdn):
        # The grouped layout is the historical default format.
        text = format_netlist(small_pdn)
        lines = [ln for ln in text.splitlines() if not ln.startswith("*")]
        kinds = [ln[0] for ln in lines if ln[0] != "."]
        assert kinds == sorted(kinds, key="RCLVI".index)

    def test_insertion_order_preserves_element_sequence(self, small_pdn):
        text = format_netlist(small_pdn, order="insertion")
        names = [ln.split()[0] for ln in text.splitlines()
                 if ln and ln[0] not in "*."]
        assert names == list(small_pdn.element_names())

    def test_unknown_order_rejected(self, small_pdn):
        with pytest.raises(ValueError, match="order"):
            format_netlist(small_pdn, order="shuffled")


class TestSynthesizeIbmpg:
    def test_deck_has_benchmark_flavour(self, tmp_path):
        path = tmp_path / "pg.spice"
        synthesize_ibmpg(path, PdnConfig(rows=6, cols=6),
                         WorkloadSpec(n_sources=4, n_shapes=2,
                                      time_grid_points=8))
        text = path.read_text()
        assert text.startswith("* ibmpg-style synthetic benchmark")
        assert "\n.op\n" in text
        assert "\n.tran " in text
        assert text.rstrip().endswith(".end")

    def test_deck_parses_with_object_parser_too(self, tmp_path):
        """The read dialect stays a subset of the replaced card loop's."""
        path = tmp_path / "pg.spice"
        net = synthesize_ibmpg(path, PdnConfig(rows=5, cols=5),
                               WorkloadSpec(n_sources=3, n_shapes=2,
                                            time_grid_points=8))
        reparsed = oracle_parse_netlist(path.read_text())
        assert len(reparsed) == len(net)
        assert assemble(reparsed).dim == assemble(net).dim
