"""Unit tests for the SPICE-dialect grammar, ``parse_netlist`` and the writer."""

import numpy as np
import pytest

from repro.circuit import (
    DC,
    PWL,
    ParseError,
    Pulse,
    assemble,
    format_netlist,
    ingest_file,
    parse_netlist,
    parse_value,
)
from tests.stamp_oracle import element_rows, rows_by_name


class TestParseValue:
    @pytest.mark.parametrize("token,expected", [
        ("4.7k", 4700.0),
        ("10p", 1e-11),
        ("1meg", 1e6),
        ("1MEG", 1e6),
        ("2.5u", 2.5e-6),
        ("3n", 3e-9),
        ("1f", 1e-15),
        ("5m", 5e-3),
        ("100", 100.0),
        ("1e-12", 1e-12),
        ("-3.3", -3.3),
        ("2.2kohm", 2200.0),
    ])
    def test_suffixes(self, token, expected):
        assert parse_value(token) == pytest.approx(expected)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_value("abc")


class TestParseNetlist:
    def test_basic_cards(self):
        net = parse_netlist(
            "* test\n"
            "R1 a b 1k\n"
            "C1 b 0 1p\n"
            "L1 b c 1n\n"
            "Rc c 0 1\n"
            "V1 a 0 1.8\n"
            "I1 b 0 2m\n"
        )
        assert len(element_rows(net, "r")) == 2
        rows = rows_by_name(net)
        assert rows["R1"].value == 1000.0
        assert rows["C1"].value == 1e-12
        assert rows["L1"].value == 1e-9
        assert rows["V1"].waveform == DC(1.8)
        assert rows["I1"].waveform == DC(2e-3)

    def test_title_line(self):
        net = parse_netlist("my power grid title\nR1 a 0 1\n")
        assert net.title == "my power grid title"
        assert net.element_names() == ("R1",)

    def test_pulse_source_spice_order(self):
        # SPICE: PULSE(v1 v2 td tr tf pw per) — tf BEFORE pw.
        net = parse_netlist("I1 a 0 PULSE(0 1m 1n 50p 60p 300p 2n)\nR1 a 0 1\n")
        (p,) = net.current_waveforms
        assert isinstance(p, Pulse)
        assert p.t_delay == 1e-9
        assert p.t_rise == 5e-11
        assert p.t_fall == 6e-11
        assert p.t_width == 3e-10
        assert p.t_period == 2e-9

    def test_pwl_source(self):
        net = parse_netlist("I1 a 0 PWL(0 0 1n 1m 2n 0)\nR1 a 0 1\n")
        (w,) = net.current_waveforms
        assert isinstance(w, PWL)
        assert w.value(1e-9) == pytest.approx(1e-3)

    def test_pwl_prepends_origin(self):
        net = parse_netlist("I1 a 0 PWL(1n 0.5m 2n 1m)\nR1 a 0 1\n")
        assert net.current_waveforms[0].value(0.0) == pytest.approx(5e-4)

    def test_continuation_lines(self):
        net = parse_netlist("I1 a 0 PWL(0 0\n+ 1n 1m)\nR1 a 0 1\n")
        assert isinstance(net.current_waveforms[0], PWL)

    def test_comments_and_blanks_skipped(self):
        net = parse_netlist("* c\n\nR1 a 0 1\n* more\nC1 a 0 1p\n")
        assert len(net) == 2

    def test_dot_end_stops_parsing(self):
        net = parse_netlist("R1 a 0 1\n.end\nR2 b 0 1\n")
        assert net.element_names() == ("R1",)

    def test_directives_tolerated(self):
        net = parse_netlist("R1 a 0 1\n.tran 10p 10n\n.op\n")
        assert net.element_names() == ("R1",)

    def test_unsupported_element_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_netlist("R1 a 0 1\nQ1 a b c model\n")

    def test_malformed_card_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_netlist("R1 a 0\n")

    def test_orphan_continuation_rejected(self):
        with pytest.raises(ParseError, match="continuation"):
            parse_netlist("+ 1n 1m\n")

    def test_bad_source_value(self):
        with pytest.raises(ParseError):
            parse_netlist("V1 a 0 one point eight\n")


class TestWriterRoundTrip:
    def test_full_round_trip(self, small_pdn):
        text = format_netlist(small_pdn, t_end=1e-9)
        reparsed = parse_netlist(text)
        a = assemble(small_pdn)
        b = assemble(reparsed)
        assert np.allclose(a.G.todense(), b.G.todense())
        assert np.allclose(a.C.todense(), b.C.todense())
        assert np.allclose(a.B.todense(), b.B.todense())
        for t in [0.0, 1.5e-10, 3e-10]:
            assert np.allclose(a.input_vector(t), b.input_vector(t))

    def test_tran_directive_emitted(self, rc_ladder):
        text = format_netlist(rc_ladder, t_end=1e-8)
        assert ".tran" in text
        assert text.rstrip().endswith(".end")

    def test_pwl_round_trip(self):
        net = parse_netlist("I1 a 0 PWL(0 0 1n 1m 2n 0)\nR1 a 0 1\n")
        again = parse_netlist(format_netlist(net))
        assert again.current_waveforms == net.current_waveforms

    def test_file_stem_is_default_title(self, tmp_path, rc_ladder):
        path = tmp_path / "ladder.spice"
        path.write_text(format_netlist(rc_ladder))
        res = ingest_file(path)
        assert res.system.title == "ladder"
        assert res.stats.n_cards == len(rc_ladder)

    def test_malformed_tran_rejected(self):
        # .tran is the deck's horizon: a bad one is an error, not ignored.
        with pytest.raises(ParseError, match="^line 2: not a SPICE number"):
            parse_netlist("R1 a 0 1\n.tran 1p soon\n")
