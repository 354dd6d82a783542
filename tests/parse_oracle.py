"""The card loop the deck reader replaced: the grammar fuzz's oracle.

:mod:`repro.circuit.ingest` reads a deck in one streaming pass whose
card dispatch is written for speed (kind by first letter, R/C/L values
as the fourth token).  This module keeps the loop ``parse_netlist`` ran
before the reader became the one card loop: the whole deck folded into
a list of cards, the element kind from each card's head, and one public
``Netlist.add_*`` call per element, so the reader's dispatch is compared
with code that shares only the token grammar (:mod:`repro.circuit.parser`)
and the netlist's own rules with it.  It ignores ``.tran``, which the
reader parses as the deck's horizon.
"""

from __future__ import annotations

from repro.circuit.netlist import Netlist, NetlistError
from repro.circuit.parser import (
    ParseError,
    is_title_line,
    iter_logical_cards,
    parse_value,
    parse_waveform,
)


def oracle_parse_netlist(text: str, title: str = "netlist") -> Netlist:
    """Parse netlist source text into a :class:`Netlist`, card by card.

    The first line is treated as the title if it is not a recognisable
    card (SPICE convention).  ``.``-directives are accepted and ignored
    except ``.end``, which stops parsing.
    """
    netlist = Netlist(title=title)
    merged = list(iter_logical_cards(text.splitlines()))

    start = 0
    if merged and is_title_line(merged[0][1]):
        netlist.title = merged[0][1]
        start = 1

    for lineno, line in merged[start:]:
        head = line.split()[0]
        kind = head[0].lower()
        if kind == ".":
            if head.lower() == ".end":
                break
            continue  # .op / .tran / .print etc. — tolerated, ignored
        tokens = line.split(None, 3)
        if len(tokens) < 4:
            raise ParseError(f"line {lineno}: malformed card {line!r}")
        name, pos, neg, rest = tokens
        try:
            if kind == "r":
                netlist.add_resistor(name, pos, neg, parse_value(rest.split()[0]))
            elif kind == "c":
                netlist.add_capacitor(name, pos, neg, parse_value(rest.split()[0]))
            elif kind == "l":
                netlist.add_inductor(name, pos, neg, parse_value(rest.split()[0]))
            elif kind == "v":
                netlist.add_voltage_source(name, pos, neg, parse_waveform(rest, lineno))
            elif kind == "i":
                netlist.add_current_source(name, pos, neg, parse_waveform(rest, lineno))
            else:
                raise ParseError(
                    f"line {lineno}: unsupported element type {head!r} "
                    f"(only R, C, L, V, I are in the PDN dialect)"
                )
        except (ValueError, NetlistError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"line {lineno}: {exc}") from exc
    return netlist
