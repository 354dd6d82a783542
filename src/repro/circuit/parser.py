"""SPICE-subset netlist parser (IBM power-grid benchmark dialect).

The IBM power grid benchmarks (Nassif, ASPDAC'08) that the paper evaluates
on are distributed as flat SPICE decks containing only ``R``, ``C``, ``L``,
``V`` and ``I`` cards plus ``.op``/``.tran``/``.end`` control lines.  This
module parses that dialect (and enough general SPICE to be useful):

* engineering suffixes (``1k``, ``2.2u``, ``3MEG``, ``10p`` ...),
* ``PULSE(v1 v2 td tr tf pw per)``  — note SPICE parameter order,
* ``PWL(t1 v1 t2 v2 ...)``,
* bare numeric value → DC source,
* ``*`` comments, blank lines, case-insensitive cards,
* continuation lines starting with ``+``.

The parser returns a :class:`repro.circuit.netlist.Netlist`; pair it with
:func:`repro.circuit.mna.assemble` to obtain matrices.  The inverse
operation lives in :mod:`repro.circuit.writer`.
"""

from __future__ import annotations

import re
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator

from repro.circuit.netlist import Netlist, NetlistError
from repro.circuit.waveforms import DC, PWL, Pulse, Waveform

__all__ = [
    "ParseError",
    "is_title_line",
    "iter_logical_cards",
    "parse_netlist",
    "parse_file",
    "parse_value",
    "parse_waveform",
]


class ParseError(ValueError):
    """Raised on malformed netlist text, with 1-based line numbers."""


#: SPICE engineering suffixes, longest match first (``meg`` before ``m``).
_SUFFIXES = [
    ("meg", 1e6),
    ("mil", 25.4e-6),
    ("t", 1e12),
    ("g", 1e9),
    ("k", 1e3),
    ("m", 1e-3),
    ("u", 1e-6),
    ("n", 1e-9),
    ("p", 1e-12),
    ("f", 1e-15),
]

_NUM_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([a-zA-Z]*)$"
)


def parse_value(token: str) -> float:
    """Parse a SPICE numeric token with optional engineering suffix.

    >>> parse_value("4.7k")
    4700.0
    >>> parse_value("10p")
    1e-11

    A plain finite number takes ``float`` directly.  ``float`` also
    accepts ``nan``, ``inf``, ``infinity`` and ``1_000``, which the
    grammar rejects, so non-finite results and underscores fall through
    to the regex and raise there.
    """
    try:
        value = float(token)
    except ValueError:
        pass
    else:
        if isfinite(value) and "_" not in token:
            return value
    m = _NUM_RE.match(token.strip())
    if not m:
        raise ValueError(f"not a SPICE number: {token!r}")
    base = float(m.group(1))
    suffix = m.group(2).lower()
    if not suffix:
        return base
    for s, mult in _SUFFIXES:
        if suffix.startswith(s):
            return base * mult
    # Unknown trailing letters (e.g. unit names like "ohm") are ignored,
    # which matches SPICE behaviour.
    return base


def iter_logical_cards(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Stream ``(line_number, merged_card)`` pairs from netlist source.

    Blank lines and ``*`` comments are dropped; ``+`` continuation lines
    are folded into the preceding card.  At most one pending card is
    held, so the stream costs O(1) memory regardless of deck size —
    this single generator defines the card dialect for **both** the
    in-memory parser and the streaming ingester
    (:mod:`repro.circuit.ingest`); their bit-identical round-trip
    guarantee depends on agreeing card-for-card.  A card without
    continuations is yielded as its stripped line, with no join.
    """
    start, card, pieces = 0, None, None  # pieces: card + continuations
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped[0] == "*":
            continue
        if stripped[0] != "+":
            if card is not None:
                yield start, card if pieces is None else " ".join(pieces)
            start, card, pieces = lineno, stripped, None
        elif card is None:
            raise ParseError(f"line {lineno}: continuation without a card")
        elif pieces is None:
            pieces = [card, stripped[1:].strip()]
        else:
            pieces.append(stripped[1:].strip())
    if card is not None:
        yield start, card if pieces is None else " ".join(pieces)


def is_title_line(line: str) -> bool:
    """SPICE convention: a first line that is no recognisable card.

    Shared by both parsers for the same reason as
    :func:`iter_logical_cards`.
    """
    head = line.split(None, 1)[0].lower()
    return head[0] not in "rclvi." or len(line.split(None, 3)) < 3


_FUNC_RE = re.compile(r"(pulse|pwl)\s*\(([^)]*)\)", re.IGNORECASE)


def parse_waveform(spec: str, lineno: int = 0) -> Waveform:
    """Parse the source-value portion of a V/I card.

    Shared by the in-memory parser and the streaming ingester
    (:mod:`repro.circuit.ingest`); ``lineno`` only decorates errors.
    """
    spec = spec.strip()
    m = _FUNC_RE.search(spec)
    if m is None:
        # Possibly "DC <val>" or a bare number.
        tokens = spec.split()
        if tokens and tokens[0].lower() == "dc":
            tokens = tokens[1:]
        if len(tokens) != 1:
            raise ParseError(
                f"line {lineno}: cannot parse source value {spec!r}"
            )
        return DC(parse_value(tokens[0]))

    kind = m.group(1).lower()
    args = [parse_value(tok) for tok in m.group(2).replace(",", " ").split()]
    if kind == "pulse":
        if len(args) < 2:
            raise ParseError(f"line {lineno}: PULSE needs at least v1 v2")
        # SPICE order: v1 v2 td tr tf pw per
        defaults = [0.0, 0.0, 0.0, 1e-12, 1e-12, 0.0, None]
        full = list(args) + defaults[len(args):]
        v1, v2, td, tr, tf, pw = full[:6]
        per = full[6]
        return Pulse(
            v1=v1, v2=v2, t_delay=td, t_rise=tr or 1e-12,
            t_width=pw, t_fall=tf or 1e-12,
            t_period=per if per else None,
        )
    # PWL
    if len(args) < 2 or len(args) % 2 != 0:
        raise ParseError(f"line {lineno}: PWL needs t/v pairs")
    pts = list(zip(args[0::2], args[1::2]))
    if pts[0][0] > 0.0:
        pts.insert(0, (0.0, pts[0][1]))
    return PWL(pts)


def parse_netlist(text: str, title: str = "netlist") -> Netlist:
    """Parse netlist source text into a :class:`Netlist`.

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


def parse_file(path: str | Path) -> Netlist:
    """Parse a netlist file; the filename stem becomes the default title."""
    path = Path(path)
    with open(path) as f:
        text = f.read()
    return parse_netlist(text, title=path.stem)
