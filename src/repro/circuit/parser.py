"""The card grammar of the SPICE subset (IBM power-grid benchmark dialect).

The IBM power grid benchmarks (Nassif, ASPDAC'08) that the paper evaluates
on are distributed as flat SPICE decks containing only ``R``, ``C``, ``L``,
``V`` and ``I`` cards plus ``.op``/``.tran``/``.end`` control lines.  This
module holds that dialect's token-level grammar (and enough general SPICE
to be useful):

* engineering suffixes (``1k``, ``2.2u``, ``3MEG``, ``10p`` ...),
* ``PULSE(v1 v2 td tr tf pw per)``  — note SPICE parameter order,
* ``PWL(t1 v1 t2 v2 ...)``,
* bare numeric value → DC source,
* ``*`` comments, blank lines, case-insensitive cards,
* continuation lines starting with ``+``.

The one card reader is :mod:`repro.circuit.ingest` (``parse_netlist``,
``ingest_file``, ``ingest_text``), which folds lines into cards with
:func:`iter_logical_cards` and parses tokens with :func:`parse_value`
and :func:`parse_waveform`; a dialect change here moves it.  The inverse
operation lives in :mod:`repro.circuit.writer`.
"""

from __future__ import annotations

import re
from math import isfinite
from typing import Iterable, Iterator

from repro.circuit.waveforms import DC, PWL, Pulse, Waveform

__all__ = [
    "ParseError",
    "is_title_line",
    "iter_logical_cards",
    "parse_value",
    "parse_waveform",
    "quote",
]


class ParseError(ValueError):
    """Raised on malformed netlist text, with 1-based line numbers."""


#: Longest text an error message quotes whole.
QUOTE_LIMIT = 80


def quote(text: str) -> str:
    """``repr(text)`` for an error message; longer text (a hostile card
    can be megabytes) is quoted as its head and its length."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}… ({len(text)} characters)"


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
        raise ValueError(f"not a SPICE number: {quote(token)}")
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
    held, so the stream costs O(1) memory regardless of deck size.  A
    card without continuations is yielded as its stripped line, with no
    join.  ``lines`` may decode lazily (a text file): a byte that fails
    to decode is a :class:`ParseError` naming its line.
    """
    start, card, pieces = 0, None, None  # pieces: card + continuations
    lineno = 0
    try:
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
    except UnicodeDecodeError as exc:
        # A text file decodes a block ahead, once every complete line
        # before the block has been read: the block's own newlines before
        # the bad byte count on from there.
        bad = lineno + 1 + exc.object.count(b"\n", 0, exc.start)
        raise ParseError(
            f"line {bad}: byte 0x{exc.object[exc.start]:02x} is not "
            f"{exc.encoding} text ({exc.reason})"
        ) from None
    if card is not None:
        yield start, card if pieces is None else " ".join(pieces)


def is_title_line(line: str) -> bool:
    """SPICE convention: a first line that is no recognisable card."""
    head = line.split(None, 1)[0].lower()
    return head[0] not in "rclvi." or len(line.split(None, 3)) < 3


_FUNC_RE = re.compile(r"(pulse|pwl)\s*\(([^)]*)\)", re.IGNORECASE)


def parse_waveform(spec: str, lineno: int = 0) -> Waveform:
    """Parse the source-value portion of a V/I card.

    ``lineno`` only decorates errors.
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
                f"line {lineno}: cannot parse source value {quote(spec)}"
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
