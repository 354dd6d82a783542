"""Memory-bounded streaming ingestion of ibmpg-style SPICE decks.

The IBM power grid transient benchmarks the paper evaluates on are flat
SPICE files with hundreds of thousands of R/C/L/I/V cards.  Routing them
through :func:`repro.circuit.parser.parse_file` would materialise one
:class:`~repro.circuit.elements.Element` dataclass per card plus the
:class:`~repro.circuit.netlist.Netlist` bookkeeping around them — for a
400k-card deck that is hundreds of MB of Python objects built only to be
walked once by the stamper and thrown away.

This module is the industrial-scale path: **one streaming pass** over
the cards into compact columns, then the one numpy MNA stamp — file to
assembled :class:`MNASystem` with no per-element object list.

* **Text pass** (:func:`_read`) tokenises each logical card once.  It
  interns the card's nodes into a ``{name: row}`` map in first-appearance
  order (pos before neg, ground excluded — byte-for-byte the assignment
  :meth:`Netlist._register_node` makes over the same card sequence),
  parses its value and appends ``(kind, i, j, value)`` to four
  ``array`` columns (ground is row ``-1``; source waveforms go to two
  lists).  Each card meets the object parser's checks in the object
  parser's order, so a bad deck fails on the line
  :func:`~repro.circuit.parser.parse_netlist` names.
* **Stamp**: the columns go to :func:`repro.circuit.mna.stamp`, the one
  MNA stamp, which :func:`~repro.circuit.mna.assemble` also calls on a
  lowered :class:`~repro.circuit.netlist.Netlist`.  Within each kind the
  columns keep card order, so the triplet sequence — and therefore the
  duplicate-summation order inside ``coo_matrix.tocsc`` — is the
  in-memory path's.

Consequently a deck written in element **insertion order**
(``write_file(..., order="insertion")``) round-trips to an
:class:`MNASystem` whose matrices are **bit-identical** to
``assemble(netlist)``; the streamed system drops into the existing
``decomposition`` → ``dist`` pipeline untouched (it carries a
:class:`~repro.circuit.netlist.StreamedNetlist` node view instead of a
full :class:`Netlist`).

Memory stays bounded by the *result* size (node map + 25 bytes of
column per card + one waveform object per source), never by the text:
the file is read once through a bounded line buffer, and peak RSS for a
100k-node deck is dominated by the CSC matrices themselves (the bench's
``deck_cold`` records it).  The one other per-card structure kept is a
set of element names for duplicate detection.

Dialect (the ibmpg subset plus what the in-memory parser accepts):
``R``/``C``/``L``/``I``/``V`` cards, ``_X_Y``-style node names, ``*``
comments, blank lines, ``+`` continuation lines, engineering suffixes,
``DC``/``PULSE(...)``/``PWL(...)`` source specs, ``.tran`` (captured as
the suggested horizon), other ``.``-directives tolerated and ignored,
``.end`` stops parsing.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.circuit.elements import GROUND_NAMES
from repro.circuit.mna import MNASystem, stamp
from repro.circuit.netlist import KIND_V, KINDS, Columns, StreamedNetlist
from repro.circuit.parser import (
    ParseError,
    is_title_line,
    iter_logical_cards,
    parse_value,
    parse_waveform,
)
from repro.circuit.waveforms import Waveform

__all__ = ["IngestError", "IngestResult", "IngestStats", "ingest_file", "ingest_text"]

_OTHER = len(KINDS)
_KIND = {ch: k for k, kind in enumerate(KINDS) for ch in (kind, kind.upper())}
_NOUNS = ("resistor", "capacitor", "inductor")


class IngestError(ParseError):
    """Raised on malformed streamed netlist text (1-based line numbers)."""


@dataclass
class IngestStats:
    """Size and timing record of one streamed ingestion.

    ``scan_seconds`` is the text pass (read, tokenise, intern, parse
    values); ``stamp_seconds`` is the DC-connectivity check and the MNA
    stamp into CSC matrices; ``parse_seconds`` is their sum.
    """

    n_cards: int = 0
    n_nodes: int = 0
    n_resistors: int = 0
    n_capacitors: int = 0
    n_inductors: int = 0
    n_vsources: int = 0
    n_isources: int = 0
    dim: int = 0
    nnz_g: int = 0
    nnz_c: int = 0
    tran_step: float | None = None
    tran_stop: float | None = None
    scan_seconds: float = 0.0
    stamp_seconds: float = 0.0

    @property
    def parse_seconds(self) -> float:
        """Total wall time: text pass plus assembly."""
        return self.scan_seconds + self.stamp_seconds

    def summary(self) -> str:
        """One-line ingest report for CLI output."""
        return (
            f"ingested {self.n_cards} cards -> {self.n_nodes} nodes "
            f"(dim {self.dim}, nnz G={self.nnz_g} C={self.nnz_c}) "
            f"in {self.parse_seconds:.2f}s "
            f"(scan {self.scan_seconds:.2f}s, stamp {self.stamp_seconds:.2f}s)"
        )


@dataclass
class IngestResult:
    """The assembled system plus the ingestion statistics."""

    system: MNASystem
    stats: IngestStats


# -- text pass ---------------------------------------------------------------------


@dataclass
class _Deck:
    """The columns of one text pass, in card order."""

    title: str
    node_index: dict[str, int]
    columns: Columns
    currents: list[Waveform]
    vsources: list[Waveform]
    tran_step: float | None
    tran_stop: float | None


def _read(lines: Iterable[str], default_title: str) -> _Deck:
    """The one text pass: check, intern and append each card in turn."""
    cards = iter_logical_cards(lines)
    title = default_title
    first = next(cards, None)
    if first is not None:
        if is_title_line(first[1]):
            title = first[1]
        else:
            cards = chain((first,), cards)

    # Ground names are pre-interned at row -1; every later key is a node
    # and gets the next row, so insertion order is node order.
    lookup = dict.fromkeys(GROUND_NAMES, -1)
    n_ground = len(lookup)
    get = lookup.get
    names: set[str] = set()
    kinds, pos_col, neg_col = array("b"), array("q"), array("q")
    values = array("d")
    currents: list[Waveform] = []
    vsources: list[Waveform] = []
    tran_step: float | None = None
    tran_stop: float | None = None

    try:
        for lineno, line in cards:
            kind = _KIND.get(line[0], _OTHER)
            if kind < KIND_V:  # R/C/L: the value is the fourth token
                parts = line.split(None, 4)
                if len(parts) < 4:
                    raise IngestError(f"line {lineno}: malformed card {line!r}")
                name, pos, neg = parts[0], parts[1], parts[2]
                value = parse_value(parts[3])
                if value <= 0.0:
                    raise IngestError(
                        f"line {lineno}: {_NOUNS[kind]} {name!r}: value must "
                        f"be positive, got {value!r}"
                    )
            else:
                parts = line.split(None, 3)
                head = parts[0]
                if head[0] == ".":
                    directive = head.lower()
                    if directive == ".end":
                        break
                    if directive == ".tran":
                        args = line.split()[1:]
                        if len(args) >= 2:
                            tran_step = parse_value(args[0])
                            tran_stop = parse_value(args[1])
                        elif args:
                            tran_stop = parse_value(args[0])
                    continue  # other directives tolerated, ignored
                if len(parts) < 4:
                    raise IngestError(f"line {lineno}: malformed card {line!r}")
                if kind == _OTHER:
                    raise IngestError(
                        f"line {lineno}: unsupported element type {head!r} "
                        f"(only R, C, L, V, I are in the PDN dialect)"
                    )
                name, pos, neg, rest = parts
                (vsources if kind == KIND_V else currents).append(
                    parse_waveform(rest, lineno)
                )
                value = 0.0
            if name in names:
                raise IngestError(f"line {lineno}: duplicate element name {name!r}")
            names.add(name)
            i = get(pos)
            if i is None:
                i = lookup[pos] = len(lookup) - n_ground
            j = get(neg)
            if j is None:
                j = lookup[neg] = len(lookup) - n_ground
            if i < 0 and j < 0:
                raise IngestError(
                    f"line {lineno}: element {name!r} has both terminals grounded"
                )
            kinds.append(kind)
            pos_col.append(i)
            neg_col.append(j)
            values.append(value)
    except ParseError:
        raise
    except ValueError as exc:
        raise IngestError(f"line {lineno}: {exc}") from exc

    for g in GROUND_NAMES:
        del lookup[g]
    return _Deck(
        title=title,
        node_index=lookup,
        columns=Columns(
            kinds=np.frombuffer(kinds, dtype=np.int8),
            pos=np.frombuffer(pos_col, dtype=np.int64),
            neg=np.frombuffer(neg_col, dtype=np.int64),
            values=np.frombuffer(values, dtype=np.float64),
        ),
        currents=currents,
        vsources=vsources,
        tran_step=tran_step,
        tran_stop=tran_stop,
    )


# -- stamp -------------------------------------------------------------------------


def _assemble(deck: _Deck, validate: bool) -> tuple[MNASystem, IngestStats]:
    kinds = deck.columns.kinds
    counts = dict(zip(KINDS, np.bincount(kinds, minlength=len(KINDS)).tolist()))
    view = StreamedNetlist(deck.title, deck.node_index, counts)
    system = stamp(view, deck.columns, deck.currents + deck.vsources, validate)
    stats = IngestStats(
        n_cards=int(kinds.size),
        n_nodes=view.n_nodes,
        n_resistors=counts["r"],
        n_capacitors=counts["c"],
        n_inductors=counts["l"],
        n_vsources=counts["v"],
        n_isources=counts["i"],
        dim=system.dim,
        nnz_g=system.G.nnz,
        nnz_c=system.C.nnz,
        tran_step=deck.tran_step,
        tran_stop=deck.tran_stop,
    )
    return system, stats


def _ingest(lines: Iterable[str], title: str, validate: bool) -> IngestResult:
    t0 = time.perf_counter()
    deck = _read(lines, title)
    t1 = time.perf_counter()
    system, stats = _assemble(deck, validate)
    stats.scan_seconds = t1 - t0
    stats.stamp_seconds = time.perf_counter() - t1
    return IngestResult(system=system, stats=stats)


# -- public API --------------------------------------------------------------------


def ingest_file(
    path: str | Path, title: str | None = None, validate: bool = True
) -> IngestResult:
    """Stream an ibmpg-style SPICE deck into an :class:`MNASystem`.

    Parameters
    ----------
    path:
        The netlist file; it is read once with a bounded line buffer —
        the text is never held in memory.
    title:
        Default circuit title when the deck has no title line
        (defaults to the filename stem, matching ``parse_file``).
    validate:
        When true (default), reject empty decks and nodes without a DC
        path to ground with the check :meth:`Netlist.validate` runs.

    Returns
    -------
    IngestResult
        ``result.system`` is ready for the MNA → decomposition → dist
        pipeline; ``result.stats`` records sizes, the deck's ``.tran``
        horizon (if any) and the text-pass and assembly wall times.
    """
    path = Path(path)
    default_title = title if title is not None else path.stem
    with open(path, buffering=1 << 20) as f:
        return _ingest(f, default_title, validate)


def ingest_text(
    text: str, title: str = "netlist", validate: bool = True
) -> IngestResult:
    """Ingest netlist source held in memory (tests, generated decks).

    Uses the same streaming pass as :func:`ingest_file`; for large decks
    prefer the file variant, which never materialises the text.
    """
    return _ingest(text.splitlines(), title, validate)
