"""The one deck reader: ibmpg-style SPICE text into a :class:`Netlist`.

The IBM power grid transient benchmarks the paper evaluates on are flat
SPICE files with hundreds of thousands of R/C/L/I/V cards.  This module
reads them in **one streaming pass** (:func:`_read`): each logical card
(:func:`~repro.circuit.parser.iter_logical_cards`) is tokenised once,
its value or waveform parsed, and the element appended to a
:class:`~repro.circuit.netlist.Netlist` through
:meth:`~repro.circuit.netlist.Netlist.add` — the form the generators in
:mod:`repro.pdn` fill through the same method, and the form
:func:`repro.circuit.mna.assemble` stamps.  The grammar's checks
(card shape, element letter, value and waveform syntax) live here and
in :mod:`repro.circuit.parser`; each per-element rule (positive finite
value, unique name, not both terminals grounded, node rows in order of
first appearance) is checked once, in ``Netlist.add``.  Any error names
its 1-based line.

* :func:`parse_netlist` is the pass on text held in memory;
* :func:`ingest_file` and :func:`ingest_text` add the stamp and return
  the :class:`MNASystem` with an :class:`IngestStats` record; the
  netlist is freed after the stamp (the system keeps its node names).

Consequently a deck written in element **insertion order**
(``write_file(..., order="insertion")``) reads back into the netlist it
was written from, and assembles to **bit-identical** matrices.

Memory stays bounded by the *result* size (node map, element names, 25
bytes of column per card, one waveform object per source), never by
the text: the file is read once through a bounded line buffer, and
peak RSS for a 100k-node deck is dominated by the CSC matrices
themselves (the bench's ``deck_cold`` records it).  An error quotes a
long card or token clipped (:func:`~repro.circuit.parser.quote`).

Dialect (the ibmpg subset): ``R``/``C``/``L``/``I``/``V`` cards,
``_X_Y``-style node names, ``*`` comments, blank lines, ``+``
continuation lines, engineering suffixes, ``DC``/``PULSE(...)``/
``PWL(...)`` source specs, a first line that is no card as the title,
``.tran`` (captured as the suggested horizon), other ``.``-directives
tolerated and ignored, ``.end`` stops parsing.  Files are UTF-8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

from repro.circuit.mna import MNASystem, assemble
from repro.circuit.netlist import KIND_V, KINDS, Netlist
from repro.circuit.parser import (
    ParseError,
    is_title_line,
    iter_logical_cards,
    parse_value,
    parse_waveform,
    quote,
)

__all__ = [
    "IngestError", "IngestResult", "IngestStats", "ingest_file", "ingest_text",
    "parse_netlist",
]

_OTHER = len(KINDS)
_KIND = {ch: k for k, kind in enumerate(KINDS) for ch in (kind, kind.upper())}


class IngestError(ParseError):
    """A card the reader rejects, with its 1-based line number."""


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


def _read(
    lines: Iterable[str], default_title: str
) -> tuple[Netlist, float | None, float | None]:
    """The one text pass: ``(netlist, tran_step, tran_stop)``.

    Each card meets the grammar's checks here, then ``Netlist.add``'s
    per-element rules; the first failing card raises, naming its line.
    """
    cards = iter_logical_cards(lines)
    title = default_title
    first = next(cards, None)
    if first is not None:
        if is_title_line(first[1]):
            title = first[1]
        else:
            cards = chain((first,), cards)

    netlist = Netlist(title)
    add = netlist.add
    tran_step: float | None = None
    tran_stop: float | None = None
    lineno = 0
    try:
        for lineno, line in cards:
            kind = _KIND.get(line[0], _OTHER)
            if kind < KIND_V:  # R/C/L: the value is the fourth token
                parts = line.split(None, 4)
                if len(parts) < 4:
                    raise IngestError(f"line {lineno}: malformed card {quote(line)}")
                add(kind, parts[0], parts[1], parts[2], parse_value(parts[3]), None)
                continue
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
                raise IngestError(f"line {lineno}: malformed card {quote(line)}")
            if kind == _OTHER:
                raise IngestError(
                    f"line {lineno}: unsupported element type {quote(head)} "
                    f"(only R, C, L, V, I are in the PDN dialect)"
                )
            add(kind, head, parts[1], parts[2], 0.0, parse_waveform(parts[3], lineno))
    except ParseError:
        raise
    except ValueError as exc:  # parse_value, and Netlist.add's NetlistError
        raise IngestError(f"line {lineno}: {exc}") from exc
    return netlist, tran_step, tran_stop


def _ingest(lines: Iterable[str], title: str, validate: bool) -> IngestResult:
    t0 = time.perf_counter()
    netlist, tran_step, tran_stop = _read(lines, title)
    t1 = time.perf_counter()
    system = assemble(netlist, validate)
    counts = netlist.counts
    stats = IngestStats(
        n_cards=len(netlist),
        n_nodes=netlist.n_nodes,
        n_resistors=counts["r"],
        n_capacitors=counts["c"],
        n_inductors=counts["l"],
        n_vsources=counts["v"],
        n_isources=counts["i"],
        dim=system.dim,
        nnz_g=system.G.nnz,
        nnz_c=system.C.nnz,
        tran_step=tran_step,
        tran_stop=tran_stop,
        scan_seconds=t1 - t0,
        stamp_seconds=time.perf_counter() - t1,
    )
    return IngestResult(system=system, stats=stats)


# -- public API --------------------------------------------------------------------


def parse_netlist(text: str, title: str = "netlist") -> Netlist:
    """Read netlist source text into a :class:`Netlist` (no stamp).

    The first line is treated as the title if it is not a recognisable
    card (SPICE convention); ``title`` is the default otherwise.
    """
    return _read(text.splitlines(), title)[0]


def ingest_file(
    path: str | Path, title: str | None = None, validate: bool = True
) -> IngestResult:
    """Read an ibmpg-style SPICE deck into an :class:`MNASystem`.

    Parameters
    ----------
    path:
        The netlist file (UTF-8); it is read once with a bounded line
        buffer — the text is never held in memory.
    title:
        Default circuit title when the deck has no title line
        (defaults to the filename stem).
    validate:
        When true (default), reject empty decks and nodes without a DC
        path to ground (:func:`~repro.circuit.mna.assemble`).

    Returns
    -------
    IngestResult
        ``result.system`` is ready for the MNA → decomposition → dist
        pipeline; ``result.stats`` records sizes, the deck's ``.tran``
        horizon (if any) and the text-pass and assembly wall times.
    """
    path = Path(path)
    default_title = title if title is not None else path.stem
    with open(path, buffering=1 << 20, encoding="utf-8") as f:
        return _ingest(f, default_title, validate)


def ingest_text(
    text: str, title: str = "netlist", validate: bool = True
) -> IngestResult:
    """Ingest netlist source held in memory (tests, generated decks).

    The same pass and stamp as :func:`ingest_file`; for large decks
    prefer the file variant, which never materialises the text.
    """
    return _ingest(text.splitlines(), title, validate)
