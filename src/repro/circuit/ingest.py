"""Memory-bounded streaming ingestion of ibmpg-style SPICE decks.

The IBM power grid transient benchmarks the paper evaluates on are flat
SPICE files with hundreds of thousands of R/C/L/I/V cards.  Routing them
through :func:`repro.circuit.parser.parse_file` would materialise one
:class:`~repro.circuit.elements.Element` dataclass per card plus the
:class:`~repro.circuit.netlist.Netlist` bookkeeping around them — for a
400k-card deck that is hundreds of MB of Python objects built only to be
walked once by the stamper and thrown away.

This module is the industrial-scale path: **one streaming pass** over
the cards into compact columns, then a numpy assembly step — file to
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
* **Assembly** (:func:`_assemble`) expands each kind's columns into
  :func:`repro.circuit.mna.assemble`'s per-element stamp pattern
  (ground entries masked out, order kept), offsets branch rows by the
  final node count and concatenates the blocks in ``assemble()``'s
  stamp order: resistors, voltage sources, inductors for ``G``;
  capacitors, inductors for ``C``; current then voltage sources for
  ``B``.  The triplet *sequence* — and therefore the duplicate-summation
  order inside ``coo_matrix.tocsc`` — is the in-memory path's.

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
import scipy.sparse as sp

from repro.circuit.elements import GROUND_NAMES
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import NetlistError, StreamedNetlist
from repro.circuit.parser import (
    ParseError,
    is_title_line,
    iter_logical_cards,
    parse_value,
    parse_waveform,
)
from repro.circuit.waveforms import Waveform

__all__ = ["IngestError", "IngestResult", "IngestStats", "ingest_file", "ingest_text"]

_KINDS = ("r", "c", "l", "v", "i")
_R, _C, _L, _V, _I, _OTHER = range(6)
_KIND = {ch: k for k, kind in enumerate(_KINDS) for ch in (kind, kind.upper())}
_NOUNS = ("resistor", "capacitor", "inductor")
_INCIDENCE = (1.0, -1.0, 1.0, -1.0)


class IngestError(ParseError):
    """Raised on malformed streamed netlist text (1-based line numbers)."""


@dataclass
class IngestStats:
    """Size and timing record of one streamed ingestion.

    ``scan_seconds`` is the text pass (read, tokenise, intern, parse
    values); ``stamp_seconds`` is the array assembly, the CSC build and
    the DC-connectivity check; ``parse_seconds`` is their sum.
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
    kinds: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    values: np.ndarray  # R/C/L value; 0.0 for sources
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
            if kind < _V:  # R/C/L: the value is the fourth token
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
                (vsources if kind == _V else currents).append(
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
        kinds=np.frombuffer(kinds, dtype=np.int8),
        pos=np.frombuffer(pos_col, dtype=np.int64),
        neg=np.frombuffer(neg_col, dtype=np.int64),
        values=np.frombuffer(values, dtype=np.float64),
        currents=currents,
        vsources=vsources,
        tran_step=tran_step,
        tran_stop=tran_stop,
    )


# -- assembly ----------------------------------------------------------------------


def _triplets(rows, cols, vals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element-major stamp triplets, ground entries (-1) dropped in order.

    Stamp ``k`` of every element is ``(rows[k], cols[k], vals[k])``; the
    result lists element 0's stamps, then element 1's, exactly the
    sequence of ``assemble()``'s per-element ``add`` calls.
    """
    n = len(rows[0])
    r = np.stack(rows, axis=1).ravel()
    c = np.stack(cols, axis=1).ravel()
    v = np.stack([np.broadcast_to(x, (n,)) for x in vals], axis=1).ravel()
    keep = (r >= 0) & (c >= 0)
    return r[keep], c[keep], v[keep]


def _csc(blocks, shape: tuple[int, int]) -> sp.csc_matrix:
    """Concatenate triplet blocks (in stamp order) into one CSC matrix.

    The concatenation order is the single thing that keeps duplicate
    summation inside ``tocsc`` bit-identical to the in-memory
    ``_Stamper``: both paths hand scipy the same triplet sequence.
    """
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    return sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=float).tocsc()


def _floating_nodes(deck: _Deck, n_nodes: int) -> np.ndarray:
    """Rows with no R/L/V path to ground (slot ``n_nodes``), ascending."""
    # Imported here: csgraph costs ~60 ms and ~1 MiB RSS at import, and
    # every process that imports repro.circuit would pay it.
    from scipy.sparse.csgraph import connected_components

    dc =(deck.kinds != _C) & (deck.kinds != _I)
    a = np.where(deck.pos[dc] < 0, n_nodes, deck.pos[dc])
    b = np.where(deck.neg[dc] < 0, n_nodes, deck.neg[dc])
    graph = sp.coo_matrix(
        (np.ones(a.size), (a, b)), shape=(n_nodes + 1, n_nodes + 1)
    )
    _, labels = connected_components(graph, directed=False)
    return np.flatnonzero(labels[:n_nodes] != labels[n_nodes])


def _assemble(deck: _Deck, validate: bool) -> tuple[MNASystem, IngestStats]:
    kinds = deck.kinds
    counts = dict(zip(_KINDS, np.bincount(kinds, minlength=len(_KINDS)).tolist()))
    node_order = list(deck.node_index)
    n = len(node_order)
    n_vsrc, n_ind, n_cur = counts["v"], counts["l"], counts["i"]
    dim = n + n_vsrc + n_ind

    if validate:
        if kinds.size == 0:
            raise NetlistError("empty netlist")
        if n == 0:
            raise NetlistError("netlist has no non-ground nodes")
        floating = _floating_nodes(deck, n)
        if floating.size:
            raise NetlistError(
                f"{floating.size} node(s) have no DC path to ground, "
                f"e.g. {[node_order[k] for k in floating[:5]]!r}; "
                f"G would be singular"
            )

    def columns(kind: int):
        sel = kinds == kind
        return deck.pos[sel], deck.neg[sel], deck.values[sel]

    i, j, res = columns(_R)
    cond = 1.0 / res
    g_res = _triplets((i, j, i, j), (i, j, j, i), (cond, cond, -cond, -cond))
    i, j, cap = columns(_C)
    c_cap = _triplets((i, j, i, j), (i, j, j, i), (cap, cap, -cap, -cap))
    i, j, _ = columns(_V)
    row = n + np.arange(n_vsrc, dtype=np.int64)
    g_vsrc = _triplets((i, j, row, row), (row, row, i, j), _INCIDENCE)
    b_vsrc = _triplets((row,), (n_cur + np.arange(n_vsrc, dtype=np.int64),), (1.0,))
    i, j, ind = columns(_L)
    row = n + n_vsrc + np.arange(n_ind, dtype=np.int64)
    g_ind = _triplets((i, j, row, row), (row, row, i, j), _INCIDENCE)
    c_ind = _triplets((row,), (row,), (-ind,))
    i, j, _ = columns(_I)
    col = np.arange(n_cur, dtype=np.int64)
    b_cur = _triplets((i, j), (col, col), (-1.0, 1.0))

    G = _csc([g_res, g_vsrc, g_ind], (dim, dim))
    C = _csc([c_cap, c_ind], (dim, dim))
    B = _csc([b_cur, b_vsrc], (dim, n_cur + n_vsrc))
    system = MNASystem(
        netlist=StreamedNetlist(
            title=deck.title,
            node_order=node_order,
            node_index=deck.node_index,
            counts=counts,
        ),
        C=C,
        G=G,
        B=B,
        waveforms=tuple(deck.currents + deck.vsources),
        n_current_inputs=n_cur,
    )
    stats = IngestStats(
        n_cards=int(kinds.size),
        n_nodes=n,
        n_resistors=counts["r"],
        n_capacitors=counts["c"],
        n_inductors=n_ind,
        n_vsources=n_vsrc,
        n_isources=n_cur,
        dim=dim,
        nnz_g=G.nnz,
        nnz_c=C.nnz,
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
        path to ground, exactly like :meth:`Netlist.validate` — but via
        one ``connected_components`` over the R/L/V edges instead of a
        string-keyed BFS.

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
