"""Memory-bounded streaming ingestion of ibmpg-style SPICE decks.

The IBM power grid transient benchmarks the paper evaluates on are flat
SPICE files with hundreds of thousands of R/C/L/I/V cards.  Routing them
through :func:`repro.circuit.parser.parse_file` would materialise one
:class:`~repro.circuit.elements.Element` dataclass per card plus the
:class:`~repro.circuit.netlist.Netlist` bookkeeping around them — for a
400k-card deck that is hundreds of MB of Python objects built only to be
walked once by the stamper and thrown away.

This module is the industrial-scale path: a **two-pass streaming
parser** that goes from file to assembled :class:`MNASystem` without a
per-element object list.

* **Pass 1** (:func:`_scan`) streams the card lines once, interning node
  names into a ``{name: row}`` map in first-appearance order (pos before
  neg, ground excluded — byte-for-byte the assignment
  :meth:`Netlist._register_node` would produce over the same card
  sequence) and counting cards per element type.
* **Pass 2** (:func:`_stamp`) preallocates exact-capacity COO triplet
  blocks from those counts and streams the file again, stamping ``G``,
  ``C`` and ``B`` entries directly into the arrays.  Blocks are kept per
  element type and concatenated in the same order
  :func:`repro.circuit.mna.assemble` emits its stamps (resistors,
  voltage sources, inductors for ``G``; capacitors, inductors for ``C``;
  current then voltage sources for ``B``), so the triplet *sequence* —
  and therefore the duplicate-summation order inside
  ``coo_matrix.tocsc`` — is identical to the in-memory path.

Consequently a deck written in element **insertion order**
(``write_file(..., order="insertion")``) round-trips to an
:class:`MNASystem` whose matrices are **bit-identical** to
``assemble(netlist)``; the streamed system drops into the existing
``decomposition`` → ``dist`` pipeline untouched (it carries a
:class:`~repro.circuit.netlist.StreamedNetlist` node view instead of a
full :class:`Netlist`).

Memory stays bounded by the *result* size (node map + matrix triplets +
one waveform object per source), never by the card count: peak RSS for
a 100k-node deck is dominated by the CSC matrices themselves (the
bench's ``deck_cold`` records it).  The one per-card structure kept
is a set of element names for duplicate detection — same asymptotic
size as the triplet arrays, and the same malformed decks are rejected
as in the object path.

Dialect (the ibmpg subset plus what the in-memory parser accepts):
``R``/``C``/``L``/``I``/``V`` cards, ``_X_Y``-style node names, ``*``
comments, blank lines, ``+`` continuation lines, engineering suffixes,
``DC``/``PULSE(...)``/``PWL(...)`` source specs, ``.tran`` (captured as
the suggested horizon), other ``.``-directives tolerated and ignored,
``.end`` stops parsing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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


class IngestError(ParseError):
    """Raised on malformed streamed netlist text (1-based line numbers)."""


@dataclass
class IngestStats:
    """Size and timing record of one streamed ingestion."""

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
        """Total wall time of both streaming passes."""
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


# -- pass 1: scan ------------------------------------------------------------------


@dataclass
class _Scan:
    """Everything pass 2 needs to preallocate and stamp."""

    title: str
    node_order: list[str]
    node_index: dict[str, int]
    counts: dict[str, int]
    n_cards: int
    tran_step: float | None
    tran_stop: float | None


def _scan(lines: Iterable[str], default_title: str) -> _Scan:
    node_index: dict[str, int] = {}
    node_order: list[str] = []
    counts = dict.fromkeys(_KINDS, 0)
    seen_names: set[str] = set()
    title = default_title
    tran_step: float | None = None
    tran_stop: float | None = None
    n_cards = 0
    first = True

    for lineno, line in iter_logical_cards(lines):
        if first:
            first = False
            if is_title_line(line):
                title = line
                continue
        parts = line.split(None, 3)  # one tokenization per card
        head = parts[0]
        kind = head[0].lower()
        if kind == ".":
            directive = head.lower()
            if directive == ".end":
                break
            if directive == ".tran":
                args = line.split()[1:]
                try:
                    if len(args) >= 2:
                        tran_step = parse_value(args[0])
                        tran_stop = parse_value(args[1])
                    elif len(args) == 1:
                        tran_stop = parse_value(args[0])
                except ValueError as exc:
                    raise IngestError(f"line {lineno}: {exc}") from exc
            continue  # other directives tolerated, ignored
        if kind not in _KINDS:
            raise IngestError(
                f"line {lineno}: unsupported element type {head!r} "
                f"(only R, C, L, V, I are in the PDN dialect)"
            )
        if len(parts) < 4:
            raise IngestError(f"line {lineno}: malformed card {line!r}")
        name, pos, neg = parts[0], parts[1], parts[2]
        if name in seen_names:
            raise IngestError(f"line {lineno}: duplicate element name {name!r}")
        seen_names.add(name)
        grounded = 0
        for node in (pos, neg):
            if node in GROUND_NAMES:
                grounded += 1
            elif node not in node_index:
                node_index[node] = len(node_index)
                node_order.append(node)
        if grounded == 2:
            raise IngestError(
                f"line {lineno}: element {name!r} has both terminals grounded"
            )
        counts[kind] += 1
        n_cards += 1

    return _Scan(
        title=title,
        node_order=node_order,
        node_index=node_index,
        counts=counts,
        n_cards=n_cards,
        tran_step=tran_step,
        tran_stop=tran_stop,
    )


# -- pass 2: stamp -----------------------------------------------------------------


class _TripletBlock:
    """Preallocated COO triplet buffer with ground-row skipping.

    The exact-capacity arrays are sized from the pass-1 counts (4 stamps
    per two-terminal element is the worst case; grounded terminals stamp
    fewer), so pass 2 performs no list growth and no per-stamp object
    allocation.
    """

    __slots__ = ("rows", "cols", "vals", "n")

    def __init__(self, capacity: int):
        self.rows = np.empty(capacity, dtype=np.int64)
        self.cols = np.empty(capacity, dtype=np.int64)
        self.vals = np.empty(capacity, dtype=np.float64)
        self.n = 0

    def add(self, i: int, j: int, v: float) -> None:
        """Stamp ``v`` at ``(i, j)``; silently skips ground rows (-1)."""
        if i < 0 or j < 0:
            return
        n = self.n
        self.rows[n] = i
        self.cols[n] = j
        self.vals[n] = v
        self.n = n + 1

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.rows[: self.n], self.cols[: self.n], self.vals[: self.n]


def _build(blocks: list[_TripletBlock], dim: int, n_cols: int) -> sp.csc_matrix:
    """Concatenate triplet blocks (in stamp order) into one CSC matrix.

    The concatenation order is the single thing that keeps duplicate
    summation inside ``tocsc`` bit-identical to the in-memory
    ``_Stamper``: both paths hand scipy the same triplet sequence.
    """
    parts = [b.arrays() for b in blocks]
    rows = np.concatenate([p[0] for p in parts])
    cols = np.concatenate([p[1] for p in parts])
    vals = np.concatenate([p[2] for p in parts])
    m = sp.coo_matrix((vals, (rows, cols)), shape=(dim, n_cols), dtype=float)
    return m.tocsc()


class _GroundDsu:
    """Union-find over interned node rows (slot ``n`` is ground).

    Replaces :meth:`Netlist._check_dc_connectivity`'s string-keyed BFS
    with integer path-halving so validating a 100k-node deck costs
    milliseconds, not a dict-of-sets the size of the circuit.
    """

    __slots__ = ("parent",)

    def __init__(self, n_nodes: int):
        self.parent = list(range(n_nodes + 1))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _positive(value: float, what: str, name: str, lineno: int) -> float:
    if value <= 0.0:
        raise IngestError(
            f"line {lineno}: {what} {name!r}: value must be positive, "
            f"got {value!r}"
        )
    return value


def _stamp(
    lines: Iterable[str], scan: _Scan, validate: bool
) -> tuple[MNASystem, IngestStats]:
    counts = scan.counts
    n_nodes = len(scan.node_order)
    n_vsrc, n_ind, n_currents = counts["v"], counts["l"], counts["i"]
    dim = n_nodes + n_vsrc + n_ind

    if validate:
        if scan.n_cards == 0:
            raise NetlistError("empty netlist")
        if n_nodes == 0:
            raise NetlistError("netlist has no non-ground nodes")

    # One block per (matrix, element type), concatenated later in
    # assemble()'s stamp order.
    g_res = _TripletBlock(4 * counts["r"])
    g_vsrc = _TripletBlock(4 * n_vsrc)
    g_ind = _TripletBlock(4 * n_ind)
    c_cap = _TripletBlock(4 * counts["c"])
    c_ind = _TripletBlock(n_ind)
    b_cur = _TripletBlock(2 * n_currents)
    b_vsrc = _TripletBlock(n_vsrc)

    wave_cur: list[Waveform] = []
    wave_vsrc: list[Waveform] = []

    node_index = scan.node_index
    ground = n_nodes
    dsu = _GroundDsu(n_nodes) if validate else None

    k_vsrc = k_ind = 0
    first = True
    for lineno, line in iter_logical_cards(lines):
        if first:
            first = False
            if is_title_line(line):
                continue
        parts = line.split(None, 3)  # one tokenization per card
        head = parts[0]
        kind = head[0].lower()
        if kind == ".":
            if head.lower() == ".end":
                break
            continue
        name, pos, neg, rest = parts  # 4-token shape checked in pass 1
        i = -1 if pos in GROUND_NAMES else node_index[pos]
        j = -1 if neg in GROUND_NAMES else node_index[neg]
        try:
            if kind == "r":
                cond = 1.0 / _positive(
                    parse_value(rest.split(None, 1)[0]), "resistor", name, lineno
                )
                g_res.add(i, i, cond)
                g_res.add(j, j, cond)
                g_res.add(i, j, -cond)
                g_res.add(j, i, -cond)
                if dsu is not None:
                    dsu.union(i if i >= 0 else ground, j if j >= 0 else ground)
            elif kind == "c":
                cap = _positive(
                    parse_value(rest.split(None, 1)[0]), "capacitor", name, lineno
                )
                c_cap.add(i, i, cap)
                c_cap.add(j, j, cap)
                c_cap.add(i, j, -cap)
                c_cap.add(j, i, -cap)
            elif kind == "l":
                ind = _positive(
                    parse_value(rest.split(None, 1)[0]), "inductor", name, lineno
                )
                row = n_nodes + n_vsrc + k_ind
                g_ind.add(i, row, +1.0)
                g_ind.add(j, row, -1.0)
                g_ind.add(row, i, +1.0)
                g_ind.add(row, j, -1.0)
                c_ind.add(row, row, -ind)
                k_ind += 1
                if dsu is not None:
                    dsu.union(i if i >= 0 else ground, j if j >= 0 else ground)
            elif kind == "v":
                row = n_nodes + k_vsrc
                g_vsrc.add(i, row, +1.0)
                g_vsrc.add(j, row, -1.0)
                g_vsrc.add(row, i, +1.0)
                g_vsrc.add(row, j, -1.0)
                b_vsrc.add(row, n_currents + k_vsrc, 1.0)
                wave_vsrc.append(parse_waveform(rest, lineno))
                k_vsrc += 1
                if dsu is not None:
                    dsu.union(i if i >= 0 else ground, j if j >= 0 else ground)
            else:  # kind == "i"
                col = len(wave_cur)
                b_cur.add(i, col, -1.0)
                b_cur.add(j, col, +1.0)
                wave_cur.append(parse_waveform(rest, lineno))
        except ParseError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise IngestError(f"line {lineno}: {exc}") from exc

    if dsu is not None:
        root = dsu.find(ground)
        floating = [
            name
            for idx, name in enumerate(scan.node_order)
            if dsu.find(idx) != root
        ]
        if floating:
            raise NetlistError(
                f"{len(floating)} node(s) have no DC path to ground, "
                f"e.g. {floating[:5]!r}; G would be singular"
            )

    netlist = StreamedNetlist(
        title=scan.title,
        node_order=scan.node_order,
        node_index=scan.node_index,
        counts=scan.counts,
    )
    G = _build([g_res, g_vsrc, g_ind], dim, dim)
    C = _build([c_cap, c_ind], dim, dim)
    B = _build([b_cur, b_vsrc], dim, n_currents + n_vsrc)
    system = MNASystem(
        netlist=netlist,
        C=C,
        G=G,
        B=B,
        waveforms=tuple(wave_cur + wave_vsrc),
        n_current_inputs=n_currents,
    )
    stats = IngestStats(
        n_cards=scan.n_cards,
        n_nodes=n_nodes,
        n_resistors=counts["r"],
        n_capacitors=counts["c"],
        n_inductors=counts["l"],
        n_vsources=n_vsrc,
        n_isources=n_currents,
        dim=dim,
        nnz_g=G.nnz,
        nnz_c=C.nnz,
        tran_step=scan.tran_step,
        tran_stop=scan.tran_stop,
    )
    return system, stats


# -- public API --------------------------------------------------------------------


def ingest_file(
    path: str | Path, title: str | None = None, validate: bool = True
) -> IngestResult:
    """Stream an ibmpg-style SPICE deck into an :class:`MNASystem`.

    Parameters
    ----------
    path:
        The netlist file; it is read twice (scan pass, stamp pass) with
        a bounded line buffer — the text is never held in memory.
    title:
        Default circuit title when the deck has no title line
        (defaults to the filename stem, matching ``parse_file``).
    validate:
        When true (default), reject empty decks and nodes without a DC
        path to ground, exactly like :meth:`Netlist.validate` — but via
        an integer union-find instead of a string-keyed BFS.

    Returns
    -------
    IngestResult
        ``result.system`` is ready for the MNA → decomposition → dist
        pipeline; ``result.stats`` records sizes, the deck's ``.tran``
        horizon (if any) and per-pass wall times.
    """
    path = Path(path)
    default_title = title if title is not None else path.stem

    t0 = time.perf_counter()
    with open(path, buffering=1 << 20) as f:
        scan = _scan(f, default_title)
    t1 = time.perf_counter()
    with open(path, buffering=1 << 20) as f:
        system, stats = _stamp(f, scan, validate)
    t2 = time.perf_counter()
    stats.scan_seconds = t1 - t0
    stats.stamp_seconds = t2 - t1
    return IngestResult(system=system, stats=stats)


def ingest_text(
    text: str, title: str = "netlist", validate: bool = True
) -> IngestResult:
    """Ingest netlist source held in memory (tests, generated decks).

    Uses the same two-pass streaming machinery as :func:`ingest_file`;
    for large decks prefer the file variant, which never materialises
    the text.
    """
    lines = text.splitlines()
    t0 = time.perf_counter()
    scan = _scan(lines, title)
    t1 = time.perf_counter()
    system, stats = _stamp(lines, scan, validate)
    t2 = time.perf_counter()
    stats.scan_seconds = t1 - t0
    stats.stamp_seconds = t2 - t1
    return IngestResult(system=system, stats=stats)
