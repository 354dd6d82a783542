"""Per-element MNA stamping: the tests' independent oracle for ``G``/``C``/``B``.

:func:`repro.circuit.mna.assemble` builds the descriptor system from
array columns with numpy, for generated netlists and read decks alike.
This module keeps the element-at-a-time formulation it replaced — one
``add`` per matrix entry, walked over one record per element
(:func:`element_rows`, decoded from the netlist's columns back to node
names), and a string-keyed breadth-first search for nodes without a DC
path to ground — so the columnar stamp and its connectivity check are
compared against code that shares nothing with them but the netlist's
columns and the result type.  The triplet order is the same, so the two
agree bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import scipy.sparse as sp

from repro.circuit.mna import MNASystem
from repro.circuit.netlist import (
    GROUND_NAMES, KIND_I, KIND_V, KINDS, Netlist, NetlistError,
)
from repro.circuit.waveforms import Waveform


class Row(NamedTuple):
    """One element of a :class:`Netlist`, as the tests read it."""

    kind: str  # "r", "c", "l", "v" or "i"
    name: str
    pos: str  # node name; ground reads "0"
    neg: str
    value: float  # resistance / capacitance / inductance; 0.0 for sources
    waveform: Waveform | None  # a source's; None otherwise


def element_rows(netlist: Netlist, kind: str | None = None) -> list[Row]:
    """The netlist's elements (of ``kind``, if given) in insertion order."""
    kinds, pos, neg, values = (col.tolist() for col in netlist.columns())
    nodes = netlist.node_names() + ("0",)  # row -1 is ground
    sources = {KIND_V: iter(netlist.voltage_waveforms),
               KIND_I: iter(netlist.current_waveforms)}
    rows = [
        Row(KINDS[k], name, nodes[i], nodes[j], value,
            next(sources[k]) if k in sources else None)
        for k, name, i, j, value in zip(
            kinds, netlist.element_names(), pos, neg, values)
    ]
    return rows if kind is None else [r for r in rows if r.kind == kind]


def rows_by_name(netlist: Netlist) -> dict[str, Row]:
    """:func:`element_rows` keyed by element name."""
    return {r.name: r for r in element_rows(netlist)}


class _Triplets:
    """Accumulates COO triplets for one sparse matrix."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def add(self, i: int, j: int, v: float) -> None:
        """Stamp ``v`` at ``(i, j)``; silently skips ground rows (-1)."""
        if i < 0 or j < 0:
            return
        self.rows.append(i)
        self.cols.append(j)
        self.vals.append(v)

    def build(self, n_cols: int | None = None) -> sp.csc_matrix:
        shape = (self.dim, n_cols if n_cols is not None else self.dim)
        m = sp.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=shape, dtype=float
        )
        return m.tocsc()


def check_dc_paths(netlist: Netlist) -> None:
    """Raise :class:`NetlistError` as ``assemble`` does, by BFS."""
    if len(netlist) == 0:
        raise NetlistError("empty netlist")
    nodes = netlist.node_names()
    if not nodes:
        raise NetlistError("netlist has no non-ground nodes")
    ground = "0"
    adjacency: dict[str, set[str]] = {n: set() for n in nodes}
    adjacency[ground] = set()

    def canon(node: str) -> str:
        return ground if node in GROUND_NAMES else node

    for e in element_rows(netlist):
        if e.kind in ("c", "i"):
            continue
        a, b = canon(e.pos), canon(e.neg)
        adjacency[a].add(b)
        adjacency[b].add(a)

    seen = {ground}
    stack = [ground]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    floating = [n for n in nodes if n not in seen]
    if floating:
        raise NetlistError(
            f"{len(floating)} node(s) have no DC path to ground, "
            f"e.g. {floating[:5]!r}; G would be singular"
        )


def oracle_assemble(netlist: Netlist, validate: bool = True) -> MNASystem:
    """``assemble(netlist, validate)``, one element and one entry at a time."""
    if validate:
        check_dc_paths(netlist)

    nodes = netlist.node_names()
    ni = {name: k for k, name in enumerate(nodes)}
    ni["0"] = -1  # element_rows reads ground as "0"
    ni = ni.__getitem__
    resistors, capacitors, inductors, vsources, isources = (
        element_rows(netlist, kind) for kind in KINDS
    )
    dim = len(nodes) + len(vsources) + len(inductors)
    g = _Triplets(dim)
    c = _Triplets(dim)
    b = _Triplets(dim)

    for r in resistors:
        i, j = ni(r.pos), ni(r.neg)
        cond = 1.0 / r.value
        g.add(i, i, cond)
        g.add(j, j, cond)
        g.add(i, j, -cond)
        g.add(j, i, -cond)

    for cap in capacitors:
        i, j = ni(cap.pos), ni(cap.neg)
        c.add(i, i, cap.value)
        c.add(j, j, cap.value)
        c.add(i, j, -cap.value)
        c.add(j, i, -cap.value)

    waveforms = []
    n_currents = len(isources)

    # Current sources: columns [0, n_currents).  SPICE convention: a
    # positive source value draws current out of `pos` and injects it into
    # `neg`, so the RHS contribution is -u at pos and +u at neg.
    for col, src in enumerate(isources):
        i, j = ni(src.pos), ni(src.neg)
        b.add(i, col, -1.0)
        b.add(j, col, +1.0)
        waveforms.append(src.waveform)

    # Voltage sources: extra branch-current rows after the node block.
    for k, src in enumerate(vsources):
        row = len(nodes) + k
        i, j = ni(src.pos), ni(src.neg)
        # KCL coupling of the branch current into its terminal nodes.
        g.add(i, row, +1.0)
        g.add(j, row, -1.0)
        # Branch equation v(pos) - v(neg) = u.
        g.add(row, i, +1.0)
        g.add(row, j, -1.0)
        b.add(row, n_currents + k, 1.0)
        waveforms.append(src.waveform)

    # Inductors: branch rows after the voltage sources,
    # v(pos) - v(neg) - L di/dt = 0.
    for k, ind in enumerate(inductors):
        row = len(nodes) + len(vsources) + k
        i, j = ni(ind.pos), ni(ind.neg)
        g.add(i, row, +1.0)
        g.add(j, row, -1.0)
        g.add(row, i, +1.0)
        g.add(row, j, -1.0)
        c.add(row, row, -ind.value)

    n_inputs = n_currents + len(vsources)
    return MNASystem(
        C=c.build(),
        G=g.build(),
        B=b.build(n_cols=n_inputs),  # 0 columns for a source-free circuit
        waveforms=tuple(waveforms),
        n_current_inputs=n_currents,
        nodes=nodes,
        title=netlist.title,
        counts={kind: len(element_rows(netlist, kind)) for kind in KINDS},
    )
