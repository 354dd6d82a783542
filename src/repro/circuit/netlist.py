"""Netlist container: the in-memory circuit description.

A :class:`Netlist` collects elements, assigns matrix indices to nodes and
MNA branch unknowns, and offers the convenience constructors used by the
generators in :mod:`repro.pdn` and the parser in
:mod:`repro.circuit.parser`.  :class:`StreamedNetlist` is the same node
view without element objects, for decks streamed by
:mod:`repro.circuit.ingest`; both share :class:`NodeView`.

Index layout (fixed, relied upon by :mod:`repro.circuit.mna`):

* rows ``0 .. n_nodes-1``     — node voltages (ground excluded),
* next ``n_vsrc`` rows        — voltage-source branch currents,
* next ``n_ind`` rows         — inductor branch currents.

Both circuit forms reach the MNA stamp as :class:`Columns` — one array
entry per element — and are checked for DC paths to ground by the one
rule, :meth:`NodeView.validate_columns`.

Element and node insertion order is deterministic, so two identically
built netlists produce identical matrices (important for superposition
tests and the distributed scheduler, which ships netlist copies to nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.circuit.elements import (
    GROUND_NAMES,
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuit.waveforms import DC, Waveform

__all__ = ["KINDS", "Columns", "Netlist", "NetlistError", "NodeView", "StreamedNetlist"]

#: Element kinds of :class:`Columns`; a kind's code is its index here.
KINDS = ("r", "c", "l", "v", "i")
KIND_R, KIND_C, KIND_L, KIND_V, KIND_I = range(len(KINDS))


class NetlistError(ValueError):
    """Raised for malformed circuit descriptions."""


def _is_ground(node: str) -> bool:
    return node in GROUND_NAMES


@dataclass(frozen=True)
class _Unknowns:
    """Sizes of the MNA unknown blocks."""

    n_nodes: int
    n_vsrc: int
    n_ind: int

    @property
    def dim(self) -> int:
        return self.n_nodes + self.n_vsrc + self.n_ind


class Columns(NamedTuple):
    """A circuit as four parallel per-element arrays: what MNA stamps.

    Within each kind, elements appear in insertion (card) order, which
    is their stamp order and the order of their branch rows and input
    columns; different kinds may interleave.
    """

    kinds: np.ndarray  # int8 code, an index into KINDS
    pos: np.ndarray  # int64 node row, -1 for ground
    neg: np.ndarray
    values: np.ndarray  # resistance / capacitance / inductance; 0.0 for sources


class NodeView:
    """Node bookkeeping shared by :class:`Netlist` and :class:`StreamedNetlist`.

    A subclass sets ``title``, ``_node_index`` (non-ground node name to
    row; insertion order is row order) and ``counts`` (elements of each
    kind, keyed by :data:`KINDS`).
    """

    title: str
    _node_index: dict[str, int]
    counts: dict[str, int]

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._node_index)

    @property
    def unknowns(self) -> _Unknowns:
        """Block sizes of the MNA unknown vector."""
        counts = self.counts
        return _Unknowns(
            n_nodes=self.n_nodes, n_vsrc=counts["v"], n_ind=counts["l"]
        )

    @property
    def dim(self) -> int:
        """Total MNA system dimension."""
        return self.unknowns.dim

    def node_index(self, node: str) -> int:
        """Matrix row of a node voltage; ``-1`` for ground."""
        if _is_ground(node):
            return -1
        try:
            return self._node_index[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    def node_names(self) -> tuple[str, ...]:
        """Non-ground node names in index order."""
        return tuple(self._node_index)

    def __len__(self) -> int:
        return sum(self.counts.values())

    def validate_columns(self, cols: Columns) -> None:
        """Check structural well-formedness; raise :class:`NetlistError`.

        Detects empty circuits and nodes with no DC path to ground through
        resistive/source elements (which make ``G`` singular and break the
        regularization-free formulation of paper Sec. 3.3.3): one
        ``connected_components`` over the R/L/V edges, ground as an extra
        vertex.  Floating nodes are named in row order.
        """
        if cols.kinds.size == 0:
            raise NetlistError("empty netlist")
        n = self.n_nodes
        if n == 0:
            raise NetlistError("netlist has no non-ground nodes")
        # Imported here: csgraph costs ~60 ms and ~1 MiB RSS at import, and
        # every process that imports repro.circuit would pay it.
        from scipy.sparse.csgraph import connected_components

        dc = (cols.kinds != KIND_C) & (cols.kinds != KIND_I)
        a = np.where(cols.pos[dc] < 0, n, cols.pos[dc])
        b = np.where(cols.neg[dc] < 0, n, cols.neg[dc])
        graph = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(n + 1, n + 1))
        _, labels = connected_components(graph, directed=False)
        floating = np.flatnonzero(labels[:n] != labels[n])
        if floating.size:
            names = self.node_names()
            raise NetlistError(
                f"{floating.size} node(s) have no DC path to ground, "
                f"e.g. {[names[k] for k in floating[:5]]!r}; "
                f"G would be singular"
            )

    def summary(self) -> str:
        """One-line human-readable size summary."""
        c = self.counts
        u = self.unknowns
        return (
            f"{self.title}: {u.n_nodes} nodes, {c['r']} R, {c['c']} C, "
            f"{c['l']} L, {c['v']} V, {c['i']} I (dim {u.dim})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.summary()}>"


class Netlist(NodeView):
    """A linear circuit: elements plus deterministic index assignment.

    Parameters
    ----------
    title:
        Free-form circuit name used in reports and netlist files.
    """

    def __init__(self, title: str = "circuit"):
        self.title = title
        self._elements: dict[str, Element] = {}
        self._node_index: dict[str, int] = {}
        self._resistors: list[Resistor] = []
        self._capacitors: list[Capacitor] = []
        self._inductors: list[Inductor] = []
        self._vsources: list[VoltageSource] = []
        self._isources: list[CurrentSource] = []

    # -- construction ----------------------------------------------------------

    def _register_node(self, node: str) -> None:
        if not node:
            raise NetlistError("empty node name")
        if _is_ground(node):
            return
        if node not in self._node_index:
            self._node_index[node] = len(self._node_index)

    def _add(self, element: Element) -> None:
        if element.name in self._elements:
            raise NetlistError(f"duplicate element name {element.name!r}")
        if _is_ground(element.pos) and _is_ground(element.neg):
            raise NetlistError(
                f"element {element.name!r} has both terminals grounded"
            )
        self._register_node(element.pos)
        self._register_node(element.neg)
        self._elements[element.name] = element

    def add_resistor(self, name: str, pos: str, neg: str, resistance: float) -> Resistor:
        """Add a resistor and return it."""
        r = Resistor(name, pos, neg, resistance)
        self._add(r)
        self._resistors.append(r)
        return r

    def add_capacitor(self, name: str, pos: str, neg: str, capacitance: float) -> Capacitor:
        """Add a capacitor and return it."""
        c = Capacitor(name, pos, neg, capacitance)
        self._add(c)
        self._capacitors.append(c)
        return c

    def add_inductor(self, name: str, pos: str, neg: str, inductance: float) -> Inductor:
        """Add an inductor and return it."""
        ind = Inductor(name, pos, neg, inductance)
        self._add(ind)
        self._inductors.append(ind)
        return ind

    def add_voltage_source(
        self, name: str, pos: str, neg: str, waveform: Waveform | float
    ) -> VoltageSource:
        """Add a voltage source; a bare float means a DC source."""
        if isinstance(waveform, (int, float)):
            waveform = DC(float(waveform))
        v = VoltageSource(name, pos, neg, waveform)
        self._add(v)
        self._vsources.append(v)
        return v

    def add_current_source(
        self, name: str, pos: str, neg: str, waveform: Waveform | float
    ) -> CurrentSource:
        """Add a current source; a bare float means a DC source."""
        if isinstance(waveform, (int, float)):
            waveform = DC(float(waveform))
        i = CurrentSource(name, pos, neg, waveform)
        self._add(i)
        self._isources.append(i)
        return i

    # -- accessors ---------------------------------------------------------------

    @property
    def resistors(self) -> tuple[Resistor, ...]:
        return tuple(self._resistors)

    @property
    def capacitors(self) -> tuple[Capacitor, ...]:
        return tuple(self._capacitors)

    @property
    def inductors(self) -> tuple[Inductor, ...]:
        return tuple(self._inductors)

    @property
    def voltage_sources(self) -> tuple[VoltageSource, ...]:
        return tuple(self._vsources)

    @property
    def current_sources(self) -> tuple[CurrentSource, ...]:
        return tuple(self._isources)

    @property
    def _groups(self) -> tuple[list[Element], ...]:
        """The element lists in :data:`KINDS` order."""
        return (self._resistors, self._capacitors, self._inductors,
                self._vsources, self._isources)

    @property
    def counts(self) -> dict[str, int]:
        return {kind: len(group) for kind, group in zip(KINDS, self._groups)}

    def elements(self) -> Iterator[Element]:
        """Iterate over all elements in insertion order."""
        return iter(self._elements.values())

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __getitem__(self, name: str) -> Element:
        return self._elements[name]

    # -- lowering ----------------------------------------------------------------------

    def columns(self) -> Columns:
        """The elements as :class:`Columns`, kind by kind in :data:`KINDS` order."""
        row = dict.fromkeys(GROUND_NAMES, -1)
        row.update(self._node_index)
        groups = self._groups
        elements = [e for group in groups for e in group]
        n = len(elements)
        values = (
            [r.resistance for r in self._resistors]
            + [c.capacitance for c in self._capacitors]
            + [ind.inductance for ind in self._inductors]
            + [0.0] * (len(self._vsources) + len(self._isources))
        )
        return Columns(
            kinds=np.repeat(np.arange(len(KINDS), dtype=np.int8), [len(g) for g in groups]),
            pos=np.fromiter((row[e.pos] for e in elements), np.int64, n),
            neg=np.fromiter((row[e.neg] for e in elements), np.int64, n),
            values=np.array(values, dtype=np.float64),
        )

    # -- validation ------------------------------------------------------------------

    def validate(self) -> None:
        """:meth:`NodeView.validate_columns` on this netlist's elements."""
        self.validate_columns(self.columns())


class StreamedNetlist(NodeView):
    """Node view of a circuit ingested without element objects.

    The streaming parser (:mod:`repro.circuit.ingest`) stamps matrices
    from array columns and never materialises :class:`Element`
    instances; the rest of the pipeline only needs the node bookkeeping
    of :class:`NodeView`, under the same contract:

    * ``node_index`` rows follow first-appearance order (pos before neg,
      ground excluded) — identical to :meth:`Netlist._register_node`
      replayed over the same card sequence;
    * branch rows follow node rows: voltage sources first, inductors
      after, each in card order.
    """

    def __init__(self, title: str, node_index: dict[str, int], counts: dict[str, int]):
        self.title = title
        self._node_index = node_index
        self.counts = dict(counts)
