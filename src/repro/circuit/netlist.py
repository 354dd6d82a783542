"""Netlist: a linear circuit held in the columns the MNA stamp reads.

A power-distribution network is a linear circuit of resistors,
capacitors, inductors, ideal voltage sources and time-varying current
sources (paper Sec. 2.1).  A :class:`Netlist` stores one in the form
:func:`repro.circuit.mna.assemble` stamps:

* per-element ``kind``/``pos``/``neg``/``value`` columns in insertion
  order (:meth:`Netlist.columns`; ground is row ``-1``, a source's value
  is ``0.0``);
* the node map, non-ground node name to matrix row, rows in order of
  first appearance (pos before neg);
* the element names, and each source's waveform (current sources and
  voltage sources, each list in insertion order).

The generators in :mod:`repro.pdn` fill it through ``add_resistor`` …
``add_current_source``, and the deck reader in
:mod:`repro.circuit.ingest` through :meth:`Netlist.add` — the one place
each per-element rule is checked:

* an R/C/L value is positive and finite;
* the element name is unique;
* the two terminals are not both ground;
* a new node takes the next row, pos before neg.

Node names are strings; ``"0"`` and the other :data:`GROUND_NAMES` are
the ground reference and never get a matrix row.

Index layout of the MNA unknowns (fixed, relied upon by
:mod:`repro.circuit.mna`):

* rows ``0 .. n_nodes-1``     — node voltages (ground excluded),
* next ``n_vsrc`` rows        — voltage-source branch currents,
* next ``n_ind`` rows         — inductor branch currents.

The element and node insertion order is deterministic, so two identically
built netlists produce identical matrices (important for superposition
tests).  The assembled :class:`~repro.circuit.mna.MNASystem` answers
node lookups and summaries itself and never holds the netlist.
"""

from __future__ import annotations

from array import array
from math import inf
from typing import NamedTuple

import numpy as np

from repro.circuit.parser import quote
from repro.circuit.waveforms import DC, Waveform

__all__ = ["GROUND_NAMES", "KINDS", "Columns", "Netlist", "NetlistError"]

#: Names accepted as the ground node.
GROUND_NAMES = frozenset({"0", "gnd", "GND", "vss", "VSS"})

#: The element kinds of :class:`Columns`; a kind's code is its index here.
KINDS = ("r", "c", "l", "v", "i")
KIND_R, KIND_C, KIND_L, KIND_V, KIND_I = range(len(KINDS))
_NOUNS = ("resistor", "capacitor", "inductor")
_N_GROUND = len(GROUND_NAMES)


class NetlistError(ValueError):
    """Raised for malformed circuit descriptions."""


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


class Netlist:
    """A linear circuit: element columns plus deterministic index assignment.

    Parameters
    ----------
    title:
        Free-form circuit name used in reports and netlist files.
    """

    def __init__(self, title: str = "circuit"):
        self.title = title
        # Ground names are pre-interned at row -1; every later key is a
        # node and gets the next row, so key order is row order.
        self._rows: dict[str, int] = dict.fromkeys(GROUND_NAMES, -1)
        # Names as a set plus an ordered list: a dict's lookups touch two
        # tables, and read the 52k-card bench deck measurably slower.
        self._names: set[str] = set()
        self._order: list[str] = []
        self._kinds = array("b")
        self._pos = array("q")
        self._neg = array("q")
        self._values = array("d")
        #: Waveforms of the current sources, in insertion order.
        self.current_waveforms: list[Waveform] = []
        #: Waveforms of the voltage sources, in insertion order.
        self.voltage_waveforms: list[Waveform] = []

    # -- construction ----------------------------------------------------------

    def add(
        self,
        kind: int,
        name: str,
        pos: str,
        neg: str,
        value: float = 0.0,
        waveform: Waveform | None = None,
    ) -> None:
        """Append one element of ``kind`` (an index into :data:`KINDS`).

        ``value`` is an R/C/L element's resistance, capacitance or
        inductance (``0.0`` for a source); ``waveform`` is a source's.
        The one place each per-element rule is checked: a value that is
        not positive and finite, a duplicate name, an empty node name or
        two grounded terminals raises :class:`NetlistError` (checked in
        that order) and appends nothing.
        """
        if kind < KIND_V and not 0.0 < value < inf:
            raise NetlistError(
                f"{_NOUNS[kind]} {quote(name)}: value must be positive "
                f"and finite, got {value!r}"
            )
        names = self._names
        if name in names:
            raise NetlistError(f"duplicate element name {quote(name)}")
        rows = self._rows
        i = rows.get(pos)
        j = rows.get(neg)
        if i is None or j is None:  # a new node takes the next row
            if not (pos and neg):
                raise NetlistError(
                    f"element {quote(name)}: empty node name"
                )
            if i is None:
                i = rows[pos] = len(rows) - _N_GROUND
            if j is None:
                j = rows.setdefault(neg, len(rows) - _N_GROUND)
        if i < 0 and j < 0:
            raise NetlistError(
                f"element {quote(name)} has both terminals grounded"
            )
        names.add(name)
        self._order.append(name)
        self._kinds.append(kind)
        self._pos.append(i)
        self._neg.append(j)
        self._values.append(value)
        if kind == KIND_I:
            self.current_waveforms.append(waveform)
        elif kind == KIND_V:
            self.voltage_waveforms.append(waveform)

    def add_resistor(self, name: str, pos: str, neg: str, resistance: float) -> None:
        """Add a resistor (ohms)."""
        self.add(KIND_R, name, pos, neg, float(resistance))

    def add_capacitor(self, name: str, pos: str, neg: str, capacitance: float) -> None:
        """Add a capacitor (farads)."""
        self.add(KIND_C, name, pos, neg, float(capacitance))

    def add_inductor(self, name: str, pos: str, neg: str, inductance: float) -> None:
        """Add an inductor (henries); MNA gives it a branch-current row."""
        self.add(KIND_L, name, pos, neg, float(inductance))

    def add_voltage_source(
        self, name: str, pos: str, neg: str, waveform: Waveform | float
    ) -> None:
        """Add ``v(pos) - v(neg) = waveform(t)``; a bare number means DC."""
        if isinstance(waveform, (int, float)):
            waveform = DC(float(waveform))
        self.add(KIND_V, name, pos, neg, 0.0, waveform)

    def add_current_source(
        self, name: str, pos: str, neg: str, waveform: Waveform | float
    ) -> None:
        """Add a source drawing ``waveform(t)`` amps from ``pos`` to ``neg``.

        A bare number means DC.  Each current source is one column of
        the input selector ``B`` (paper Sec. 2.1).
        """
        if isinstance(waveform, (int, float)):
            waveform = DC(float(waveform))
        self.add(KIND_I, name, pos, neg, 0.0, waveform)

    # -- accessors ---------------------------------------------------------------

    def columns(self) -> Columns:
        """The element columns as numpy copies (the netlist stays appendable)."""
        return Columns(
            kinds=np.array(self._kinds, dtype=np.int8),
            pos=np.array(self._pos, dtype=np.int64),
            neg=np.array(self._neg, dtype=np.int64),
            values=np.array(self._values, dtype=np.float64),
        )

    def element_names(self) -> tuple[str, ...]:
        """The element names, in insertion order."""
        return tuple(self._order)

    @property
    def counts(self) -> dict[str, int]:
        """Number of elements of each kind, keyed by :data:`KINDS`."""
        n = np.bincount(np.array(self._kinds, dtype=np.int8), minlength=len(KINDS))
        return dict(zip(KINDS, n.tolist()))

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._rows) - _N_GROUND

    def node_names(self) -> tuple[str, ...]:
        """Non-ground node names in index order."""
        return tuple(self._rows)[_N_GROUND:]

    def __len__(self) -> int:
        return len(self._kinds)
