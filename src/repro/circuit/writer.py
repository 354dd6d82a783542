"""Netlist writer: serialise a :class:`Netlist` back to SPICE text.

Formats each card straight from the netlist's element columns (ground
is written ``0``) and round-trips with the deck reader in
:mod:`repro.circuit.ingest`, which makes the synthetic PDN suite
exportable in the same flat-SPICE dialect as the IBM power grid
benchmarks — useful for cross-checking against external simulators and
for synthesising benchmark-format decks on disk.

Two card orders are supported:

``"by-type"`` (default)
    All R cards, then C, L, V, I — the classic grouped layout.
``"insertion"``
    Cards in element insertion order.  This is the order that makes the
    write → ingest round-trip **bit-identical**: node matrix indices are
    assigned by first appearance, so a deck replayed card-by-card in
    insertion order reconstructs the exact columns (and hence the exact
    ``G``/``C``/``B`` triplet sequence) of the in-memory netlist.

:func:`iter_cards` streams one card line at a time so multi-hundred-MB
decks can be written without materialising the text in memory.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.circuit.netlist import KIND_I, KIND_V, Netlist
from repro.circuit.waveforms import DC, PWL, Pulse, Waveform

__all__ = ["format_netlist", "iter_cards", "write_file"]


def _fmt(x: float) -> str:
    """Compact float formatting that survives a parse round-trip."""
    return repr(float(x))


def _fmt_waveform(w: Waveform) -> str:
    if isinstance(w, DC):
        return _fmt(w.level)
    if isinstance(w, Pulse):
        # SPICE order: v1 v2 td tr tf pw per
        args = [w.v1, w.v2, w.t_delay, w.t_rise, w.t_fall, w.t_width]
        if w.t_period is not None:
            args.append(w.t_period)
        return "PULSE(" + " ".join(_fmt(a) for a in args) + ")"
    if isinstance(w, PWL):
        flat = " ".join(f"{_fmt(t)} {_fmt(v)}" for t, v in w.points)
        return f"PWL({flat})"
    raise TypeError(f"cannot serialise waveform of type {type(w).__name__}")


def iter_cards(
    netlist: Netlist,
    t_end: float | None = None,
    order: str = "by-type",
) -> Iterator[str]:
    """Yield the netlist's SPICE card lines one at a time (no newlines).

    Parameters
    ----------
    netlist:
        The circuit to serialise.
    t_end:
        Optional transient stop time; when given, a ``.tran`` directive
        is emitted (step hint = t_end/1000, mirroring the paper's
        1000-step trapezoidal baseline).
    order:
        ``"by-type"`` (grouped R/C/L/V/I) or ``"insertion"`` (element
        insertion order, the bit-identical round-trip order).
    """
    if order not in ("by-type", "insertion"):
        raise ValueError(
            f"order must be 'by-type' or 'insertion', got {order!r}"
        )
    yield f"* {netlist.title}"
    kinds, pos, neg, values = (col.tolist() for col in netlist.columns())
    nodes = netlist.node_names() + ("0",)  # row -1 is ground
    names = netlist.element_names()
    sources = {KIND_V: iter(netlist.voltage_waveforms),
               KIND_I: iter(netlist.current_waveforms)}
    # Both orders keep insertion order within a kind, so a source's
    # waveform is the next one of its kind.
    rows = range(len(kinds))
    if order == "by-type":
        rows = sorted(rows, key=kinds.__getitem__)  # stable
    for k in rows:
        kind = kinds[k]
        spec = _fmt(values[k]) if kind < KIND_V else _fmt_waveform(next(sources[kind]))
        yield f"{names[k]} {nodes[pos[k]]} {nodes[neg[k]]} {spec}"
    if t_end is not None:
        yield f".tran {_fmt(t_end / 1000.0)} {_fmt(t_end)}"
    yield ".end"


def format_netlist(
    netlist: Netlist,
    t_end: float | None = None,
    order: str = "by-type",
) -> str:
    """Render a netlist as flat-SPICE text (see :func:`iter_cards`)."""
    return "\n".join(iter_cards(netlist, t_end=t_end, order=order)) + "\n"


def write_file(
    netlist: Netlist,
    path: str | Path,
    t_end: float | None = None,
    order: str = "by-type",
) -> None:
    """Stream :func:`iter_cards` output to ``path`` line by line."""
    with open(Path(path), "w") as f:
        for line in iter_cards(netlist, t_end=t_end, order=order):
            f.write(line + "\n")
