"""Synthesise ibmpg-style benchmark decks on disk (no external data).

The paper's headline results are on the IBM power grid transient
benchmarks (ibmpg1t .. ibmpg6t) — flat SPICE decks with up to millions
of R/C/I/V cards.  Those files cannot ship with this repro, so this
module *emits* decks of the same flavour from the synthetic PDN
substrate: ``_X_Y``-style node names, grouped pulse loads on a shared
clock grid, ``.tran``/``.op`` directives, hundreds of thousands of
cards when asked.

:func:`synthesize_ibmpg` writes the deck in element **insertion order**
so that streaming it back through :func:`repro.circuit.ingest.ingest_file`
reproduces the in-memory generator path **bit-identically** (same node
index assignment, same stamp sequence, same matrices) — the property
the bench's ``deck_cold`` check and the round-trip tests assert.
"""

from __future__ import annotations

from pathlib import Path

from repro.circuit.netlist import Netlist
from repro.circuit.writer import iter_cards
from repro.pdn.grid import PdnConfig, generate_power_grid
from repro.pdn.workloads import WorkloadSpec, attach_pulse_loads

__all__ = ["synthesize_ibmpg"]


def synthesize_ibmpg(
    path: str | Path,
    config: PdnConfig | None = None,
    workload: WorkloadSpec | None = None,
    t_end: float | None = None,
) -> Netlist:
    """Write an ibmpg-style deck to ``path`` and return its netlist.

    Parameters
    ----------
    path:
        Output file; card lines are streamed, never joined in memory.
    config:
        Grid parameters (defaults to :class:`PdnConfig` defaults —
        pass ``PdnConfig(rows=320, cols=320)`` for a >=100k-node deck).
    workload:
        Pulse-load parameters; ``None`` attaches the default
        :class:`WorkloadSpec`.  The workload's ``t_end`` becomes the
        deck's ``.tran`` stop time unless ``t_end`` overrides it.
    t_end:
        Optional explicit ``.tran`` stop time.

    Returns
    -------
    Netlist
        The in-memory netlist the deck was generated from, so callers
        can assemble the reference system without re-generating.
    """
    config = config if config is not None else PdnConfig()
    workload = workload if workload is not None else WorkloadSpec()
    horizon = t_end if t_end is not None else workload.t_end

    net = generate_power_grid(config)
    shapes = attach_pulse_loads(net, workload)

    header = (
        f"* ibmpg-style synthetic benchmark ({net.title})",
        f"* {net.n_nodes} nodes, {len(net)} cards, "
        f"{workload.n_sources} loads in {len(shapes)} bump groups",
        "* generated by repro.pdn.ibmpg.synthesize_ibmpg "
        "(insertion order: bit-identical streaming round-trip)",
    )
    with open(Path(path), "w") as f:
        for line in header:
            f.write(line + "\n")
        for line in iter_cards(net, t_end=horizon, order="insertion"):
            if line.startswith(".tran"):
                f.write(".op\n")  # benchmark flavour: DC point first
            f.write(line + "\n")
    return net
