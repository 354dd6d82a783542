"""Circuit substrate: waveforms, netlists, MNA, SPICE I/O."""

from repro.circuit.ingest import (
    IngestError,
    IngestResult,
    IngestStats,
    ingest_file,
    ingest_text,
    parse_netlist,
)
from repro.circuit.mna import MNASystem, assemble
from repro.circuit.netlist import Netlist, NetlistError
from repro.circuit.parser import ParseError, parse_value, parse_waveform
from repro.circuit.regularize import RegularizedSystem, regularize
from repro.circuit.waveforms import (
    DC,
    PWL,
    BumpShape,
    Pulse,
    Waveform,
    merge_transition_spots,
)
from repro.circuit.writer import format_netlist, iter_cards, write_file

__all__ = [
    "BumpShape",
    "DC",
    "IngestError",
    "IngestResult",
    "IngestStats",
    "MNASystem",
    "Netlist",
    "NetlistError",
    "PWL",
    "ParseError",
    "Pulse",
    "RegularizedSystem",
    "Waveform",
    "assemble",
    "regularize",
    "format_netlist",
    "ingest_file",
    "ingest_text",
    "iter_cards",
    "merge_transition_spots",
    "parse_netlist",
    "parse_value",
    "parse_waveform",
    "write_file",
]
