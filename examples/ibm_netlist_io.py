"""SPICE-dialect netlist I/O: write, re-parse, stream, simulate.

Run:  python examples/ibm_netlist_io.py

The IBM power grid benchmarks ship as flat SPICE decks.  This example
shows the repository's I/O paths for that dialect:

1. a hand-written deck string is parsed,
2. the synthetic pg1t case is exported to the same format and read
   back from a file, verified by comparing DC operating points,
3. the same deck written in insertion order reads back into
   **bit-identical** matrices.

Generators and the reader fill one netlist form, and every path reads
decks with one memory-bounded pass (``repro.circuit.ingest``).  If you
have real ``ibmpg*t.spice`` files, ``repro.circuit.ingest_file`` (or
``python -m repro.cli run --netlist``) loads them the same way.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.baselines import dc_operating_point
from repro.circuit import (
    assemble,
    format_netlist,
    ingest_file,
    parse_netlist,
    write_file,
)
from repro.pdn.suite import build_netlist

DECK = """* tiny hand-written PDN deck
Vdd vddpad 0 1.8
Rpad vddpad n0 0.02
R1 n0 n1 0.5
R2 n1 n2 0.5
C1 n1 0 2e-13
C2 n2 0 1e-13
I1 n2 0 PULSE(0 1m 1n 50p 50p 300p)
I2 n1 0 PWL(0 0 2n 0 2.5n 0.8m 4n 0.8m 4.5n 0)
.tran 10p 10n
.end
"""


def main() -> None:
    # 1. Parse the hand-written deck.
    net = parse_netlist(DECK, title="tiny-deck")
    system = assemble(net)
    x_dc, _ = dc_operating_point(system)
    print(f"parsed deck: {system.summary()}")
    print(f"DC voltage at n2: {system.node_voltage(x_dc, 'n2'):.4f} V")

    # 2. Export a generated suite case and read it back from a file.
    pg1t = build_netlist("pg1t")
    text = format_netlist(pg1t, t_end=1e-8)
    print(f"\npg1t exports to {len(text.splitlines())} SPICE lines")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pg1t.spice"
        path.write_text(text)
        roundtrip = ingest_file(path).system

    original = assemble(pg1t)
    x0, _ = dc_operating_point(original)
    x1, _ = dc_operating_point(roundtrip)
    diff = float(np.max(np.abs(x0 - x1)))
    print(f"DC operating point round-trip difference: {diff:.2e} V")
    assert diff < 1e-12, "round trip corrupted the circuit"

    # 3. Written in insertion order, the deck reads back into the
    # generated netlist's columns: matrices bit-identical to assemble().
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pg1t_stream.spice"
        write_file(pg1t, path, t_end=1e-8, order="insertion")
        res = ingest_file(path)
    streamed = res.system
    assert (streamed.G != original.G).nnz == 0
    assert (streamed.C != original.C).nnz == 0
    assert (streamed.B != original.B).nnz == 0
    print(f"ingest: {res.stats.summary()}")
    print("read-back matrices bit-identical to the generated netlist's")
    print("OK")


if __name__ == "__main__":
    main()
