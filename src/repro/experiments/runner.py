"""Experiment CLI: ``python -m repro.experiments.runner <experiment>``.

Regenerates the paper's tables and figure from the command line::

    python -m repro.experiments.runner table1
    python -m repro.experiments.runner table3 --cases pg1t pg4t
    python -m repro.experiments.runner all

Each experiment prints a paper-style ASCII table; the committed ones are
in ``results/*.txt``, with the exact commands in README.md.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.fig5 import run_fig5
from repro.experiments.gamma_ablation import run_gamma_ablation
from repro.experiments.speedup_model import run_speedup_model
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3

__all__ = ["main", "EXPERIMENTS"]

#: name -> callable(cases) returning (Table, rows).
EXPERIMENTS = {
    "table1": lambda cases: run_table1(),
    "table2": lambda cases: run_table2(cases=cases),
    "table3": lambda cases: run_table3(cases=cases),
    "fig5": lambda cases: run_fig5(),
    "speedup-model": lambda cases: run_speedup_model(
        case=cases[0] if cases else "pg2t"
    ),
    "gamma-ablation": lambda cases: run_gamma_ablation(
        case=cases[0] if cases else "pg1t"
    ),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the MATEX paper's tables and figure.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--cases", nargs="*", default=None,
        help="suite-case subset for table2/table3 (e.g. pg1t pg4t)",
    )
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        table, _ = EXPERIMENTS[name](args.cases)
        print(table.render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
