"""IR-drop / supply-droop analysis of PDN transients.

The engineering question PDN simulation answers (paper Sec. 1): how far
do the supply rails sag under switching load?  These helpers turn a
:class:`~repro.core.results.TransientResult` into the quantities a power
integrity engineer reports: worst-case droop, per-node peak droop, and
the set of nodes violating a noise budget.

Only *rail* nodes are meaningful for droop; by convention every grid
node is a rail, while MNA branch currents are excluded automatically and
auxiliary nodes can be filtered with ``node_filter``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.results import TransientResult

__all__ = ["DroopReport", "droop_report", "worst_droop"]


@dataclass(frozen=True)
class DroopReport:
    """Supply-droop summary of one transient run.

    Attributes
    ----------
    vdd:
        Nominal rail voltage the droop is measured against.
    worst_droop:
        Largest ``vdd − v(node, t)`` over all rail nodes and times.
    worst_node:
        Node where it occurs.
    worst_time:
        Time at which it occurs.
    node_droops:
        Per-node peak droop, keyed by node name (volts, ≥ 0 means the
        rail sagged below nominal; negative = overshoot only).
    violations:
        Nodes whose peak droop exceeds the requested budget.
    budget:
        The noise budget used for ``violations``.
    """

    vdd: float
    worst_droop: float
    worst_node: str
    worst_time: float
    node_droops: dict[str, float]
    violations: tuple[str, ...]
    budget: float

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"worst droop {self.worst_droop * 1e3:.2f} mV at "
            f"{self.worst_node} (t = {self.worst_time * 1e9:.3f} ns); "
            f"{len(self.violations)} node(s) over the "
            f"{self.budget * 1e3:.1f} mV budget"
        )


def droop_report(
    result: TransientResult,
    vdd: float,
    budget: float = 0.05,
    node_filter: Callable[[str], bool] | None = None,
) -> DroopReport:
    """Analyse supply droop across a transient trajectory.

    Parameters
    ----------
    result:
        The simulated trajectory.
    vdd:
        Nominal supply voltage.
    budget:
        Allowed droop in volts (default 50 mV); nodes exceeding it are
        listed in :attr:`DroopReport.violations`.
    node_filter:
        Optional predicate selecting rail nodes by name (default: all
        non-ground nodes).

    Returns
    -------
    DroopReport
    """
    names = result.system.node_names()
    keep = [
        (i, name) for i, name in enumerate(names)
        if node_filter is None or node_filter(name)
    ]
    if not keep:
        raise ValueError("node_filter excluded every node")

    idx = [i for i, _ in keep]
    block = result.states[:, idx]            # (times, rails)
    droops = vdd - block                     # positive = sag

    per_node = droops.max(axis=0)
    node_droops = {name: float(per_node[k]) for k, (_, name) in enumerate(keep)}

    flat = int(np.argmax(droops))
    t_idx, n_idx = np.unravel_index(flat, droops.shape)
    violations = tuple(
        name for name, d in node_droops.items() if d > budget
    )
    return DroopReport(
        vdd=vdd,
        worst_droop=float(droops[t_idx, n_idx]),
        worst_node=keep[n_idx][1],
        worst_time=float(result.times[t_idx]),
        node_droops=node_droops,
        violations=violations,
        budget=budget,
    )


def worst_droop(result: TransientResult, vdd: float) -> float:
    """Shortcut: the single worst droop value in volts."""
    return droop_report(result, vdd).worst_droop
