"""Error metrics between transient results (paper Table 1 & 3 columns).

All metrics compare *node voltages only* (MNA branch currents are
excluded, as in the IBM benchmark scoring) on an explicit common time
grid, interpolating each trajectory linearly where needed.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import TransientResult

__all__ = ["error_metrics", "max_error", "avg_error", "relative_error_pct"]


def _aligned_node_blocks(
    result: TransientResult,
    reference: TransientResult,
    times: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    if times is None:
        times = reference.times
    times = np.asarray(times, dtype=float)
    n_nodes = result.system.n_nodes
    a = result.sample(times)[:, :n_nodes]
    b = reference.sample(times)[:, :n_nodes]
    return a, b


def error_metrics(
    result: TransientResult,
    reference: TransientResult,
    times: np.ndarray | None = None,
) -> dict[str, float]:
    """Max and average absolute node-voltage error vs a reference.

    Parameters
    ----------
    result, reference:
        Trajectories over the same system.
    times:
        Comparison grid; defaults to the reference's native grid.

    Returns
    -------
    dict
        ``{"max": ..., "avg": ...}`` in volts — the Table 3 columns.
    """
    a, b = _aligned_node_blocks(result, reference, times)
    diff = np.abs(a - b)
    return {"max": float(diff.max()), "avg": float(diff.mean())}


def max_error(
    result: TransientResult,
    reference: TransientResult,
    times: np.ndarray | None = None,
) -> float:
    """Max absolute node-voltage error (volts)."""
    return error_metrics(result, reference, times)["max"]


def avg_error(
    result: TransientResult,
    reference: TransientResult,
    times: np.ndarray | None = None,
) -> float:
    """Average absolute node-voltage error (volts)."""
    return error_metrics(result, reference, times)["avg"]


def relative_error_pct(
    result: TransientResult,
    reference: TransientResult,
    times: np.ndarray | None = None,
) -> float:
    """Table 1's ``Err (%)``: max error relative to the signal swing."""
    a, b = _aligned_node_blocks(result, reference, times)
    swing = float(np.max(np.abs(b)))
    if swing == 0.0:  # repro: allow[RPL005] exact zero-swing guard before division
        return 0.0
    return float(np.max(np.abs(a - b)) / swing * 100.0)
