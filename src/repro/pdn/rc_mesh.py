"""Stiff RC mesh generator (paper Sec. 4.1, Table 1).

The paper evaluates the three Krylov flavours on RC meshes whose
stiffness — defined as ``Re(λ_min)/Re(λ_max)`` of ``-C⁻¹G`` — is dialled
"by changing the entries of C, G".  We reproduce that with a rectangular
resistor mesh holding a grounded capacitor at every node, where the two
spectral extremes are controlled independently through the capacitor
population:

* a fraction of nodes carries the small ``c_base / fast_ratio``
  (fast time constants ⇒ ``λ_min``, which sets the Krylov dimension the
  *standard* method needs: m ≈ h·|λ_min|),
* one anchor node carries the large ``c_base · slow_ratio``
  (slow time constant ⇒ ``λ_max``).

Stiffness therefore scales ≈ ``fast_ratio · slow_ratio``, while the mesh
stays strongly tied to ground — important because the ETD auxiliary
vectors involve ``G⁻¹``, and a nearly-floating ``G`` would poison them
with catastrophic cancellation (see DESIGN.md).

These meshes are deliberately *voltage-source-free*: ``C`` is
non-singular so MEXP (standard Krylov) can run at all, matching the
paper's Table 1 setup.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Netlist
from repro.circuit.waveforms import Pulse

__all__ = ["stiff_rc_mesh", "mesh_node"]


def mesh_node(i: int, j: int) -> str:
    """Canonical node name of mesh position ``(i, j)``."""
    return f"n{i}_{j}"


def stiff_rc_mesh(
    rows: int,
    cols: int,
    fast_ratio: float = 10.0,
    slow_ratio: float = 1.0,
    resistance: float = 1.0,
    c_base: float = 1e-12,
    fast_fraction: float = 0.3,
    n_sources: int = 1,
    pulse_peak: float = 1e-3,
    seed: int = 2014,
    r_ground: float | None = None,
    sources_on_fast: bool = True,
) -> Netlist:
    """Build a stiff RC mesh with pulse current loads.

    Parameters
    ----------
    rows, cols:
        Mesh dimensions; the circuit has ``rows*cols`` nodes.
    fast_ratio:
        ``c_base / c_fast``; raises ``|λ_min|`` (the fast modes).  At the
        paper's h = 5ps, MEXP's basis requirement is ≈ ``h·|λ_min|``.
    slow_ratio:
        ``c_slow / c_base`` of the single anchor capacitor; lowers
        ``|λ_max|`` (the slow mode).  Stiffness grows ∝ this knob while
        the fast spectrum — and hence MEXP's basis size — stays put,
        which is exactly the paper's Table 1 progression.
    resistance:
        Mesh segment resistance in ohms.
    c_base:
        Median node capacitance in farads.
    fast_fraction:
        Fraction of nodes given the small capacitance.
    n_sources:
        Number of pulse current loads sprinkled over the mesh.
    pulse_peak:
        Load current amplitude in amps.
    seed:
        RNG seed for cap placement and source positions (deterministic).
    r_ground:
        Per-corner tie to ground (default ``resistance/10`` — strong,
        keeping ``G⁻¹`` well-scaled).
    sources_on_fast:
        Attach the loads to fast (small-cap) nodes.  A slope change then
        excites the fast modes directly, which is what forces the
        standard Krylov basis into the hundreds (Table 1's MEXP rows);
        loads on slow nodes would let every method converge early.

    Returns
    -------
    Netlist
        Current-driven RC mesh (no voltage sources ⇒ ``C`` invertible).
        Measure the achieved stiffness with
        :func:`repro.pdn.stiffness.stiffness`; Table 1 reports measured
        values, not the knobs.
    """
    if rows < 2 or cols < 2:
        raise ValueError("mesh needs at least 2x2 nodes")
    if fast_ratio < 1.0 or slow_ratio < 1.0:
        raise ValueError("fast_ratio and slow_ratio must be >= 1")
    if not (0.0 < fast_fraction <= 1.0):
        raise ValueError("fast_fraction must be in (0, 1]")

    rng = np.random.default_rng(seed)
    net = Netlist(
        f"stiff-rc-mesh-{rows}x{cols}-fast{fast_ratio:g}-slow{slow_ratio:g}"
    )

    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                net.add_resistor(
                    f"Rh{i}_{j}", mesh_node(i, j), mesh_node(i, j + 1), resistance
                )
            if i + 1 < rows:
                net.add_resistor(
                    f"Rv{i}_{j}", mesh_node(i, j), mesh_node(i + 1, j), resistance
                )

    # The capacitor population: mostly c_base, a fast subset, one slow anchor
    # at the mesh centre.
    c_fast = c_base / fast_ratio
    c_slow = c_base * slow_ratio
    anchor = (rows // 2) * cols + cols // 2
    fast_mask = rng.random(rows * cols) < fast_fraction
    for i in range(rows):
        for j in range(cols):
            pos = i * cols + j
            if pos == anchor:
                c = c_slow
            elif fast_mask[pos]:
                c = c_fast
            else:
                c = c_base
            net.add_capacitor(f"C{i}_{j}", mesh_node(i, j), "0", c)

    # Strong ground ties at all four corners: keeps G well-conditioned so
    # the regularization-free ETD vectors (G⁻¹-based) stay well-scaled.
    tie = r_ground if r_ground is not None else resistance / 10.0
    for k, (i, j) in enumerate(
        [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
    ):
        net.add_resistor(f"Rgnd{k}", mesh_node(i, j), "0", tie)

    # Pulse loads: the paper simulates [0, 0.3ns] with 5ps steps, so the
    # default bump fits comfortably inside that window.
    if sources_on_fast:
        candidates = np.flatnonzero(fast_mask)
        if candidates.size == 0:
            candidates = np.arange(rows * cols)
    else:
        candidates = np.arange(rows * cols)
    positions = rng.choice(
        candidates, size=min(n_sources, candidates.size), replace=False
    )
    for k, pos in enumerate(sorted(positions)):
        i, j = divmod(int(pos), cols)
        net.add_current_source(
            f"I{k}",
            mesh_node(i, j),
            "0",
            Pulse(
                v1=0.0, v2=pulse_peak,
                t_delay=5e-11, t_rise=2e-11, t_width=1e-10, t_fall=2e-11,
            ),
        )
    return net
