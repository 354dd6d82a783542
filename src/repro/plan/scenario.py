"""Scenarios: input-pattern bindings against a compiled topology.

MATEX's Krylov operators depend only on the pencil ``(C, G, γ)``, never
on the inputs ``u(t)`` — so "same system, different sources" is the
cheapest possible what-if question.  A :class:`Scenario` captures one
such question: a named set of waveform replacements and/or amplitude
scalings on the input columns of an :class:`~repro.circuit.mna.MNASystem`.
Binding a scenario (:meth:`Scenario.bind`) swaps ``B·u(t)`` through
:meth:`~repro.circuit.mna.MNASystem.rebind_sources` without touching
``G`` or ``C`` — every factorisation, decomposition and schedule of a
compiled plan stays valid.

The contract that keeps a scenario compatible with a compiled plan is
**transition-grid preservation**: replacement waveforms must transition
at exactly the times the original did.  Amplitude scalings preserve this
by construction, and a scaled pulse shares its source's transition-spot
memo, so :class:`~repro.plan.session.Session` checks them at memo cost;
it rejects structurally different inputs with a clear
:class:`~repro.plan.plan.PlanError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.circuit.mna import MNASystem
from repro.circuit.waveforms import Waveform

__all__ = ["Scenario", "scenario_from_spec", "load_scenarios_json"]


@dataclass(frozen=True, eq=False)
class Scenario:
    """One named input pattern to run against a compiled plan.

    Attributes
    ----------
    name:
        Human-readable label, echoed on the
        :class:`~repro.dist.messages.DistributedResult`.
    overrides:
        ``(column, waveform)`` replacements, applied first.  The
        replacement must preserve the column's transition spots (and
        its constancy) — a compiled plan's decomposition and schedules
        are frozen on the base system's grid.
    scales:
        ``(column, factor)`` amplitude scalings applied via
        :meth:`~repro.circuit.waveforms.Waveform.scaled` after the
        overrides.  Scaling never moves transition spots, so it is
        always plan-compatible (a zero factor turns a varying source
        constant and is rejected at validation).
    """

    name: str = "baseline"
    overrides: tuple[tuple[int, Waveform], ...] = ()
    scales: tuple[tuple[int, float], ...] = ()

    def __init__(self, name: str = "baseline", overrides=None, scales=None):
        object.__setattr__(self, "name", str(name))
        object.__setattr__(
            self,
            "overrides",
            tuple(sorted(
                ((int(c), w) for c, w in dict(overrides or {}).items()),
                key=lambda cw: cw[0],
            )),
        )
        object.__setattr__(
            self,
            "scales",
            tuple(sorted(
                ((int(c), float(f)) for c, f in dict(scales or {}).items()),
                key=lambda cf: cf[0],
            )),
        )

    @property
    def is_baseline(self) -> bool:
        """True when the scenario changes nothing (the plan's own inputs)."""
        return not self.overrides and not self.scales

    @property
    def changed_columns(self) -> tuple[int, ...]:
        """Sorted union of the input columns this scenario touches."""
        cols = {c for c, _ in self.overrides} | {c for c, _ in self.scales}
        return tuple(sorted(cols))

    def bind(self, system: MNASystem) -> MNASystem:
        """The scenario's view of ``system`` (shared matrices, new u(t))."""
        if self.is_baseline:
            return system
        return system.rebind_sources(
            overrides=dict(self.overrides), scales=dict(self.scales)
        )

    def __repr__(self) -> str:  # keep sweeps readable in logs
        parts = [f"Scenario({self.name!r}"]
        if self.overrides:
            parts.append(f"overrides={[c for c, _ in self.overrides]}")
        if self.scales:
            parts.append(f"scales={[c for c, _ in self.scales]}")
        return ", ".join(parts) + ")"


def scenario_from_spec(entry, system: MNASystem, index: int = 0) -> Scenario:
    """Build one :class:`Scenario` from a JSON-style spec object.

    The single definition of the spec grammar, shared by
    :func:`load_scenarios_json` (file sweeps) and the ``repro serve``
    daemon (requests carry the same objects over the wire).  Supported
    keys: ``name``, ``scale_loads``, ``scale`` — see
    :func:`load_scenarios_json` for their semantics.  ``index`` only
    seeds the default name and error messages.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"scenario entry {index} is not a JSON object")
    unknown = set(entry) - {"name", "scale_loads", "scale"}
    if unknown:
        raise ValueError(
            f"scenario entry {index} has unknown keys {sorted(unknown)}; "
            f"supported: name, scale_loads, scale"
        )
    scales: dict[int, float] = {}
    if "scale_loads" in entry:
        factor = float(entry["scale_loads"])
        scales.update((k, factor) for k in system.current_input_indices)
    for col, factor in (entry.get("scale") or {}).items():
        col = int(col)
        if not 0 <= col < system.n_inputs:
            raise ValueError(
                f"scenario entry {index}: input column {col} out of range "
                f"(system has {system.n_inputs} inputs)"
            )
        scales[col] = float(factor)
    return Scenario(
        name=entry.get("name", f"scenario{index}"), scales=scales
    )


def load_scenarios_json(path, system: MNASystem) -> list[Scenario]:
    """Load a sweep specification (JSON) into :class:`Scenario` objects.

    The file holds a list of entries; each entry supports:

    ``name``
        Scenario label (defaults to ``scenario<i>``).
    ``scale_loads``
        One factor applied to **every** load-current input column
        (supply-voltage columns are untouched) — the classic "what if
        activity is 30% higher" pattern.
    ``scale``
        ``{column: factor}`` per-column scalings (keys are input-column
        indices, as printed by ``repro info``); applied after
        ``scale_loads`` and overriding it on the named columns.

    Example::

        [
          {"name": "nominal"},
          {"name": "hot", "scale_loads": 1.3},
          {"name": "one-block-quiet", "scale": {"17": 0.25}}
        ]
    """
    spec = json.loads(Path(path).read_text())
    if not isinstance(spec, list):
        raise ValueError(
            f"scenario spec must be a JSON list of objects, "
            f"got {type(spec).__name__}"
        )
    return [
        scenario_from_spec(entry, system, index=i)
        for i, entry in enumerate(spec)
    ]
