"""Pluggable integrator registry (the paper's methods as components).

Every time integrator in the repository — the three MATEX Krylov
flavours and the traditional baselines — registers itself here under a
canonical name (plus paper aliases), so callers resolve *strategies* by
name instead of importing concrete solver classes:

>>> from repro.engine import get_integrator
>>> Tr = get_integrator("tr")
>>> result = Tr(system, h=1e-11).simulate(1e-9)

The pattern follows the solver-registry architecture of simulation
codebases like SHARPy: integrators are thin strategy objects behind one
:class:`Integrator` interface, and the shared
:class:`~repro.engine.loop.SteppingLoop` owns the baselines' marching
mechanics (recording, acceptance, statistics), so adding a time-stepping
integrator never means writing another stepping loop.

Built-in integrators live in :mod:`repro.core.solver` (MATEX) and
:mod:`repro.baselines`; they are imported lazily on first lookup so the
registry module itself stays dependency-free.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from typing import ClassVar

__all__ = [
    "Integrator",
    "register_integrator",
    "get_integrator",
    "available_integrators",
    "integrator_aliases",
]

#: canonical name -> integrator class
_REGISTRY: dict[str, type] = {}
#: every accepted spelling (canonical + aliases) -> canonical name
_ALIASES: dict[str, str] = {}
#: modules whose import registers the built-in integrators
_BUILTIN_MODULES = (
    "repro.engine.integrators",
)
_builtins_loaded = False


class Integrator(ABC):
    """Strategy interface every registered integrator implements.

    Construction performs the one-off work (matrix factorisations —
    possibly served by the process-wide
    :data:`~repro.linalg.lu.FACTORIZATION_CACHE`); :meth:`simulate`
    marches ``[0, t_end]`` through the shared stepping loop.

    Attributes
    ----------
    name:
        Canonical registry name, set by :func:`register_integrator`.
    aliases:
        Accepted alternative spellings.
    needs_step_size:
        True for integrators that march a fixed uniform grid and
        therefore require a step size ``h`` at construction (TR, BE,
        FE).  Capability flag — callers like the CLI dispatch on it
        instead of hard-coding integrator names.
    """

    name: ClassVar[str] = ""
    aliases: ClassVar[tuple[str, ...]] = ()
    needs_step_size: ClassVar[bool] = False

    @abstractmethod
    def simulate(self, t_end: float, **kwargs):
        """Simulate ``[0, t_end]``; returns a ``TransientResult``.

        All integrators accept ``x0`` (initial state, default DC
        operating point) and ``sink`` (a
        :class:`~repro.engine.sinks.ResultSink` receiving the recorded
        trajectory) keyword arguments.
        """


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    # Only after every import succeeded: a failed import must surface
    # its real exception again on the next lookup, not an empty registry.
    _builtins_loaded = True


def register_integrator(name: str, *aliases: str):
    """Class decorator: register an integrator under ``name`` (+aliases).

    >>> @register_integrator("be", "backward-euler", "be-fixed")
    ... class BackwardEulerIntegrator(Integrator):
    ...     ...

    Re-registering a name replaces the previous entry (latest wins),
    which keeps interactive reloads painless.
    """
    canonical = name.lower()

    def _decorate(cls):
        _REGISTRY[canonical] = cls
        _ALIASES[canonical] = canonical
        for alias in aliases:
            _ALIASES[alias.lower()] = canonical
        cls.name = canonical
        cls.aliases = tuple(a.lower() for a in aliases)
        return cls

    return _decorate


def get_integrator(name: str) -> type:
    """Resolve an integrator class by canonical name or alias.

    Raises
    ------
    ValueError
        If the name is unknown; the message lists every registered
        integrator (and its aliases) so the caller can self-serve.
    """
    _ensure_builtins()
    canonical = _ALIASES.get(name.lower())
    if canonical is None:
        catalogue = "; ".join(
            f"{reg}" + (
                f" (aliases: {', '.join(_REGISTRY[reg].aliases)})"
                if _REGISTRY[reg].aliases else ""
            )
            for reg in sorted(_REGISTRY)
        )
        raise ValueError(
            f"unknown integrator {name!r}; registered integrators: "
            f"{catalogue}"
        )
    return _REGISTRY[canonical]


def available_integrators() -> tuple[str, ...]:
    """Sorted canonical names of every registered integrator."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def integrator_aliases() -> dict[str, str]:
    """Every accepted spelling mapped to its canonical name."""
    _ensure_builtins()
    return dict(_ALIASES)
