"""Reduced-order model tier: answer scenario sweeps from a projected pencil.

The package projects the MNA descriptor system onto a block
rational-Krylov subspace once (:mod:`repro.rom.projector`), bakes a
picklable :class:`~repro.rom.model.ReducedModel`
(:func:`~repro.rom.model.build_reduced_model`), and answers each sweep
scenario with four real dense products plus a posterior
residual error bound — accepted answers skip the full-order march
entirely, rejected ones transparently fall back to it.  Wired through
``SimulationPlan.compile(rom=...)``, ``Session.sweep`` and
``repro sweep --rom``.
"""

from repro.rom.model import (
    ReducedModel,
    RomAnswer,
    RomConfig,
    build_reduced_model,
)
from repro.rom.projector import BasisInfo, RomBuildError, rational_krylov_basis

__all__ = [
    "BasisInfo",
    "ReducedModel",
    "RomAnswer",
    "RomBuildError",
    "RomConfig",
    "build_reduced_model",
    "rational_krylov_basis",
]
