"""Built-in integrator registrations.

Importing this module (which :func:`repro.engine.get_integrator` does
lazily on first lookup) populates the registry with every integrator in
the repository:

=============  =============================================  ==========
name           implementation                                 kind
=============  =============================================  ==========
``r-matex``    :class:`repro.core.solver.MatexSolver`         rational
``i-matex``    :class:`repro.core.solver.MatexSolver`         inverted
``mexp``       :class:`repro.core.solver.MatexSolver`         standard
``tr``         :class:`repro.baselines.TrapezoidalIntegrator` fixed-step
``be``         :class:`repro.baselines.BackwardEulerIntegrator` fixed-step
``fe``         :class:`repro.baselines.ForwardEulerIntegrator` fixed-step
``tr-adaptive`` :class:`repro.baselines.AdaptiveTrapezoidalIntegrator` adaptive
=============  =============================================  ==========

The MATEX entries are thin strategies over :class:`MatexSolver` with the
Krylov flavour pinned; everything else about the solver (the width-1
block march, the factorisation cache, sinks) is inherited.
"""

from __future__ import annotations

from typing import ClassVar

# Importing the baseline modules runs their @register_integrator
# decorators; keep these imports even though the names go unused here.
import repro.baselines.adaptive_tr    # noqa: F401
import repro.baselines.backward_euler  # noqa: F401
import repro.baselines.forward_euler   # noqa: F401
import repro.baselines.trapezoidal     # noqa: F401
from repro.circuit.mna import MNASystem
from repro.core.options import SolverOptions
from repro.core.solver import MatexSolver
from repro.engine.registry import Integrator, register_integrator

__all__ = ["RMatexIntegrator", "IMatexIntegrator", "MexpIntegrator"]


class _MatexIntegrator(MatexSolver, Integrator):
    """MATEX strategy with the Krylov flavour pinned by the registry name.

    Accepts either a full :class:`SolverOptions` (its ``method`` is
    overridden to this strategy's flavour) or the option fields as
    keyword arguments (``gamma=...``, ``eps_rel=...``).
    """

    krylov_method: ClassVar[str] = "rational"

    def __init__(
        self,
        system: MNASystem,
        options: SolverOptions | None = None,
        deviation_mode: bool = False,
        **option_fields,
    ):
        if options is None:
            options = SolverOptions(
                method=self.krylov_method, **option_fields
            )
        else:
            if option_fields:
                raise TypeError(
                    f"pass either a SolverOptions object or option fields "
                    f"({', '.join(sorted(option_fields))}), not both — the "
                    f"fields would be silently ignored"
                )
            options = options.with_method(self.krylov_method)
        super().__init__(system, options, deviation_mode=deviation_mode)


@register_integrator("r-matex", "rmatex", "rational")
class RMatexIntegrator(_MatexIntegrator):
    """R-MATEX: rational (shift-and-invert) Krylov, the paper's best."""

    krylov_method = "rational"


@register_integrator("i-matex", "imatex", "inverted")
class IMatexIntegrator(_MatexIntegrator):
    """I-MATEX: inverted Krylov on ``A⁻¹`` (factors ``G`` only)."""

    krylov_method = "inverted"


@register_integrator("mexp", "standard")
class MexpIntegrator(_MatexIntegrator):
    """MEXP: standard Krylov on ``A`` (needs invertible ``C``)."""

    krylov_method = "standard"
