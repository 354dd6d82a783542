"""Traditional integrators MATEX is compared against.

Fixed-step trapezoidal and backward Euler, adaptive trapezoidal, and the
accuracy references; the ``simulate_*`` functions are thin conveniences
over the classes.
"""

from repro.baselines.adaptive_tr import (
    AdaptiveTrapezoidalIntegrator,
    simulate_adaptive_trapezoidal,
)
from repro.baselines.backward_euler import (
    BackwardEulerIntegrator,
    simulate_backward_euler,
)
from repro.baselines.fixed_step import (
    FixedStepImplicitIntegrator,
    dc_operating_point,
)
from repro.baselines.reference import reference_backward_euler, reference_exact
from repro.baselines.trapezoidal import (
    TrapezoidalIntegrator,
    simulate_trapezoidal,
)

__all__ = [
    "AdaptiveTrapezoidalIntegrator",
    "BackwardEulerIntegrator",
    "FixedStepImplicitIntegrator",
    "TrapezoidalIntegrator",
    "dc_operating_point",
    "reference_backward_euler",
    "reference_exact",
    "simulate_adaptive_trapezoidal",
    "simulate_backward_euler",
    "simulate_trapezoidal",
]
