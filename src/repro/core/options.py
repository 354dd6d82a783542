"""Solver configuration.

One dataclass shared by the single-node circuit solver (Alg. 2) and the
distributed framework, mirroring the paper's experimental knobs:

* Krylov flavour (``standard`` = MEXP / ``inverted`` = I-MATEX /
  ``rational`` = R-MATEX),
* the rational shift γ ("set to sit among the order of varied time steps
  during the simulation", Sec. 4.3 uses 1e-10 for 10ps-scale stepping),
* the Arnoldi error budget ε of Alg. 1,
* basis-size limits.

It also holds the one validator of each lockstep policy (``batch``,
``stack``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.linalg.krylov import METHOD_NAMES

__all__ = [
    "BATCH_KEYWORDS", "STACK_KEYWORDS", "SolverOptions", "check_batch", "check_stack",
]

#: Keyword spellings of the lockstep width and of the scenarios per
#: sweep submission; any other policy is a positive integer.
BATCH_KEYWORDS = ("off", "auto")
STACK_KEYWORDS = ("auto",)


@dataclass(frozen=True)
class SolverOptions:
    """Options for :class:`repro.core.solver.MatexSolver`.

    Attributes
    ----------
    method:
        Krylov flavour; accepts paper aliases (``mexp``, ``imatex``,
        ``rmatex``) — canonicalised on construction.
    gamma:
        Shift of the rational Krylov subspace, in seconds.  Should be of
        the order of the time steps taken (paper Sec. 3.3.2); the γ
        ablation benchmark quantifies the claimed insensitivity.
    eps_rel:
        Relative part of the Arnoldi error budget: the convergence test of
        Alg. 1 uses ``ε = eps_rel · ‖v‖ + eps_abs``.
    eps_abs:
        Absolute floor of the error budget (guards near-zero states).
    m_max:
        Hard cap on the Krylov dimension.  MEXP on stiff circuits runs
        into this cap; I-/R-MATEX stay around 10 (paper Table 1).
    m_min:
        Iterations before the first posterior-error check.
    """

    method: str = "rational"
    gamma: float = 1e-10
    eps_rel: float = 1e-7
    eps_abs: float = 1e-12
    m_max: int = 300
    m_min: int = 2

    def __post_init__(self):
        canonical = METHOD_NAMES.get(self.method.lower())
        if canonical is None:
            raise ValueError(
                f"unknown method {self.method!r}; "
                f"choose from {sorted(set(METHOD_NAMES))}"
            )
        object.__setattr__(self, "method", canonical)
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.eps_rel < 0.0 or self.eps_abs < 0.0:
            raise ValueError("error budgets must be non-negative")
        if self.m_max < 1 or self.m_min < 1:
            raise ValueError("basis-size limits must be at least 1")

def _check_policy(value, keywords: tuple[str, ...], name: str, noun: str):
    """Return ``value`` if it is one of ``keywords`` or a positive int."""
    if isinstance(value, str) and value in keywords:
        return value
    rule = f"{name} must be {', '.join(map(repr, keywords))} or a positive width"
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{rule}, got {value!r}")
    if value < 1:
        raise ValueError(f"{rule}; a {noun} must be >= 1, got {value}")
    return value


def check_batch(batch, name: str = "batch"):
    """Validate a lockstep policy: ``"off"``, ``"auto"`` or a width >= 1
    (``name`` is the parameter the message names)."""
    return _check_policy(batch, BATCH_KEYWORDS, name, "batch width")


def check_stack(stack):
    """Validate a stacking policy: ``"auto"`` or scenarios >= 1."""
    return _check_policy(stack, STACK_KEYWORDS, "stack", "stack size")
