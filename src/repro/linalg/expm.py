"""Dense matrix exponential for small matrices (Padé scaling-and-squaring).

MATEX only ever exponentiates the tiny (m×m, m ≈ 10…30) Hessenberg matrix
produced by the Arnoldi process (Alg. 1 line 14); the paper does this with
MATLAB's ``expm``.  We implement the classic Higham (2005) degree-13 Padé
scaling-and-squaring algorithm from scratch so the simulator does not rely
on SciPy for its inner kernel, and validate it against ``scipy.linalg.expm``
in the test suite.

There is one implementation, and its primary form is the **stack**:
:func:`expm` takes a ``(B, m, m)`` array and exponentiates every slice —
what the lockstep Arnoldi build needs, one posterior estimate per column
per iteration.  A single ``(m, m)`` matrix is a stack of one through the
very same statements, so slice ``k`` of a stacked call equals the single
call of that matrix *by construction*: the operands are normalised to C
order at entry, the products are numpy's stacked ``matmul`` (one ``dgemm``
per slice, blind to its neighbours) and every linear solve goes through
one LAPACK binding, SciPy's raw ``getrf``/``getrs``
(:data:`GETRF`/:data:`GETRS`, shared with
:class:`repro.linalg.krylov.HessenbergFactors`).  The binding is part of
the contract: ``numpy.linalg.solve`` wraps its own LAPACK build and
disagrees with SciPy's in the last bits on some inputs, so mixing the two
would make a result depend on which call shape produced it.

:func:`expm_e1` is the ``exp(H) @ e1`` column every Krylov evaluation
needs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = ["expm", "expm_e1"]

#: Read-only identities of the m ≈ 3…30 blocks, one per size: ``np.eye``
#: per call was a visible slice of every small exponential and estimate.
_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(m: int) -> np.ndarray:
    """Cached identity — callers must not mutate the returned array
    (its last row doubles as the unit vector ``e_m``)."""
    ident = _EYE_CACHE.get(m)
    if ident is None:
        ident = np.eye(m)
        ident.setflags(write=False)
        _EYE_CACHE[m] = ident
    return ident


#: The one LAPACK binding of the small dense kernels (no input validation:
#: at m ≈ 10 SciPy's ``lu_factor``/``lu_solve`` wrappers cost several
#: times the LAPACK work).
GETRF, GETRS = get_lapack_funcs(("getrf", "getrs"), (np.zeros((2, 2)),))

# Padé coefficients for the degree-13 diagonal approximant (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)

# theta_13: the 1-norm bound under which the [13/13] approximant meets
# double-precision accuracy without scaling.
_THETA13 = 5.371920351148152


def _pade13(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator/denominator split (U, V) of the [13/13] Padé, per slice."""
    ident = _eye(a.shape[-1])
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    return u, v


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small dense square matrix, or of each
    slice of a ``(B, m, m)`` stack.

    Scaling-and-squaring with the [13/13] Padé approximant.  Intended for
    the m×m Hessenberg matrices of the Krylov methods; for large sparse
    operators use the Krylov machinery in :mod:`repro.linalg.krylov`
    instead.

    Raises
    ------
    ValueError
        On a non-square input, or if any slice has non-finite entries.
    numpy.linalg.LinAlgError
        If any slice's Padé denominator is singular.
    """
    a = np.asarray(a, dtype=float, order="C")
    if a.ndim == 2:
        return expm(a[None])[0]
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(
            f"expm expects a square matrix or a stack of them, got shape {a.shape}"
        )
    n_slices, m, _ = a.shape
    if m == 0 or n_slices == 0:
        return np.zeros(a.shape)
    if m == 1:
        return np.exp(a)

    norms = np.abs(a).sum(axis=1).max(axis=1)
    top = float(norms.max())
    if not math.isfinite(top):
        raise ValueError("expm: matrix contains non-finite entries")

    # Per-slice scaling power: each slice is scaled and squared exactly
    # as often as its own 1-norm demands, whatever its neighbours need.
    s = None
    if top > _THETA13:
        s = np.ceil(np.log2(np.maximum(norms / _THETA13, 1.0)))
        a = a / (2.0 ** s)[:, None, None]

    u, v = _pade13(a)
    # Solve (V - U) X = (V + U) for the Padé value, slice by slice.
    lhs = v - u
    rhs = v + u
    r = np.empty_like(a)
    for k in range(n_slices):
        lu, piv, info = GETRF(lhs[k])
        if info != 0:
            raise np.linalg.LinAlgError("singular Padé denominator")
        # getrs returns Fortran order; storing into the C-ordered stack
        # fixes the operand layout the squaring dgemm sees.
        r[k] = GETRS(lu, piv, rhs[k])[0]
    if s is None:
        return r
    # The squaring phase can overflow legitimately when the matrix has
    # large positive eigenvalues (spurious Ritz values on RLC systems);
    # callers treat a non-finite result as "not converged", so overflow
    # is allowed to produce inf silently rather than spam warnings.
    powers = s.tolist()
    fewest, most = int(min(powers)), int(max(powers))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(fewest):
            r = r @ r
        for step in range(fewest, most):
            todo = s > step
            r[todo] = r[todo] @ r[todo]
    return r


def expm_e1(a: np.ndarray) -> np.ndarray:
    """First column of ``exp(a)``, i.e. ``exp(a) @ e1``.

    This is the quantity every Krylov step needs (paper Alg. 1 line 14:
    ``x = ‖v‖ Vm exp(h Hm) e1``).  For the tiny matrices involved, forming
    the full exponential is cheap and numerically safest.
    """
    return expm(a)[:, 0].copy()
