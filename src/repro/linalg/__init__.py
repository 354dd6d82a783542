"""Linear-algebra substrate: LU, dense expm, Arnoldi, Krylov expm operators."""

from repro.linalg.arnoldi import ArnoldiBreakdown
from repro.linalg.dense_reference import dense_a_matrix, etd_exact_step, exact_transient
from repro.linalg.expm import expm, expm_e1
from repro.linalg.krylov import (
    METHOD_NAMES,
    InvertedKrylov,
    KrylovBasis,
    KrylovExpmOperator,
    RationalKrylov,
    RegularizationRequiredError,
    StandardKrylov,
    make_krylov_operator,
)
from repro.linalg.lu import FactorizationError, SparseLU
from repro.linalg.triangular import TriangularFactors

__all__ = [
    "ArnoldiBreakdown",
    "FactorizationError",
    "InvertedKrylov",
    "KrylovBasis",
    "KrylovExpmOperator",
    "METHOD_NAMES",
    "RationalKrylov",
    "RegularizationRequiredError",
    "SparseLU",
    "StandardKrylov",
    "TriangularFactors",
    "dense_a_matrix",
    "etd_exact_step",
    "exact_transient",
    "expm",
    "expm_e1",
    "make_krylov_operator",
]
