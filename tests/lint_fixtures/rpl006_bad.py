"""Violating fixture: factoring behind SparseLU's back."""

import scipy.sparse.linalg as spla
from scipy.sparse.linalg import spilu


def factor(matrix):
    return spla.splu(matrix)  # expect: RPL006


def precondition(matrix):
    return spilu(matrix, drop_tol=1e-4)  # expect: RPL006
