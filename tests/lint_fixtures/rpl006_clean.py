"""Clean fixture: every factorisation goes through the one owner."""

import scipy.sparse.linalg as spla

from repro.linalg.lu import FACTORIZATION_CACHE, SparseLU


def factor(matrix):
    return SparseLU(matrix, label="A")


def cached(matrix):
    return FACTORIZATION_CACHE.factor(matrix, label="A")


def one_off(matrix, rhs):
    return spla.spsolve(matrix, rhs)
