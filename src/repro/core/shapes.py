"""Input shapes: many sources, few waveforms (paper Sec. 3.1, Fig. 3).

A PDN's thousands of load currents are a handful of bump shapes at
different amplitudes.  :func:`_input_shapes` factors the rows of an
input grid ``U`` (one row per input source, one column per grid point)
as ``U = U[:, :1] + diag(c)·S[shape_of]`` over ``r``
distinct unit shapes ``S``; :func:`_shape_rows` factors another grid
over shapes already found.  Both tiers price a scenario by its shapes,
not by its rows: the reduced-order model (:mod:`repro.rom.model`) runs
one modal input per shape, and the full-order march
(:mod:`repro.dist.block_runner`) solves ``G`` twice per shape instead of
three times per transition spot.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SHAPE_RTOL"]

#: A deviation row counts as ``c · shape`` when every sample matches to
#: this fraction of the row's own magnitude: the round-off of a
#: rescaled waveform, orders below the error either tier polices.
SHAPE_RTOL = 1e-13


def _shape_rows(U, Ut, shapes, shape_of, pivot):
    """Factor deviation inputs ``Ut = diag(c)·S[of]`` over known shapes.

    ``c[j]`` is row ``j`` read where its assigned shape equals one, and
    the product is *checked*: it must reproduce the row to
    :data:`SHAPE_RTOL` of the magnitude of ``U[j]`` (the scale its
    round-off lives on).  Rows that fail (waveform overrides, hand-built
    inputs) ride along as extra rows of ``S`` with coefficient one, so
    nothing is assumed about ``U``; the worst case is a shape per row.
    """
    c = Ut[np.arange(Ut.shape[0]), pivot]
    miss = shapes[shape_of]
    miss *= c[:, None]
    miss -= Ut
    np.abs(miss, out=miss)
    tol = SHAPE_RTOL * np.abs(U).max(axis=1, initial=0.0)
    extra = (~(miss.max(axis=1, initial=0.0) <= tol)).nonzero()[0]
    of = shape_of.copy()
    if extra.size:
        of[extra] = shapes.shape[0] + np.arange(extra.size)
        c[extra] = 1.0
        shapes = np.concatenate([shapes, Ut[extra]])
    return c, of, shapes


def _input_shapes(U: np.ndarray):
    """:func:`_block_shapes` of one block: ``(shapes, shape_of, pivot)``."""
    (out,) = _block_shapes(U, (0, U.shape[0]))
    return out


def _block_shapes(U: np.ndarray, bounds) -> list[tuple]:
    """Factor the deviation rows ``Ũ = U − U[:, :1] = diag(a)·S[shape_of]``
    of each block of rows ``U[bounds[k]:bounds[k + 1]]`` on its own, all
    blocks in one pass; one ``(shapes, shape_of, pivot)`` per block.

    Rows are normalised to one at their largest sample (``pivot``) and
    grouped on the values rounded to nine digits — a dict keyed on the
    block and the rounded row's bytes, each block's shapes in ascending
    lexicographic order (the order the ROM's GEMMs have always summed
    them in) and represented by their first row in the block; a row the
    check of :func:`_shape_rows` then fails to reproduce gets a shape of
    its own, so on return *every* row passes.  Constant rows (``a = 0``)
    need no shape: any one times zero is exact, and a block of constant
    rows has no shapes at all.  Every step is row-wise or per block, so
    a block's factors do not depend on the blocks beside it.
    """
    bounds = np.asarray(bounds, dtype=np.intp)
    Ut = U - U[:, :1]
    p = Ut.shape[0]
    block = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    peak = np.abs(Ut).argmax(axis=1)
    amp = Ut[np.arange(p), peak]
    live = amp.nonzero()[0]
    unit = Ut[live] / amp[live, None]
    keys = unit.round(9) + 0.0
    of_live = block[live].tolist()
    heads: dict[tuple, int] = {}
    head_of = np.array([
        heads.setdefault((k, row.tobytes()), i)
        for i, (k, row) in enumerate(zip(of_live, keys))
    ], dtype=np.intp)
    first = np.array(
        sorted(heads.values(), key=lambda i: (of_live[i], keys[i].tolist())),
        dtype=np.intp,
    )
    # Shapes per block, and each block's first shape in ``first``.
    n_shapes = np.bincount(block[live[first]], minlength=bounds.size - 1)
    start = np.concatenate([[0], np.cumsum(n_shapes)])
    rank = np.empty(live.size, dtype=np.intp)
    rank[first] = np.arange(first.size) - start[block[live[first]]]
    shape_of = np.zeros(p, dtype=np.intp)
    pivot = np.zeros(p, dtype=np.intp)
    shape_of[live] = rank[head_of]
    pivot[live] = peak[live[head_of]]
    # Every row is checked against its shape (a constant row: its
    # block's first) in one _shape_rows call over all blocks' shapes; a
    # block without shapes checks nothing.
    rows = np.flatnonzero(n_shapes[block] > 0)
    pick = slice(None) if rows.size == p else rows
    _, of, _ = _shape_rows(
        U[pick], Ut[pick], unit[first],
        start[block[pick]] + shape_of[pick], pivot[pick],
    )
    extra = rows[of >= first.size]
    shapes = [unit[first[a:b]] for a, b in zip(start[:-1].tolist(), start[1:].tolist())]
    # Rows that fail the check get shapes of their own, after their
    # block's shared ones.
    for k in np.unique(block[extra]).tolist():
        own = extra[block[extra] == k]
        shape_of[own] = shapes[k].shape[0] + np.arange(own.size)
        pivot[own] = peak[own]
        shapes[k] = np.concatenate([shapes[k], Ut[own] / amp[own, None]])
    edges = bounds.tolist()
    return [
        (shapes[k], shape_of[lo:hi], pivot[lo:hi])
        for k, (lo, hi) in enumerate(zip(edges, edges[1:]))
    ]
