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
    """Factor the deviation rows ``Ũ = U − U[:, :1] = diag(a)·S[shape_of]``.

    Rows are normalised to one at their largest sample (``pivot``) and
    grouped on the values rounded to nine digits — a dict keyed on the
    rounded row's bytes, shapes in ascending lexicographic order (the
    order the ROM's GEMMs have always summed them in); a row
    :func:`_shape_rows` then fails to reproduce gets a shape of its own,
    so on return *every* row passes.  Constant rows (``a = 0``) need no
    shape: any one times zero is exact, and a grid of constant rows has
    no shapes at all.
    """
    Ut = U - U[:, :1]
    p, n_points = Ut.shape
    peak = np.abs(Ut).argmax(axis=1)
    amp = Ut[np.arange(p), peak]
    live = amp.nonzero()[0]
    shape_of = np.zeros(p, dtype=np.intp)
    pivot = np.zeros(p, dtype=np.intp)
    if live.size == 0:
        return np.empty((0, n_points)), shape_of, pivot
    unit = Ut[live] / amp[live, None]
    keys = unit.round(9) + 0.0
    heads: dict[bytes, int] = {}
    head_of = [heads.setdefault(row.tobytes(), i) for i, row in enumerate(keys)]
    first = np.array(sorted(heads.values(), key=lambda i: keys[i].tolist()))
    rank = np.empty(live.size, dtype=np.intp)
    rank[first] = np.arange(first.size)
    shape_of[live] = rank[head_of]
    pivot[live] = peak[live[first]][shape_of[live]]
    _, shape_of, shapes = _shape_rows(U, Ut, unit[first], shape_of, pivot)
    own = shape_of >= first.size
    pivot[own] = peak[own]
    shapes[first.size:] /= amp[own, None]
    return shapes, shape_of, pivot
