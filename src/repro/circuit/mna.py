"""Modified nodal analysis (MNA) assembly.

Builds the sparse descriptor system of paper Eq. (1)::

    C x'(t) = -G x(t) + B u(t)

from the element columns of a :class:`~repro.circuit.netlist.Netlist`:

* ``G`` — conductance matrix (resistors, source/inductor incidence),
* ``C`` — capacitance/inductance matrix (possibly *singular*: nodes without
  capacitors and voltage-source branch rows carry no dynamics; MATEX is
  explicitly regularization-free in this case, paper Sec. 3.3.3),
* ``B`` — input selector mapping the stacked input vector
  ``u(t) = [i_loads..., v_supplies...]`` onto MNA rows.

:func:`assemble` is the one stamp: generated netlists and decks read
by :mod:`repro.circuit.ingest` are the same :class:`Netlist`, so a deck
written in element insertion order yields byte-identical matrices.

The input vector ordering is **current sources first** (insertion order),
then voltage sources; :class:`MNASystem` carries the index maps, the
node names and the waveform evaluators used by all integrators, never
the :class:`Netlist`, which stays with whoever built it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.circuit.netlist import (
    GROUND_NAMES, KIND_C, KIND_I, KIND_L, KIND_R, KIND_V, Columns, Netlist, NetlistError,
)
from repro.circuit.parser import quote
from repro.circuit.waveforms import Waveform, merge_transition_spots, sample_waveforms

__all__ = ["MNASystem", "assemble", "scale_arrays"]

#: Input kinds of :meth:`MNASystem._input_table` (0: any other waveform).
_PULSE, _DC = 1, 2

#: Stamp pattern of a two-terminal branch row: KCL coupling of the branch
#: current into its terminals, then the branch equation v(pos) - v(neg).
_INCIDENCE = (1.0, -1.0, 1.0, -1.0)


@dataclass
class MNASystem:
    """Assembled descriptor system ``C x' = -G x + B u(t)``.

    Attributes
    ----------
    C, G:
        Square sparse matrices of dimension :attr:`dim`.
    B:
        ``dim × n_inputs`` sparse selector.
    waveforms:
        One :class:`~repro.circuit.waveforms.Waveform` per input column,
        currents first then voltage supplies.
    n_current_inputs:
        Number of leading columns of ``B`` that are load currents.
    nodes, title, counts:
        Non-ground node names in row order, the circuit's name and its
        elements per :data:`~repro.circuit.netlist.KINDS` key.
    """

    C: sp.csc_matrix
    G: sp.csc_matrix
    B: sp.csc_matrix
    waveforms: tuple[Waveform, ...]
    n_current_inputs: int
    nodes: tuple[str, ...]
    title: str
    counts: dict[str, int]

    def __getstate__(self) -> dict:
        """Pickle without the lazy caches; they rebuild on first use."""
        lazy = ("_input_table", "_rows")
        return {k: v for k, v in self.__dict__.items() if k not in lazy}

    # -- basic geometry ---------------------------------------------------------

    @property
    def dim(self) -> int:
        """MNA system dimension."""
        return self.G.shape[0]

    @property
    def n_inputs(self) -> int:
        """Number of input sources (columns of ``B``)."""
        return self.B.shape[1]

    @property
    def current_input_indices(self) -> range:
        """Columns of ``B`` that correspond to load-current sources."""
        return range(self.n_current_inputs)

    def rebind_sources(
        self,
        overrides: dict[int, Waveform] | None = None,
        scales=None,
    ) -> "MNASystem":
        """Swap ``B·u(t)`` without re-stamping ``G`` or ``C``.

        The matrices — and therefore every factorisation keyed on them
        in the process-wide cache — are shared with ``self``; only the
        waveform tuple changes.  This is the binding step of the
        plan/compile/execute layering (:mod:`repro.plan`): one compiled
        topology serves many "same system, different sources" scenarios.
        The split-bump decomposition binds its overrides the same way:
        one node simulates a *masked* version of a source (a single bump
        of a periodic pulse, paper Fig. 3).

        Parameters
        ----------
        overrides:
            ``{column: waveform}`` replacements, applied first.
        scales:
            Value scalings in either form :func:`scale_arrays` reads
            (``{column: factor}``, or ``(columns, factors)`` arrays),
            applied to the (possibly overridden) waveform via
            :meth:`Waveform.scaled`.  Scaling never moves transition
            spots.
        """
        new_waveforms = list(self.waveforms)
        n_inputs = self.n_inputs
        for col, w in (overrides or {}).items():
            if not 0 <= col < n_inputs:
                raise IndexError(f"input column {col} out of range")
            new_waveforms[col] = w
        cols, factors = scale_arrays(scales)
        if cols.size and not (cols[0] >= 0 and cols[-1] < n_inputs):
            bad = cols[0] if cols[0] < 0 else cols[-1]
            raise IndexError(f"input column {bad} out of range")
        for col, factor in zip(cols.tolist(), factors.tolist()):
            new_waveforms[col] = new_waveforms[col].scaled(factor)
        return replace(self, waveforms=tuple(new_waveforms))

    def is_c_singular(self) -> bool:
        """Cheap structural singularity check for ``C`` (empty rows)."""
        csr = self.C.tocsr()
        row_nnz = np.diff(csr.indptr)
        return bool(np.any(row_nnz == 0))

    # -- input evaluation ---------------------------------------------------------

    @cached_property
    def _input_table(self) -> dict:
        """Lazy parameter table of the pulse and DC inputs.

        The one evaluator beside the waveforms' own ``values_array``
        (:mod:`repro.circuit.waveforms`), kept for the one-time-point
        callers of :meth:`input_vector`: the DC operating point and the
        baselines' steps.  On pg1t (800 pulses, 4 DC supplies; a 2-core
        Xeon VM, one BLAS thread, quiet sitting) one :meth:`input_vector`
        call takes 41 µs and ``sample_waveforms(waveforms, [t])`` 1.5 ms,
        and adaptive TR (Table 2) makes 3871 such calls in a pg1t run.
        The pulse formula here and interp's differ in the last bits (at
        1659 of 2001 times on pg1t) and are not made to agree: mirroring
        interp's arithmetic would still read other bits wherever C
        contracts to FMA.  A DC column's value is its level either way.

        ``kind[k]`` is column ``k``'s kind (:data:`_PULSE`, :data:`_DC`
        or 0 for any other waveform, which reads its ``value``);
        ``row[k]`` its row of the pulse parameters; ``level[k]`` a DC
        column's level.  ``cols``, ``dc`` and ``others`` list the
        columns of each kind.
        """
        from repro.circuit.waveforms import DC, Pulse

        kind = np.zeros(self.n_inputs, dtype=np.int8)
        level = np.zeros(self.n_inputs)
        for k, w in enumerate(self.waveforms):
            if isinstance(w, Pulse):
                kind[k] = _PULSE
            elif isinstance(w, DC):
                kind[k] = _DC
                level[k] = w.level
        pulse_cols = np.flatnonzero(kind == _PULSE)
        ws = [self.waveforms[k] for k in pulse_cols]
        row = np.full(self.n_inputs, -1, dtype=np.intp)
        row[pulse_cols] = np.arange(len(pulse_cols))
        return {
            "kind": kind,
            "row": row,
            "level": level,
            "cols": pulse_cols,
            "dc": np.flatnonzero(kind == _DC),
            "others": np.flatnonzero(kind == 0).tolist(),
            "v1": np.array([w.v1 for w in ws]),
            "v2": np.array([w.v2 for w in ws]),
            "delay": np.array([w.t_delay for w in ws]),
            "rise": np.array([w.t_rise for w in ws]),
            "rw": np.array([w.t_rise + w.t_width for w in ws]),
            "rwf": np.array([w.t_rise + w.t_width + w.t_fall for w in ws]),
            "period": np.array(
                [w.t_period if w.t_period is not None else np.nan for w in ws]
            ),
        }

    @staticmethod
    def _pulse_values(t: float, params: dict, rows=slice(None)) -> np.ndarray:
        """The table's pulses (or its ``rows``) at time ``t``."""
        tau = t - params["delay"][rows]
        period = params["period"][rows]
        periodic = ~np.isnan(period) & (tau >= 0.0)
        tau = np.where(periodic, np.mod(tau, np.where(periodic, period, 1.0)), tau)
        v1, v2 = params["v1"][rows], params["v2"][rows]
        rise, rw, rwf = params["rise"][rows], params["rw"][rows], params["rwf"][rows]
        out = np.where(
            tau <= 0.0, v1,
            np.where(
                tau < rise, v1 + (v2 - v1) * tau / rise,
                np.where(
                    tau < rw, v2,
                    np.where(
                        tau < rwf, v2 + (v1 - v2) * (tau - rw) / (rwf - rw),
                        v1,
                    ),
                ),
            ),
        )
        return out

    def input_vector(
        self, t: float, active: Sequence[int] | None = None
    ) -> np.ndarray:
        """Evaluate ``u(t)``; inactive sources contribute zero.

        Parameters
        ----------
        t:
            Evaluation time.
        active:
            Optional iterable of input-column indices to evaluate; used by
            the distributed decomposition where each node only sees its own
            source group (paper Sec. 3.1).

        Notes
        -----
        Pulse and DC columns read the :meth:`_input_table` (a subset
        reads its own rows of it, so ``input_vector(t, active)[active]``
        equals ``input_vector(t)[active]`` bit for bit); other columns
        read their waveform's ``value``.  A whole time grid is
        :meth:`bu_series`'s job.
        """
        u = np.zeros(self.n_inputs)
        table = self._input_table
        if active is None:
            u[table["cols"]] = self._pulse_values(float(t), table)
            dc = table["dc"]
            others = table["others"]
        else:
            cols = np.fromiter(active, dtype=np.intp)
            kind = table["kind"][cols]
            pulse = cols[kind == _PULSE]
            u[pulse] = self._pulse_values(float(t), table, table["row"][pulse])
            dc = cols[kind == _DC]
            others = cols[kind == 0].tolist()
        u[dc] = table["level"][dc]
        for k in others:
            u[k] = self.waveforms[k].value(t)
        return u

    def bu(self, t: float, active: Sequence[int] | None = None) -> np.ndarray:
        """Convenience: ``B @ u(t)`` as a dense vector."""
        return np.asarray(self.B @ self.input_vector(t, active)).ravel()

    def b_slope_fd(
        self, t0: float, t1: float, active: Sequence[int] | None = None
    ) -> np.ndarray:
        """Segment slope ``B(u(t1)−u(t0))/(t1−t0)`` by finite difference.

        ``[t0, t1]`` must lie inside one PWL segment of every active
        input, which holds by construction when both ends are consecutive
        global transition spots.  The solvers' slope form: exact for
        linear segments regardless of floating-point noise at the
        endpoints, and it needs input values only.
        """
        if t1 <= t0:
            raise ValueError(f"need t1 > t0, got [{t0!r}, {t1!r}]")
        du = self.input_vector(t1, active) - self.input_vector(t0, active)
        return np.asarray(self.B @ (du / (t1 - t0))).ravel()

    def bu_series(
        self, times: np.ndarray, active: Sequence[int] | None = None
    ) -> np.ndarray:
        """``B @ u(t)`` for a whole time grid at once, shape ``(dim, k)``.

        Used by the fixed-step baselines, which would otherwise evaluate
        thousands of waveforms per step in Python loops.  The input
        columns are sampled over the whole grid in one
        :func:`~repro.circuit.waveforms.sample_waveforms` pass and each
        row is scattered through its ``B`` column directly — the same
        per-element accumulation order a CSC mat-mat product performs,
        without materialising the ``B[:, cols]`` slice (sparse fancy
        indexing costs more than the product for small column sets).
        """
        times = np.asarray(times, dtype=float)
        out = np.zeros((self.dim, times.shape[0]))
        indptr, indices, data = self.B.indptr, self.B.indices, self.B.data
        cols = [
            col for col in (range(self.n_inputs) if active is None else active)
            if indptr[col] < indptr[col + 1]
        ]
        U = sample_waveforms([self.waveforms[col] for col in cols], times)
        for col, u_row in zip(cols, U):
            lo, hi = indptr[col], indptr[col + 1]
            out[indices[lo:hi]] += data[lo:hi, None] * u_row[None, :]
        return out

    # -- transition spots -----------------------------------------------------------

    def local_transition_spots(self, k: int, t_end: float) -> list[float]:
        """LTS of input column ``k`` (paper Sec. 3.1 definition).

        No cache here: a pulse memoises its spots and shares the memo
        with its scaled copies (:mod:`repro.circuit.waveforms`), so the
        plan's schedules and scenario validation read one memo a source.
        """
        return self.waveforms[k].transition_spots(t_end)

    def global_transition_spots(
        self, t_end: float, active: Sequence[int] | None = None
    ) -> list[float]:
        """GTS: union of LTS over (a subset of) the inputs.

        ``t_end`` is appended so the solver always has a final marching
        target even if all sources go quiet earlier.
        """
        cols = range(self.n_inputs) if active is None else active
        spots = merge_transition_spots(
            [self.waveforms[k].transition_spots(t_end) for k in cols]
        )
        spots = [t for t in spots if t <= t_end]
        if not spots or spots[-1] < t_end:
            spots.append(t_end)
        return spots

    # -- node names and reporting -----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes: the leading rows of the state."""
        return len(self.nodes)

    def node_names(self) -> tuple[str, ...]:
        """Non-ground node names in row order."""
        return self.nodes

    @cached_property
    def _rows(self) -> dict[str, int]:
        """Node name to row; every ground spelling is row ``-1``."""
        rows = dict.fromkeys(GROUND_NAMES, -1)
        rows.update(zip(self.nodes, range(len(self.nodes))))
        return rows

    def node_index(self, node: str) -> int:
        """Matrix row of a node voltage; ``-1`` for ground."""
        row = self._rows.get(node)
        if row is None:
            raise NetlistError(f"unknown node {node!r}")
        return row

    def node_voltage(self, x: np.ndarray, node: str) -> float:
        """Extract one node voltage from a solution vector."""
        idx = self.node_index(node)
        if idx < 0:
            return 0.0
        return float(x[idx])

    def summary(self) -> str:
        """One-line human-readable size summary."""
        c = self.counts
        return (f"{self.title}: {self.n_nodes} nodes, {c['r']} R, {c['c']} C, "
                f"{c['l']} L, {c['v']} V, {c['i']} I (dim {self.dim})")


def _triplets(rows, cols, vals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-element stamps, element-major; ground entries (-1) dropped in order.

    Stamp ``k`` of every element is ``(rows[k], cols[k], vals[k])``; the
    result lists element 0's stamps, then element 1's, and so on.
    """
    n = len(rows[0])
    r = np.stack(rows, axis=1).ravel()
    c = np.stack(cols, axis=1).ravel()
    v = np.stack([np.broadcast_to(x, (n,)) for x in vals], axis=1).ravel()
    keep = (r >= 0) & (c >= 0)
    return r[keep], c[keep], v[keep]


def _csc(blocks, shape: tuple[int, int]) -> sp.csc_matrix:
    """Concatenate triplet blocks (in stamp order) into one CSC matrix.

    The concatenation order fixes the duplicate-summation order inside
    ``tocsc``, and with it the bits of every summed entry.
    """
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    return sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=float).tocsc()


def scale_arrays(scales) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude scalings as ``(columns, factors)`` arrays.

    ``scales`` is ``None``, a ``{column: factor}`` mapping (or its
    pairs), or a ``(columns, factors)`` pair of numpy arrays.  The
    result has strictly increasing ``intp`` columns and their
    ``float64`` factors; a repeated column keeps its last factor.
    Arrays whose columns already increase are held, not copied, so
    scenarios built over one column array share it.
    """
    if scales is None:
        cols, factors = np.empty(0, dtype=np.intp), np.empty(0)
    elif (isinstance(scales, tuple) and len(scales) == 2
          and all(isinstance(a, np.ndarray) for a in scales)):
        cols = np.asarray(scales[0], dtype=np.intp).reshape(-1)
        factors = np.asarray(scales[1], dtype=float).reshape(-1)
        if cols.shape != factors.shape:
            raise ValueError(
                f"{cols.size} scale columns but {factors.size} factors"
            )
    else:
        pairs = dict(scales)
        cols = np.array([int(c) for c in pairs], dtype=np.intp)
        factors = np.array([float(f) for f in pairs.values()], dtype=float)
    if cols.size > 1 and not np.all(cols[1:] > cols[:-1]):
        # np.unique keeps a value's first index: search the reversal.
        cols, last = np.unique(cols[::-1], return_index=True)
        factors = factors[::-1][last]
    return cols, factors


def _check_dc_paths(netlist: Netlist, cols: Columns) -> None:
    """Check structural well-formedness; raise :class:`NetlistError`.

    Detects empty circuits and nodes with no DC path to ground through
    resistive/source elements (which make ``G`` singular and break the
    regularization-free formulation of paper Sec. 3.3.3): one
    ``connected_components`` over the R/L/V edges, ground as an extra
    vertex.  Floating nodes are named in row order.
    """
    if cols.kinds.size == 0:
        raise NetlistError("empty netlist")
    n = netlist.n_nodes
    if n == 0:
        raise NetlistError("netlist has no non-ground nodes")
    # Imported here: csgraph costs ~60 ms and ~1 MiB RSS at import, and
    # every process that imports repro.circuit would pay it.
    from scipy.sparse.csgraph import connected_components

    dc = (cols.kinds != KIND_C) & (cols.kinds != KIND_I)
    a = np.where(cols.pos[dc] < 0, n, cols.pos[dc])
    b = np.where(cols.neg[dc] < 0, n, cols.neg[dc])
    graph = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(n + 1, n + 1))
    _, labels = connected_components(graph, directed=False)
    floating = np.flatnonzero(labels[:n] != labels[n])
    if floating.size:
        names = netlist.node_names()
        examples = ", ".join(quote(names[k]) for k in floating[:5])
        raise NetlistError(
            f"{floating.size} node(s) have no DC path to ground, "
            f"e.g. [{examples}]; G would be singular"
        )


def assemble(netlist: Netlist, validate: bool = True) -> MNASystem:
    """The one MNA stamp: a netlist's columns into its :class:`MNASystem`.

    The system records the netlist's node names, title and element
    counts, not the netlist; the input columns are its current sources,
    then its voltage sources.  With ``validate``, empty circuits and
    nodes without a DC path to ground raise :class:`NetlistError`
    first, so a singular ``G`` is a netlist problem, not an LU failure.
    Each kind expands into its per-element stamp pattern (ground entries
    dropped, order kept) and the blocks concatenate resistors, voltage
    sources, inductors for ``G``; capacitors, inductors for ``C``;
    current then voltage sources for ``B``.
    """
    cols = netlist.columns()
    if validate:
        _check_dc_paths(netlist, cols)
    counts = netlist.counts
    n, n_vsrc, n_ind, n_cur = netlist.n_nodes, counts["v"], counts["l"], counts["i"]

    def columns(kind: int):
        sel = cols.kinds == kind
        return cols.pos[sel], cols.neg[sel], cols.values[sel]

    i, j, res = columns(KIND_R)
    cond = 1.0 / res
    g_res = _triplets((i, j, i, j), (i, j, j, i), (cond, cond, -cond, -cond))
    i, j, cap = columns(KIND_C)
    c_cap = _triplets((i, j, i, j), (i, j, j, i), (cap, cap, -cap, -cap))
    # Voltage sources: branch rows after the node block, v(pos) - v(neg) = u.
    i, j, _ = columns(KIND_V)
    row = n + np.arange(n_vsrc, dtype=np.int64)
    g_vsrc = _triplets((i, j, row, row), (row, row, i, j), _INCIDENCE)
    b_vsrc = _triplets((row,), (n_cur + np.arange(n_vsrc, dtype=np.int64),), (1.0,))
    # Inductors: branch rows after the voltage sources,
    # v(pos) - v(neg) - L di/dt = 0.
    i, j, ind = columns(KIND_L)
    row = n + n_vsrc + np.arange(n_ind, dtype=np.int64)
    g_ind = _triplets((i, j, row, row), (row, row, i, j), _INCIDENCE)
    c_ind = _triplets((row,), (row,), (-ind,))
    # Current sources: columns [0, n_cur).  SPICE convention: a positive
    # source value draws current out of `pos` and injects it into `neg`,
    # so the RHS contribution is -u at pos and +u at neg.
    i, j, _ = columns(KIND_I)
    col = np.arange(n_cur, dtype=np.int64)
    b_cur = _triplets((i, j), (col, col), (-1.0, 1.0))

    dim = n + n_vsrc + n_ind
    return MNASystem(
        C=_csc([c_cap, c_ind], (dim, dim)),
        G=_csc([g_res, g_vsrc, g_ind], (dim, dim)),
        B=_csc([b_cur, b_vsrc], (dim, n_cur + n_vsrc)),
        waveforms=tuple(netlist.current_waveforms + netlist.voltage_waveforms),
        n_current_inputs=n_cur,
        nodes=netlist.node_names(),
        title=netlist.title,
        counts=counts,
    )
