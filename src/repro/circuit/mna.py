"""Modified nodal analysis (MNA) assembly.

Builds the sparse descriptor system of paper Eq. (1)::

    C x'(t) = -G x(t) + B u(t)

from a :class:`repro.circuit.netlist.Netlist`:

* ``G`` — conductance matrix (resistors, source/inductor incidence),
* ``C`` — capacitance/inductance matrix (possibly *singular*: nodes without
  capacitors and voltage-source branch rows carry no dynamics; MATEX is
  explicitly regularization-free in this case, paper Sec. 3.3.3),
* ``B`` — input selector mapping the stacked input vector
  ``u(t) = [i_loads..., v_supplies...]`` onto MNA rows.

The input vector ordering is **current sources first** (insertion order),
then voltage sources; :class:`MNASystem` carries the index maps and the
waveform evaluators used by all integrators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.circuit.netlist import Netlist
from repro.circuit.waveforms import Waveform, merge_transition_spots

__all__ = ["MNASystem", "assemble"]


class _Stamper:
    """Accumulates COO triplets for one sparse matrix."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def add(self, i: int, j: int, v: float) -> None:
        """Stamp ``v`` at ``(i, j)``; silently skips ground rows (-1)."""
        if i < 0 or j < 0:
            return
        self.rows.append(i)
        self.cols.append(j)
        self.vals.append(v)

    def build(self, n_cols: int | None = None) -> sp.csc_matrix:
        shape = (self.dim, n_cols if n_cols is not None else self.dim)
        m = sp.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=shape, dtype=float
        )
        return m.tocsc()


@dataclass
class MNASystem:
    """Assembled descriptor system ``C x' = -G x + B u(t)``.

    Attributes
    ----------
    netlist:
        The source circuit (kept for node names and reporting).
    C, G:
        Square sparse matrices of dimension :attr:`dim`.
    B:
        ``dim × n_inputs`` sparse selector.
    waveforms:
        One :class:`~repro.circuit.waveforms.Waveform` per input column,
        currents first then voltage supplies.
    n_current_inputs:
        Number of leading columns of ``B`` that are load currents.
    """

    netlist: Netlist
    C: sp.csc_matrix
    G: sp.csc_matrix
    B: sp.csc_matrix
    waveforms: tuple[Waveform, ...]
    n_current_inputs: int

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

    @property
    def voltage_input_indices(self) -> range:
        """Columns of ``B`` that correspond to supply-voltage sources."""
        return range(self.n_current_inputs, self.n_inputs)

    def with_waveforms(self, overrides: dict[int, Waveform]) -> "MNASystem":
        """A shallow derivative system with some input waveforms replaced.

        Matrices (and therefore factorisations held elsewhere) are
        shared; only the waveform tuple changes.  Used by the split-bump
        decomposition, where one node simulates a *masked* version of a
        source (a single bump of a periodic pulse, paper Fig. 3).
        """
        new_waveforms = list(self.waveforms)
        for col, w in overrides.items():
            if not 0 <= col < self.n_inputs:
                raise IndexError(f"input column {col} out of range")
            new_waveforms[col] = w
        return MNASystem(
            netlist=self.netlist,
            C=self.C, G=self.G, B=self.B,
            waveforms=tuple(new_waveforms),
            n_current_inputs=self.n_current_inputs,
        )

    def rebind_sources(
        self,
        overrides: dict[int, Waveform] | None = None,
        scales: dict[int, float] | None = None,
    ) -> "MNASystem":
        """Swap ``B·u(t)`` without re-stamping ``G`` or ``C``.

        The matrices — and therefore every factorisation keyed on them
        in the process-wide cache — are shared with ``self``; only the
        waveform tuple changes.  This is the binding step of the
        plan/compile/execute layering (:mod:`repro.plan`): one compiled
        topology serves many "same system, different sources" scenarios.

        Parameters
        ----------
        overrides:
            ``{column: waveform}`` replacements, applied first.
        scales:
            ``{column: factor}`` value scalings, applied to the (possibly
            overridden) waveform via :meth:`Waveform.scaled`.  Scaling
            never moves transition spots.
        """
        new_waveforms = list(self.waveforms)
        for col, w in (overrides or {}).items():
            if not 0 <= col < self.n_inputs:
                raise IndexError(f"input column {col} out of range")
            new_waveforms[col] = w
        for col, factor in (scales or {}).items():
            if not 0 <= col < self.n_inputs:
                raise IndexError(f"input column {col} out of range")
            new_waveforms[col] = new_waveforms[col].scaled(factor)
        return MNASystem(
            netlist=self.netlist,
            C=self.C, G=self.G, B=self.B,
            waveforms=tuple(new_waveforms),
            n_current_inputs=self.n_current_inputs,
        )

    def is_c_singular(self) -> bool:
        """Cheap structural singularity check for ``C`` (empty rows)."""
        csr = self.C.tocsr()
        row_nnz = np.diff(csr.indptr)
        return bool(np.any(row_nnz == 0))

    # -- input evaluation ---------------------------------------------------------

    def _pulse_table(self):
        """Lazy vectorised evaluation table for non-periodic pulse inputs.

        PDN workloads have thousands of pulse sources; evaluating them
        one Python call at a time dominates baseline runtimes.  The table
        holds their parameters as arrays so ``u(t)`` is a handful of
        numpy operations, with a scalar fallback for other waveforms.
        """
        table = getattr(self, "_pulse_table_cache", None)
        if table is not None:
            return table
        from repro.circuit.waveforms import Pulse

        pulse_cols = []
        other_cols = []
        for k, w in enumerate(self.waveforms):
            if isinstance(w, Pulse):
                pulse_cols.append(k)
            else:
                other_cols.append(k)
        if pulse_cols:
            ws = [self.waveforms[k] for k in pulse_cols]
            params = {
                "cols": np.array(pulse_cols, dtype=int),
                "v1": np.array([w.v1 for w in ws]),
                "v2": np.array([w.v2 for w in ws]),
                "delay": np.array([w.t_delay for w in ws]),
                "rise": np.array([w.t_rise for w in ws]),
                "rw": np.array([w.t_rise + w.t_width for w in ws]),
                "rwf": np.array(
                    [w.t_rise + w.t_width + w.t_fall for w in ws]
                ),
                "period": np.array(
                    [w.t_period if w.t_period is not None else np.nan for w in ws]
                ),
            }
        else:
            params = None
        table = (params, other_cols)
        self._pulse_table_cache = table
        return table

    def _pulse_values(self, t: float, params: dict) -> np.ndarray:
        tau = t - params["delay"]
        period = params["period"]
        periodic = ~np.isnan(period) & (tau >= 0.0)
        tau = np.where(periodic, np.mod(tau, np.where(periodic, period, 1.0)), tau)
        v1, v2 = params["v1"], params["v2"]
        rise, rw, rwf = params["rise"], params["rw"], params["rwf"]
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
        The full-vector case (``active=None``) is vectorised over pulse
        sources; small per-node subsets use the scalar path.
        """
        u = np.zeros(self.n_inputs)
        if active is None:
            params, other_cols = self._pulse_table()
            if params is not None:
                u[params["cols"]] = self._pulse_values(float(t), params)
            for k in other_cols:
                u[k] = self.waveforms[k].value(t)
            return u
        for k in active:
            u[k] = self.waveforms[k].value(t)
        return u

    def input_slope(
        self, t: float, active: Sequence[int] | None = None
    ) -> np.ndarray:
        """Evaluate the right-sided slope vector ``du/dt`` at ``t``."""
        s = np.zeros(self.n_inputs)
        cols = range(self.n_inputs) if active is None else active
        for k in cols:
            s[k] = self.waveforms[k].slope(t)
        return s

    def bu(self, t: float, active: Sequence[int] | None = None) -> np.ndarray:
        """Convenience: ``B @ u(t)`` as a dense vector."""
        return np.asarray(self.B @ self.input_vector(t, active)).ravel()

    def b_slope(self, t: float, active: Sequence[int] | None = None) -> np.ndarray:
        """Convenience: ``B @ du/dt(t)`` as a dense vector."""
        return np.asarray(self.B @ self.input_slope(t, active)).ravel()

    def b_slope_fd(
        self, t0: float, t1: float, active: Sequence[int] | None = None
    ) -> np.ndarray:
        """Segment slope ``B(u(t1)−u(t0))/(t1−t0)`` by finite difference.

        ``[t0, t1]`` must lie inside one PWL segment of every active
        input, which holds by construction when both ends are consecutive
        global transition spots.  This form is preferred by the solvers:
        the analytic right-sided ``slope(t)`` can land an ulp before a
        breakpoint and return the previous segment's slope, while the
        finite difference is exact for linear segments regardless of
        floating-point noise at the endpoints.
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
        thousands of waveforms per step in Python loops.  Each input
        column is evaluated over the whole grid (``values_array``) and
        scattered through its ``B`` column directly — the same
        per-element accumulation order a CSC mat-mat product performs,
        without materialising the ``B[:, cols]`` slice (sparse fancy
        indexing costs more than the product for small column sets).
        """
        times = np.asarray(times, dtype=float)
        out = np.zeros((self.dim, times.shape[0]))
        indptr, indices, data = self.B.indptr, self.B.indices, self.B.data
        for col in range(self.n_inputs) if active is None else active:
            lo, hi = indptr[col], indptr[col + 1]
            if lo < hi:
                u_row = self.waveforms[col].values_array(times)
                out[indices[lo:hi]] += data[lo:hi, None] * u_row[None, :]
        return out

    # -- transition spots -----------------------------------------------------------

    def local_transition_spots(self, k: int, t_end: float) -> list[float]:
        """LTS of input column ``k`` (paper Sec. 3.1 definition).

        Cached per ``(column, t_end)``: a decomposed run builds one
        schedule per node task over the same horizon, and pulse spot
        generation in Python is a measurable slice of that.
        """
        cache = getattr(self, "_lts_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_lts_cache", cache)
        key = (k, t_end)
        spots = cache.get(key)
        if spots is None:
            spots = self.waveforms[k].transition_spots(t_end)
            cache[key] = spots
        return list(spots)

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

    # -- reporting ---------------------------------------------------------------------

    def node_voltage(self, x: np.ndarray, node: str) -> float:
        """Extract one node voltage from a solution vector."""
        idx = self.netlist.node_index(node)
        if idx < 0:
            return 0.0
        return float(x[idx])

    def node_voltages(self, x: np.ndarray) -> dict[str, float]:
        """All node voltages of a solution vector, keyed by node name."""
        return {
            name: float(x[i])
            for i, name in enumerate(self.netlist.node_names())
        }


def assemble(netlist: Netlist, validate: bool = True) -> MNASystem:
    """Assemble the MNA descriptor system for a netlist.

    Parameters
    ----------
    netlist:
        The circuit to stamp.
    validate:
        When true (default), run :meth:`Netlist.validate` first so that a
        singular ``G`` is reported as a netlist problem rather than a
        mysterious LU failure later.

    Returns
    -------
    MNASystem
        The assembled system with ``C``, ``G``, ``B`` in CSC format.
    """
    if validate:
        netlist.validate()

    u = netlist.unknowns
    dim = u.dim
    g = _Stamper(dim)
    c = _Stamper(dim)
    b = _Stamper(dim)

    ni = netlist.node_index

    for r in netlist.resistors:
        i, j = ni(r.pos), ni(r.neg)
        cond = r.conductance
        g.add(i, i, cond)
        g.add(j, j, cond)
        g.add(i, j, -cond)
        g.add(j, i, -cond)

    for cap in netlist.capacitors:
        i, j = ni(cap.pos), ni(cap.neg)
        c.add(i, i, cap.capacitance)
        c.add(j, j, cap.capacitance)
        c.add(i, j, -cap.capacitance)
        c.add(j, i, -cap.capacitance)

    waveforms: list[Waveform] = []
    n_currents = len(netlist.current_sources)

    # Current sources: columns [0, n_currents).  SPICE convention: a
    # positive source value draws current out of `pos` and injects it into
    # `neg`, so the RHS contribution is -u at pos and +u at neg.
    for col, src in enumerate(netlist.current_sources):
        i, j = ni(src.pos), ni(src.neg)
        b.add(i, col, -1.0)
        b.add(j, col, +1.0)
        waveforms.append(src.waveform)

    # Voltage sources: extra branch-current rows after the node block.
    for k, src in enumerate(netlist.voltage_sources):
        row = netlist.n_nodes + k
        i, j = ni(src.pos), ni(src.neg)
        # KCL coupling of the branch current into its terminal nodes.
        g.add(i, row, +1.0)
        g.add(j, row, -1.0)
        # Branch equation v(pos) - v(neg) = u.
        g.add(row, i, +1.0)
        g.add(row, j, -1.0)
        b.add(row, n_currents + k, 1.0)
        waveforms.append(src.waveform)

    # Inductors: branch rows after the voltage sources,
    # v(pos) - v(neg) - L di/dt = 0.
    for k, ind in enumerate(netlist.inductors):
        row = netlist.n_nodes + len(netlist.voltage_sources) + k
        i, j = ni(ind.pos), ni(ind.neg)
        g.add(i, row, +1.0)
        g.add(j, row, -1.0)
        g.add(row, i, +1.0)
        g.add(row, j, -1.0)
        c.add(row, row, -ind.inductance)

    n_inputs = n_currents + len(netlist.voltage_sources)
    return MNASystem(
        netlist=netlist,
        C=c.build(),
        G=g.build(),
        B=b.build(n_cols=n_inputs),  # 0 columns for a source-free circuit
        waveforms=tuple(waveforms),
        n_current_inputs=n_currents,
    )
