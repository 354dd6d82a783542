"""One march: ``MatexSolver.simulate`` is the width-1 block runner.

``simulate`` owns no time loop.  It resolves the schedule, the waveform
overrides and the start state, then runs one width-1
:class:`~repro.dist.block_runner.BlockNodeRunner` march on its own
factorisations and streams each span's rows to the sink as the span
closes.  What is pinned here:

* **Deviation mode is the runner, byte for byte**: states equal to a
  node task's ``FactoredStates.dense()`` and every ``SolverStats``
  counter equal, waveform overrides included.
* **Absolute mode against the scalar oracle** (``tests/scalar_oracle.py``,
  Alg. 2 one step per point): every counter but the ETD pairs (three
  ``G`` solves per segment there, two per input shape here) and
  ``krylov_dims`` exact, states inside a budget calibrated on the
  oracle itself, ``max(1e-12·scale, 4 × spread)``, where ``spread`` is
  the largest state change of the oracle over six runs with seeded
  ±1-ulp perturbations of its evaluations and its ETD ``G`` solves
  (:func:`oracle_spread`).  Four times, not once: six seeds sample the
  oracle's sensitivity, they do not bound it (a Table-1 mesh sat 1.4×
  its six-run spread from the oracle).
* Sinks, streaming, the repeated-point error, the t = 0 basis and the
  default start state.

Measured spreads, relative to each case's response scale (numpy 2.4,
scipy 1.17, OpenBLAS, x86-64, one BLAS thread):

=====================  ==================  ==================  ==================
case                   MEXP                I-MATEX             R-MATEX
=====================  ==================  ==================  ==================
mesh, absolute starts  1.8e-13 … 7.4e-13   3.2e-15 … 5.6e-15   4.6e-15 … 6.5e-15
mesh, deviation        4.7e-11             1.7e-15             1.9e-15
small PDN, absolute    (C is singular)     1.2e-16             1.2e-16
small PDN, deviation   (C is singular)     4.3e-16             4.3e-16
RC ladder              2.7e-15 … 3.9e-15   1.3e-15 … 1.8e-15   1.7e-15 … 2.2e-15
Table-1 mesh, low      —                   3.5e-13             4.7e-13
Table-1 mesh, medium   —                   5.5e-9              2.7e-9
Table-1 mesh, high     —                   4.7e-7              2.1e-7
=====================  ==================  ==================  ==================

A spread below 2.5e-13 of the scale (most rows) leaves the flat 1e-12
budget.  On the Table-1 meshes MEXP's own basis dimensions move
under ±1 ulp of the oracle (``ma`` 42.7 unperturbed, 42.9 … 43.1 over
the six seeds, on the high-stiffness 20 × 20 mesh that
``test_table1_meshes_keep_every_spectral_transform_decision`` builds),
so there only I-MATEX and R-MATEX are held to exact decisions.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.circuit import Pulse, assemble
from repro.core import (
    EtdWorkspace,
    MatexSolver,
    SolverOptions,
    SolverStats,
    build_schedule,
)
from repro.core.transition import TransitionSchedule
from repro.dist import BlockNodeRunner, MatexScheduler, SimulationTask
from repro.engine import DownsamplingSink, MemorySink, NpzStreamSink, SteppingLoop
from repro.experiments.table1 import STIFFNESS_LEVELS
from repro.linalg.arnoldi import ArnoldiBreakdown
from repro.linalg.lu import FACTORIZATION_CACHE
from repro.pdn.rc_mesh import stiff_rc_mesh
from tests.conftest import build_multi_source_mesh, build_rc_ladder, build_small_pdn
from tests.scalar_oracle import oracle_budget, oracle_spread, scalar_simulate

T_END = 1e-9

#: Every counting field of SolverStats (the timings are floats).
COUNTERS = tuple(f.name for f in fields(SolverStats) if f.type != "float")
#: What the oracle must count exactly: all but its ETD pairs (three
#: ``G`` solves per segment there, two per input shape in the march).
DECISIONS = tuple(c for c in COUNTERS if c != "n_solves_etd")

CIRCUITS = {
    "mesh": build_multi_source_mesh,
    "small-pdn": build_small_pdn,
    "ladder": build_rc_ladder,
}
METHODS = ("standard", "inverted", "rational")
STARTS = ("dc", "zero", "off-dc", "deviation", "overrides")


def _opts(method: str) -> SolverOptions:
    return SolverOptions(method=method, gamma=1e-10, eps_rel=1e-8)


def assert_same_counters(
    got: SolverStats, ref: SolverStats, names=COUNTERS
) -> None:
    for name in names:
        assert getattr(got, name) == getattr(ref, name), name


def assert_oracle_decisions(got: SolverStats, oracle: SolverStats) -> None:
    assert_same_counters(got, oracle, DECISIONS)


def assert_within_oracle_budget(states, oracle_states, spread: float) -> None:
    budget = oracle_budget(np.abs(oracle_states).max(), spread)
    assert np.abs(np.asarray(states) - oracle_states).max() <= budget


def _start(system, start: str):
    """``(deviation_mode, simulate kwargs)`` of one start mode."""
    if start == "dc":
        return False, {}
    if start == "zero":
        return False, {"x0": np.zeros(system.dim)}
    if start == "off-dc":
        # The DC point with input 0 held at 1 mA: a start consistent
        # with every supply constraint, but not the operating point.
        u = system.input_vector(0.0)
        u[0] += 1e-3
        lu_g = EtdWorkspace(system).lu_g
        return False, {"x0": lu_g.solve(np.asarray(system.B @ u).ravel())}
    if start == "deviation":
        cols = [0]
        schedule = build_schedule(system, T_END, local_inputs=cols)
        return True, {"active_inputs": cols, "schedule": schedule}
    override = {0: Pulse(0.0, 1.5e-3, 1.3e-10, 4e-11, 1.5e-10, 6e-11)}
    return False, {"waveform_overrides": override}


def _oracle_cases():
    for circuit in CIRCUITS:
        for method in METHODS:
            if circuit == "small-pdn" and method == "standard":
                continue  # MEXP must factor C, singular here
            for start in STARTS:
                yield pytest.param(
                    circuit, method, start, id=f"{circuit}-{method}-{start}"
                )


@pytest.fixture(scope="module")
def systems():
    return {name: assemble(build()) for name, build in CIRCUITS.items()}


class TestDeviationModeIsTheRunner:
    @pytest.mark.parametrize("circuit,method,decomposition", [
        ("mesh", "rational", "bump-split"),
        ("mesh", "inverted", "bump"),
        ("mesh", "standard", "source"),
        ("small-pdn", "rational", "bump"),
    ])
    def test_states_and_counters_equal_the_node_answer(
        self, systems, circuit, method, decomposition
    ):
        system, opts = systems[circuit], _opts(method)
        gts = tuple(system.global_transition_spots(T_END))
        tasks = [
            SimulationTask(task_id=g.group_id, group=g, t_end=T_END,
                           global_points=gts)
            for g in MatexScheduler(
                system, opts, decomposition=decomposition
            ).groups(t_end=T_END)
        ]
        runner = BlockNodeRunner(system, opts)
        runner.run(tasks[:1])  # its construction cache traffic
        solver = MatexSolver(system, opts, deviation_mode=True)
        for task in tasks:
            (node,) = runner.run([task])
            overrides = task.group.overrides_dict() or None
            schedule = build_schedule(
                system, T_END, local_inputs=task.group.input_columns,
                global_points=gts, waveform_overrides=overrides,
            )
            res = solver.simulate(
                T_END, active_inputs=task.group.input_columns,
                schedule=schedule, waveform_overrides=overrides,
            )
            assert res.times.tobytes() == node.times.tobytes()
            assert res.states.tobytes() == node.states.dense().tobytes()
            assert_same_counters(res.stats, node.stats)


class TestOracleParity:
    @pytest.mark.parametrize("circuit,method,start", list(_oracle_cases()))
    def test_counters_exact_states_in_budget(
        self, systems, circuit, method, start
    ):
        system = systems[circuit]
        deviation, kwargs = _start(system, start)
        solver = MatexSolver(system, _opts(method), deviation_mode=deviation)
        if circuit == "small-pdn" and start == "zero":
            # Zero is no state of a grid whose pad a 1.8 V source pins:
            # both marches hit the inconsistent algebraic part at once.
            with np.errstate(invalid="ignore"):
                with pytest.raises(ArnoldiBreakdown):
                    scalar_simulate(solver, T_END, **kwargs)
                with pytest.raises(ArnoldiBreakdown):
                    solver.simulate(T_END, **kwargs)
            return
        oracle = scalar_simulate(solver, T_END, **kwargs)
        got = solver.simulate(T_END, **kwargs)
        assert got.times.tobytes() == oracle.times.tobytes()
        assert_oracle_decisions(got.stats, oracle.stats)
        spread = oracle_spread(
            lambda: scalar_simulate(solver, T_END, **kwargs).states
        )
        assert_within_oracle_budget(got.states, oracle.states, spread)

    def test_table1_meshes_keep_every_spectral_transform_decision(self):
        """``run_table1``'s stiff meshes: I-MATEX and R-MATEX decide
        exactly as the oracle; states stay in its calibrated budget."""
        h, t_end = 5e-12, 3e-10
        grid = [i * h for i in range(61)]
        for _label, fast, slow in STIFFNESS_LEVELS:
            system = assemble(stiff_rc_mesh(
                20, 20, fast_ratio=fast, slow_ratio=slow, n_sources=5,
            ))
            x0 = np.zeros(system.dim)
            schedule = build_schedule(system, t_end, global_points=grid)
            for method in ("inverted", "rational"):
                solver = MatexSolver(system, SolverOptions(
                    method=method, gamma=h, eps_rel=0.0, eps_abs=1e-10,
                    m_max=360,
                ))
                kwargs = {"x0": x0, "schedule": schedule}
                oracle = scalar_simulate(solver, t_end, **kwargs)
                got = solver.simulate(t_end, **kwargs)
                assert_oracle_decisions(got.stats, oracle.stats)
                spread = oracle_spread(
                    lambda s=solver, k=kwargs: scalar_simulate(s, t_end, **k).states
                )
                assert_within_oracle_budget(got.states, oracle.states, spread)


class TestSinks:
    def test_every_sink_receives_the_same_rows(self, systems, tmp_path):
        system = systems["mesh"]
        solver = MatexSolver(system, _opts("rational"))
        dense = solver.simulate(T_END, sink=MemorySink())
        thin = solver.simulate(T_END, sink=DownsamplingSink(stride=3))
        disk = solver.simulate(T_END, sink=NpzStreamSink(tmp_path / "x.npz"))
        assert disk.states.tobytes() == dense.states.tobytes()
        assert disk.times.tobytes() == dense.times.tobytes()
        kept = np.searchsorted(dense.times, thin.times)
        assert thin.states.tobytes() == dense.states[kept].tobytes()
        assert np.load(tmp_path / "x.npz")["states"].tobytes() == (
            dense.states.tobytes()
        )

    def test_spans_stream_as_they_close(self, systems):
        """Rows reach the sink while the march is still building bases."""
        system = systems["mesh"]
        solver = MatexSolver(system, _opts("rational"))
        seen = []

        class Probe(MemorySink):
            def append(self, t, x):
                seen.append(solver.op.n_solves)
                super().append(t, x)

        solver.simulate(T_END, sink=Probe())
        assert seen == sorted(seen)
        assert seen[1] < seen[-1]


class TestEdgeCases:
    def test_point_zero_opens_a_segment_whatever_its_flag(self, systems):
        system = systems["mesh"]
        cols = [1]  # I2 is idle until 0.2 ns
        built = build_schedule(system, T_END, local_inputs=cols)
        unflagged = TransitionSchedule(
            built.points, (False,) + built.is_lts[1:], built.t_end
        )
        solver = MatexSolver(system, _opts("rational"), deviation_mode=True)
        flagged = solver.simulate(T_END, active_inputs=cols, schedule=built)
        got = solver.simulate(T_END, active_inputs=cols, schedule=unflagged)
        assert got.states.tobytes() == flagged.states.tobytes()
        assert_same_counters(got.stats, flagged.stats)
        oracle = scalar_simulate(
            solver, T_END, active_inputs=cols, schedule=unflagged
        )
        assert_oracle_decisions(got.stats, oracle.stats)

    def test_free_response_decays(self, systems):
        """No driving inputs, a charged ladder: the stored energy
        ``xᵀCx`` falls at every point (``G`` is positive definite)."""
        system = systems["ladder"]
        solver = MatexSolver(system, _opts("rational"))
        x0 = np.full(system.dim, 1e-3)
        res = solver.simulate(T_END, x0=x0, active_inputs=[])
        energy = np.einsum("ki,ki->k", res.states, res.states @ system.C.T)
        assert np.all(np.diff(energy) < 0.0)
        assert energy[-1] < 0.5 * energy[0]
        oracle = scalar_simulate(solver, T_END, x0=x0, active_inputs=[])
        assert_oracle_decisions(res.stats, oracle.stats)

    @pytest.mark.parametrize("where", ["interior", "t=0"])
    def test_repeated_grid_point_is_an_error(self, systems, tmp_path, where):
        system = systems["mesh"]
        built = build_schedule(system, T_END)
        k = 0 if where == "t=0" else len(built.points) // 2
        pts = built.points[:k + 1] + built.points[k:]
        schedule = TransitionSchedule(pts, (True,) * len(pts), T_END)
        solver = MatexSolver(system, _opts("rational"))
        sink = NpzStreamSink(tmp_path / "never.npz")
        with pytest.raises(ValueError, match=rf"grid point {k + 1} "):
            solver.simulate(T_END, schedule=schedule, sink=sink)
        assert not sink.workfile.exists()  # the sink was never opened

    def test_default_start_is_the_dc_point_of_the_active_inputs(
        self, systems
    ):
        """The DC point of *all* inputs holds the pad at the 1.8 V supply
        this run does not drive, and the march broke down on it."""
        system = systems["small-pdn"]
        solver = MatexSolver(system, _opts("rational"))
        res = solver.simulate(
            T_END, active_inputs=[0],
            schedule=build_schedule(system, T_END, local_inputs=[0]),
        )
        assert np.isfinite(res.states).all()
        before = res.times < 1e-10  # I0's first transition
        assert (res.states[before] == res.states[0]).all()
        assert res.stats.n_solves_dc == 1


class TestOneMarch:
    def test_simulate_marches_on_the_runner(self, systems, monkeypatch):
        """One runner march per run; the baselines' stepping loop is
        not involved."""
        marches = []
        march = BlockNodeRunner._march

        def counted(runner, tstates, owner):
            marches.append(len(tstates))
            return march(runner, tstates, owner)

        def refuse(*_args, **_kwargs):
            raise AssertionError("simulate stepped through SteppingLoop")

        monkeypatch.setattr(BlockNodeRunner, "_march", counted)
        monkeypatch.setattr(SteppingLoop, "march_grid", refuse)
        MatexSolver(systems["mesh"], _opts("rational")).simulate(T_END)
        assert marches == [1]

    def test_simulate_adds_no_factor_cache_traffic(self, systems):
        system = systems["mesh"]
        solver = MatexSolver(system, _opts("rational"))
        before = FACTORIZATION_CACHE.counters()
        solver.simulate(T_END)
        assert FACTORIZATION_CACHE.counters() == before
