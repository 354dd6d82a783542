"""Pickling contract for every distributed message type.

``MultiprocessExecutor`` moves tasks and results between processes via
pickle; these tests pin the round-trip for each message class (and the
payloads they carry — source groups, waveform overrides, solver stats)
so the transport guarantee is explicit rather than incidental.
"""

import pickle

import numpy as np
import pytest

from repro.circuit.waveforms import DC, PWL, Pulse
from repro.core import SolverStats
from repro.core.decomposition import SourceGroup, decompose_by_bump_split
from repro.dist import (
    DistributedResult,
    MatexScheduler,
    NodeResult,
    SimulationTask,
)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestSourceGroupPickling:
    def test_plain_group(self):
        g = SourceGroup(group_id=2, label="bump(d=1e-10)", input_columns=(0, 3))
        g2 = roundtrip(g)
        assert g2 == g

    @pytest.mark.parametrize("waveform", [
        DC(1.8),
        Pulse(0.0, 1e-3, 1e-10, 2e-11, 1e-10, 2e-11, t_period=5e-10),
        PWL([(0.0, 0.0), (1e-10, 1e-3), (2e-10, 0.0)]),
    ])
    def test_waveform_override_payloads(self, waveform):
        g = SourceGroup(
            group_id=0, label="override", input_columns=(1,),
            waveform_overrides=((1, waveform),),
        )
        g2 = roundtrip(g)
        assert g2 == g
        w2 = g2.overrides_dict()[1]
        for t in (0.0, 0.6e-10, 1.3e-10, 2.5e-10):
            assert w2.value(t) == waveform.value(t)


class TestSimulationTaskPickling:
    def test_roundtrip(self):
        task = SimulationTask(
            task_id=7,
            group=SourceGroup(group_id=7, label="g", input_columns=(0, 2)),
            t_end=1e-9,
            global_points=(0.0, 1e-10, 5e-10, 1e-9),
        )
        t2 = roundtrip(task)
        assert t2 == task

    def test_roundtrip_with_overrides(self, mesh_system):
        """Real split-bump groups (the shapes multiprocessing ships)."""
        groups = decompose_by_bump_split(mesh_system, 1e-9)
        gts = tuple(mesh_system.global_transition_spots(1e-9))
        for g in groups:
            task = SimulationTask(task_id=g.group_id, group=g,
                                  t_end=1e-9, global_points=gts)
            assert roundtrip(task) == task

    def test_validation(self):
        g = SourceGroup(group_id=0, label="g", input_columns=(0,))
        with pytest.raises(ValueError, match="t_end"):
            SimulationTask(task_id=0, group=g, t_end=0.0, global_points=(0.0,))
        empty = SourceGroup(group_id=0, label="g", input_columns=())
        with pytest.raises(ValueError, match="no input columns"):
            SimulationTask(task_id=0, group=empty, t_end=1e-9,
                           global_points=(0.0,))


class TestNodeResultPickling:
    def test_roundtrip(self):
        stats = SolverStats(n_steps=5, n_krylov_bases=2, krylov_dims=[8, 9],
                            n_solves_krylov=17, transient_seconds=0.25)
        r = NodeResult(
            task_id=1, group_id=1, label="bump",
            times=np.linspace(0.0, 1e-9, 6),
            states=np.arange(18.0).reshape(6, 3),
            stats=stats,
        )
        r2 = roundtrip(r)
        assert r2.task_id == r.task_id and r2.label == r.label
        np.testing.assert_array_equal(r2.times, r.times)
        np.testing.assert_array_equal(r2.states, r.states)
        assert r2.stats == stats
        assert r2.transient_seconds == 0.25


class TestDistributedResultPickling:
    def test_roundtrip_preserves_timing_model(self, mesh_system):
        from repro.core import SolverOptions

        dres = MatexScheduler(
            mesh_system,
            SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8),
        ).run(1e-9)
        d2 = roundtrip(dres)
        assert isinstance(d2, DistributedResult)
        assert d2.n_nodes == dres.n_nodes
        assert d2.tr_matex == dres.tr_matex
        assert d2.tr_total == dres.tr_total
        assert d2.total_substitution_pairs == dres.total_substitution_pairs
        assert (d2.max_node_substitution_pairs
                == dres.max_node_substitution_pairs)
        assert d2.node_transient_seconds == dres.node_transient_seconds
        np.testing.assert_array_equal(d2.result.states, dres.result.states)
        np.testing.assert_array_equal(d2.result.times, dres.result.times)
