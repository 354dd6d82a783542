"""Tests for the integrator engine: sinks and the stepping loop."""

import numpy as np
import pytest

from repro.baselines import simulate_trapezoidal
from repro.core import MatexSolver, SolverOptions
from repro.engine import (
    DownsamplingSink,
    MemorySink,
    NpzStreamSink,
    SteppingLoop,
    make_sink,
)
from repro.core.stats import SolverStats


def memmap_backed(states) -> bool:
    """Whether ``states`` is a view of a memory map (no in-process copy)."""
    base = states
    while isinstance(base, np.ndarray):
        if isinstance(base, np.memmap):
            return True
        base = base.base
    return False


class TestSinks:
    def test_memory_sink_roundtrip(self):
        sink = MemorySink()
        sink.open(3, n_hint=4)
        for k in range(4):
            sink.append(float(k), np.full(3, k, dtype=float))
        times, states = sink.finalize()
        np.testing.assert_array_equal(times, [0.0, 1.0, 2.0, 3.0])
        assert states.shape == (4, 3)
        np.testing.assert_array_equal(states[2], [2.0, 2.0, 2.0])

    def test_memory_sink_without_hint(self):
        sink = MemorySink()
        sink.open(2, n_hint=None)
        sink.append(0.0, np.array([1.0, 2.0]))
        sink.append(1.0, np.array([3.0, 4.0]))
        times, states = sink.finalize()
        assert states.shape == (2, 2)
        np.testing.assert_array_equal(states[1], [3.0, 4.0])

    def test_memory_sink_overflowing_hint(self):
        sink = MemorySink()
        sink.open(1, n_hint=2)
        for k in range(5):
            sink.append(float(k), np.array([float(k)]))
        times, states = sink.finalize()
        assert states.shape == (5, 1)
        np.testing.assert_array_equal(states[:, 0], np.arange(5.0))

    def test_downsampling_keeps_first_and_last(self):
        sink = DownsamplingSink(stride=4)
        sink.open(1, n_hint=10)
        for k in range(10):
            sink.append(float(k), np.array([float(k)]))
        times, states = sink.finalize()
        assert times[0] == 0.0
        assert times[-1] == 9.0  # final point forced in
        np.testing.assert_array_equal(times, [0.0, 4.0, 8.0, 9.0])

    def test_downsampling_stride_validation(self):
        with pytest.raises(ValueError, match="stride"):
            DownsamplingSink(stride=0)

    def test_npz_sink_streams_and_packages(self, tmp_path):
        path = tmp_path / "run.npz"
        sink = NpzStreamSink(path)
        sink.open(2, n_hint=3)
        rows = np.arange(10.0).reshape(5, 2)
        for k in range(5):  # exceeds the hint: exercises on-disk growth
            sink.append(float(k), rows[k])
        times, states = sink.finalize()
        np.testing.assert_array_equal(np.asarray(states), rows)
        data = np.load(path)
        np.testing.assert_array_equal(data["states"], rows)
        np.testing.assert_array_equal(data["times"], np.arange(5.0))
        # The workfile is kept for zero-copy reopening and must be
        # truncated to the written rows, not the grown capacity.
        np.testing.assert_array_equal(np.load(sink.workfile), rows)

    def test_npz_sink_rejects_other_suffixes(self, tmp_path):
        with pytest.raises(ValueError, match="npz"):
            NpzStreamSink(tmp_path / "run.csv")

    def test_make_sink_specs(self, tmp_path):
        assert isinstance(make_sink("memory"), MemorySink)
        ds = make_sink("downsample:8")
        assert isinstance(ds, DownsamplingSink) and ds.stride == 8
        nz = make_sink(f"npz:{tmp_path / 'x.npz'}")
        assert isinstance(nz, NpzStreamSink)
        with pytest.raises(ValueError, match="unknown sink"):
            make_sink("parquet:x")
        with pytest.raises(ValueError, match="stride"):
            make_sink("downsample:")

    def test_solver_with_downsampling_sink(self, mesh_system):
        opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
        x0 = np.zeros(mesh_system.dim)
        dense = MatexSolver(mesh_system, opts).simulate(1e-9, x0=x0)
        sparse = MatexSolver(mesh_system, opts).simulate(
            1e-9, x0=x0, sink=DownsamplingSink(stride=3)
        )
        assert sparse.n_points < dense.n_points
        assert sparse.times[0] == dense.times[0]
        assert sparse.times[-1] == dense.times[-1]
        # Every retained point matches the dense run exactly.
        for t, x in zip(sparse.times, sparse.states):
            i = int(np.argmin(np.abs(dense.times - t)))
            np.testing.assert_array_equal(x, dense.states[i])

    def test_baseline_with_npz_sink(self, mesh_system, tmp_path):
        path = tmp_path / "tr.npz"
        x0 = np.zeros(mesh_system.dim)
        res = simulate_trapezoidal(
            mesh_system, 1e-11, 1e-9, x0=x0, sink=NpzStreamSink(path)
        )
        dense = simulate_trapezoidal(mesh_system, 1e-11, 1e-9, x0=x0)
        np.testing.assert_array_equal(np.asarray(res.states), dense.states)
        data = np.load(path)
        np.testing.assert_array_equal(data["states"], dense.states)
        # The streamed result stays memmap-backed — no in-process copy —
        # while the dense run holds the full block in RAM.
        assert memmap_backed(res.states)
        assert not memmap_backed(dense.states)
        assert res.sink.path == path  # provenance through TransientResult


class TestSteppingLoop:
    def test_grid_zero_length_interval_recorded(self):
        stats = SolverStats()
        loop = SteppingLoop(1, stats)
        calls = []

        def advance(i, t, t_next, x):
            calls.append(i)
            return x + 1.0

        times, states = loop.march_grid(
            np.array([0.0, 1.0, 1.0, 2.0]), np.zeros(1), advance
        )
        assert calls == [0, 2]          # no advance over the zero interval
        assert stats.n_steps == 2
        assert len(times) == 4          # but the duplicate point is recorded
        assert states[1][0] == states[2][0]

    def test_grid_record_mask(self):
        stats = SolverStats()
        loop = SteppingLoop(1, stats)
        times, states = loop.march_grid(
            np.arange(6.0), np.zeros(1),
            lambda i, t, t1, x: x + 1.0,
            record=[0, 3, 5],
        )
        np.testing.assert_array_equal(times, [0.0, 3.0, 5.0])
        np.testing.assert_array_equal(states[:, 0], [0.0, 3.0, 5.0])
        assert stats.n_steps == 5
