"""Unit tests for the PDN generators, workloads, suite and stiffness."""

import numpy as np
import pytest

from repro.circuit import Netlist, assemble
from repro.pdn import (
    PdnConfig,
    SUITE,
    WorkloadSpec,
    attach_pulse_loads,
    build_case,
    case_names,
    eigenvalue_extremes,
    generate_power_grid,
    make_bump_library,
    stiff_rc_mesh,
    stiffness,
)
from tests.stamp_oracle import element_rows


class TestPowerGrid:
    def test_structure_counts(self):
        cfg = PdnConfig(rows=8, cols=10, n_pads=3, coarse_pitch=4)
        net = generate_power_grid(cfg)
        assert net.counts["c"] == 80              # one per grid node
        assert net.counts["v"] == 3
        system = assemble(net)
        assert system.is_c_singular()             # V-source branch rows

    def test_deterministic_given_seed(self):
        a = generate_power_grid(PdnConfig(rows=6, cols=6, seed=5))
        b = generate_power_grid(PdnConfig(rows=6, cols=6, seed=5))
        sa, sb = assemble(a), assemble(b)
        assert np.allclose(sa.G.todense(), sb.G.todense())
        assert np.allclose(sa.C.todense(), sb.C.todense())

    def test_dc_rails_near_vdd(self):
        cfg = PdnConfig(rows=8, cols=8, n_pads=4, vdd=1.8)
        net = generate_power_grid(cfg)
        system = assemble(net)
        from repro.baselines import dc_operating_point

        x, _ = dc_operating_point(system)
        rails = x[: system.n_nodes]
        assert np.all(rails > 1.7)                # unloaded grid sits at VDD
        assert np.all(rails <= 1.8 + 1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PdnConfig(rows=1, cols=5)
        with pytest.raises(ValueError):
            PdnConfig(n_pads=0)


class TestWorkloads:
    def test_library_is_distinct_and_fits(self):
        spec = WorkloadSpec(n_sources=50, n_shapes=12, t_end=1e-8,
                            time_grid_points=40)
        lib = make_bump_library(spec)
        assert len(lib) == 12
        assert len({s.key() for s in lib}) == 12
        for s in lib:
            assert s.t_delay + s.t_rise + s.t_width + s.t_fall < 1e-8

    def test_clock_grid_bounds_gts(self):
        """Many shapes, few distinct transition times (the clock grid)."""
        net = generate_power_grid(PdnConfig(rows=8, cols=8))
        spec = WorkloadSpec(n_sources=120, n_shapes=30, t_end=1e-8,
                            time_grid_points=25)
        attach_pulse_loads(net, spec)
        system = assemble(net)
        gts = system.global_transition_spots(1e-8)
        # 30 shapes x 4 corners = 120 raw spots, but they share the grid.
        assert len(gts) <= 25 + 2

    def test_every_shape_used(self):
        net = generate_power_grid(PdnConfig(rows=8, cols=8))
        spec = WorkloadSpec(n_sources=20, n_shapes=20, t_end=1e-8)
        lib = attach_pulse_loads(net, spec)
        shapes_used = {
            w.bump_shape().key() for w in net.current_waveforms
        }
        assert shapes_used == {s.key() for s in lib}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(n_sources=5, n_shapes=10)
        with pytest.raises(ValueError):
            WorkloadSpec(time_grid_points=2)

    def test_loads_avoid_pad_nodes(self):
        net = generate_power_grid(PdnConfig(rows=8, cols=8, n_pads=2))
        attach_pulse_loads(net, WorkloadSpec(n_sources=30, n_shapes=5))
        for src in element_rows(net, "i"):
            assert not src.pos.startswith("pad")


class TestStiffness:
    def test_two_node_analytic(self):
        # Two decoupled RC poles: lam_i = -1/(R_i C_i).
        net = Netlist("two-pole")
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_capacitor("C1", "a", "0", 1e-12)
        net.add_resistor("R2", "b", "0", 1.0)
        net.add_capacitor("C2", "b", "0", 1e-9)
        system = assemble(net)
        lam_min, lam_max = eigenvalue_extremes(system)
        assert lam_min == pytest.approx(-1e12, rel=1e-6)
        assert lam_max == pytest.approx(-1e9, rel=1e-6)
        assert stiffness(system) == pytest.approx(1e3, rel=1e-6)

    def test_mesh_knobs_move_stiffness(self):
        mild = assemble(stiff_rc_mesh(8, 8, fast_ratio=2, slow_ratio=1e2))
        stiff_ = assemble(stiff_rc_mesh(8, 8, fast_ratio=20, slow_ratio=1e6))
        assert stiffness(stiff_) > 100 * stiffness(mild)

    def test_sparse_path_agrees_with_the_dense_eigensolve(self):
        """Beyond ``dense_limit`` the extremes come from Arnoldi on
        ``SparseLU`` factors of ``C`` and ``G``."""
        system = assemble(stiff_rc_mesh(8, 8, fast_ratio=2, slow_ratio=1e2))
        dense = eigenvalue_extremes(system)
        sparse = eigenvalue_extremes(system, dense_limit=0)
        assert sparse == pytest.approx(dense, rel=1e-8)

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            stiff_rc_mesh(1, 5, fast_ratio=2)
        with pytest.raises(ValueError):
            stiff_rc_mesh(5, 5, fast_ratio=0.5)

    def test_mesh_c_invertible(self):
        system = assemble(stiff_rc_mesh(6, 6, fast_ratio=5, slow_ratio=10))
        assert not system.is_c_singular()


class TestSuite:
    def test_case_names_order(self):
        assert case_names() == ["pg1t", "pg2t", "pg3t",
                                "pg4t", "pg5t", "pg6t"]

    def test_sizes_monotone(self):
        dims = [SUITE[n].grid.rows * SUITE[n].grid.cols for n in case_names()]
        assert dims == sorted(dims)

    def test_pg4t_few_groups(self):
        assert SUITE["pg4t"].n_groups == 15
        assert SUITE["pg1t"].n_groups == 100

    def test_build_case_smallest(self):
        system, case = build_case("pg1t")
        assert case.name == "pg1t"
        assert system.dim > 1000
        assert system.is_c_singular()
        assert system.n_current_inputs == 800
