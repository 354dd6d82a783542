"""What a sweep holds: scenarios as arrays, the ROM build's blocks once.

* a :class:`~repro.plan.Scenario` keeps its amplitude pattern as two
  arrays and answers ``scales``, ``changed_columns`` and
  ``is_baseline`` as the ``(column, factor)`` pair form did, before and
  after a pickle round trip;
* the bench's 512 pg1t load patterns hold ≈ 3.4 MiB (tracemalloc;
  the pair form held 34.4 MiB);
* the pg1t reduced-model build's traced peak is ≈ 26 MiB (40.6 MiB
  with the whole candidate block and a second copy of ``G^-1 B``).
"""

import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core.options import SolverOptions
from repro.pdn import build_case, load_pattern_scenarios
from repro.plan import Scenario, scenario_from_spec
from repro.rom import RomConfig, build_reduced_model

MIB = 2**20


def pair_form(scales: dict) -> tuple:
    """The ``(column, factor)`` tuple the pair form stored."""
    return tuple(sorted((int(c), float(f)) for c, f in scales.items()))


@pytest.fixture(scope="module")
def pg1t():
    return build_case("pg1t")


class TestScenarioArrays:
    CASES = (
        {},
        {3: 1.5, 1: 0.5},
        {"7": "0.25", 2: np.float32(2.0), np.int64(0): 1},
        {5: 0.0},
    )

    @pytest.mark.parametrize("scales", CASES)
    def test_accessors_match_the_pair_form(self, scales):
        sc = Scenario("s", scales=scales)
        want = pair_form(scales)
        for got in (sc, pickle.loads(pickle.dumps(sc))):
            assert got.scales == want
            assert all(type(c) is int and type(f) is float
                       for c, f in got.scales)
            assert got.changed_columns == tuple(c for c, _ in want)
            assert got.is_baseline == (not want)
            assert got.scale_columns.dtype == np.intp
            assert got.scale_factors.dtype == np.float64

    def test_arrays_and_mapping_build_the_same_scenario(self):
        cols = np.array([4, 1, 4, 9])
        factors = np.array([0.5, 1.5, 2.5, 3.5])
        a = Scenario("a", scales=(cols, factors))
        b = Scenario("b", scales={1: 1.5, 4: 2.5, 9: 3.5})  # last 4 wins
        assert a.scales == b.scales
        assert a.changed_columns == (1, 4, 9)

    def test_overrides_join_changed_columns(self, mesh_system):
        sc = Scenario("o", overrides={2: mesh_system.waveforms[0]},
                      scales={0: 2.0, 2: 0.5})
        assert sc.changed_columns == (0, 2)
        assert not sc.is_baseline

    def test_arrays_are_read_only_and_shared(self, pg1t):
        system, _ = pg1t
        a, b = load_pattern_scenarios(system, n=2, seed=7)
        assert not a.scale_columns.flags.writeable
        assert not a.scale_factors.flags.writeable
        assert np.shares_memory(a.scale_columns, b.scale_columns)

    def test_spec_scale_overrides_scale_loads(self, mesh_system):
        sc = scenario_from_spec(
            {"scale_loads": 1.3, "scale": {"1": 0.5}}, mesh_system
        )
        want = dict.fromkeys(mesh_system.current_input_indices, 1.3)
        want[1] = 0.5
        assert sc.scales == pair_form(want)

    def test_spec_rejects_a_column_out_of_range(self, mesh_system):
        with pytest.raises(ValueError, match="input column 99 out of range"):
            scenario_from_spec({"scale": {"0": 1.0, "99": 2.0}}, mesh_system)


class TestHeldBytes:
    def test_512_pg1t_patterns_hold_a_few_mib(self, pg1t):
        """One shared column array and 512 × 6.4 kB of factors."""
        system, _ = pg1t
        tracemalloc.start()
        try:
            scenarios = load_pattern_scenarios(system, n=512, seed=7)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(scenarios) == 512
        assert held < 5 * MIB, held / MIB

    def test_pg1t_rom_build_traced_peak(self, pg1t):
        """The candidate block is never whole, and ``G^-1 B`` is widened
        into the input map in place: ≈ 26 MiB at this writing."""
        system, case = pg1t
        opts = replace(
            SolverOptions(method="rational", gamma=1e-10), eps_rel=1e-6
        )
        # A first build fills the factor cache, so the traced one
        # measures the build, not the factorisations.
        build_reduced_model(system, opts, case.t_end, RomConfig())
        tracemalloc.start()
        try:
            model = build_reduced_model(system, opts, case.t_end, RomConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.dim == RomConfig().q_max
        assert peak < 28 * MIB, peak / MIB
