"""Waveform.scaled / MNASystem.rebind_sources composition edge cases.

The reduced-order input path (``ReducedModel.input_matrix``) and the
scenario machinery both lean on two contracts:

* ``scaled`` multiplies *values* only — the time geometry (transition
  spots, constancy up to a zero factor) never moves, and scalings
  compose associatively up to the float op order actually performed;
* ``rebind_sources`` is purely functional — chained rebinds equal one
  rebind with the composed waveform, bit-for-bit, and never re-stamp
  the matrices.
"""

import pickle

import numpy as np
import pytest

from repro.circuit import DC, PWL, Pulse, assemble

from tests.conftest import build_multi_source_mesh

TIMES = np.linspace(0.0, 5e-10, 11)

WAVEFORMS = [
    DC(2e-3),
    PWL([(0.0, 0.0), (1e-10, 1e-3), (3e-10, 5e-4)]),
    Pulse(1e-3, 2.5e-3, 1e-10, 2e-11, 1e-10, 3e-11),
]

#: Scale factors of the copy-cost ``Pulse.scaled`` cases: ordinary,
#: negative, zero (constant copy, spots kept) and subnormal-producing.
FACTORS = [1.3, -2.0, 0.0, 1e-300]


class TestZeroScaling:
    @pytest.mark.parametrize("wave", WAVEFORMS)
    def test_zero_factor_zeroes_every_value(self, wave):
        assert np.all(wave.scaled(0.0).values_array(TIMES) == 0.0)

    def test_zero_scaled_pulse_keeps_spots_but_turns_constant(self):
        """Pulse geometry is timing-derived: spots survive a zero
        factor, but constancy flips — which is exactly why a compiled
        plan rejects scenarios that mute a pulse (``Session._validate``
        checks constancy) and why the random scenario generator keeps
        its factors strictly positive."""
        pulse = Pulse(1e-3, 2.5e-3, 1e-10, 2e-11, 1e-10, 3e-11)
        zero = pulse.scaled(0.0)
        assert zero.transition_spots(1e-9) == pulse.transition_spots(1e-9)
        assert not pulse.is_constant()
        assert zero.is_constant()

    def test_zero_scaled_pwl_collapses_spots(self):
        """PWL geometry is *slope*-derived: an all-zero PWL has no
        slope changes left, so its transition spots collapse — zero
        scalings are NOT grid-preserving for PWL sources."""
        pwl = PWL([(0.0, 0.0), (1e-10, 1e-3), (3e-10, 5e-4)])
        assert pwl.scaled(0.0).transition_spots(1e-9) == [0.0]
        # Nonzero scalings preserve the grid — the Scenario contract.
        assert (pwl.scaled(0.5).transition_spots(1e-9)
                == pwl.transition_spots(1e-9))

    def test_zero_scaled_dc_stays_dc(self):
        assert DC(2e-3).scaled(0.0) == DC(0.0)


class TestScaledOfScaled:
    def test_composition_equals_direct_construction_bitwise(self):
        """``scaled(a).scaled(b)`` == the directly constructed waveform
        whose values were multiplied ``(v*a)*b`` — sequentially, NOT
        ``v*(a*b)``: float multiplication is not associative, and the
        pinned contract is the op order the scenario path performs.
        Frozen-dataclass equality compares fields, i.e. float-bitwise.
        """
        a, b = 0.3, 0.7
        pulse = Pulse(1e-3, 2.5e-3, 1e-10, 2e-11, 1e-10, 3e-11)
        assert pulse.scaled(a).scaled(b) == Pulse(
            (pulse.v1 * a) * b, (pulse.v2 * a) * b,
            1e-10, 2e-11, 1e-10, 3e-11,
        )
        pwl = PWL([(0.0, 0.0), (1e-10, 1e-3), (3e-10, 5e-4)])
        assert pwl.scaled(a).scaled(b) == PWL(
            [(t, (v * a) * b) for t, v in pwl.points]
        )
        assert DC(2e-3).scaled(a).scaled(b) == DC((2e-3 * a) * b)

    @pytest.mark.parametrize("wave", WAVEFORMS)
    def test_composition_values_and_geometry(self, wave):
        a, b = 0.3, 0.7
        twice = wave.scaled(a).scaled(b)
        np.testing.assert_allclose(
            twice.values_array(TIMES),
            (wave.values_array(TIMES) * a) * b,
            rtol=1e-15, atol=0.0,
        )
        assert (twice.transition_spots(1e-9)
                == wave.transition_spots(1e-9))

    @pytest.mark.parametrize("f", FACTORS)
    def test_scaled_pulse_equals_fresh_construction(self, f):
        """The copy-cost ``Pulse.scaled`` builds what the constructor
        would: equal fields and hash, the same evaluated bytes (its own
        interpolation table, not the source's cached one) and the same
        spots (read from the shared memo)."""
        pulse = Pulse(1e-3, 2.5e-3, 1e-10, 2e-11, 1e-10, 3e-11, 4e-10)
        pulse.values_array(TIMES)  # caches pulse's own interp table
        pulse.transition_spots(1e-9)  # fills the memo the copy shares
        copy = pulse.scaled(f)
        fresh = Pulse(pulse.v1 * f, pulse.v2 * f,
                      1e-10, 2e-11, 1e-10, 3e-11, 4e-10)
        assert copy == fresh and hash(copy) == hash(fresh)
        assert (copy.values_array(TIMES).tobytes()
                == fresh.values_array(TIMES).tobytes())
        for t_end in (1e-9, 3e-10):
            assert (copy.transition_spots(t_end)
                    == fresh.transition_spots(t_end))

    @pytest.mark.parametrize("f", FACTORS)
    def test_mutating_returned_spots_leaves_memo_intact(self, f):
        pulse = Pulse(1e-3, 2.5e-3, 1e-10, 2e-11, 1e-10, 3e-11, 4e-10)
        copy = pulse.scaled(f)
        expected = list(pulse.transition_spots(1e-9))
        for wave in (pulse, copy):
            spots = wave.transition_spots(1e-9)
            spots.append(7.0)
            spots[0] = -1.0
        assert pulse.transition_spots(1e-9) == expected
        assert copy.transition_spots(1e-9) == expected

    @pytest.mark.parametrize("f", FACTORS)
    def test_pickled_scaled_pulse_round_trips(self, f):
        pulse = Pulse(1e-3, 2.5e-3, 1e-10, 2e-11, 1e-10, 3e-11, 4e-10)
        pulse.transition_spots(1e-9)
        copy = pulse.scaled(f)
        back = pickle.loads(pickle.dumps(copy))
        assert back == copy and hash(back) == hash(copy)
        assert back.transition_spots(1e-9) == copy.transition_spots(1e-9)
        assert back.transition_spots(2e-10) == copy.transition_spots(2e-10)

    @pytest.mark.parametrize("f", FACTORS)
    def test_pickle_leaves_the_spot_memo_home(self, f):
        """A pickled pulse is its seven fields: filling the memo its
        scaled copy shares does not change the copy's pickle, and the
        unpickled copy rebuilds the base's spots."""
        pulse = Pulse(1e-3, 2.5e-3, 1e-10, 2e-11, 1e-10, 3e-11, 4e-10)
        copy = pulse.scaled(f)
        bare = pickle.dumps(copy)
        for t_end in (1e-9, 2e-10):
            pulse.transition_spots(t_end)
        assert pickle.dumps(copy) == bare
        back = pickle.loads(bare)
        assert "_spots" not in vars(back)
        for t_end in (1e-9, 2e-10):
            assert back.transition_spots(t_end) == pulse.transition_spots(t_end)

    @pytest.mark.parametrize("f", FACTORS)
    def test_scaling_invalid_timing_still_raises(self, f):
        bad = object.__new__(Pulse)
        bad.__dict__.update(v1=0.0, v2=1e-3, t_delay=1e-10, t_rise=0.0,
                            t_width=1e-10, t_fall=2e-11, t_period=None)
        with pytest.raises(ValueError, match="rise/fall"):
            bad.scaled(f)

    def test_scaled_of_scaled_type_preserved(self):
        for wave, cls in zip(WAVEFORMS, (DC, PWL, Pulse)):
            assert isinstance(wave.scaled(0.5).scaled(2.0), cls)


class TestRebindAfterRebind:
    def test_chained_rebind_equals_direct_construction(self):
        """Two rebinds == one rebind with the composed waveform, bitwise."""
        system = assemble(build_multi_source_mesh())
        chained = system.rebind_sources(
            scales={0: 1.2}
        ).rebind_sources(scales={0: 1.1})
        direct = system.rebind_sources(
            overrides={0: system.waveforms[0].scaled(1.2).scaled(1.1)}
        )
        # Frozen waveform dataclasses compare by field — float-bitwise.
        assert chained.waveforms == direct.waveforms
        for t in (0.0, 1.3e-10, 4.7e-10):
            np.testing.assert_array_equal(
                chained.bu(t), direct.bu(t)
            )

    def test_rebind_never_restamps_matrices(self):
        system = assemble(build_multi_source_mesh())
        rebound = system.rebind_sources(
            scales={0: 1.5}
        ).rebind_sources(overrides={1: DC(1e-3)})
        assert rebound.C is system.C
        assert rebound.G is system.G
        assert rebound.B is system.B

    def test_override_then_scale_in_one_rebind(self):
        """Within one rebind, overrides apply before scales."""
        system = assemble(build_multi_source_mesh())
        wave = Pulse(0.0, 4e-3, 1e-10, 5e-11, 2e-10, 5e-11)
        combined = system.rebind_sources(
            overrides={0: wave}, scales={0: 0.5}
        )
        assert combined.waveforms[0] == wave.scaled(0.5)

    def test_rebind_leaves_original_untouched(self):
        system = assemble(build_multi_source_mesh())
        before = system.waveforms
        system.rebind_sources(scales={0: 2.0})
        assert system.waveforms == before
