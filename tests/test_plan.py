"""The plan → compile → execute layer (repro.plan).

The contract under test is the tentpole guarantee: a scenario executed
through a compiled plan is **bit-for-bit identical** to an independent
cold ``MatexScheduler`` run on the scenario-bound system — compiling is
an amortisation, never an approximation.  Plus: pickle round-trips of
``CompiledPlan``, scenario validation against the frozen grid, and the
scheduler's delegation (including the ``batch=`` UserWarning satellite).
"""

import contextlib
import functools
from dataclasses import replace
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Netlist, Pulse, assemble
from repro.circuit.waveforms import DC, PWL, Waveform
from repro.core import SolverOptions
from repro.dist import MatexScheduler, MultiprocessExecutor, SerialExecutor
from repro.linalg.lu import FACTORIZATION_CACHE
from repro.plan import (
    PlanError,
    Scenario,
    Session,
    SimulationPlan,
    load_scenarios_json,
)

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
T_END = 1e-9


def cold_run(system, scenario=None, **sched_kwargs):
    """An independent cold run: cleared cache, fresh scheduler."""
    if scenario is not None:
        system = scenario.bind(system)
    FACTORIZATION_CACHE.clear()
    return MatexScheduler(system, OPTS, **sched_kwargs).run(T_END)


class TestWaveformScaling:
    def test_dc(self):
        assert DC(2.0).scaled(1.5) == DC(3.0)

    def test_pwl_scales_values_not_times(self):
        w = PWL([(0.0, 1.0), (1e-10, 3.0), (2e-10, 0.5)])
        s = w.scaled(2.0)
        assert [t for t, _ in s.points] == [t for t, _ in w.points]
        assert [v for _, v in s.points] == [2.0, 6.0, 1.0]
        assert s.transition_spots(1e-9) == w.transition_spots(1e-9)

    def test_pulse_scales_amplitudes_not_timing(self):
        w = Pulse(1e-4, 2e-3, 1e-10, 2e-11, 1e-10, 2e-11, t_period=4e-10)
        s = w.scaled(3.0)
        assert (s.v1, s.v2) == (1e-4 * 3.0, 2e-3 * 3.0)
        assert s.bump_shape() == w.bump_shape()
        assert s.transition_spots(1e-9) == w.transition_spots(1e-9)

    def test_base_class_rejects_unknown_waveforms(self):
        class Weird(Waveform):
            pass

        with pytest.raises(NotImplementedError, match="scaled"):
            Weird().scaled(2.0)


class TestRebindSources:
    def test_matrices_are_shared(self, mesh_system):
        bound = mesh_system.rebind_sources(scales={0: 2.0})
        assert bound.C is mesh_system.C
        assert bound.G is mesh_system.G
        assert bound.B is mesh_system.B
        assert bound.waveforms[0] != mesh_system.waveforms[0]
        assert bound.waveforms[1] is mesh_system.waveforms[1]

    def test_override_then_scale(self, mesh_system):
        w = Pulse(0.0, 1e-3, 1e-10, 5e-11, 2e-10, 5e-11)
        bound = mesh_system.rebind_sources(
            overrides={0: w}, scales={0: 2.0}
        )
        assert bound.waveforms[0] == w.scaled(2.0)

    def test_out_of_range_column(self, mesh_system):
        with pytest.raises(IndexError, match="out of range"):
            mesh_system.rebind_sources(scales={99: 2.0})
        with pytest.raises(IndexError, match="out of range"):
            mesh_system.rebind_sources(overrides={99: mesh_system.waveforms[0]})


class TestScenario:
    def test_normalisation_and_accessors(self):
        sc = Scenario("s", scales={3: 1.5, 1: 0.5})
        assert sc.scales == ((1, 0.5), (3, 1.5))
        assert sc.changed_columns == (1, 3)
        assert not sc.is_baseline
        assert Scenario().is_baseline

    def test_bind_baseline_returns_same_system(self, mesh_system):
        assert Scenario().bind(mesh_system) is mesh_system


class TestSimulationPlanValidation:
    def test_t_end_positive(self, mesh_system):
        with pytest.raises(ValueError, match="t_end must be positive"):
            SimulationPlan(mesh_system, OPTS, t_end=0.0)

    def test_unknown_decomposition(self, mesh_system):
        with pytest.raises(ValueError, match="unknown decomposition"):
            SimulationPlan(mesh_system, OPTS, t_end=T_END,
                           decomposition="magic")

    def test_bad_batch(self, mesh_system):
        with pytest.raises(ValueError, match="batch must be"):
            SimulationPlan(mesh_system, OPTS, t_end=T_END, batch=0)

    @pytest.mark.parametrize("bad, match", [
        ({"decomposition": "magic"}, "unknown decomposition 'magic'"),
        ({"max_nodes": 0}, "max_nodes must be >= 1, got 0"),
        ({"batch": True}, "batch must be 'off', 'auto' or a positive width"),
    ])
    def test_scheduler_raises_the_plans_message(self, mesh_system, bad, match):
        """One check serves both front doors, at construction."""
        with pytest.raises(ValueError, match=match):
            SimulationPlan(mesh_system, OPTS, t_end=T_END, **bad)
        with pytest.raises(ValueError, match=match):
            MatexScheduler(mesh_system, OPTS, **bad)

    def test_all_constant_inputs_rejected_at_compile(self):
        net = Netlist("dc-only")
        net.add_resistor("R1", "a", "0", 1.0)
        net.add_capacitor("C1", "a", "0", 1e-12)
        net.add_current_source("I1", "a", "0", 1e-3)
        with pytest.raises(ValueError, match="constant"):
            SimulationPlan(assemble(net), OPTS, t_end=T_END).compile()


class TestCompile:
    def test_freezes_groups_grid_and_schedules(self, mesh_system):
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        assert compiled.n_nodes == len(compiled.groups) > 0
        assert len(compiled.schedules) == compiled.n_nodes
        assert compiled.global_points[0] == 0.0
        assert compiled.global_points[-1] == pytest.approx(T_END)
        for _g, sched in zip(compiled.groups, compiled.schedules):
            assert sched.points == compiled.global_points
            assert sched.is_lts[0]
        assert compiled.x_dc.shape == (mesh_system.dim,)
        assert "compiled plan" in compiled.summary()

    def test_priming_factors_the_pencil_once(self, mesh_system):
        FACTORIZATION_CACHE.clear()
        SimulationPlan(mesh_system, OPTS, t_end=T_END).compile(prime=True)
        assert len(FACTORIZATION_CACHE) == 2  # G + C+gammaG
        _, misses = FACTORIZATION_CACHE.counters()
        assert misses == 2

    def test_prime_false_skips_the_pencil(self, mesh_system):
        FACTORIZATION_CACHE.clear()
        SimulationPlan(mesh_system, OPTS, t_end=T_END).compile(prime=False)
        assert len(FACTORIZATION_CACHE) == 1  # only G (DC analysis)

    def test_system_fingerprint_tracks_pencil_inputs(self, mesh_system):
        plan = SimulationPlan(mesh_system, OPTS, t_end=T_END)
        a = plan.compile()
        b = plan.compile()
        assert a.system_fingerprint() == b.system_fingerprint()
        other = SimulationPlan(
            mesh_system, replace(OPTS, method="inverted"), t_end=T_END
        ).compile()
        # Same pencil inputs except gamma is still recorded: rational
        # vs inverted share (C, G, B) so only a gamma change alters it.
        assert other.system_fingerprint() == a.system_fingerprint()


class TestSessionParity:
    """Sweep results must be bitwise identical to independent cold runs."""

    @pytest.fixture
    def scenarios(self):
        return [
            Scenario(f"p{i}", scales={0: 1.0 + 0.25 * i, 1: 0.9})
            for i in range(3)
        ]

    def test_stacked_sweep_matches_cold_runs_bitwise(
        self, mesh_system, scenarios
    ):
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        with Session(compiled) as session:
            sweep = session.sweep(scenarios)
        for sc, res in zip(scenarios, sweep):
            cold = cold_run(mesh_system, sc)
            assert res.result.states.tobytes() == cold.result.states.tobytes()
            assert res.result.times.tobytes() == cold.result.times.tobytes()
            assert res.scenario == sc.name
            assert res.n_nodes == cold.n_nodes

    def test_stack_chunking_does_not_change_bits(
        self, mesh_system, scenarios
    ):
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        with Session(compiled) as session:
            stacked = session.sweep(scenarios, stack="auto")
        with Session(compiled) as session:
            chunked = session.sweep(scenarios, stack=1)
        for a, b in zip(stacked, chunked):
            assert a.result.states.tobytes() == b.result.states.tobytes()

    def test_scenario_groups_pickle_like_replace(self, mesh_system, scenarios):
        """A scenario's overridden groups are built directly, and pickle
        to the bytes of ``dataclasses.replace`` on the plan's group."""
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        session = Session(compiled)
        bound = session._validate(scenarios[1])
        tasks = session._scenario_tasks(1, bound)
        assert any(t.group.waveform_overrides for t in tasks)
        for g, t in zip(compiled.groups, tasks):
            want = replace(g, waveform_overrides=t.group.waveform_overrides)
            assert pickle.dumps(t.group) == pickle.dumps(want)

    def test_batch_off_session_matches_too(self, mesh_system, scenarios):
        compiled = SimulationPlan(
            mesh_system, OPTS, t_end=T_END, batch="off"
        ).compile()
        with Session(compiled) as session:
            sweep = session.sweep(scenarios)
        for sc, res in zip(scenarios, sweep):
            cold = cold_run(mesh_system, sc)
            assert res.result.states.tobytes() == cold.result.states.tobytes()

    def test_baseline_scenario_reuses_compiled_dc(self, mesh_system):
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        with Session(compiled) as session:
            res = session.run()  # None = baseline
        assert res.scenario is None
        assert res.dc_seconds == compiled.dc_seconds
        cold = cold_run(mesh_system)
        assert res.result.states.tobytes() == cold.result.states.tobytes()

    def test_scheduler_delegation_is_bit_identical_to_session(
        self, mesh_system
    ):
        """The single-run path and the sweep path are the same code."""
        sched = MatexScheduler(mesh_system, OPTS).run(T_END)
        compiled = SimulationPlan(
            mesh_system, OPTS, t_end=T_END, batch="off"
        ).compile()
        with Session(compiled) as session:
            base = session.run()
        assert sched.result.states.tobytes() == base.result.states.tobytes()

    def test_session_amortises_factorisations(self, mesh_system, scenarios):
        """After the first scenario, nothing is ever factored again."""
        FACTORIZATION_CACHE.clear()
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        with Session(compiled) as session:
            first = session.run(scenarios[0])
            later = session.sweep(scenarios[1:])
        assert first.factor_cache_misses == 2  # G + pencil, at compile
        for res in later:
            assert res.factor_cache_misses == 0
            assert res.factor_cache_hits >= 1  # cache-served scenario DC

    def test_cold_compile_factor_time_is_charged_once(
        self, mesh_system, scenarios
    ):
        """``compile()`` pre-factorises, so every later consumer sees a
        cache view reporting zero seconds; what priming paid (pencil LU +
        kernel exports) must still reach ``factor_seconds``/``tr_total``
        — on the session's first result, and only there."""
        FACTORIZATION_CACHE.clear()
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        assert compiled.factor_seconds > 0.0
        with Session(compiled) as session:
            first, second = session.sweep(scenarios[:2], stack=1)
        assert first.factor_seconds == pytest.approx(compiled.factor_seconds)
        assert second.factor_seconds == 0.0
        assert first.tr_total >= first.factor_seconds

        # Nothing was primed: nothing to charge.
        unprimed = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile(
            prime=False
        )
        assert unprimed.factor_seconds == 0.0

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_runner_factor_time_is_charged_once(
        self, mesh_system, scenarios, workers
    ):
        """An unprimed plan leaves the method pencil to the runner
        (0 workers: the session's own serial runner; otherwise one per
        pool process), which charges its factorisation once, to its
        first result — not to every result of every sweep."""
        FACTORIZATION_CACHE.clear()
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile(
            prime=False
        )
        pool = MultiprocessExecutor(
            mesh_system, OPTS, max_workers=workers, batch_width="auto"
        ) if workers else contextlib.nullcontext()
        with pool as executor, Session(compiled, executor) as session:
            first = session.sweep(scenarios)
            second = session.sweep(scenarios)
        charged = [r.factor_seconds > 0.0 for r in first + second]
        assert charged[0]
        # Which process marches which chunk is the pool's choice: each
        # of the two may build its runner in either sweep.
        assert sum(charged) <= max(workers, 1)
        if workers < 2:
            assert not any(r.factor_seconds for r in second)


class TestCompiledPlanPickle:
    """Satellite: compile → pickle → unpickle → execute is bit-exact."""

    def test_round_trip_executes_bitwise_identically(self, mesh_system):
        scenarios = [Scenario("hot", scales={0: 1.3}), None]
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        with Session(compiled) as session:
            reference = session.sweep(scenarios)

        clone = pickle.loads(pickle.dumps(compiled))
        # Fresh cache = the unpickling process never saw these factors.
        FACTORIZATION_CACHE.clear()
        with Session(clone) as session:
            replayed = session.sweep(scenarios)

        for ref, rep in zip(reference, replayed):
            assert ref.result.states.tobytes() == rep.result.states.tobytes()
            assert ref.result.times.tobytes() == rep.result.times.tobytes()
        np.testing.assert_array_equal(clone.x_dc, compiled.x_dc)
        assert clone.global_points == compiled.global_points
        assert clone.groups == compiled.groups

    def test_frozen_decisions_survive_the_pipe(self, mesh_system):
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.schedules == compiled.schedules
        assert clone.decomposition == compiled.decomposition
        assert clone.batch == compiled.batch
        assert clone.system_fingerprint() == compiled.system_fingerprint()


@functools.cache
def _validation_session():
    """Pulses that vary (from zero and from a level), a constant pulse,
    a periodic pulse, a PWL and a DC source: columns 0 … 5."""
    net = Netlist("validation-mesh")
    for i in range(3):
        net.add_resistor(f"R{i}", f"n{i}", f"n{i + 1}", 2.0)
        net.add_capacitor(f"C{i}", f"n{i}", "0", 1e-13)
    net.add_resistor("Rg", "n0", "0", 0.05)
    net.add_current_source("I0", "n1", "0", Pulse(0.0, 5e-3, 1e-10, 5e-11, 2e-10, 5e-11))
    net.add_current_source("I1", "n2", "0", Pulse(1e-3, -4e-3, 2e-10, 3e-11, 1e-10, 4e-11))
    net.add_current_source("I2", "n3", "0", Pulse(2e-3, 2e-3, 1e-10, 5e-11, 2e-10, 5e-11))
    net.add_current_source(
        "I3", "n1", "0", Pulse(0.0, 1e-3, 1e-10, 5e-11, 1e-10, 5e-11, t_period=4e-10)
    )
    net.add_current_source("I4", "n2", "0", PWL([(0.0, 0.0), (3e-10, 2e-3), (6e-10, 1e-3)]))
    net.add_current_source("I5", "n3", "0", DC(1e-3))
    system = assemble(net)
    return Session(SimulationPlan(system, OPTS, t_end=T_END).compile()), system


class TestScenarioValidation:
    def test_spot_moving_override_is_rejected(self, mesh_system):
        moved = Pulse(0.0, 5e-3, 1.3e-10, 5e-11, 2e-10, 5e-11)
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        with Session(compiled) as session:
            with pytest.raises(PlanError, match="transition grid"):
                session.run(Scenario("bad", overrides={0: moved}))

    def test_zero_scale_is_rejected(self, mesh_system):
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        with Session(compiled) as session:
            with pytest.raises(PlanError, match="constancy"):
                session.run(Scenario("dead", scales={0: 0.0}))

    @given(st.lists(
        st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308,
                         math.nan, math.inf, -math.inf, 1.0, -2.5])
        | st.floats(allow_nan=True, allow_infinity=True),
        min_size=6, max_size=6,
    ), st.sets(st.integers(0, 5)))
    @settings(max_examples=150, deadline=None)
    def test_scaled_pulses_are_judged_as_the_objects(self, factors, cols):
        """The array test over the pulse table accepts and rejects what
        comparing each scaled waveform with its base does, and names the
        same (first) column."""
        session, system = _validation_session()
        scenario = Scenario("s", scales={c: factors[c] for c in sorted(cols)})
        expected = None
        bound = scenario.bind(system)
        for col in scenario.changed_columns:
            old, new = system.waveforms[col], bound.waveforms[col]
            if new.is_constant() != old.is_constant() or (
                new.transition_spots(T_END) != old.transition_spots(T_END)
            ):
                expected = col
                break
        if expected is None:
            assert (session._validate(scenario) is None) == scenario.is_baseline
        else:
            with pytest.raises(PlanError, match=f"input column {expected}:"):
                session._validate(scenario)

    def test_spot_preserving_override_is_accepted(self, mesh_system):
        base = mesh_system.waveforms[0]
        taller = Pulse(
            base.v1, base.v2 * 2.0, base.t_delay, base.t_rise,
            base.t_width, base.t_fall, t_period=base.t_period,
        )
        sc = Scenario("tall", overrides={0: taller})
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        with Session(compiled) as session:
            res = session.run(sc)
        cold = cold_run(mesh_system, sc)
        assert res.result.states.tobytes() == cold.result.states.tobytes()

    def test_zero_scaled_pwl_is_rejected(self, mesh_system):
        """A PWL's spots follow its slopes: a zero factor collapses them,
        so validation's spot check (not its constancy check) rejects it."""
        pulse = mesh_system.waveforms[0]
        spots = pulse.transition_spots(T_END) + [T_END]
        pwl = PWL(zip(spots, pulse.values_array(np.array(spots))))
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        with Session(compiled) as session:
            assert session._validate(
                Scenario("pwl", overrides={0: pwl}, scales={0: 0.5})
            ) is not None
            with pytest.raises(PlanError, match="transition grid"):
                session.run(
                    Scenario("flat", overrides={0: pwl}, scales={0: 0.0})
                )

    @pytest.mark.parametrize("moved", [False, True])
    def test_overridden_and_scaled_column_checks_override_spots(
        self, mesh_system, moved
    ):
        """The scaled copy shares its *override's* spot memo, not the
        base pulse's: a moved override stays rejected after scaling."""
        base = mesh_system.waveforms[0]
        delay = base.t_delay * 1.3 if moved else base.t_delay
        wave = Pulse(base.v1, base.v2 * 2.0, delay, base.t_rise,
                     base.t_width, base.t_fall, t_period=base.t_period)
        sc = Scenario("both", overrides={0: wave}, scales={0: 1.5})
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        with Session(compiled) as session:
            if moved:
                with pytest.raises(PlanError, match="transition grid"):
                    session._validate(sc)
            else:
                bound = session._validate(sc)
                assert bound.waveforms[0] == wave.scaled(1.5)

    def test_bump_split_plans_reject_scenarios(self, mesh_system):
        compiled = SimulationPlan(
            mesh_system, OPTS, t_end=T_END, decomposition="bump-split"
        ).compile()
        with Session(compiled) as session:
            # Baseline still works...
            session.run()
            # ...but rebinding under split-bump overrides cannot.
            with pytest.raises(PlanError, match="bump-split"):
                session.run(Scenario("hot", scales={0: 1.2}))

    def test_validation_happens_before_any_execution(self, mesh_system):
        compiled = SimulationPlan(mesh_system, OPTS, t_end=T_END).compile()
        with Session(compiled) as session:
            with pytest.raises(PlanError):
                session.sweep([
                    Scenario("ok", scales={0: 1.1}),
                    Scenario("bad", scales={0: 0.0}),
                ])
            assert session.n_scenarios_run == 0


class TestSchedulerBatchWarning:
    """Satellite: batch= with an explicit executor warns, not silence."""

    def test_warns_when_batch_cannot_apply(self, mesh_system):
        sched = MatexScheduler(mesh_system, OPTS, batch="auto")
        ex = SerialExecutor(mesh_system, OPTS, batch_width="auto")
        with pytest.warns(UserWarning, match="batch"):
            res = sched.run(T_END, executor=ex)
        assert res.n_nodes > 0

    def test_no_warning_for_default_batch(
        self, mesh_system, recwarn
    ):
        ex = SerialExecutor(mesh_system, OPTS)
        MatexScheduler(mesh_system, OPTS).run(T_END, executor=ex)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, UserWarning)]

    def test_only_off_is_silent_with_an_explicit_executor(
        self, mesh_system, recwarn
    ):
        """``"off"`` asks for nothing the executor could contradict;
        any other width — 1 included, though it marches the same — is a
        request the scheduler cannot honour and says so."""
        ex = SerialExecutor(mesh_system, OPTS)
        MatexScheduler(mesh_system, OPTS, batch="off").run(
            T_END, executor=ex
        )
        assert not [w for w in recwarn.list
                    if issubclass(w.category, UserWarning)]
        with pytest.warns(UserWarning, match="batch=1"):
            MatexScheduler(mesh_system, OPTS, batch=1).run(
                T_END, executor=ex
            )

    def test_no_warning_without_explicit_executor(
        self, mesh_system, recwarn
    ):
        MatexScheduler(mesh_system, OPTS, batch="auto").run(T_END)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, UserWarning)]


class TestLoadScenariosJson:
    def test_spec_round_trip(self, tmp_path, mesh_system):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '[{"name": "nominal"},'
            ' {"name": "hot", "scale_loads": 1.3},'
            ' {"name": "mixed", "scale_loads": 1.1, "scale": {"0": 0.7}}]'
        )
        scenarios = load_scenarios_json(spec, mesh_system)
        assert [s.name for s in scenarios] == ["nominal", "hot", "mixed"]
        assert scenarios[0].is_baseline
        hot = dict(scenarios[1].scales)
        assert all(hot[k] == 1.3 for k in mesh_system.current_input_indices)
        mixed = dict(scenarios[2].scales)
        assert mixed[0] == 0.7  # per-column beats scale_loads
        assert mixed[1] == 1.1

    def test_bad_specs_are_rejected(self, tmp_path, mesh_system):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        with pytest.raises(ValueError, match="JSON list"):
            load_scenarios_json(bad, mesh_system)
        bad.write_text('[{"name": "x", "typo_key": 1}]')
        with pytest.raises(ValueError, match="unknown keys"):
            load_scenarios_json(bad, mesh_system)
        bad.write_text('[{"scale": {"999": 1.0}}]')
        with pytest.raises(ValueError, match="out of range"):
            load_scenarios_json(bad, mesh_system)
