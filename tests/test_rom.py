"""Reduced-order tier tests (repro.rom + its plan/session wiring).

Covers the ISSUE-7 contracts:

* the block rational-Krylov projector deflates rank-deficient and
  duplicated input blocks cleanly (property test over random low-rank
  ``B``),
* accepted reduced answers sit inside their certified absolute bound
  (checked against the full-order trajectory),
* rejected scenarios transparently fall back to the full-order path,
  bit-identical and order-preserving,
* a `ReducedModel` pickles with its compiled plan and answers
  bit-identically after the roundtrip,
* a build failure degrades the compile gracefully (``rom_error``),

the certification of the sketched basis on pg1t under the bench's
options (every accepted answer inside its bound against the full-order
sweep, two load-pattern seeds) with its determinism (byte-identical
rebuilds, no new ``RomConfig`` knob),

and the ISSUE-17 one: the shipped real-arithmetic, shape-factored
``answer`` agrees with ``dense_complex_answer`` — the formula evaluated
over every input row with complex ``(n, q)`` lifts — on inputs that do
and do not factor over the base shapes.
"""

import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import repro.rom.model as rom_model
import repro.rom.projector as projector
from repro.circuit.waveforms import PWL
from repro.core.options import SolverOptions
from repro.linalg.lu import FACTORIZATION_CACHE, canonical_shift
from repro.plan import PlanError, Scenario, Session, SimulationPlan
from repro.rom import (
    RomAnswer,
    RomBuildError,
    RomConfig,
    build_reduced_model,
    rational_krylov_basis,
)
from repro.core.shapes import _shape_rows

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
T_END = 1e-9
GAMMA = OPTS.gamma


def _compile(system, rom=None):
    return SimulationPlan(system, OPTS, t_end=T_END).compile(rom=rom)


class TestProjectorDeflation:
    def test_orthonormal_basis(self, mesh_system):
        V, info, _, _ = rational_krylov_basis(
            mesh_system.C, mesh_system.G, mesh_system.B, GAMMA
        )
        assert V.shape == (mesh_system.dim, info.rank)
        np.testing.assert_allclose(
            V.T @ V, np.eye(V.shape[1]), atol=1e-12
        )

    def test_duplicated_columns_deflate(self, mesh_system):
        """Repeating every input column must not grow the basis."""
        Bd = np.asarray(mesh_system.B.todense())
        Bdup = np.concatenate([Bd, Bd, Bd], axis=1)
        V1, info1, _, _ = rational_krylov_basis(
            mesh_system.C, mesh_system.G, Bd, GAMMA
        )
        V3, info3, _, _ = rational_krylov_basis(
            mesh_system.C, mesh_system.G, Bdup, GAMMA
        )
        assert info3.rank == info1.rank
        assert info3.n_candidates == 3 * info1.n_candidates
        assert info3.n_deflated >= 2 * info1.rank
        np.testing.assert_allclose(
            V3.T @ V3, np.eye(V3.shape[1]), atol=1e-12
        )

    def test_random_low_rank_b_property(self, mesh_system, rng):
        """rank(basis) <= (moments + 1) * rank(B), at any width."""
        n = mesh_system.dim
        for r in (1, 2, 4):
            for _ in range(3):
                B = rng.normal(size=(n, r)) @ rng.normal(size=(r, 11))
                V, info, _, _ = rational_krylov_basis(
                    mesh_system.C, mesh_system.G, B, GAMMA, moments=2
                )
                assert info.rank == V.shape[1]
                assert info.rank <= 3 * r
                assert info.n_candidates == 3 * 11
                np.testing.assert_allclose(
                    V.T @ V, np.eye(V.shape[1]), atol=1e-10
                )

    def test_zero_input_block_raises(self, mesh_system):
        with pytest.raises(RomBuildError, match="zero"):
            rational_krylov_basis(
                mesh_system.C, mesh_system.G,
                np.zeros((mesh_system.dim, 3)), GAMMA,
            )

    def test_hands_back_the_quasi_static_block(self, mesh_system):
        _, _, W, _ = rational_krylov_basis(
            mesh_system.C, mesh_system.G, mesh_system.B, GAMMA
        )
        np.testing.assert_allclose(
            mesh_system.G @ W, mesh_system.B.toarray(), atol=1e-12
        )

    def test_q_max_caps_and_reports_truncation(self, mesh_system):
        V, info, _, _ = rational_krylov_basis(
            mesh_system.C, mesh_system.G, mesh_system.B, GAMMA, q_max=2
        )
        assert V.shape[1] == 2 and info.rank == 2 and info.truncated


def whole_block_basis(C, G, B, gamma, moments=2, q_max=200,
                      deflation_tol=1e-10):
    """``(V, W)`` from the candidate block built whole: every moment
    block solved at full width, concatenated, then normalised — the
    oracle the projector's in-place column-chunk fill must match byte
    for byte."""
    Bd = np.asarray(B.todense() if sp.issparse(B) else B, order="F")
    lu_g = FACTORIZATION_CACHE.factor(G, label="G(rom)")
    lu_s = FACTORIZATION_CACHE.factor(
        (C + gamma * G).tocsc(), label="S(rom)",
        key_extra=("gamma", canonical_shift(gamma)),
    )
    W = np.asarray(lu_g.solve_many(Bd))
    X = np.asarray(lu_s.solve_many(Bd))
    blocks = [W, X]
    for _ in range(moments - 1):
        X = np.asarray(lu_s.solve_many(np.asarray(C @ X)))
        blocks.append(X)
    cand = np.concatenate(blocks, axis=1)
    norms = np.linalg.norm(cand, axis=0)
    cand /= np.where(norms > 0.0, norms, 1.0)
    n = cand.shape[0]
    k = min(q_max + projector.SKETCH_OVERSAMPLE, n)
    omega = np.random.default_rng(projector.SKETCH_SEED).standard_normal((k, n))
    R, perm = sla.qr(omega @ cand, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    keep = min(q_max, int(np.sum(diag > deflation_tol * diag[0])))
    Q, _ = sla.qr(cand[:, perm[:keep]], mode="economic", overwrite_a=True)
    return np.ascontiguousarray(Q), W


class TestInPlaceFill:
    """The candidate block is filled in place, ``FILL_COLUMNS`` input
    columns at a time; every column keeps the whole-block bits."""

    @pytest.mark.parametrize("fill", (1, 2))
    def test_chunked_fill_is_byte_equal_to_whole_blocks(
        self, mesh_system, monkeypatch, fill
    ):
        """3 inputs in steps of 1 or 2 columns (the last one partial),
        through two moment recursions."""
        monkeypatch.setattr(projector, "FILL_COLUMNS", fill)
        s = mesh_system
        V, _, W, _ = rational_krylov_basis(s.C, s.G, s.B, GAMMA, moments=3)
        V_ref, W_ref = whole_block_basis(s.C, s.G, s.B, GAMMA, moments=3)
        assert W.flags.f_contiguous
        assert V.tobytes() == V_ref.tobytes()
        assert W.tobytes() == W_ref.tobytes()

    def test_non_finite_chunk_raises(self, mesh_system, monkeypatch):
        monkeypatch.setattr(projector, "FILL_COLUMNS", 1)
        B = mesh_system.B.toarray()
        B[0, -1] = np.inf
        with pytest.raises(RomBuildError, match="non-finite"):
            rational_krylov_basis(mesh_system.C, mesh_system.G, B, GAMMA)


class TestRomConfig:
    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1.0}, {"q_max": 0}, {"moments": 0},
        {"deflation_tol": 0.0}, {"deflation_tol": 1.0}, {"safety": 0.5},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RomConfig(**kwargs)


class TestCompileWiring:
    def test_compile_bakes_model_and_summary(self, mesh_system):
        compiled = _compile(mesh_system, rom=RomConfig())
        assert compiled.rom is not None and compiled.rom_error is None
        assert compiled.rom.dim <= RomConfig().q_max
        assert "reduced model:" in compiled.summary()

    def test_compile_without_rom_has_none(self, mesh_system):
        compiled = _compile(mesh_system)
        assert compiled.rom is None and compiled.rom_error is None
        assert "reduced model:" not in compiled.summary()

    def test_build_failure_degrades_to_full_order(
        self, mesh_system, monkeypatch
    ):
        import repro.rom as rom_pkg

        def boom(*args, **kwargs):
            raise RomBuildError("synthetic failure")

        monkeypatch.setattr(rom_pkg, "build_reduced_model", boom)
        compiled = _compile(mesh_system, rom=RomConfig())
        assert compiled.rom is None
        assert "synthetic failure" in compiled.rom_error
        assert "rom unavailable: synthetic failure" in compiled.summary()
        with Session(compiled) as session:
            with pytest.raises(PlanError, match="synthetic failure"):
                session.sweep([None], rom=True)
            result = session.run()  # the full-order path still works
            assert result.rom_dim is None

    def test_build_reuses_the_plans_pencil_factor(self, mesh_system):
        """The projector's ``G`` and ``C + γG`` are the plan's own
        factors: a cold compile with a model factors two matrices."""
        FACTORIZATION_CACHE.clear()
        compiled = _compile(mesh_system, rom=RomConfig())
        assert compiled.rom is not None
        assert compiled.cache_misses == 2

    def test_model_bytes_in_external_ledger(self, mesh_system):
        config = RomConfig()
        compiled = _compile(mesh_system, rom=config)
        assert (FACTORIZATION_CACHE.stats()["external_bytes"]
                >= compiled.rom.resident_bytes())
        # Keyed by the plan's own (C, G, B, γ) digest, so a re-compile
        # of the same pencil and config overwrites its entry.
        key = (f"rom:{compiled.system_fingerprint()}"
               f"-q{config.q_max}m{config.moments}")
        assert FACTORIZATION_CACHE._external[key] == (
            compiled.rom.resident_bytes()
        )

    def test_register_external_overwrites_and_unregisters(self):
        stats = FACTORIZATION_CACHE.stats
        base = stats()["external_bytes"]
        FACTORIZATION_CACHE.register_external("test:ledger", 1000)
        assert stats()["external_bytes"] == base + 1000
        FACTORIZATION_CACHE.register_external("test:ledger", 400)
        assert stats()["external_bytes"] == base + 400
        FACTORIZATION_CACHE.unregister_external("test:ledger")
        assert stats()["external_bytes"] == base


class TestSessionRouting:
    def test_accepted_answer_sits_inside_its_bound(self, mesh_system, rng):
        compiled = _compile(mesh_system, rom=RomConfig(tol=0.9))
        model = compiled.rom
        scenarios = [
            None,
            Scenario(name="hot", scales={0: 1.4, 1: 0.8}),
            Scenario(name="cool", scales={0: 0.6}),
        ] + [
            Scenario(
                name=f"rand{i}",
                scales=dict(enumerate(rng.uniform(0.2, 3.0, size=3))),
            )
            for i in range(32)
        ]
        with Session(compiled) as session:
            rom_results = session.sweep(scenarios)
            full_results = session.sweep(scenarios, rom=False)
        assert session.rom_accepted == 35 and session.rom_fallbacks == 0
        for sc, r, f in zip(scenarios, rom_results, full_results):
            assert r.rom_dim == model.dim and not r.rom_fallback
            assert r.result.method == f"rom[q={model.dim}]"
            assert r.result.states.flags["C_CONTIGUOUS"]
            ans = model.answer(model.input_matrix(sc, None))
            err = float(
                np.abs(r.result.states - f.result.states).max()
            )
            assert err <= ans.bound_abs
            assert r.rom_bound == ans.bound_rel <= 0.9

    def test_pg1t_bench_scenarios_sit_inside_their_bound(self):
        """The bench's own spot scenarios, at a tolerance that splits
        them: every answer is certified, every fallback is the
        full-order bits.  The splitting tolerance is the median of the
        scenarios' own bounds (the bound does not depend on ``tol``),
        so both branches run whatever the basis' last bits are."""
        from repro.pdn import build_case, load_pattern_scenarios

        system, case = build_case("pg1t")
        compiled = SimulationPlan(
            system, replace(OPTS, eps_rel=1e-6), t_end=case.t_end
        ).compile(rom=RomConfig())
        assert compiled.rom.n_shapes == compiled.n_nodes == 100
        scenarios = load_pattern_scenarios(
            system, n=8, seed=2014, spread=0.5
        )
        bounds = [
            compiled.rom.answer(compiled.rom.input_matrix(sc, None)).bound_rel
            for sc in scenarios
        ]
        model = replace(
            compiled.rom, config=RomConfig(tol=float(np.median(bounds)))
        )
        compiled = replace(compiled, rom=model)
        with Session(compiled) as session:
            rom_results = session.sweep(scenarios)
            full_results = session.sweep(scenarios, rom=False)
        assert session.rom_accepted >= 1 and session.rom_fallbacks >= 1
        for sc, r, f in zip(scenarios, rom_results, full_results):
            ans = model.answer(model.input_matrix(sc, None))
            assert r.rom_fallback == (not ans.accepted)
            want = f.result.states if r.rom_fallback else ans.states
            assert r.result.states.tobytes() == want.tobytes()
            err = float(np.abs(ans.states - f.result.states).max())
            assert err <= ans.bound_abs

    def test_rejected_scenarios_fall_back_bit_identically(
        self, mesh_system
    ):
        compiled = _compile(mesh_system, rom=RomConfig(tol=1e-13))
        scenarios = [Scenario(name="hot", scales={0: 1.3}), None]
        with Session(compiled) as session:
            rom_results = session.sweep(scenarios)
            full_results = session.sweep(scenarios, rom=False)
        assert session.rom_fallbacks == 2 and session.rom_accepted == 0
        for r, f in zip(rom_results, full_results):
            assert r.rom_fallback and r.rom_dim == compiled.rom.dim
            assert r.rom_bound > 1e-13
            assert (r.result.states.tobytes()
                    == f.result.states.tobytes())

    def test_mixed_sweep_preserves_input_order(self, mesh_system):
        """Fallbacks are re-run stacked, then spliced back in order."""
        compiled = _compile(mesh_system, rom=RomConfig(tol=0.9))

        class RejectSome:
            """Duck-typed model: rejects every second consultation."""

            def __init__(self, model):
                self._model = model
                self._calls = 0
                self.dim = model.dim
                self.grid = model.grid
                self.n_points = model.n_points

            def input_matrix(self, scenario, bound):
                return self._model.input_matrix(scenario, bound)

            def answer(self, U):
                ans = self._model.answer(U)
                self._calls += 1
                if self._calls % 2 == 0:
                    return RomAnswer(
                        states=ans.states, bound_abs=ans.bound_abs,
                        bound_rel=1.0, accepted=False,
                        seconds=ans.seconds,
                    )
                return ans

        rigged = replace(compiled, rom=RejectSome(compiled.rom))
        names = [f"s{i}" for i in range(5)]
        scenarios = [
            Scenario(name=nm, scales={0: 1.0 + 0.05 * i})
            for i, nm in enumerate(names)
        ]
        with Session(rigged) as session:
            results = session.sweep(scenarios)
            assert session.rom_accepted == 3
            assert session.rom_fallbacks == 2
        assert [r.scenario for r in results] == names
        assert [r.rom_fallback for r in results] == [
            False, True, False, True, False,
        ]
        for r in results:
            assert r.rom_dim == compiled.rom.dim

    def test_run_defaults_to_full_order(self, mesh_system):
        compiled = _compile(mesh_system, rom=RomConfig(tol=0.9))
        with Session(compiled) as session:
            result = session.run()
        assert result.rom_dim is None and not result.rom_fallback

    def test_rom_true_without_model_raises(self, mesh_system):
        compiled = _compile(mesh_system)
        with Session(compiled) as session:
            with pytest.raises(PlanError, match="no reduced model"):
                session.sweep([None], rom=True)


def dense_complex_answer(model, U):
    """The reduced answer as it was computed before ISSUE 17 (tests only).

    Every one of the ``p`` input rows goes through ``W`` and ``F``, the
    march looks its propagators up by segment width, and the trajectory
    is lifted through the complex ``(n, q)`` products ``V·X`` and
    ``(G^-1 C V)·X`` — rebuilt here from the shipped real fields.
    Returns ``(states, bound_abs, bound_rel, accepted, scale)``.
    """
    n, q, K = model.n_full, model.dim, model.n_points
    W = model.input_map[:, :n].T
    F = np.ascontiguousarray(model.input_map[:, n:]).view(complex).T
    X = (model.X[0::2] - 1j * model.X[1::2]).T
    lift_v = model.Vt.T.astype(complex) @ X
    lift_z = model.Zt.T @ X
    tables = {
        float(h): tuple(model.propagators[:, k])
        for k, h in enumerate(model.widths)
    }
    grid = model.grid

    Ut = U - U[:, :1]
    qs = W @ Ut
    x_dc = W @ U[:, 0]
    FU = F @ Ut
    Y = np.empty((q, K), dtype=complex)
    y = np.zeros(q, dtype=complex)
    Y[:, 0] = y
    for i in range(K - 1):
        h = grid[i + 1] - grid[i]
        a, b, c = tables[h]
        d = (FU[:, i + 1] - FU[:, i]) / h
        y = a * y + b * FU[:, i] + c * d
        Y[:, i + 1] = y
    dev = (lift_v @ Y).real
    Ydot = model.lam[:, None] * (Y - model.gamma * FU) + FU
    res = qs - (lift_z @ Ydot).real - dev
    bound_abs = model.config.safety * float(np.abs(res).max(initial=0.0))
    scale = max(
        float(np.abs(qs).max(initial=0.0)),
        float(np.abs(dev).max(initial=0.0)),
    )
    bound_rel = bound_abs / scale if scale > 0.0 else 0.0
    states = (x_dc[:, None] + dev).T
    return states, bound_abs, bound_rel, bound_rel <= model.config.tol, scale


def _n_answer_shapes(model, U):
    """Shape rows the answer's GEMMs run over for input ``U``."""
    _, _, S = _shape_rows(
        U, U - U[:, :1], model.shapes, model.shape_of, model.pivot
    )
    return S.shape[0]


def _model(system, **config):
    return build_reduced_model(system, OPTS, T_END, RomConfig(**config))


class TestAnswerOracle:
    def _check(self, model, U):
        ans = model.answer(U)
        states, bound_abs, bound_rel, accepted, scale = (
            dense_complex_answer(model, U)
        )
        assert ans.states.shape == (model.n_points, model.n_full)
        assert ans.states.flags["C_CONTIGUOUS"]
        assert np.abs(ans.states - states).max() <= 1e-12 * scale
        # 1e-9 relative, above the round-off floor of the residual's
        # own cancellation (a near-exact model's bound *is* round-off).
        assert abs(ans.bound_abs - bound_abs) <= (
            1e-9 * bound_abs + 1e-12 * scale
        )
        assert abs(ans.bound_rel - bound_rel) <= 1e-9 * bound_rel + 1e-12
        assert ans.accepted == accepted
        return ans

    def test_baseline_and_amplitude_only(self, mesh_system):
        model = _model(mesh_system)
        # I1 and I3 share a bump shape: three inputs, two shapes.
        assert (model.n_inputs, model.n_shapes) == (3, 2)
        for sc in (None, Scenario(name="hot", scales={0: 1.4, 2: 0.3})):
            U = model.input_matrix(sc, None)
            assert _n_answer_shapes(model, U) == 2
            assert self._check(model, U).accepted

    def test_scale_on_a_constant_supply_column(self, small_pdn_system):
        model = _model(small_pdn_system)
        (vdd,) = [
            k for k, w in enumerate(small_pdn_system.waveforms)
            if w.is_constant()
        ]
        base = self._check(model, model.input_matrix())
        U = model.input_matrix(Scenario(name="sag", scales={vdd: 0.9}), None)
        assert _n_answer_shapes(model, U) == model.n_shapes
        sag = self._check(model, U)
        # A supply scale moves the DC point, not the deviation.
        assert sag.bound_abs == base.bound_abs
        assert np.abs(sag.states - base.states).max() > 0.1

    def test_constant_inputs_have_zero_scale_and_bound(self, mesh_system):
        model = _model(mesh_system)
        U = np.tile([[1e-3], [-2e-3], [0.0]], (1, model.n_points))
        ans = self._check(model, U)
        assert ans.bound_rel == 0.0 and ans.accepted
        assert np.ptp(ans.states, axis=0).max() == 0.0

    def test_override_with_a_shape_outside_the_base_set(self, mesh_system):
        model = _model(mesh_system)
        # I2's own transition spots, a ramp-down instead of a plateau.
        ramp = PWL([(0.0, 0.0), (2e-10, 0.0), (2.3e-10, 4e-3),
                    (3.3e-10, 1e-3), (3.7e-10, 0.0), (1e-9, 0.0)])
        scenario = Scenario(name="ramp", overrides={1: ramp}, scales={0: 0.7})
        U = model.input_matrix(scenario, scenario.bind(mesh_system))
        assert _n_answer_shapes(model, U) == model.n_shapes + 1
        self._check(model, U)

    def test_same_spot_inputs_that_are_not_proportional(self, mesh_system):
        # I3 keeps I1's transition spots but not its shape: r == p.
        skew = PWL([(0.0, 0.0), (1e-10, 0.0), (1.5e-10, 2e-3),
                    (3.5e-10, 1e-3), (4e-10, 0.0), (1e-9, 0.0)])
        system = mesh_system.rebind_sources(overrides={2: skew})
        model = _model(system)
        assert model.n_shapes == model.n_inputs == 3
        for sc in (None, Scenario(name="hot", scales={2: 1.7})):
            U = model.input_matrix(sc, None)
            assert _n_answer_shapes(model, U) == 3
            self._check(model, U)

    def test_dense_input_violating_every_base_shape(self, mesh_system, rng):
        model = _model(mesh_system)
        U = 1e-3 * rng.normal(size=(model.n_inputs, model.n_points))
        assert _n_answer_shapes(model, U) == model.n_shapes + model.n_inputs
        self._check(model, U)

    def test_dense_b_builds_the_same_model(self, mesh_system):
        dense = replace(mesh_system, B=mesh_system.B.toarray())
        a, b = _model(mesh_system), _model(dense)
        np.testing.assert_allclose(b.input_map, a.input_map, atol=1e-12)
        np.testing.assert_allclose(
            b.answer(b.U_base).states, a.answer(a.U_base).states,
            atol=1e-15,
        )

    def test_all_constant_inputs_refuse_to_build(self, small_pdn_system):
        flat = small_pdn_system.rebind_sources(
            overrides={
                k: w.scaled(0.0)
                for k, w in enumerate(small_pdn_system.waveforms)
                if not w.is_constant()
            }
        )
        with pytest.raises(RomBuildError, match="constant"):
            _model(flat)


class TestPickling:
    def test_model_roundtrip_answers_bit_identically(self, mesh_system):
        model = build_reduced_model(
            mesh_system, OPTS, T_END, RomConfig()
        )
        clone = pickle.loads(pickle.dumps(model))
        scenario = Scenario(name="hot", scales={0: 1.2})
        a = model.answer(model.input_matrix(scenario, None))
        b = clone.answer(clone.input_matrix(scenario, None))
        assert a.states.tobytes() == b.states.tobytes()
        assert a.bound_abs == b.bound_abs
        assert a.bound_rel == b.bound_rel

    def test_compiled_plan_carries_the_model_through_pickle(
        self, mesh_system
    ):
        compiled = _compile(mesh_system, rom=RomConfig(tol=0.9))
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.rom is not None
        assert clone.rom.dim == compiled.rom.dim
        with Session(compiled) as s1, Session(clone) as s2:
            r1 = s1.sweep([Scenario(name="hot", scales={0: 1.1})])
            r2 = s2.sweep([Scenario(name="hot", scales={0: 1.1})])
        assert (r1[0].result.states.tobytes()
                == r2[0].result.states.tobytes())


class TestModelInternals:
    def test_reduced_exponents_are_stable(self, mesh_system):
        model = build_reduced_model(
            mesh_system, OPTS, T_END, RomConfig()
        )
        assert np.all(model.lam.real <= 0.0)

    def test_dc_point_matches_full_order(self, mesh_system):
        model = build_reduced_model(
            mesh_system, OPTS, T_END, RomConfig()
        )
        ans = model.answer(model.input_matrix())
        lu = FACTORIZATION_CACHE.factor(mesh_system.G, label="G(test)")
        x_dc = lu.solve(mesh_system.bu(0.0))
        np.testing.assert_allclose(
            ans.states[0], x_dc, rtol=1e-9, atol=1e-14
        )

    def test_resident_bytes_is_the_sum_of_the_array_fields(
        self, mesh_system
    ):
        model = _model(mesh_system)
        arrays = (
            "grid", "mu", "lam", "input_map", "X", "Vt", "Zt", "U_base",
            "shapes", "shape_of", "pivot", "widths", "propagators",
            "segment",
        )
        assert {
            f.name for f in fields(model)
            if isinstance(getattr(model, f.name), np.ndarray)
        } == set(arrays)
        assert model.resident_bytes() == sum(
            getattr(model, name).nbytes for name in arrays
        )
        # The lifts are real: nothing complex is as long as the system.
        for name in arrays:
            v = getattr(model, name)
            assert not (np.iscomplexobj(v) and model.n_full in v.shape)
        assert (f"{model.n_inputs} inputs in {model.n_shapes} shapes"
                in model.summary())

    def test_segment_tables_cover_grid_widths(self, mesh_system):
        model = build_reduced_model(
            mesh_system, OPTS, T_END, RomConfig()
        )
        widths = {float(w) for w in np.diff(model.grid)}
        assert widths == {float(h) for h in model.widths}


#: The sweep bench's solver options (``bench/workloads.py``).
BENCH_OPTS = replace(OPTS, eps_rel=1e-6)


@pytest.fixture(scope="module")
def pg1t_rom():
    """pg1t compiled with the default reduced model, as the bench does."""
    from repro.pdn import build_case

    system, case = build_case("pg1t")
    compiled = SimulationPlan(
        system, BENCH_OPTS, t_end=case.t_end
    ).compile(rom=RomConfig())
    assert compiled.rom is not None, compiled.rom_error
    return system, case, compiled


class TestCertification:
    @pytest.mark.parametrize("seed", (7, 11))
    def test_pg1t_bound_dominates_the_full_order_error(self, pg1t_rom, seed):
        """Every accepted answer on the bench's load patterns sits inside
        its absolute bound against the full-order sweep, and at least
        95 % are accepted."""
        from repro.pdn import load_pattern_scenarios

        system, _, compiled = pg1t_rom
        model = compiled.rom
        scenarios = load_pattern_scenarios(
            system, n=32, seed=seed, spread=0.5
        )
        with Session(compiled) as session:
            full = session.sweep(scenarios, rom=False)
        accepted = 0
        for sc, f in zip(scenarios, full):
            ans = model.answer(model.input_matrix(sc, None))
            if not ans.accepted:
                continue
            accepted += 1
            err = float(np.abs(ans.states - f.result.states).max())
            assert err <= ans.bound_abs, (sc.name, err, ans.bound_abs)
        assert accepted >= 0.95 * len(scenarios)


class TestDeterminism:
    def test_two_builds_are_byte_identical(self, pg1t_rom):
        system, case, compiled = pg1t_rom
        a = compiled.rom
        b = build_reduced_model(system, BENCH_OPTS, case.t_end, RomConfig())
        assert a.basis.truncated and a.dim == RomConfig().q_max
        for name in ("Vt", "mu", "input_map"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.basis == b.basis

    def test_pg1t_basis_is_byte_equal_to_whole_blocks(self, pg1t_rom):
        """pg1t has 804 inputs: seven fill steps, the last one partial."""
        system = pg1t_rom[0]
        args = (system.C, system.G, system.B, BENCH_OPTS.gamma)
        V, _, W, _ = rational_krylov_basis(*args)
        V_ref, W_ref = whole_block_basis(*args)
        assert system.n_inputs % projector.FILL_COLUMNS
        assert V.tobytes() == V_ref.tobytes()
        assert W.tobytes() == W_ref.tobytes()

    def test_answers_equal_a_whole_block_build(self, pg1t_rom, monkeypatch):
        """A model built on the whole-block basis answers 4 bench
        scenarios with the same bits as the compiled one."""
        from repro.pdn import load_pattern_scenarios

        system, case, compiled = pg1t_rom

        def whole_block(C, G, B, gamma, **kw):
            _, info, _, lu_g = rational_krylov_basis(C, G, B, gamma, **kw)
            V, W = whole_block_basis(C, G, B, gamma, **kw)
            return V, info, W, lu_g

        monkeypatch.setattr(rom_model, "rational_krylov_basis", whole_block)
        ref = build_reduced_model(system, BENCH_OPTS, case.t_end, RomConfig())
        model = compiled.rom
        for name in ("Vt", "mu", "lam", "input_map", "X", "Zt"):
            assert getattr(model, name).tobytes() == getattr(ref, name).tobytes()
        for sc in load_pattern_scenarios(system, n=4, seed=7, spread=0.5):
            got = model.answer(model.input_matrix(sc, None))
            want = ref.answer(ref.input_matrix(sc, None))
            assert got.states.tobytes() == want.states.tobytes()
            assert got.bound_abs == want.bound_abs

    def test_pickled_plan_answers_bit_identically(self, pg1t_rom):
        from repro.pdn import load_pattern_scenarios

        system, _, compiled = pg1t_rom
        clone = pickle.loads(pickle.dumps(compiled))
        for sc in load_pattern_scenarios(system, n=2, seed=7, spread=0.5):
            x = compiled.rom.answer(compiled.rom.input_matrix(sc, None))
            y = clone.rom.answer(clone.rom.input_matrix(sc, None))
            assert x.states.tobytes() == y.states.tobytes()
            assert x.bound_abs == y.bound_abs

    def test_rom_config_has_no_new_field(self):
        """The sketch's seed and size are module constants, not knobs."""
        assert [f.name for f in fields(RomConfig)] == [
            "tol", "q_max", "moments", "deflation_tol", "safety",
        ]
