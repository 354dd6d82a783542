"""The width-1 march calls its kernels directly, and no bit moves.

Every per-basis call of a width-1 march goes straight to the compiled
kernel the library wrapper would reach: the operator product to SciPy's
``csc_matvec``/``csc_matvecs`` (what ``X2 @ v`` calls), the eigen-payload
to numpy's ``_umath_linalg`` ``eig``/``solve1``/``svd`` gufuncs (what
``np.linalg.eig``/``solve``/``cond`` call).  These tests pin each direct
call byte-for-byte against the wrapper, so a numpy or SciPy upgrade that
changes what a wrapper does fails here, not in the golden digests.  They
also check that the posterior test's pieces are computed once per basis,
and that a compiled plan's schedules come from its shared grid unchanged.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit import assemble
from repro.circuit.regularize import regularize
from repro.core import SolverOptions
from repro.core.transition import build_schedule
from repro.dist import MatexScheduler
from repro.linalg import krylov
from repro.linalg.block_krylov import prime_eig_payloads
from repro.linalg.krylov import (
    KrylovBasis,
    StandardKrylov,
    eig_payloads,
    make_krylov_operator,
)
from repro.pdn import SUITE, build_netlist
from repro.plan import SimulationPlan

OPTS = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6)
M = 4


def real_spectrum(rng):
    """Upper triangular: eigenvalues exactly on the diagonal."""
    return np.diag(-np.arange(1.0, M + 1)) + np.triu(rng.standard_normal((M, M)), 1)


def complex_spectrum(rng):
    """Two rotation blocks: two conjugate pairs."""
    h = 0.1 * rng.standard_normal((M, M))
    h[0:2, 0:2] += [[-1.0, -3.0], [3.0, -1.0]]
    h[2:4, 2:4] += [[-2.0, -5.0], [5.0, -2.0]]
    return h


def ill_conditioned(rng):
    """Nearly defective: two almost parallel eigenvectors, cond ≈ 1e12."""
    h = np.diag(-np.arange(1.0, M + 1))
    h[0, 1] = 1.0
    h[1, 1] = -1.0 - 1e-12
    return h


KINDS = (real_spectrum, complex_spectrum, ill_conditioned)


def basis_of(hm):
    return KrylovBasis(
        Vm=np.zeros((6, M)), Hm=hm, beta=1.0, h_built=1e-10, m=M,
        error_estimate=0.0, method="rational",
    )


def payload_bytes(eig):
    usable, payload = eig
    if payload is None:
        return usable, None
    return usable, tuple((a.dtype.str, a.tobytes()) for a in payload)


def hessenbergs(n, seed=3):
    rng = np.random.default_rng(seed)
    return [KINDS[k % len(KINDS)](rng) for k in range(n)]


class TestEigPayloads:
    @pytest.mark.parametrize("width", [1, 7])
    def test_primed_equals_lazy(self, width):
        """A primed payload is byte-for-byte the lazy one, mixed stacks too."""
        hms = hessenbergs(width)
        primed = [basis_of(h) for h in hms]
        prime_eig_payloads(primed)
        for h, b in zip(hms, primed):
            assert b._eig is not None
            lazy = basis_of(h)._eig_payload()
            assert payload_bytes(b._eig) == payload_bytes(lazy)

    def test_the_cases_are_what_they_claim(self):
        real, cplx, ill = eig_payloads(np.stack(hessenbergs(3)))
        assert real[0] and real[1][0].dtype == np.float64
        assert cplx[0] and cplx[1][0].dtype == np.complex128
        assert not ill[0]

    def test_direct_gufuncs_match_the_wrappers(self):
        """``eig``, ``solve`` and ``cond``'s usability rule, byte for byte."""
        hms = hessenbergs(7, seed=5)
        e1 = np.eye(M)[:, 0]
        for h, (usable, (d, s, s_inv_e1)) in zip(hms, eig_payloads(np.stack(hms))):
            d_ref, s_ref = np.linalg.eig(h)
            for got, ref in ((d, d_ref), (s, s_ref)):
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()
            ref = np.linalg.solve(s_ref, e1)
            assert s_inv_e1.dtype == ref.dtype
            assert s_inv_e1.tobytes() == ref.tobytes()
            cond = np.linalg.cond(s_ref)
            assert usable == bool(np.isfinite(cond) and cond < 1e10)

    def test_nonfinite_block_leaves_its_stack_lazy(self):
        hms = hessenbergs(3)
        bad = hms[1].copy()
        bad[0, 0] = np.nan
        bases = [basis_of(hms[0]), basis_of(bad), basis_of(hms[2])]
        prime_eig_payloads(bases)
        assert all(b._eig is None for b in bases)
        assert bases[1]._eig_payload() == (False, None)
        with pytest.raises(np.linalg.LinAlgError):
            eig_payloads(bad[None])
        clean = [basis_of(hms[0]), basis_of(hms[2])]
        prime_eig_payloads(clean)
        for lazy, primed in zip((bases[0], bases[2]), clean):
            assert payload_bytes(lazy._eig_payload()) == payload_bytes(primed._eig)


def small_pencil(n=24, seed=0):
    """A pencil whose ``C`` (the product's ``X2``) is unsymmetric, so a
    product with its transpose cannot pass for it."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) * 0.3
    G = sp.csc_matrix(g @ g.T + n * np.eye(n))
    c = np.diag(rng.uniform(0.5, 2.0, n)) + 0.1 * np.triu(rng.standard_normal((n, n)), 1)
    return sp.csc_matrix(c * 1e-12), G


def operators(small_pdn_system):
    C, G = small_pencil()
    reg = regularize(small_pdn_system)
    return [
        make_krylov_operator("inverted", C, G),
        make_krylov_operator("rational", C, G, gamma=1e-10),
        StandardKrylov(reg.Cd, sp.csc_matrix(reg.Gd)),
    ]


class TestOperatorProduct:
    def test_apply_is_the_scipy_product(self, small_pdn_system):
        rng = np.random.default_rng(8)
        for op in operators(small_pdn_system):
            n = op.lu.shape[0]
            V = rng.standard_normal((n, 5))
            refs = [op.lu.solve(op._x2 @ V[:, i]) for i in range(5)]
            for i, ref in enumerate(refs):
                assert op.apply(V[:, i].copy()).tobytes() == ref.tobytes()
            for block in (V, np.asfortranarray(V)):
                out = op.apply_block(block)
                for i, ref in enumerate(refs):
                    assert out[:, i].tobytes() == ref.tobytes()


class TestWidthOneCounts:
    def test_each_basis_is_diagonalised_once(self, monkeypatch):
        """Primed payloads cover every round's bases; only snapshot
        rebuilds diagonalise lazily, and nothing is diagonalised twice."""
        slices = []

        def counting(hms):
            slices.append(len(hms))
            return eig_payloads(hms)

        primed = []
        real_prime = prime_eig_payloads

        def counting_prime(bases):
            primed.append(sum(b.m > 0 and b._eig is None for b in bases))
            real_prime(bases)

        monkeypatch.setattr(krylov, "eig_payloads", counting)
        monkeypatch.setattr("repro.linalg.block_krylov.eig_payloads", counting)
        monkeypatch.setattr(
            "repro.dist.block_runner.prime_eig_payloads", counting_prime
        )
        system = assemble(build_netlist(SUITE["pg1t"]))
        t_end = SUITE["pg1t"].t_end
        plan = SimulationPlan(system, OPTS, t_end=t_end).compile()
        dres = MatexScheduler(system, OPTS, batch="off").run(t_end)

        bases = sum(s.n_krylov_bases for s in dres.node_stats)
        rounds = sum(len(s.segment_starts) for s in plan.schedules)
        rebuilds = bases - rounds
        nonempty = sum(
            sum(m > 0 for m in s.krylov_dims) for s in dres.node_stats
        )
        assert bases == 500 and nonempty == 400
        assert sum(slices) == nonempty
        assert sum(primed) == nonempty - rebuilds


class TestCompiledSchedules:
    @pytest.mark.parametrize("case", ["pg1t", "pg4t"])
    def test_suite_schedules_unchanged(self, case):
        system = assemble(build_netlist(SUITE[case]))
        self.check(SimulationPlan(system, OPTS, t_end=SUITE[case].t_end).compile())

    def test_bump_split_schedules_unchanged(self, mesh_system):
        self.check(SimulationPlan(
            mesh_system, OPTS, t_end=1e-9, decomposition="bump-split"
        ).compile())

    @staticmethod
    def check(plan):
        """Each group's schedule is what ``build_schedule`` makes of the
        raw shared grid, group by group."""
        assert len(plan.schedules) == len(plan.groups) > 1
        for group, schedule in zip(plan.groups, plan.schedules):
            ref = build_schedule(
                plan.system, plan.t_end,
                local_inputs=group.input_columns,
                global_points=list(plan.global_points),
                waveform_overrides=group.overrides_dict() or None,
            )
            assert schedule == ref
            assert schedule.points is plan.schedules[0].points

    def test_grid_and_global_points_are_exclusive(self, mesh_system):
        grid = build_schedule(mesh_system, 1e-9).points
        with pytest.raises(ValueError, match="not both"):
            build_schedule(mesh_system, 1e-9, global_points=grid, grid=grid)
