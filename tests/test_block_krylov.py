"""The one Krylov build and its small dense kernels.

There is a single implementation of each piece, so these tests no longer
compare twins.  They check

* :func:`repro.linalg.expm.expm` against ``scipy.linalg.expm``, and that
  slice ``k`` of a stacked call *is* the single call (scaling-and-squaring
  branch included),
* :class:`HessenbergFactors` against ``scipy.linalg`` (inverse, transposed
  row solve, singularity rules) and that its bits do not depend on the
  operand layout,
* the per-method posterior estimates against a SciPy-only reference, and
  that an estimate does not depend on the batch it was computed in,
* :func:`build_bases_block`: a column built in lockstep with others is
  bit-for-bit the column built alone (``op.build_basis``) — including
  ``error_estimate``, which the deleted twins did not agree on.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from repro.circuit import assemble
from repro.linalg.block_krylov import build_bases_block
from repro.linalg.expm import expm
from repro.linalg.krylov import (
    HessenbergFactors,
    InvertedKrylov,
    KrylovBasis,
    RationalKrylov,
    StandardKrylov,
    make_krylov_operator,
    span_coefficients,
)
from repro.pdn import stiff_rc_mesh

METHODS = ["standard", "inverted", "rational"]
GAMMA = 1e-10


def small_system(n=24, seed=0):
    """A well-conditioned dense-ish RC-like pencil."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) * 0.3
    G = sp.csc_matrix(g @ g.T + n * np.eye(n))
    C = sp.csc_matrix(np.diag(rng.uniform(0.5, 2.0, n)) * 1e-12)
    return C, G


def make_op(method, C, G):
    return make_krylov_operator(method, C, G, gamma=GAMMA)


def unit_last(m):
    e_m = np.zeros(m)
    e_m[m - 1] = 1.0
    return e_m


class TestFastExpm:
    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0, 1e3])
    def test_bitwise_vs_reference(self, scale):
        """Slice of a stack == single call, and both match SciPy."""
        rng = np.random.default_rng(7)
        for m in [1, 2, 5, 13]:
            # Shifted into the left half-plane so 1e3 does not overflow.
            stack = scale * (
                rng.standard_normal((4, m, m)) - 2 * np.sqrt(m) * np.eye(m)
            )
            whole = expm(stack)
            for k in range(4):
                np.testing.assert_array_equal(whole[k], expm(stack[k]))
                np.testing.assert_allclose(
                    whole[k], sla.expm(stack[k]), rtol=1e-9, atol=1e-12
                )

    def test_upper_hessenberg_shapes(self):
        rng = np.random.default_rng(8)
        a = np.triu(rng.standard_normal((9, 9)), k=-1)
        np.testing.assert_allclose(expm(a), sla.expm(a), rtol=1e-11, atol=1e-12)
        np.testing.assert_array_equal(expm(np.stack([2 * a, a]))[1], expm(a))

    def test_empty(self):
        assert expm(np.zeros((0, 0))).shape == (0, 0)

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            expm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestFastHessenberg:
    def test_inverse_and_row_bitwise(self):
        rng = np.random.default_rng(9)
        for m in [1, 3, 8, 15]:
            h = np.triu(rng.standard_normal((m, m)), k=-1) + 2 * np.eye(m)
            factors = HessenbergFactors(h)
            assert not factors.singular
            np.testing.assert_allclose(
                factors.inverse(), sla.inv(h), rtol=1e-10, atol=1e-12
            )
            row = factors.solve_transposed(unit_last(m))
            np.testing.assert_allclose(
                row, sla.solve(h.T, unit_last(m)), rtol=1e-10, atol=1e-12
            )
            # Same bits whatever the operand layout: a Fortran copy, and
            # a strided view like the Arnoldi workspace's H[:m, :m].
            wide = np.zeros((m + 1, m + 4))
            wide[:m, :m] = h
            for other in (np.asfortranarray(h), wide[:m, :m]):
                again = HessenbergFactors(other)
                np.testing.assert_array_equal(again.inverse(), factors.inverse())
                np.testing.assert_array_equal(
                    again.solve_transposed(unit_last(m)), row
                )

    def test_singular_block(self):
        h = np.array([[1.0, 1.0], [0.0, 0.0]])
        factors = HessenbergFactors(h)
        assert factors.singular
        # The inverse is that of the tiny-identity-shifted block ...
        delta = 1e-30 * (1.0 + 1.0)
        np.testing.assert_allclose(
            factors.inverse(), np.linalg.inv(h + delta * np.eye(2)), rtol=1e-12
        )
        assert factors.inverse()[1, 1] > 1e29
        # ... but there is no e_m^T H^{-1} row: never a shifted answer.
        with pytest.raises(np.linalg.LinAlgError):
            factors.solve_transposed(np.array([0.0, 1.0]))


def reference_estimate(op, h, H, beta):
    """The posterior estimate through ``scipy.linalg`` only."""
    m = H.shape[1]
    h_next = H[m, m - 1]
    h_square = H[:m, :m]
    if op.method == "standard":
        aug = np.zeros((m + 1, m + 1))
        aug[:m, :m] = -h * h_square
        aug[0, m] = h
        return beta * abs(h_next) * abs(sla.expm(aug)[m - 1, m])
    inv = sla.inv(h_square)
    heff = -inv if op.method == "inverted" else (np.eye(m) - inv) / op.gamma
    return beta * abs(h_next * (inv[m - 1] @ sla.expm(h * heff)[:, 0]))


def estimates(op, hs, Hs, betas):
    """The posterior estimates of one batch of tests."""
    return [test[0] for test in op.posterior_tests(hs, Hs, betas)]


class TestFastEstimator:
    @pytest.mark.parametrize("method", METHODS)
    def test_estimates_bitwise(self, method):
        """An estimate is the same float alone and in any batch."""
        C, G = small_system()
        op = make_op(method, C, G)
        rng = np.random.default_rng(11)
        beta = 2.7
        # Steps that put h·Hm at O(1): the exponent is ±H or H/γ-sized.
        steps = [1e-12, 1e-10, 1e-9] if method == "rational" else [0.05, 0.5, 2.0]
        for m in [2, 4, 9]:
            Hs = []
            for _ in range(3):
                H = np.triu(rng.standard_normal((m + 1, m)), k=-1)
                H[:m] += 3.0 * np.eye(m)
                H[m, m - 1] = abs(H[m, m - 1]) + 0.1
                Hs.append(H)
            alone = [
                [estimates(op, [h], [H], [beta])[0] for h in steps] for H in Hs
            ]
            for k, h in enumerate(steps):
                batch = estimates(op, [h] * 3, Hs, [beta] * 3)
                assert batch == [alone[i][k] for i in range(3)]
                # Mixed steps and a reversed order change nothing either.
                mixed = estimates(op, steps[::-1], Hs[::-1], [beta] * 3)
                assert mixed == [alone[2 - i][2 - i] for i in range(3)]
            for i, H in enumerate(Hs):
                for k, h in enumerate(steps):
                    ref = reference_estimate(op, h, H, beta)
                    assert alone[i][k] == pytest.approx(ref, rel=1e-6, abs=1e-14)

    @pytest.mark.parametrize("method", METHODS)
    def test_bad_column_does_not_spoil_its_batch(self, method):
        """Singular / overflowing columns read inf; companions are untouched."""
        C, G = small_system()
        op = make_op(method, C, G)
        rng = np.random.default_rng(15)
        m = 4
        good = np.triu(rng.standard_normal((m + 1, m)), k=-1)
        good[:m] += 3.0 * np.eye(m)
        singular = good.copy()
        singular[:m, 0] = 0.0  # exactly singular square block
        # Sign-flipped and rescaled so h·Hm has huge positive "Ritz
        # values" (Hm is -H, -H⁻¹ or (I-H⁻¹)/γ): the expm overflows.
        unstable = -(1e15 if method == "standard" else 1e-15) * good
        unstable[m, m - 1] = 1.0
        h, beta = 1e-9, 1.0
        (alone,) = estimates(op, [h], [good], [beta])
        assert np.isfinite(alone)
        ests = estimates(
            op, [h] * 4, [singular, good, unstable, good], [beta] * 4
        )
        assert ests[1] == ests[3] == alone
        assert ests[2] == np.inf
        if method != "standard":  # the standard estimate never inverts H
            assert ests[0] == np.inf

    @pytest.mark.parametrize("method", ["inverted", "rational"])
    def test_effective_hm_and_row_bitwise(self, method):
        C, G = small_system()
        op = make_op(method, C, G)
        rng = np.random.default_rng(12)
        for m in [1, 5, 10]:
            h_square = np.triu(rng.standard_normal((m, m)), k=-1) + np.eye(m)
            inv = sla.inv(h_square)
            expected = -inv if method == "inverted" else (np.eye(m) - inv) / GAMMA
            heff = op.effective_hm(h_square)
            np.testing.assert_allclose(heff, expected, rtol=1e-9, atol=1e-9)
            row = op._error_row(h_square)
            np.testing.assert_allclose(row, inv[m - 1], rtol=1e-9, atol=1e-12)
            # Prefactored or not, C- or Fortran-ordered: the same bits.
            factors = HessenbergFactors(np.asfortranarray(h_square))
            np.testing.assert_array_equal(
                op.effective_hm(h_square, factors=factors), heff
            )
            np.testing.assert_array_equal(
                op._error_row(h_square, factors=factors), row
            )


def assert_bases_equal(ref, blk):
    assert ref.m == blk.m
    assert ref.beta == blk.beta
    assert ref.method == blk.method
    assert ref.h_built == blk.h_built
    assert ref.h_next == blk.h_next
    assert ref.error_estimate == blk.error_estimate or (
        np.isinf(ref.error_estimate) and np.isinf(blk.error_estimate)
    )
    np.testing.assert_array_equal(ref.Vm, blk.Vm)
    np.testing.assert_array_equal(ref.Hm, blk.Hm)
    if ref.err_row is None:
        assert blk.err_row is None
    else:
        np.testing.assert_array_equal(ref.err_row, blk.err_row)


class TestBlockBases:
    @pytest.mark.parametrize("method", METHODS)
    def test_block_matches_scalar_builds(self, method):
        C, G = small_system(n=30, seed=3)
        rng = np.random.default_rng(13)
        n = 30
        vs = [rng.standard_normal(n) for _ in range(6)]
        vs.append(np.zeros(n))  # trivially-converged empty column
        hs = [1e-10 * (k + 1) for k in range(7)]
        tols = [1e-8] * 7

        # Each column alone (op.build_basis is the one-column call) ...
        op_ref = make_op(method, C, G)
        refs = [
            op_ref.build_basis(v, h, tol, m_max=20, min_dim=2)
            for v, h, tol in zip(vs, hs, tols)
        ]
        # ... versus all seven in lockstep.
        op_blk = make_op(method, C, G)
        blks = build_bases_block(op_blk, vs, hs, tols, m_max=20, min_dim=2)

        assert len(blks) == len(refs)
        for ref, blk in zip(refs, blks):
            assert_bases_equal(ref, blk)
        # Solve accounting: one pair per column per active iteration.
        assert op_blk.n_solves == op_ref.n_solves == sum(b.m for b in blks)

    @pytest.mark.parametrize("method", METHODS)
    def test_width_one_matches_scalar(self, method):
        C, G = small_system(n=18, seed=5)
        v = np.random.default_rng(6).standard_normal(18)
        op_ref = make_op(method, C, G)
        ref = op_ref.build_basis(v, 2e-10, 1e-9, m_max=15, min_dim=2)
        op_blk = make_op(method, C, G)
        (blk,) = build_bases_block(
            op_blk, [v], [2e-10], [1e-9], m_max=15, min_dim=2
        )
        assert_bases_equal(ref, blk)

    def test_evaluations_match(self):
        """End-to-end: bases evaluated at many steps agree bitwise."""
        C, G = small_system(n=26, seed=8)
        rng = np.random.default_rng(14)
        vs = [rng.standard_normal(26) for _ in range(4)]
        op_ref = RationalKrylov(C, G, gamma=1e-10)
        op_blk = RationalKrylov(C, G, gamma=1e-10)
        refs = [op_ref.build_basis(v, 1e-10, 1e-9) for v in vs]
        blks = build_bases_block(op_blk, vs, [1e-10] * 4, [1e-9] * 4)
        hs = np.linspace(1e-11, 5e-10, 17)
        for ref, blk in zip(refs, blks):
            Yr, er = ref.evaluate_many(hs)
            Yb, eb = blk.evaluate_many(hs)
            np.testing.assert_array_equal(Yr, Yb)
            np.testing.assert_array_equal(er, eb)
            for k, h in enumerate(hs):
                y, err = ref.evaluate_with_error(float(h))
                np.testing.assert_array_equal(y, Yb[k])
                assert err == eb[k]

    def test_input_validation(self):
        C, G = small_system(n=10)
        op = InvertedKrylov(C, G)
        with pytest.raises(ValueError, match="equal lengths"):
            build_bases_block(op, [np.ones(10)], [1e-10], [])
        assert build_bases_block(op, [], [], []) == []
        with pytest.raises(ValueError, match="share one dimension"):
            build_bases_block(
                op, [np.ones(10), np.ones(9)], [1e-10] * 2, [1e-9] * 2
            )

    def test_standard_operator_supported(self):
        C, G = small_system(n=12, seed=2)
        op = StandardKrylov(C, G)
        assert op._hess_factors(np.eye(3)) is None
        np.testing.assert_array_equal(op.effective_hm(np.eye(3)), -np.eye(3))
        np.testing.assert_array_equal(op._error_row(np.eye(3)), unit_last(3))

    def test_error_estimate_does_not_depend_on_width(self):
        """Regression: the posterior estimate — what ``est < tol`` stops
        Arnoldi on — used to come out of three kernels that disagreed on
        this input (…038926956e-09 from the scalar build, …091114413e-09
        at width 1, …080240144e-09 as column 0 of a 2-column build)."""
        system = assemble(stiff_rc_mesh(
            12, 12, fast_ratio=20, slow_ratio=1e4, n_sources=2, seed=3
        ))
        v = np.random.default_rng(1).normal(size=system.dim)
        h, tol = 1e-11, 1e-8
        op = InvertedKrylov(system.C, system.G)
        alone = op.build_basis(v, h, tol, m_max=300)
        assert alone.m == 17
        assert alone.error_estimate == pytest.approx(1.94843810e-09, rel=1e-6)
        for width in (1, 2, 7):
            vs = [v] + [
                np.random.default_rng(50 + k).normal(size=system.dim)
                for k in range(width - 1)
            ]
            hs = [h] + [h * (k + 2) for k in range(width - 1)]
            bases = build_bases_block(op, vs, hs, [tol] * width, m_max=300)
            assert bases[0].m == alone.m
            assert bases[0].error_estimate == alone.error_estimate
            assert_bases_equal(alone, bases[0])


def _basis(Hm, beta=2.0, h_next=0.5, seed=0):
    m = Hm.shape[0]
    rng = np.random.default_rng(seed)
    return KrylovBasis(
        Vm=np.linalg.qr(rng.standard_normal((12 + m, m)))[0], Hm=Hm,
        beta=beta, h_built=1.0, m=m, error_estimate=0.0, method="rational",
        h_next=h_next, err_row=rng.standard_normal(m) if m else None,
    )


class TestSpanCoefficients:
    """A round's fresh bases in one stacked evaluation: each basis's
    answer is its stack of one, whatever its companions and padding."""

    def _round(self):
        rng = np.random.default_rng(3)
        real = -np.diag(rng.uniform(1.0, 3.0, 3)) + 0.1 * np.triu(rng.standard_normal((3, 3)), 1)
        rot = np.array([[-1.0, 4.0, 0.0], [-4.0, -1.0, 0.0], [0.0, 0.0, -2.0]])
        jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
        wide = -np.diag(rng.uniform(1.0, 3.0, 40))
        bases = [
            _basis(real, seed=1), _basis(rot, seed=2), _basis(jordan, seed=3),
            _basis(np.zeros((0, 0)), beta=0.0), _basis(real * 1.5, seed=4),
            _basis(rot * 0.5, seed=5, h_next=0.0), _basis(wide, seed=6),
        ]
        spans = [rng.uniform(0.0, 1.0, k) for k in (5, 1, 3, 4, 2, 7, 3)]
        return bases, spans

    def test_each_basis_is_its_stack_of_one(self):
        bases, spans = self._round()
        kinds = {b._eig_payload()[1][0].dtype.char for b in bases if b.m and b._eig_payload()[0]}
        assert kinds == {"d", "D"} and not bases[2]._eig_payload()[0]
        for b, hs, (coeffs, errs) in zip(bases, spans, span_coefficients(bases, spans)):
            alone, alone_errs = b.coefficients(hs)
            assert coeffs.shape == (len(hs), b.m) and errs.shape == (len(hs),)
            assert coeffs.tobytes() == np.ascontiguousarray(alone).tobytes()
            assert errs.tobytes() == alone_errs.tobytes()
            # ... and one step at a time, as a step-by-step march sees it.
            for k, h in enumerate(hs):
                one, one_err = b.coefficients([h])
                assert one[0].tobytes() == np.ascontiguousarray(coeffs[k]).tobytes()
                assert one_err.tobytes() == errs[k:k + 1].tobytes()

    def test_coefficients_are_the_small_exponential(self):
        bases, spans = self._round()
        for b, hs, (coeffs, errs) in zip(bases, spans, span_coefficients(bases, spans)):
            for k, h in enumerate(hs):
                ref = b.beta * sla.expm(h * b.Hm)[:, 0] if b.m else np.zeros(0)
                np.testing.assert_allclose(coeffs[k], ref, rtol=1e-9, atol=1e-12)
            if b.m and b.h_next:
                ref = [b.beta * abs(b.h_next * (b.err_row @ (c / b.beta))) for c in coeffs]
                np.testing.assert_allclose(errs, ref, rtol=1e-9, atol=1e-300)
            else:
                assert not errs.any()
