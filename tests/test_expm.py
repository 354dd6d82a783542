"""Unit tests for the dense Padé matrix exponential."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.linalg import expm, expm_e1


class TestExpmAccuracy:
    @pytest.mark.parametrize("n", [2, 5, 13, 40])
    def test_matches_scipy_random(self, n, rng):
        a = rng.normal(size=(n, n))
        assert np.allclose(expm(a), sla.expm(a), rtol=1e-12, atol=1e-13)

    def test_matches_scipy_large_norm(self, rng):
        a = 50.0 * rng.normal(size=(8, 8))  # forces scaling-and-squaring
        assert np.allclose(expm(a), sla.expm(a), rtol=1e-9, atol=1e-9)

    def test_stiff_negative_spectrum(self):
        a = np.diag([-1e3, -1.0, -1e-3])
        assert np.allclose(expm(a), np.diag(np.exp([-1e3, -1.0, -1e-3])))

    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((4, 4))), np.eye(4))

    def test_nilpotent_exact(self):
        # exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly.
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(a), [[1.0, 1.0], [0.0, 1.0]])

    def test_1x1_and_0x0(self):
        assert expm(np.array([[2.0]]))[0, 0] == pytest.approx(np.exp(2.0))
        assert expm(np.zeros((0, 0))).shape == (0, 0)


class TestExpmValidation:
    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            expm(np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        a = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            expm(a)

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError, match="square"):
            expm(np.zeros(3))
        with pytest.raises(ValueError, match="square"):
            expm(np.zeros((2, 2, 3, 3)))


class TestStack:
    """One kernel: a single matrix is a stack of one."""

    @pytest.mark.parametrize("m", [1, 2, 6, 17])
    def test_slice_equals_single_call_in_any_layout(self, m, rng):
        # Scales straddle theta_13, so the slices of one stack need
        # different numbers of squarings (0 ... 12); the shift keeps the
        # spectra in the left half-plane, so nothing overflows.
        scales = np.array([1e-3, 0.5, 3.0, 40.0, 900.0, 7.0, 0.0])
        stable = rng.normal(size=(len(scales), m, m)) - 2 * np.sqrt(m) * np.eye(m)
        stack = stable * scales[:, None, None]
        whole = expm(stack)
        assert whole.shape == stack.shape
        for k in range(len(scales)):
            np.testing.assert_array_equal(whole[k], expm(stack[k]))
            np.testing.assert_array_equal(
                whole[k], expm(np.asfortranarray(stack[k]))
            )
            assert np.allclose(
                whole[k], sla.expm(stack[k]), rtol=1e-9, atol=1e-9
            )
        # A Fortran-ordered or strided stack is normalised at entry too.
        np.testing.assert_array_equal(expm(np.asfortranarray(stack)), whole)
        np.testing.assert_array_equal(expm(stack[::2]), whole[::2])

    def test_empty_stack_and_empty_matrices(self):
        assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        assert expm(np.zeros((4, 0, 0))).shape == (4, 0, 0)

    def test_one_bad_slice_fails_the_stack(self, rng):
        stack = rng.normal(size=(3, 4, 4))
        stack[1, 2, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            expm(stack)


class TestHelpers:
    def test_expm_e1_is_first_column(self, rng):
        a = rng.normal(size=(6, 6))
        assert np.allclose(expm_e1(a), expm(a)[:, 0])
