"""Single-node LU decomposition (Algorithm 1)."""

import numpy as np
import pytest

from repro.linalg import lu_decompose, solve_lu
from repro.linalg.lu import SingularMatrixError, lu_flop_count, lu_reconstruct
from repro.linalg.triangular import LEAF
from repro.linalg import permutation, verify

from conftest import random_invertible


class TestFactorization:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64])
    def test_pa_equals_lu(self, rng, n):
        a = random_invertible(rng, n)
        res = lu_decompose(a)
        assert verify.lu_residual(a, res.lower(), res.upper(), res.perm) < 1e-10

    def test_factors_have_right_shape(self, rng):
        a = random_invertible(rng, 8)
        res = lu_decompose(a)
        lower, upper = res.lower(), res.upper()
        assert np.allclose(np.triu(lower, k=1), 0)
        assert np.allclose(np.tril(upper, k=-1), 0)
        assert np.allclose(np.diag(lower), 1.0)

    def test_perm_is_permutation(self, rng):
        a = random_invertible(rng, 20)
        res = lu_decompose(a)
        assert permutation.is_permutation(res.perm)

    def test_input_not_modified(self, rng):
        a = random_invertible(rng, 10)
        copy = a.copy()
        lu_decompose(a)
        assert np.array_equal(a, copy)

    def test_identity_factors_trivially(self):
        res = lu_decompose(np.eye(5))
        assert np.array_equal(res.lower(), np.eye(5))
        assert np.array_equal(res.upper(), np.eye(5))
        assert np.array_equal(res.perm, np.arange(5))

    def test_already_triangular_input(self):
        u = np.triu(np.arange(1.0, 17.0).reshape(4, 4)) + np.eye(4)
        res = lu_decompose(u, pivot=False)
        assert np.allclose(res.upper(), u)

    def test_reconstruct_helper(self, rng):
        a = random_invertible(rng, 6)
        res = lu_decompose(a)
        assert np.allclose(lu_reconstruct(res), permutation.apply_rows(res.perm, a))


class TestPivoting:
    def test_pivoting_selects_column_max(self):
        a = np.array([[1e-12, 1.0], [1.0, 1.0]])
        res = lu_decompose(a)
        assert res.perm[0] == 1  # the big row was swapped up

    def test_pivoting_rescues_zero_leading_element(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = lu_decompose(a)
        assert verify.lu_residual(a, res.lower(), res.upper(), res.perm) == 0.0

    def test_no_pivot_fails_on_zero_leading_element(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            lu_decompose(a, pivot=False)

    def test_pivoting_improves_accuracy(self, rng):
        """The numerical motivation of Section 4.1."""
        n = 60
        a = random_invertible(rng, n)
        a[0, 0] = 1e-14  # poison the leading pivot
        res_piv = lu_decompose(a, pivot=True)
        res_nopiv = lu_decompose(a, pivot=False)
        err_piv = verify.lu_residual(a, res_piv.lower(), res_piv.upper(), res_piv.perm)
        err_nopiv = verify.lu_residual(
            a, res_nopiv.lower(), res_nopiv.upper(), res_nopiv.perm
        )
        assert err_piv < err_nopiv / 1e3


class TestErrors:
    def test_singular_matrix_detected(self):
        a = np.ones((4, 4))
        with pytest.raises(SingularMatrixError):
            lu_decompose(a)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError, match="square"):
            lu_decompose(rng.standard_normal((3, 4)))

    def test_pivot_tol_treats_small_as_zero(self):
        a = np.diag([1.0, 1e-20])
        with pytest.raises(SingularMatrixError):
            lu_decompose(a, pivot_tol=1e-12)


def algorithm1(a, pivot=True):
    """The paper's listing, one column at a time: the reference the
    recursive panel factorization must reproduce."""
    lu = np.array(a, dtype=np.float64)
    n = lu.shape[0]
    perm = np.arange(n)
    for i in range(n):
        if pivot:
            j = i + int(np.argmax(np.abs(lu[i:, i])))
            lu[[i, j]] = lu[[j, i]]
            perm[[i, j]] = perm[[j, i]]
        lu[i + 1 :, i] /= lu[i, i]
        lu[i + 1 :, i + 1 :] -= np.outer(lu[i + 1 :, i], lu[i, i + 1 :])
    return lu, perm


def singular_at(n, step, value=0.0):
    """Upper triangular, so no row is swapped and step ``step`` meets the
    pivot ``value`` exactly."""
    a = np.triu(np.ones((n, n))) + np.eye(n)
    a[step, step] = value
    return a


ORDERS = [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 1, 3 * LEAF + 7]


class TestPanelFactorization:
    """The recursive panel LU across its leaf boundary and error paths."""

    @pytest.mark.parametrize("n", ORDERS)
    def test_matches_algorithm1(self, rng, n):
        a = random_invertible(rng, n)
        res = lu_decompose(a)
        ref_lu, ref_perm = algorithm1(a)
        assert np.array_equal(res.perm, ref_perm)
        assert np.allclose(res.lu, ref_lu, atol=1e-9)
        assert verify.lu_residual(a, res.lower(), res.upper(), res.perm) < 1e-10

    @pytest.mark.parametrize("n", [LEAF + 1, 2 * LEAF + 1])
    def test_no_pivoting(self, rng, n):
        a = random_invertible(rng, n) + n * np.eye(n)
        res = lu_decompose(a, pivot=False)
        assert np.array_equal(res.perm, np.arange(n))
        assert np.allclose(res.lu, algorithm1(a, pivot=False)[0], atol=1e-9)
        assert np.allclose(res.lower() @ res.upper(), a, atol=1e-9)

    def test_read_only_and_fortran_input(self, rng):
        n = 2 * LEAF + 1
        a = np.asfortranarray(random_invertible(rng, n))
        a.setflags(write=False)
        copy = a.copy()
        res = lu_decompose(a)
        assert np.array_equal(a, copy)
        assert verify.lu_residual(a, res.lower(), res.upper(), res.perm) < 1e-10

    @pytest.mark.parametrize("step", [LEAF + 3, 2 * LEAF])
    def test_zero_pivot_in_later_panel_names_global_step(self, step):
        with pytest.raises(SingularMatrixError, match=f"zero pivot at step {step} "):
            lu_decompose(singular_at(2 * LEAF + 1, step))

    def test_pivot_tol_hit_in_later_panel(self):
        step = LEAF + 5
        a = singular_at(2 * LEAF + 1, step, value=1e-20)
        assert lu_decompose(a).lu[step, step] == 1e-20
        with pytest.raises(SingularMatrixError, match=f"zero pivot at step {step} "):
            lu_decompose(a, pivot_tol=1e-12)
        with pytest.raises(SingularMatrixError, match=f"zero pivot at step {step} "):
            lu_decompose(a, pivot=False, pivot_tol=1e-12)


class TestSolve:
    def test_solve_single_rhs(self, rng):
        a = random_invertible(rng, 12)
        x_true = rng.standard_normal(12)
        res = lu_decompose(a)
        x = solve_lu(res, a @ x_true)
        assert np.allclose(x, x_true)

    def test_solve_multiple_rhs(self, rng):
        a = random_invertible(rng, 10)
        x_true = rng.standard_normal((10, 3))
        res = lu_decompose(a)
        x = solve_lu(res, a @ x_true)
        assert np.allclose(x, x_true)


class TestAccounting:
    def test_flop_count(self):
        assert lu_flop_count(10) == pytest.approx(1000 / 3)

    def test_result_flops_matches_formula(self, rng):
        res = lu_decompose(random_invertible(rng, 9))
        assert res.flops() == lu_flop_count(9)
