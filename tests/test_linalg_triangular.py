"""Triangular inversion (Equation 4) and substitution solvers."""

import gc
import weakref

import numpy as np
import pytest

from repro.linalg import lu_decompose
from repro.linalg.triangular import (
    LEAF,
    TriangularShapeError,
    back_substitute,
    blocked_back_substitute,
    blocked_forward_substitute,
    forward_substitute,
    invert_lower,
    invert_lower_columns,
    invert_upper,
    invert_upper_rows,
    is_lower_triangular,
    is_upper_triangular,
)


def random_lower(rng, n, unit=False):
    l = np.tril(rng.standard_normal((n, n)))
    diag = np.ones(n) if unit else rng.uniform(0.5, 2.0, n) * np.sign(
        rng.standard_normal(n)
    )
    np.fill_diagonal(l, diag)
    return l


class TestSubstitution:
    @pytest.mark.parametrize("n", [1, 2, 7, 33])
    def test_forward(self, rng, n):
        l = random_lower(rng, n)
        x_true = rng.standard_normal(n)
        assert np.allclose(forward_substitute(l, l @ x_true), x_true)

    def test_forward_unit_diagonal_ignores_diag_values(self, rng):
        l = random_lower(rng, 6, unit=True)
        x_true = rng.standard_normal(6)
        x = forward_substitute(l, l @ x_true, unit_diagonal=True)
        assert np.allclose(x, x_true)

    def test_forward_matrix_rhs(self, rng):
        l = random_lower(rng, 8)
        x_true = rng.standard_normal((8, 4))
        assert np.allclose(forward_substitute(l, l @ x_true), x_true)

    @pytest.mark.parametrize("n", [1, 5, 21])
    def test_back(self, rng, n):
        u = random_lower(rng, n).T
        x_true = rng.standard_normal(n)
        assert np.allclose(back_substitute(u, u @ x_true), x_true)

    def test_back_matrix_rhs(self, rng):
        u = random_lower(rng, 6).T
        x_true = rng.standard_normal((6, 2))
        assert np.allclose(back_substitute(u, u @ x_true), x_true)

    def test_shape_mismatch_rejected(self, rng):
        l = random_lower(rng, 4)
        with pytest.raises(ValueError, match="rows"):
            forward_substitute(l, np.zeros(5))

    def test_singular_diagonal_rejected(self):
        l = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            forward_substitute(l, np.ones(2))


class TestLowerInverse:
    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_inverse(self, rng, n):
        l = random_lower(rng, n)
        linv = invert_lower(l)
        assert np.allclose(l @ linv, np.eye(n), atol=1e-9)

    def test_inverse_is_lower_triangular(self, rng):
        linv = invert_lower(random_lower(rng, 12))
        assert is_lower_triangular(linv, tol=1e-12)

    def test_unit_lower_inverse_unit_diagonal(self, rng):
        l = random_lower(rng, 10, unit=True)
        linv = invert_lower(l)
        assert np.allclose(np.diag(linv), 1.0)

    def test_column_subset_matches_full(self, rng):
        l = random_lower(rng, 15)
        full = invert_lower(l)
        cols = np.array([0, 3, 7, 14])
        sub = invert_lower_columns(l, cols)
        assert np.allclose(sub, full[:, cols])

    def test_strided_columns_cover_matrix(self, rng):
        """Reassembling all mappers' column shares gives the full inverse
        (the final job's map-side decomposition, Section 5.4)."""
        n, parts = 17, 4
        l = random_lower(rng, n)
        full = invert_lower(l)
        assembled = np.zeros_like(full)
        for p in range(parts):
            cols = np.arange(p, n, parts)
            assembled[:, cols] = invert_lower_columns(l, cols)
        assert np.allclose(assembled, full)

    def test_empty_column_set(self, rng):
        out = invert_lower_columns(random_lower(rng, 5), [])
        assert out.shape == (5, 0)

    def test_column_out_of_range(self, rng):
        with pytest.raises(ValueError):
            invert_lower_columns(random_lower(rng, 5), [5])

    def test_singular_rejected(self):
        l = np.tril(np.ones((3, 3)))
        l[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            invert_lower(l)


class TestUpperInverse:
    @pytest.mark.parametrize("n", [1, 6, 25])
    def test_inverse(self, rng, n):
        u = random_lower(rng, n).T
        uinv = invert_upper(u)
        assert np.allclose(u @ uinv, np.eye(n), atol=1e-9)

    def test_inverse_is_upper_triangular(self, rng):
        uinv = invert_upper(random_lower(rng, 11).T)
        assert is_upper_triangular(uinv, tol=1e-12)

    def test_row_subset_matches_full(self, rng):
        u = random_lower(rng, 13).T
        full = invert_upper(u)
        rows = np.array([1, 4, 12])
        sub = invert_upper_rows(u, rows)
        assert np.allclose(sub, full[rows])

    def test_transpose_relation(self, rng):
        """Section 6.3's identity: U^-1 = (invert_lower(U^T))^T."""
        u = random_lower(rng, 9).T
        assert np.allclose(invert_upper(u), invert_lower(u.T).T)


ORDERS = [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 1, 3 * LEAF + 7]


def conditioned_lower(rng, n, unit=False):
    """``random_lower`` with the off-diagonal part scaled by 1/n: a random
    triangular matrix's condition number grows exponentially with n."""
    l = random_lower(rng, n, unit)
    diag = np.diag(l).copy()
    l /= n
    np.fill_diagonal(l, diag)
    return l


def read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


class TestBlockedSolves:
    """The recursive solvers agree with the row-by-row leaf kernel across
    the leaf boundary and on the operand layouts the pipeline passes."""

    @pytest.mark.parametrize("n", ORDERS)
    def test_forward_matches_row_kernel(self, rng, n):
        l = conditioned_lower(rng, n)
        b = rng.standard_normal((n, 5))
        y = blocked_forward_substitute(l, b)
        assert np.allclose(y, forward_substitute(l, b), atol=1e-10)
        assert np.allclose(l @ y, b, atol=1e-9)

    @pytest.mark.parametrize("n", ORDERS)
    def test_back_matches_row_kernel(self, rng, n):
        u = conditioned_lower(rng, n).T
        b = rng.standard_normal((n, 3))
        x = blocked_back_substitute(u, b)
        assert np.allclose(x, back_substitute(u, b), atol=1e-10)
        assert np.allclose(u @ x, b, atol=1e-9)

    @pytest.mark.parametrize("n", ORDERS)
    def test_inverse_columns_at_leaf_boundaries(self, rng, n):
        l = conditioned_lower(rng, n)
        cols = np.arange(n)[::3]
        assert np.allclose(l @ invert_lower_columns(l, cols), np.eye(n)[:, cols], atol=1e-9)

    def test_vector_rhs(self, rng):
        n = 2 * LEAF + 1
        l = conditioned_lower(rng, n)
        x = rng.standard_normal(n)
        y = blocked_forward_substitute(l, l @ x)
        assert y.shape == (n,)
        assert np.allclose(y, x)

    def test_fortran_ordered_operands(self, rng):
        """``lu_jobs`` solves ``X U1 = A3`` as ``U1^T X^T = A3^T``: both
        operands arrive as transposed (F-ordered) views."""
        n = 2 * LEAF + 3
        u1 = conditioned_lower(rng, n).T.copy()
        a3 = rng.standard_normal((7, n))
        x = blocked_forward_substitute(u1.T, a3.T).T
        assert np.allclose(x @ u1, a3, atol=1e-9)
        assert np.allclose(
            blocked_forward_substitute(u1.T, np.asfortranarray(a3.T)),
            blocked_forward_substitute(u1.T, np.ascontiguousarray(a3.T)),
        )

    @pytest.mark.parametrize("n", [LEAF - 1, 2 * LEAF + 1])
    def test_packed_lu_storage_unit_diagonal(self, rng, n):
        """With ``unit_diagonal`` the forward solve reads only the strict
        lower triangle, so packed LU (U on and above the diagonal) works."""
        lower = conditioned_lower(rng, n, unit=True)
        packed = lower + np.triu(rng.standard_normal((n, n)))
        b = rng.standard_normal((n, 4))
        assert np.allclose(
            blocked_forward_substitute(packed, b, unit_diagonal=True),
            blocked_forward_substitute(lower, b),
            atol=1e-10,
        )
        upper = lower.T
        packed_t = upper + np.tril(rng.standard_normal((n, n)))
        assert np.allclose(
            blocked_back_substitute(packed_t, b, unit_diagonal=True),
            blocked_back_substitute(upper, b),
            atol=1e-10,
        )

    def test_read_only_inputs_never_written(self, rng):
        """The decoded-block cache hands out shared read-only arrays."""
        n = 2 * LEAF + 1
        l, b = read_only(conditioned_lower(rng, n), rng.standard_normal((n, 3)))
        before = l.copy(), b.copy()
        blocked_forward_substitute(l, b)
        blocked_back_substitute(l.T, b)
        invert_lower_columns(l, [0, 5, n - 1])
        invert_upper_rows(l.T, [1, n - 2])
        assert np.array_equal(l, before[0]) and np.array_equal(b, before[1])

    @pytest.mark.parametrize("block", [1, 5, 1000])
    def test_block_is_the_leaf_size(self, rng, block):
        n = 2 * LEAF + 1
        l = conditioned_lower(rng, n)
        b = rng.standard_normal((n, 2))
        assert np.allclose(
            blocked_forward_substitute(l, b, block=block), forward_substitute(l, b)
        )
        assert np.allclose(
            blocked_back_substitute(l.T, b, block=block), back_substitute(l.T, b)
        )

    def test_block_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="block"):
            blocked_forward_substitute(conditioned_lower(rng, 4), np.ones(4), block=0)

    def test_zero_diagonal_reported_at_global_index(self, rng):
        n = 2 * LEAF + 1
        l = conditioned_lower(rng, n)
        l[LEAF + 3, LEAF + 3] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match=f"zero diagonal at {LEAF + 3}"):
            blocked_forward_substitute(l, np.ones(n))
        with pytest.raises(np.linalg.LinAlgError, match=f"zero diagonal at {LEAF + 3}"):
            invert_lower_columns(l, [0])


class TestNoReferenceCycles:
    """Kernel results are freed by reference counting alone: a result kept
    alive until the cyclic collector runs holds the operands' memory too."""

    @pytest.fixture(autouse=True)
    def _gc_disabled(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda l, b: blocked_forward_substitute(l, b),
            lambda l, b: blocked_back_substitute(l.T, b),
            lambda l, b: invert_lower_columns(l, [0, 2, 3]),
            lambda l, b: lu_decompose(l + l.T).lu,
        ],
        ids=["blocked_forward", "blocked_back", "invert_lower_columns", "lu_decompose"],
    )
    def test_result_freed_when_dropped(self, rng, kernel):
        n = 2 * LEAF + 1
        result = kernel(conditioned_lower(rng, n), rng.standard_normal((n, 4)))
        ref = weakref.ref(result)
        del result
        assert ref() is None


class TestPredicates:
    def test_is_lower(self):
        assert is_lower_triangular(np.tril(np.ones((4, 4))))
        assert not is_lower_triangular(np.ones((4, 4)))

    def test_is_upper(self):
        assert is_upper_triangular(np.triu(np.ones((4, 4))))
        assert not is_upper_triangular(np.ones((4, 4)))

    def test_tolerance(self):
        m = np.tril(np.ones((3, 3)))
        m[0, 2] = 1e-15
        assert not is_lower_triangular(m)
        assert is_lower_triangular(m, tol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(TriangularShapeError):
            invert_lower(np.zeros((2, 3)))
