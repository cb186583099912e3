"""LU decomposition with partial pivoting — Algorithm 1 of the paper.

This is the single-node kernel the pipeline runs on the master for blocks of
order <= nb.  The factorization is computed in place: after the call, the
strict lower triangle holds ``L`` (unit diagonal implied) and the upper
triangle holds ``U``, exactly the storage convention Algorithm 1 describes.
The pivoting permutation is returned as the compact row array ``S`` with
``(PA)_i = A_{S[i]}`` so that ``P A = L U``.

The columns are factored by recursive halving (a panel LU): factor the left
half, solve ``U12 = L11^-1 A12``, update ``A22 -= L21 U12`` in one GEMM,
factor the right half; row swaps span the full width.  Panels of at most
:data:`~repro.linalg.triangular.LEAF` columns run Algorithm 1's pivot, scale
and rank-1 update loop directly: the same pivots and n^3/3 multiplications
as the paper's listing, up to roundoff, mostly in matrix-matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import permutation
from .triangular import LEAF, _solve_lower, blocked_back_substitute, blocked_forward_substitute


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when no usable pivot exists (matrix is singular to working
    precision)."""


@dataclass
class LUResult:
    """Outcome of one LU factorization.

    ``lu`` packs both factors (unit-lower + upper); ``perm`` is the compact
    pivot array ``S``.  ``lower()``/``upper()`` materialize the factors.
    """

    lu: np.ndarray
    perm: np.ndarray

    @property
    def n(self) -> int:
        return self.lu.shape[0]

    def lower(self) -> np.ndarray:
        l = np.tril(self.lu, k=-1)
        np.fill_diagonal(l, 1.0)
        return l

    def upper(self) -> np.ndarray:
        return np.triu(self.lu)

    def flops(self) -> float:
        """Multiplication count of the factorization (~n^3/3, Table 1)."""
        n = float(self.n)
        return n**3 / 3.0


def lu_decompose(
    a: np.ndarray,
    *,
    pivot: bool = True,
    pivot_tol: float = 0.0,
) -> LUResult:
    """Factor ``a`` so that ``P a = L U`` (Algorithm 1).

    Parameters
    ----------
    a:
        Square matrix; not modified (a float64 copy is factored).
    pivot:
        Partial pivoting on (the paper always pivots; ``False`` is provided
        for tests demonstrating why pivoting matters).
    pivot_tol:
        Pivots with absolute value <= this are treated as zero.

    Raises
    ------
    SingularMatrixError
        If the best available pivot in some column is (near-)zero.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"LU needs a square matrix, got shape {a.shape}")
    lu = a.copy()
    perm = permutation.identity(a.shape[0])
    _factor_panel(lu, perm, 0, a.shape[0], pivot, pivot_tol)
    return LUResult(lu=lu, perm=perm)


def _factor_panel(
    lu: np.ndarray, perm: np.ndarray, c0: int, c1: int, pivot: bool, tol: float
) -> None:
    """Factor columns ``c0:c1`` of ``lu`` (rows ``c0:``) in place, applying
    each row swap to the full rows of ``lu`` and to ``perm``."""
    if c1 - c0 > LEAF:
        h = (c0 + c1) // 2
        _factor_panel(lu, perm, c0, h, pivot, tol)
        _solve_lower(lu[c0:h, c0:h], lu[c0:h, h:c1], True, LEAF)
        lu[h:, h:c1] -= lu[h:, c0:h] @ lu[c0:h, h:c1]
        _factor_panel(lu, perm, h, c1, pivot, tol)
        return
    for i in range(c0, c1):
        if pivot:
            # Algorithm 1 line 3: pick the max |element| in column i, rows i..n.
            j = i + int(np.argmax(np.abs(lu[i:, i])))
            if j != i:
                lu[[i, j], :] = lu[[j, i], :]
                perm[[i, j]] = perm[[j, i]]
        pivot_val = lu[i, i]
        if abs(pivot_val) <= tol:
            raise SingularMatrixError(
                f"zero pivot at step {i} (|pivot|={abs(pivot_val):.3e})"
            )
        # Lines 6-8: scale the multipliers; lines 9-13: rank-1 update of the
        # leaf panel's remaining columns.
        lu[i + 1 :, i] /= pivot_val
        lu[i + 1 :, i + 1 : c1] -= np.outer(lu[i + 1 :, i], lu[i, i + 1 : c1])


def lu_reconstruct(result: LUResult) -> np.ndarray:
    """Recompute ``P A`` from the factors (testing aid): returns ``L @ U``."""
    return result.lower() @ result.upper()


def solve_lu(result: LUResult, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given ``P A = L U``: forward then back substitution
    applied to ``P b``."""
    pb = permutation.apply_rows(result.perm, np.asarray(b, dtype=np.float64))
    y = blocked_forward_substitute(result.lu, pb, unit_diagonal=True)
    return blocked_back_substitute(result.lu, y)


def lu_flop_count(n: int) -> float:
    """Multiplications used by LU on an order-n matrix (Table 1: n^3/3)."""
    return float(n) ** 3 / 3.0
