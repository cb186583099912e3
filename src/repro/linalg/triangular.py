"""Triangular inversion and substitution — Equation 4 of the paper.

The inverse of a lower triangular matrix is defined row by row:

    [L^-1]_ii = 1 / [L]_ii
    [L^-1]_ij = -(1/[L]_ii) * sum_{k=j}^{i-1} [L]_ik [L^-1]_kj   (i > j)

A column of the inverse depends only on earlier rows of the *same* column, so
columns are independent — this is what Section 4.3 parallelizes across
mappers.  :func:`invert_lower_columns` computes an arbitrary column subset,
which is exactly a map task's share: it solves ``L X = I[:, columns]``.

Equation 4 is evaluated blockwise: the solvers halve ``L = [[L11, 0],
[L21, L22]]`` recursively — solve against ``L11``, subtract ``L21 @ Y1`` in
one GEMM, solve against ``L22`` — down to diagonal blocks of at most
:data:`LEAF` rows, where the row recurrence above runs directly
(:func:`forward_substitute`).  Same arithmetic up to roundoff.

Upper-triangular inversion reuses the lower kernel on the transpose
(Section 6.3: the implementation always stores ``U`` transposed), so
``U^-1 = (invert_lower(U^T))^T``.
"""

from __future__ import annotations

import numpy as np

#: Order of the diagonal blocks the recursive solvers hand to the row loop.
LEAF = 32


class TriangularShapeError(ValueError):
    """Raised when an input is not (numerically) triangular."""


def _check_square(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise TriangularShapeError(f"{what} must be square, got shape {m.shape}")
    return m


def is_lower_triangular(m: np.ndarray, tol: float = 0.0) -> bool:
    m = np.asarray(m)
    return bool(np.all(np.abs(np.triu(m, k=1)) <= tol))


def is_upper_triangular(m: np.ndarray, tol: float = 0.0) -> bool:
    m = np.asarray(m)
    return bool(np.all(np.abs(np.tril(m, k=-1)) <= tol))


def _prepare(t: np.ndarray, b: np.ndarray, what: str, unit_diagonal: bool):
    """Validate a solve's operands; returns ``(t, y, one_d)`` with ``y`` a
    private 2-D float64 copy of ``b`` that the solver overwrites."""
    t = _check_square(t, what)
    y = np.array(b, dtype=np.float64)
    one_d = y.ndim == 1
    if one_d:
        y = y[:, None]
    n = t.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"rhs has {y.shape[0]} rows, {what} is {n}x{n}")
    if not unit_diagonal and np.any(np.diag(t) == 0.0):
        idx = int(np.argmax(np.diag(t) == 0.0))
        raise np.linalg.LinAlgError(f"triangular matrix singular: zero diagonal at {idx}")
    return t, y, one_d


# -- row-by-row substitution (the leaf kernel) ---------------------------------


def forward_substitute(
    l: np.ndarray, b: np.ndarray, *, unit_diagonal: bool = False
) -> np.ndarray:
    """Solve ``L y = b`` for lower-triangular ``L`` (b may have many columns)."""
    l, y, one_d = _prepare(l, b, "L", unit_diagonal)
    for i in range(l.shape[0]):
        if i:
            y[i] -= l[i, :i] @ y[:i]
        if not unit_diagonal:
            y[i] /= l[i, i]
    return y[:, 0] if one_d else y


def back_substitute(u: np.ndarray, b: np.ndarray, *, unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U``."""
    u, x, one_d = _prepare(u, b, "U", unit_diagonal)
    n = u.shape[0]
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= u[i, i + 1 :] @ x[i + 1 :]
        if not unit_diagonal:
            x[i] /= u[i, i]
    return x[:, 0] if one_d else x


# -- recursive (BLAS-3) substitution -------------------------------------------


def _solve_lower(l: np.ndarray, y: np.ndarray, unit: bool, leaf: int) -> None:
    """Overwrite the view ``y`` with ``L^-1 y`` by recursive halving."""
    n = l.shape[0]
    if n <= leaf:
        y[...] = forward_substitute(l, y, unit_diagonal=unit)
        return
    h = n // 2
    _solve_lower(l[:h, :h], y[:h], unit, leaf)
    y[h:] -= l[h:, :h] @ y[:h]
    _solve_lower(l[h:, h:], y[h:], unit, leaf)


def _solve_upper(u: np.ndarray, x: np.ndarray, unit: bool, leaf: int) -> None:
    """Overwrite the view ``x`` with ``U^-1 x`` (mirror of the lower case)."""
    n = u.shape[0]
    if n <= leaf:
        x[...] = back_substitute(u, x, unit_diagonal=unit)
        return
    h = n // 2
    _solve_upper(u[h:, h:], x[h:], unit, leaf)
    x[:h] -= u[:h, h:] @ x[h:]
    _solve_upper(u[:h, :h], x[:h], unit, leaf)


def blocked_forward_substitute(
    l: np.ndarray,
    b: np.ndarray,
    *,
    unit_diagonal: bool = False,
    block: int = LEAF,
) -> np.ndarray:
    """Recursive blocked solve of ``L Y = B``.

    Recurses on ``L = [[L11, 0], [L21, L22]]`` — solve L11, one GEMM update,
    solve L22 — down to diagonal blocks of at most ``block`` rows, which
    :func:`forward_substitute` solves row by row.  Only the strict lower
    triangle (and the diagonal unless ``unit_diagonal``) is read, so packed
    LU storage can be passed as is.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    l, y, one_d = _prepare(l, b, "L", unit_diagonal)
    _solve_lower(l, y, unit_diagonal, block)
    return y[:, 0] if one_d else y


def blocked_back_substitute(
    u: np.ndarray,
    b: np.ndarray,
    *,
    unit_diagonal: bool = False,
    block: int = LEAF,
) -> np.ndarray:
    """Recursive blocked solve of ``U X = B`` (mirror of the forward case)."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    u, x, one_d = _prepare(u, b, "U", unit_diagonal)
    _solve_upper(u, x, unit_diagonal, block)
    return x[:, 0] if one_d else x


# -- inversion (Equation 4) ----------------------------------------------------


def invert_lower_columns(l: np.ndarray, columns: np.ndarray | list[int]) -> np.ndarray:
    """Columns ``columns`` of ``L^-1`` via Equation 4.

    Returns an ``n x len(columns)`` array; column *t* of the result is column
    ``columns[t]`` of the inverse.  This is the unit of work of one mapper in
    the final inversion job (Section 5.4 assigns each mapper a strided set of
    columns for load balance); it is one blocked solve against the matching
    identity columns.
    """
    l = _check_square(l, "L")
    cols = np.asarray(columns, dtype=np.int64)
    n = l.shape[0]
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ValueError("column index out of range")
    sel = np.zeros((n, cols.size))
    sel[cols, np.arange(cols.size)] = 1.0  # identity restricted to the columns
    return blocked_forward_substitute(l, sel)


def invert_lower(l: np.ndarray) -> np.ndarray:
    """Full ``L^-1`` (Equation 4 over all columns)."""
    n = _check_square(l, "L").shape[0]
    return invert_lower_columns(l, np.arange(n))


def invert_upper(u: np.ndarray) -> np.ndarray:
    """``U^-1`` computed through the transposed-lower kernel (Section 6.3:
    the pipeline stores ``U^T`` and inverts it as a lower triangular matrix)."""
    u = _check_square(u, "U")
    return invert_lower(u.T).T


def invert_upper_rows(u: np.ndarray, rows: np.ndarray | list[int]) -> np.ndarray:
    """Rows ``rows`` of ``U^-1`` — one mapper's share in the final job.

    Row *i* of ``U^-1`` is column *i* of ``(U^T)^-1``; computed via the
    column kernel on the transpose and returned as ``len(rows) x n``.
    """
    u = _check_square(u, "U")
    return invert_lower_columns(u.T, rows).T


def triangular_inverse_flop_count(n: int) -> float:
    """Multiplications for inverting one order-n triangular factor (~n^3/6);
    the pair plus the final product totals 2/3 n^3 as in Table 2."""
    return float(n) ** 3 / 6.0
