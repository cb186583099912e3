"""Distributed inversion from a packed LU factorization (PDGETRI).

Each rank computes its block-cyclic share of ``A^-1`` columns by solving
``A x = P^T e_c`` with the triangular factors.  The factors live distributed
after :func:`~repro.scalapack.pdgetrf.pdgetrf`, so each rank first assembles
the full packed factorization via an allgather — the ``m0 n^2`` read/transfer
of Table 2's ScaLAPACK row, and the reason the paper's comparison turns
against ScaLAPACK as the cluster grows.
"""

from __future__ import annotations

import numpy as np

from ..linalg import permutation
from ..linalg.triangular import blocked_back_substitute, blocked_forward_substitute
from ..mpi.comm import Comm
from ..mpi.grid import owned_indices
from .pdgetrf import LocalLU


def assemble_packed(comm: Comm, fact: LocalLU, n: int, block: int) -> np.ndarray:
    """Allgather the packed LU so every rank holds the full factorization."""
    pieces = comm.allgather((fact.owned_cols, fact.local), tag=2000)
    packed = np.zeros((n, n))
    for cols, local in pieces:
        packed[:, cols] = local
    return packed


def _solve_owned(
    comm: Comm, packed: np.ndarray, perm: np.ndarray, n: int, block: int
) -> np.ndarray:
    """This rank's block-cyclic columns of ``A^-1``; each solve reads only
    its own triangle of the packed factors."""
    owned = owned_indices(comm.rank, n, block, comm.size)
    if owned.size == 0:
        return np.zeros((n, 0))
    # P e_c has its 1 at row i where perm[i] == c.
    rhs = np.zeros((n, owned.size))
    rhs[permutation.invert(perm)[owned], np.arange(owned.size)] = 1.0
    y = blocked_forward_substitute(packed, rhs, unit_diagonal=True)
    return blocked_back_substitute(packed, y)


def pdgetri_2d(comm: Comm, fact, n: int, block: int) -> np.ndarray:
    """Inversion from a 2D factorization (``LocalLU2D``): allgather the
    packed shares — the same ``m0 n^2`` traffic as the 1D path — then each
    rank solves for a 1D block-cyclic share of ``A^-1``'s columns."""
    pieces = comm.allgather((fact.my_rows, fact.my_cols, fact.local), tag=2500)
    packed = np.zeros((n, n))
    for rows, cols, local in pieces:
        packed[np.ix_(rows, cols)] = local
    return _solve_owned(comm, packed, fact.perm, n, block)


def pdgetri(comm: Comm, fact: LocalLU, n: int, block: int) -> np.ndarray:
    """Compute this rank's columns of ``A^-1`` (returned as ``n x n_local``).

    With ``P A = L U``: column ``c`` of ``A^-1`` solves ``A x = e_c``, i.e.
    ``L U x = P e_c`` — forward then back substitution against the packed
    factors, batched over all owned columns.
    """
    packed = assemble_packed(comm, fact, n, block)
    return _solve_owned(comm, packed, fact.perm, n, block)
