"""Distributed LU factorization with partial pivoting (the baseline's
PDGETRF).

The matrix is distributed 1D block-cyclically by *columns*: process ``p``
owns column blocks ``p, p + nprocs, ...`` of width ``block``.  The
factorization is right-looking and panel-synchronized, exactly the execution
pattern of ScaLAPACK's PDGETRF (Section 7.5 runs it with 128-wide blocks on
an f1 x f2 grid; a 1D column layout keeps the implementation tractable while
preserving the properties the paper's comparison rests on — panel-step
synchronization and O(m0 n^2) broadcast traffic, cf. Table 1's ScaLAPACK
row).

Per panel ``k``:

1. the owning process factors panel columns with partial pivoting over the
   trailing rows (it owns entire columns, so the pivot search is local);
2. pivot swaps and the factored panel are broadcast (binomial tree);
3. every process applies the row swaps to its local columns, solves the
   unit-lower triangular system for its block row of U, and applies the
   rank-``b`` GEMM update to its trailing columns.

All communication is measured by the :class:`~repro.mpi.comm.World` traffic
counters — the quantity Figure 8's argument is about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg.lu import SingularMatrixError
from ..linalg.triangular import blocked_forward_substitute
from ..mpi.comm import Comm
from ..mpi.grid import cyclic_owner, owned_indices


@dataclass
class LocalLU:
    """One rank's share of the packed factorization."""

    local: np.ndarray  # packed LU columns owned by this rank
    owned_cols: np.ndarray  # global indices of those columns
    perm: np.ndarray  # the full pivot permutation S (replicated)


def _factor_panel(panel: np.ndarray, row0: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Pivoted LU of one panel: full column height, eliminating from ``row0``.

    Returns the updated panel and the swap list (global row pairs).
    """
    n, b = panel.shape
    swaps: list[tuple[int, int]] = []
    for j in range(b):
        row = row0 + j
        if row >= n:
            break
        rel = int(np.argmax(np.abs(panel[row:, j])))
        piv = row + rel
        if piv != row:
            panel[[row, piv], :] = panel[[piv, row], :]
            swaps.append((row, piv))
        pivot_val = panel[row, j]
        if pivot_val == 0.0:
            raise SingularMatrixError(f"zero pivot in panel column {row}")
        if row + 1 < n:
            panel[row + 1 :, j] /= pivot_val
            if j + 1 < b:
                panel[row + 1 :, j + 1 :] -= np.outer(
                    panel[row + 1 :, j], panel[row, j + 1 :]
                )
    return panel, swaps


def pdgetrf(comm: Comm, local: np.ndarray, n: int, block: int) -> LocalLU:
    """Factor the distributed matrix in place; every rank returns its share.

    ``local`` is this rank's column panel (``n x n_local``, block-cyclic).
    """
    p, rank = comm.size, comm.rank
    owned = owned_indices(rank, n, block, p)
    if local.shape != (n, owned.size):
        raise ValueError(
            f"rank {rank}: local shape {local.shape} != ({n}, {owned.size})"
        )
    local = local.astype(np.float64, copy=True)
    all_swaps: list[tuple[int, int]] = []

    num_panels = -(-n // block)
    for k in range(num_panels):
        col0 = k * block
        width = min(block, n - col0)
        owner = cyclic_owner(col0, block, p)
        # Local column range of the panel on its owner.
        if rank == owner:
            lstart = int(np.searchsorted(owned, col0))
            panel = local[:, lstart : lstart + width].copy()
            panel, swaps = _factor_panel(panel, col0)
            local[:, lstart : lstart + width] = panel
            payload = (panel, swaps)
        else:
            payload = None
        panel, swaps = comm.bcast(payload, root=owner, tag=1000 + 7 * k)
        all_swaps.extend(swaps)

        # Apply the panel's row swaps to all *other* local columns.
        if swaps:
            mask = (owned < col0) | (owned >= col0 + width)
            idx = np.flatnonzero(mask)
            if idx.size:
                sub = local[:, idx]
                for r1, r2 in swaps:
                    sub[[r1, r2], :] = sub[[r2, r1], :]
                local[:, idx] = sub

        # Update this rank's trailing columns (global col > panel).
        trailing = np.flatnonzero(owned >= col0 + width)
        if trailing.size:
            top = slice(col0, col0 + width)
            # Solve L11 U12 = A12; L11 is the unit-lower part of the panel.
            u12 = blocked_forward_substitute(panel[top], local[top, trailing], unit_diagonal=True)
            local[top, trailing] = u12
            if col0 + width < n:
                l21 = panel[col0 + width :, :]
                local[col0 + width :, trailing] -= l21 @ u12

    # Materialize the permutation array S from the swap sequence.
    perm = np.arange(n, dtype=np.int64)
    for r1, r2 in all_swaps:
        perm[[r1, r2]] = perm[[r2, r1]]
    return LocalLU(local=local, owned_cols=owned, perm=perm)
