"""Greedy selection of the sample-index set shared by all hyper-reduced models.

The index set stands for the sampling matrix S (selected identity columns);
its order matters because the first n indices define the square block used
by the sparse potential map.
"""

import logging
import numbers
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SampleIndexSet:
    """Ordered set of distinct degree-of-freedom indices in [0, N); the
    first n are the rows of the sparse potential map."""

    indices: np.ndarray
    ambient_dim: int

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.dtype.kind == "f" and np.all(idx == np.trunc(idx)):
            idx = idx.astype(int)   # archives store the indices as float64
        if idx.dtype.kind not in "iu":
            raise ValueError("sample indices must be integers")
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("sample set must contain at least one index")
        if len(np.unique(idx)) != idx.size:
            raise ValueError("sample indices must be distinct")
        if idx.min() < 0 or idx.max() >= self.ambient_dim:
            raise ValueError("sample indices out of range")

    @property
    def m(self) -> int:
        return int(self.indices.size)


def greedy_sample_indices(residual_basis, m) -> SampleIndexSet:
    """Select ``m`` row indices by a cyclic gappy-residual greedy rule.

    Basis columns are visited cyclically.  At each step the candidate row
    maximizing the magnitude of the current column's gappy reconstruction
    residual (least-squares fit over already-selected rows, in the span of
    previously visited columns) is added.  Ties break toward the lowest
    index.  Columns that vanish on the remaining rows fall back to plain
    largest-magnitude selection on the next column.
    """
    basis = np.asarray(residual_basis, dtype=float)
    if basis.ndim != 2:
        raise ValueError("residual basis must be a 2-D array")
    big_n, k = basis.shape
    if k < 1:
        raise ValueError("residual basis needs at least one column")
    if not isinstance(m, numbers.Integral):
        raise ValueError("sample count m must be an integer, got %r" % (m,))
    if not 1 <= m <= big_n:
        raise ValueError("need 1 <= m <= N, got m=%d, N=%d" % (m, big_n))

    selected: list[int] = []
    taken = np.zeros(big_n, dtype=bool)
    for step in range(m):
        col = step % k
        # The columns cycled through before this step.
        residual = _gappy_residual(basis, col, range(min(step, k)), selected)
        pick = _argmax_abs(residual, taken)
        if pick is None:
            # Degenerate: this column vanishes on every remaining row.  Fall
            # back to largest-magnitude selection on the next columns.
            logger.warning("greedy sampling: column %d vanishes on remaining rows", col)
            for fallback in range(1, k + 1):
                pick = _argmax_abs(basis[:, (col + fallback) % k], taken)
                if pick is not None:
                    break
            if pick is None:
                pick = int(np.argmin(taken))   # lowest remaining row
        selected.append(pick)
        taken[pick] = True

    return SampleIndexSet(indices=np.array(selected, dtype=int), ambient_dim=big_n)


def _gappy_residual(basis, col, visited, selected):
    """Residual of reconstructing column ``col`` from the visited columns,
    fitted on the selected rows only."""
    c = basis[:, col]
    prior = [j for j in visited if j != col]
    if not prior or not selected:
        return c
    sub = basis[np.ix_(selected, prior)]
    coeffs, *_ = np.linalg.lstsq(sub, c[selected], rcond=None)
    return c - basis[:, prior] @ coeffs


def _argmax_abs(values, taken):
    """Lowest index not taken attaining the max magnitude; None if all zero."""
    mags = np.where(taken, 0.0, np.abs(values))
    if mags.max() == 0.0:
        return None
    return int(np.argmax(mags))


def validate_sample_set(sample_set, vectorized_operator) -> list[str]:
    """Problems of a sample set for matrix gappy POD as messages, none if it
    passes: (m^2 + m)/2 must cover the k basis matrices, and the
    upper-triangle vectorized sampled operator ((m^2 + m)/2, k;
    ``MatrixGappyBasis.sampled_operator``) must have full column rank."""
    m = sample_set.m
    k = vectorized_operator.shape[1]
    messages = []
    if (m * m + m) // 2 < k:
        messages.append("(m^2+m)/2 = %d < %d basis matrices" % ((m * m + m) // 2, k))
    rank = np.linalg.matrix_rank(vectorized_operator)
    if rank < k:
        messages.append("vectorized sampled operator rank %d < %d" % (rank, k))
    return messages
