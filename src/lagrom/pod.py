"""Truncated proper-orthogonal-decomposition bases from snapshot collections.

Snapshots are column-normalized before the thin SVD, and the basis is
truncated by an energy criterion on the squared singular values.  Basis
columns are defined only up to sign, so downstream code must compare
projectors rather than the columns themselves.
"""

from dataclasses import dataclass

import numpy as np

# Singular values below this fraction of the largest one count as zero
# when the energy criterion requests the full spectrum.
ZERO_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class PODBasis:
    """Orthonormal basis with the spectrum that produced it.

    Attributes
    ----------
    columns : (N, n) ndarray
        Leading left singular vectors of the normalized snapshot matrix.
    singular_values : (k,) ndarray
        All computed singular values, nonincreasing.
    """

    columns: np.ndarray
    singular_values: np.ndarray


def _check_energy(energy: float) -> float:
    energy = float(energy)
    if not 0.0 <= energy <= 1.0 or not np.isfinite(energy):
        raise ValueError("invalid energy criterion: %r" % energy)
    return energy


def pod_dimension(singular_values, energy) -> int:
    """Smallest k whose leading squared singular values reach ``energy``.

    Returns min{k : sum_{i<=k} s_i^2 / sum_j s_j^2 >= energy}.  Raises if
    every singular value is zero.
    """
    energy = _check_energy(energy)
    s = np.asarray(singular_values, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("singular values must be a nonempty 1-D sequence")
    total = np.sum(s**2)
    if total == 0.0:
        raise ValueError("all singular values are zero")
    fractions = np.cumsum(s**2) / total
    return int(np.searchsorted(fractions, energy) + 1 if energy > 0 else 1)


def compute_pod_basis(snapshots, energy) -> PODBasis:
    """Compute a truncated POD basis of the given snapshots.

    Parameters
    ----------
    snapshots : (N, k) ndarray, one snapshot per column
    energy : float in [0, 1]
        Retained fraction of squared singular-value mass.

    Each snapshot is normalized to unit 2-norm before the decomposition;
    identically zero snapshots are dropped, and a snapshot with a
    non-finite entry raises ``ValueError``.
    """
    energy = _check_energy(energy)
    if not isinstance(snapshots, np.ndarray) or snapshots.ndim != 2:
        raise ValueError("snapshots must be an (N, k) array")
    mat = np.asarray(snapshots, dtype=float)
    finite = np.all(np.isfinite(mat), axis=0)
    if not np.all(finite):
        raise ValueError("non-finite snapshot column(s) %s"
                         % np.flatnonzero(~finite).tolist())

    norms = np.linalg.norm(mat, axis=0)
    nonzero = norms > 0.0
    mat = mat[:, nonzero]
    norms = norms[nonzero]
    if mat.size == 0:
        raise ValueError("no snapshots")

    u, s, _ = np.linalg.svd(mat / norms, full_matrices=False)

    s_rule = s
    if energy == 1.0:
        # Keep only genuinely nonzero modes when the full spectrum is asked for.
        keep = s > ZERO_SINGULAR_RTOL * s[0]
        s_rule = s[keep] if np.any(keep) else s[:1]
    n = pod_dimension(s_rule, energy)
    return PODBasis(columns=u[:, :n].copy(), singular_values=s)
