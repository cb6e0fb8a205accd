"""Gappy least-squares reconstruction of vector-valued nonlinear terms.

Given an empirical basis for a term and a shared sample set, the offline
product is a single small matrix mapping sampled entries to the reduced
projection of the reconstructed term.  Reconstructing and then projecting
equals applying that operator to the sampled values, which is what lets
the structure-preserving models treat the external force consistently.
"""

import numpy as np
import scipy.linalg

# Relative tolerance on the R factor used for rank decisions.
RANK_RTOL = 1e-12


def _sampled_pinv(phi_f_sampled):
    """Pseudoinverse of the sampled term basis via pivoted QR.

    Raises on (numerical) rank deficiency.
    """
    q, r, piv = scipy.linalg.qr(phi_f_sampled, mode="economic", pivoting=True)
    diag = np.abs(np.diagonal(r))
    if diag.size == 0 or diag.min() <= RANK_RTOL * np.linalg.norm(phi_f_sampled):
        raise ValueError("sampling insufficient for force basis")
    pinv_permuted = scipy.linalg.solve_triangular(r, q.T, lower=False)
    pinv = np.empty_like(pinv_permuted)
    pinv[piv, :] = pinv_permuted
    return pinv


def build_force_reconstructor(phi, phi_f, sample_set) -> np.ndarray:
    """The (n, m) operator taking the m sampled entries of one nonlinear
    term to the reduced projection of its gappy reconstruction.

    An empty term basis (e.g. a force that is identically zero over the
    training set) yields the zero operator.
    """
    phi = np.asarray(phi, dtype=float)
    phi_f = np.asarray(phi_f, dtype=float)
    n = phi.shape[1]
    m = sample_set.m
    if phi_f.shape[1] == 0:
        return np.zeros((n, m))
    if phi_f.shape[1] > m:
        raise ValueError("term basis dimension %d exceeds sample count %d"
                         % (phi_f.shape[1], m))
    pinv = _sampled_pinv(phi_f[sample_set.indices, :])
    return (phi.T @ phi_f) @ pinv


def apply_force_reconstructor(operator, sampled_values):
    """Reduced projection of the reconstructed term from its sampled entries."""
    v = np.asarray(sampled_values, dtype=float)
    if v.shape != operator.shape[1:]:
        raise ValueError("expected %d sampled values, got shape %s"
                         % (operator.shape[1], v.shape))
    return operator @ v


def gappy_error_bound(phi_f, sample_set, f):
    """True gappy reconstruction error and its QR-based upper bound.

    Returns ``(error, bound)`` where ``error`` is the 2-norm of the
    reconstruction residual and ``bound`` multiplies the orthogonal
    projection residual by the inverse R-factor norm.  Raises if the bound
    is violated beyond round-off, since that signals a broken sampled
    basis.
    """
    phi_f = np.asarray(phi_f, dtype=float)
    f = np.asarray(f, dtype=float)
    sampled = phi_f[sample_set.indices, :]
    q, r = np.linalg.qr(sampled)
    diag = np.abs(np.diagonal(r))
    if diag.min() <= RANK_RTOL * np.linalg.norm(sampled):
        raise ValueError("sampling insufficient for force basis")

    coeffs, *_ = np.linalg.lstsq(sampled, f[sample_set.indices], rcond=None)
    error = float(np.linalg.norm(f - phi_f @ coeffs))
    r_inv_norm = 1.0 / float(np.linalg.svd(r, compute_uv=False)[-1])
    bound = r_inv_norm * float(np.linalg.norm(f - phi_f @ (phi_f.T @ f)))
    if error > bound * (1.0 + 1e-9) + 1e-14:
        raise RuntimeError("gappy error bound violated: %.3e > %.3e" % (error, bound))
    return error, bound
