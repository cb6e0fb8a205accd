"""Parameter-dependent sparse substitute for the reduced potential basis.

At each online parameter, a square factor is built from Cholesky factors of
the reduced and sampled equilibrium Hessians so that the sparse congruence
reproduces the reduced Hessian exactly at equilibrium.  Reduced gradients
and Hessians then cost only the elements incident to the map's rows.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .spd_approx import symmetrize


@dataclass(frozen=True)
class SparsePotentialMap:
    """Square dense block of the sparse potential basis for one parameter.

    The sparse basis is the sampling matrix of ``rows`` (the first n
    sampled indices) times ``factor``; the remaining sampled rows are zero.
    Valid only for the parameter it was built at.
    """

    rows: np.ndarray            # (n,) ambient rows carrying the nonzero entries
    factor: np.ndarray          # (n, n), nonsingular


def build_potential_map(reduced_hessian, sampled_hessian,
                        rows) -> SparsePotentialMap:
    """Match the reduced equilibrium Hessian through the sampled one.

    ``sampled_hessian`` is the equilibrium Hessian block on ``rows``.  With
    lower Cholesky factors ``L_phi`` (reduced) and ``L_s`` (sampled), the
    factor solves ``L_s.T @ B = L_phi.T`` so that the congruence through
    the sampled Hessian reproduces the reduced Hessian by construction.
    """
    h_r = np.asarray(reduced_hessian, dtype=float)
    h_s = np.asarray(sampled_hessian, dtype=float)
    n = h_r.shape[0]
    if h_s.shape != (n, n) or np.shape(rows) != (n,):
        raise ValueError("rows and sampled Hessian must match the reduced "
                         "dimension %d" % n)
    try:
        l_phi = np.linalg.cholesky(symmetrize(h_r))
        l_s = np.linalg.cholesky(symmetrize(h_s))
    except np.linalg.LinAlgError:
        raise ValueError(
            "equilibrium Hessian not positive definite on sample/reduced space")
    factor = scipy.linalg.solve_triangular(l_s.T, l_phi.T, lower=False)
    return SparsePotentialMap(rows=rows, factor=factor)


def approx_reduced_gradient(kernel, q_r):
    """Reduced potential gradient through the sparse basis.

    ``kernel`` is the model's potential under the map, built once per
    parameter (``model.potential_kernel(pmap.rows, pmap.factor)``).  At
    ``q_r = 0`` the result is exactly zero.
    """
    return kernel.gradient(q_r)


def approx_reduced_hessian(kernel, q_r):
    """Reduced potential Hessian through the sparse basis, exactly
    symmetric; ``kernel`` as for :func:`approx_reduced_gradient`."""
    return symmetrize(kernel.hessian(q_r))
