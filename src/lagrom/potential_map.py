"""Parameter-dependent sparse substitute for the reduced potential basis.

At each online parameter, a square factor is built from Cholesky factors of
the reduced and sampled equilibrium Hessians so that the sparse congruence
reproduces the reduced Hessian exactly at equilibrium.  Reduced gradients
then cost only a handful of sampled gradient entries per evaluation.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .sampling import SampleIndexSet
from .spd_approx import symmetrize


@dataclass(frozen=True)
class SparsePotentialMap:
    """Square dense block of the sparse potential basis for one parameter.

    The sparse basis is the first-n sampling matrix times ``factor``; the
    remaining sampled rows are zero.  Valid only for the parameter it was
    built at.
    """

    factor: np.ndarray          # (n, n), nonsingular
    sample_set: SampleIndexSet
    parameter: object

    @property
    def n(self) -> int:
        return self.factor.shape[0]

    @property
    def rows(self) -> np.ndarray:
        """Ambient row indices carrying the nonzero entries."""
        return self.sample_set.first(self.n)


def build_potential_map(reduced_hessian, sampled_hessian, sample_set,
                        parameter=None) -> SparsePotentialMap:
    """Match the reduced equilibrium Hessian through the sampled one.

    With lower Cholesky factors ``L_phi`` (reduced) and ``L_s`` (sampled),
    the factor solves ``L_s.T @ B = L_phi.T`` so that the congruence through
    the sampled Hessian reproduces the reduced Hessian by construction.
    """
    h_r = np.asarray(reduced_hessian, dtype=float)
    h_s = np.asarray(sampled_hessian, dtype=float)
    n = h_r.shape[0]
    if h_s.shape != (n, n):
        raise ValueError("reduced and sampled Hessians must share one square shape")
    if sample_set.m < n:
        raise ValueError("sample set smaller than the reduced dimension")
    try:
        l_phi = np.linalg.cholesky(symmetrize(h_r))
        l_s = np.linalg.cholesky(symmetrize(h_s))
    except np.linalg.LinAlgError:
        raise ValueError(
            "equilibrium Hessian not positive definite on sample/reduced space")
    factor = scipy.linalg.solve_triangular(l_s.T, l_phi.T, lower=False)
    return SparsePotentialMap(factor=factor, sample_set=sample_set, parameter=parameter)


def approx_reduced_gradient(pmap: SparsePotentialMap, sampled_gradient, q_r):
    """Reduced potential gradient through the sparse basis.

    ``sampled_gradient(rows, dq_rows, dq_values)`` must return the requested
    entries of the full potential gradient at the equilibrium configuration
    displaced sparsely by ``dq``.  At ``q_r = 0`` the result is exactly zero.
    """
    q_r = np.asarray(q_r, dtype=float)
    rows = pmap.rows
    dq = pmap.factor @ q_r
    g = np.asarray(sampled_gradient(rows, rows, dq), dtype=float)
    return pmap.factor.T @ g


def approx_reduced_hessian(pmap: SparsePotentialMap, sampled_hessian_block, q_r):
    """Reduced potential Hessian through the sparse basis (symmetric).

    ``sampled_hessian_block(rows, cols, dq_rows, dq_values)`` must return
    the requested block of the full Hessian at the sparsely displaced
    configuration.
    """
    q_r = np.asarray(q_r, dtype=float)
    rows = pmap.rows
    dq = pmap.factor @ q_r
    h = np.asarray(sampled_hessian_block(rows, rows, rows, dq), dtype=float)
    return symmetrize(pmap.factor.T @ h @ pmap.factor)
