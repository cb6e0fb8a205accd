"""Symmetry- and definiteness-preserving approximation of reduced matrices.

Two offline/online strategies approximate the n x n reduced matrix
``phi.T @ A(mu) @ phi`` of a parameterized SPD family at a cost independent
of the ambient dimension:

* reduced-basis sparsification (RBS): a congruence ``Zhat.T S.T A S Zhat``
  through a dense m x n factor fitted offline over matrix snapshots, and
* matrix gappy POD: a linear combination of precomputed reduced basis
  matrices whose coefficients solve a small sampled least-squares problem
  subject to a positive-definiteness constraint.

Both approximations are symmetric by construction; RBS outputs inherit
positive definiteness from the sampled block, and the gappy coefficients
are pushed back into the feasible set by an eigenvalue-constrained solve
when the unconstrained solution violates the constraint.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

logger = logging.getLogger(__name__)

RANK_PROJECT_RTOL = 1e-10
# rbs_fit stops when its largest gradient entry falls below this fraction
# of the one at the start, or after RBS_MAX_ITERS L-BFGS iterations.
RBS_GRAD_TOL = 1e-9
RBS_MAX_ITERS = 50
# Penalty escalations of eigen_constrained_solve, each ten times the last.
CONSTRAINED_ROUNDS = 10


def symmetrize(a):
    """Symmetric part of a square matrix."""
    return 0.5 * (a + a.T)


def _sampled_and_reduced(matrices, phi, sample_set):
    """Sampled principal blocks (K, m, m) and reduced matrices
    ``phi.T @ A @ phi`` (K, n, n) of full-size matrices, stacked."""
    phi = np.asarray(phi, dtype=float)
    mats = [np.asarray(a, dtype=float) for a in matrices]
    if not mats:
        raise ValueError("no matrix snapshots")
    block = np.ix_(sample_set.indices, sample_set.indices)
    return (np.array([a[block] for a in mats]),
            np.array([phi.T @ a @ phi for a in mats]))


# ---------------------------------------------------------------------------
# Reduced-basis sparsification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RBSMap:
    """Offline product of the sparse-congruence fit.

    ``factor`` is the dense m x n block of the sparse reduced basis
    (the full sparse basis is the sampling matrix times this factor).
    """

    factor: np.ndarray
    fit_residual: float
    converged: bool
    iterations: int

    @property
    def m(self) -> int:
        return self.factor.shape[0]


def _congruence_objective(z, sampled, reduced):
    """Sum of squared Frobenius mismatches and its gradient w.r.t. z.

    ``sampled`` (K, m, m) and ``reduced`` (K, n, n) stack the snapshots.
    Both sums run over the snapshots in order, as running totals from zero.
    """
    az = sampled @ z
    err = z.T @ az - reduced
    value = np.cumsum(np.sum((err * err).reshape(len(err), -1), axis=1))[-1]
    grad = np.add.accumulate(4.0 * (az @ err), axis=0)[-1]
    return float(value), grad


def _objective_scale(reduced):
    """The fit objective at Z = 0: the reduced matrices' squared Frobenius
    norms, summed."""
    return max(sum(float(np.sum(r * r)) for r in reduced), 1e-300)


def rbs_relative_residual(rbs_map: RBSMap, matrix_snapshots, phi) -> float:
    """``sqrt(fit_residual / sum ||phi.T A phi||_F^2)`` over the snapshots
    the map was fitted to: the relative residual ``rbs_fit`` logs."""
    phi = np.asarray(phi, dtype=float)
    reduced = [phi.T @ np.asarray(a, dtype=float) @ phi for a in matrix_snapshots]
    return float(np.sqrt(rbs_map.fit_residual / _objective_scale(reduced)))


def rbs_fit(matrix_snapshots, phi, sample_set) -> RBSMap:
    """Fit the dense factor of the sparse reduced basis over matrix snapshots.

    Minimizes the summed squared Frobenius error between the sparse
    congruence and the true reduced matrices, by limited-memory
    quasi-Newton descent started from the sampled rows of ``phi``, for at
    most ``RBS_MAX_ITERS`` iterations.  A fit stopped at that budget keeps the
    achieved residual and is flagged unconverged rather than raising.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[1]
    m = sample_set.m
    if m < n:
        raise ValueError("need at least as many samples as basis columns (m >= n)")
    sampled, reduced = _sampled_and_reduced(matrix_snapshots, phi, sample_set)
    z0 = phi[sample_set.indices, :].copy()

    def fun(x):
        value, grad = _congruence_objective(x.reshape(m, n), sampled, reduced)
        return value, grad.ravel()

    # Scale of the objective at Z = 0; used to recognize an exact fit.
    obj_scale = _objective_scale(reduced)

    f0, g0 = fun(z0.ravel())
    if f0 <= 1e-24 * obj_scale:
        # The prescribed initialization is already (numerically) exact,
        # e.g. under full sampling.
        return RBSMap(factor=z0, fit_residual=float(f0), converged=True,
                      iterations=0)
    import scipy.optimize   # imported here: only the offline fits need it

    result = scipy.optimize.minimize(
        fun, z0.ravel(), jac=True, method="L-BFGS-B",
        options={"maxiter": RBS_MAX_ITERS,
                 "gtol": RBS_GRAD_TOL * (np.max(np.abs(g0)) or 1.0),
                 "ftol": 1e-16})
    z = result.x.reshape(m, n)

    # Project back to full column rank: inflate collapsed singular values.
    u, sv, vt = np.linalg.svd(z, full_matrices=False)
    floor = RANK_PROJECT_RTOL * (sv[0] if sv[0] > 0 else 1.0)
    if sv[-1] <= floor:
        logger.warning("rbs_fit: rank-deficient factor, inflating %d singular value(s)",
                       int(np.sum(sv <= floor)))
        z = u @ np.diag(np.maximum(sv, floor)) @ vt

    residual, _ = _congruence_objective(z, sampled, reduced)
    converged = bool(result.success or residual <= 1e-24 * obj_scale)
    if not converged:
        logger.info("rbs_fit stopped after %d iterations: residual %.3e "
                    "(relative %.3e)", result.nit, residual,
                    np.sqrt(residual / obj_scale))
    return RBSMap(
        factor=z,
        fit_residual=float(residual),
        converged=converged,
        iterations=int(result.nit),
    )


def rbs_apply(rbs_map: RBSMap, sampled_matrix) -> np.ndarray:
    """Online congruence: ``factor.T @ sampled_matrix @ factor``.

    The result is symmetric, and positive definite whenever the sampled
    principal submatrix is.
    """
    a = np.asarray(sampled_matrix, dtype=float)
    if a.shape != (rbs_map.m, rbs_map.m):
        raise ValueError("sampled matrix shape %s does not match map (%d, %d)"
                         % (a.shape, rbs_map.m, rbs_map.m))
    return symmetrize(rbs_map.factor.T @ a @ rbs_map.factor)


# ---------------------------------------------------------------------------
# Matrix gappy POD
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixGappyBasis:
    """The principal-matrix basis as the online stage reads it: the upper
    triangles (``np.triu_indices`` order) of the k sampled m x m blocks as
    the columns of the sampled least-squares operator, and the k reduced
    n x n blocks."""

    sampled_operator: np.ndarray         # ((m^2 + m)/2, k)
    reduced_basis: np.ndarray            # (k, n, n)

    @property
    def k(self) -> int:
        return self.reduced_basis.shape[0]


def matrix_pod_modes(matrix_snapshots, energy):
    """Principal matrices of the symmetric snapshot family via vectorized
    POD, as (k, K) coefficients C over the K snapshots: mode i is
    ``sum_j C[i, j] * A_j`` (minimum-norm C for dependent snapshots).

    The standard snapshot-normalized POD runs on the snapshots' common
    support only: the entries nonzero in at least one snapshot, closed
    under transposition.  An entry that is zero in every snapshot is zero
    in every left singular vector, so this is the same POD at O(nnz K)
    cost instead of O(N^2 K).
    """
    from .pod import compute_pod_basis

    mats = [np.asarray(a, dtype=float) for a in matrix_snapshots]
    if not mats:
        raise ValueError("no matrix snapshots")
    big_n = mats[0].shape[0]
    if any(a.shape != (big_n, big_n) for a in mats):
        raise ValueError("matrix snapshots must share one square shape")
    support = np.zeros((big_n, big_n), dtype=bool)
    for a in mats:
        support |= a != 0.0
    support |= support.T
    flat = np.flatnonzero(support)
    # Position in ``flat`` of each entry's transpose.
    transpose = np.searchsorted(flat, (flat % big_n) * big_n + flat // big_n)
    vectorized = np.column_stack([a.ravel()[flat] for a in mats])
    # Off the support every snapshot is zero, and so symmetric.
    asymmetry = np.max(np.abs(vectorized - vectorized[transpose]), axis=0, initial=0.0)
    asymmetric = asymmetry > 1e-12 * np.max(np.abs(vectorized), axis=0, initial=0.0)
    if np.any(asymmetric):
        raise ValueError("matrix snapshot(s) %s not symmetric"
                         % np.flatnonzero(asymmetric).tolist())
    basis = compute_pod_basis(vectorized, energy)
    return np.linalg.lstsq(vectorized, basis.columns, rcond=None)[0].T


def build_matrix_gappy_basis(coefficients, matrix_snapshots, phi,
                             sample_set) -> MatrixGappyBasis:
    """Sampled operator and reduced blocks of the principal matrices
    ``sum_j C[i, j] * A_j``, from (k, K) coefficients C and K snapshots."""
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 2 or c.shape[1] != len(matrix_snapshots):
        raise ValueError("need (k, %d) coefficients, got shape %s"
                         % (len(matrix_snapshots), c.shape))
    sampled, reduced = _sampled_and_reduced(matrix_snapshots, phi, sample_set)
    sampled = np.tensordot(c, sampled, axes=1)
    reduced = np.tensordot(c, reduced, axes=1)
    rows, cols = np.triu_indices(sample_set.m)
    return MatrixGappyBasis(
        sampled_operator=np.ascontiguousarray(sampled[:, rows, cols].T),
        reduced_basis=0.5 * (reduced + reduced.transpose(0, 2, 1)))


def _sampled_upper_triangle(basis: MatrixGappyBasis, sampled_matrix):
    """Upper triangle of an online sampled m x m matrix, in the row order
    of ``basis.sampled_operator``."""
    a = np.asarray(sampled_matrix, dtype=float)
    # The operator has (m^2 + m)/2 rows.
    m = math.isqrt(2 * basis.sampled_operator.shape[0])
    if a.shape != (m, m):
        raise ValueError("sampled matrix shape %s does not match basis (%d, %d)"
                         % (a.shape, m, m))
    return a[np.triu_indices(m)]


def _assemble(basis: MatrixGappyBasis, x):
    return np.einsum("i,ijk->jk", np.asarray(x, dtype=float), basis.reduced_basis)


def _pd_threshold(assembled):
    """Definiteness threshold: a tiny fraction of the unconstrained
    assembly's mean diagonal."""
    scale = abs(float(np.mean(np.diagonal(assembled))))
    return 1e-10 * (scale if scale > 0 else 1.0)


def assembled_eigen_gradients(basis: MatrixGappyBasis, x):
    """Eigenvalues of the assembled reduced matrix and their coefficient
    gradients d lambda_j / d x_i = v_j.T (reduced_basis_i) v_j."""
    lam, vecs = np.linalg.eigh(_assemble(basis, x))
    grads = np.einsum("nj,inm,mj->ji", vecs, basis.reduced_basis, vecs)
    return lam, grads


def gappy_matrix_coeffs(sampled_online, basis: MatrixGappyBasis):
    """Least-squares coefficients over the upper-triangle sampled entries.

    Solves the sampled reconstruction problem and checks the assembled
    reduced matrix against the definiteness threshold; if violated, the
    eigenvalue-constrained solve takes over.
    """
    rhs = _sampled_upper_triangle(basis, sampled_online)
    # lstsq's rank uses matrix_rank's cutoff; it is below k also whenever
    # the (m^2 + m)/2 sampled entries are fewer than the k coefficients.
    x, _, rank, _ = np.linalg.lstsq(basis.sampled_operator, rhs, rcond=None)
    if rank < basis.k:
        raise ValueError("invalid sampling for matrix gappy POD")

    assembled = _assemble(basis, x)
    eps = _pd_threshold(assembled)
    lam_min = float(np.linalg.eigvalsh(assembled)[0])
    if lam_min < eps:
        logger.info("gappy coefficients infeasible (lambda_min=%.3e < %.3e); "
                    "running constrained solve", lam_min, eps)
        x = eigen_constrained_solve(basis, sampled_online, x, pd_threshold=eps)
    return x


def gappy_matrix_assemble(x, basis: MatrixGappyBasis) -> np.ndarray:
    """Assemble the reduced approximation from coefficients."""
    approx = symmetrize(_assemble(basis, x))
    if float(np.linalg.eigvalsh(approx)[0]) <= 0.0:
        raise ValueError("assembled matrix is not positive definite; "
                         "constraint enforcement failed upstream")
    return approx


def eigen_constrained_solve(basis: MatrixGappyBasis, sampled_online, x0,
                            pd_threshold):
    """Eigenvalue-constrained sampled least squares.

    Keeps the coefficients feasible (all eigenvalues of the assembled
    reduced matrix at or above the threshold) via penalized gradient
    descent with the analytic eigenvalue gradient; for a single basis
    matrix the feasible set is an interval and the solution is a direct
    projection.  A feasible input is returned unchanged.
    """
    x0 = np.asarray(x0, dtype=float).copy()
    eps = float(pd_threshold)
    if np.linalg.eigvalsh(_assemble(basis, x0))[0] >= eps:
        return x0

    op = basis.sampled_operator
    rhs = _sampled_upper_triangle(basis, sampled_online)

    if basis.k == 1:
        lam_basis = np.linalg.eigvalsh(basis.reduced_basis[0])
        lo, hi = -np.inf, np.inf
        for lam in lam_basis:
            if lam > 0:
                lo = max(lo, eps / lam)
            elif lam < 0:
                hi = min(hi, eps / lam)
            else:
                raise ValueError("cannot preserve definiteness with this basis")
        if lo > hi:
            raise ValueError("cannot preserve definiteness with this basis")
        x = float(np.clip(x0[0], lo, hi))
        return np.array([x])

    import scipy.optimize   # imported here: only this branch needs it

    # Penalized descent: quadratic penalty on eigenvalues short of a target
    # slightly above the threshold, escalated until feasible.
    target = 2.0 * eps
    scale = max(float(rhs @ rhs), 1.0)
    x = x0.copy()
    for round_ in range(CONSTRAINED_ROUNDS):
        rho = scale / max(target**2, 1e-300) * 10.0**round_

        def fun(xv):
            r = op @ xv - rhs
            lam, grads = assembled_eigen_gradients(basis, xv)
            short = np.maximum(target - lam, 0.0)
            value = float(r @ r) + rho * float(short @ short)
            grad = 2.0 * (op.T @ r) - 2.0 * rho * (short @ grads)
            return value, grad

        result = scipy.optimize.minimize(fun, x, jac=True, method="L-BFGS-B",
                                         options={"maxiter": 500, "ftol": 1e-16})
        x = result.x
        if np.linalg.eigvalsh(_assemble(basis, x))[0] >= eps:
            return x
    raise ValueError("cannot preserve definiteness with this basis")


# ---------------------------------------------------------------------------
# Generalized eigenvalue interlacing (exactness characterization)
# ---------------------------------------------------------------------------

def generalized_interlacing_check(d_s, b_s, d_r, b_r, rtol=1e-8):
    """Check whether the reduced pencil's eigenvalues interlace the
    sampled pencil's.

    Computes the ascending generalized eigenvalues of ``(b_r, d_r)`` and
    ``(b_s, d_s)`` and tests ``lam_s[i] <= lam_r[i] <= lam_s[i + m - n]``
    for every i, with a small relative slack for round-off.  Returns the
    verdict together with both spectra.
    """
    d_s = np.asarray(d_s, dtype=float)
    d_r = np.asarray(d_r, dtype=float)
    for name, d in (("sampled", d_s), ("reduced", d_r)):
        try:
            np.linalg.cholesky(d)
        except np.linalg.LinAlgError:
            raise ValueError("%s metric matrix is not positive definite" % name)

    lam_s = scipy.linalg.eigh(np.asarray(b_s, dtype=float), d_s, eigvals_only=True)
    lam_r = scipy.linalg.eigh(np.asarray(b_r, dtype=float), d_r, eigvals_only=True)
    m, n = lam_s.size, lam_r.size
    if m < n:
        raise ValueError("sampled pencil must be at least as large as the reduced one")

    tol = rtol * max(1.0, float(np.max(np.abs(lam_s))))
    lower = lam_s[:n] <= lam_r + tol
    upper = lam_r <= lam_s[m - n:] + tol
    ok = bool(np.all(lower) and np.all(upper))
    report = {
        "interlaced": ok,
        "sampled_eigenvalues": lam_s,
        "reduced_eigenvalues": lam_r,
        "lower_ok": lower,
        "upper_ok": upper,
    }
    return ok, report
