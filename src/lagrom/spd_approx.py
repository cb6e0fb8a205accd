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
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .sampling import SampleIndexSet

logger = logging.getLogger(__name__)

RANK_PROJECT_RTOL = 1e-10


def _upper_triangle_indices(m):
    """Row/col indices of the (m^2 + m)/2 entries with i <= j."""
    return np.triu_indices(m)


def symmetrize(a):
    """Symmetric part of a square matrix."""
    return 0.5 * (a + a.T)


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
    sample_set: SampleIndexSet
    fit_residual: float
    converged: bool
    iterations: int

    @property
    def m(self) -> int:
        return self.factor.shape[0]

    @property
    def n(self) -> int:
        return self.factor.shape[1]


def _congruence_objective(z, sampled, reduced):
    """Sum of squared Frobenius mismatches and its gradient w.r.t. z."""
    value = 0.0
    grad = np.zeros_like(z)
    for a_s, r in zip(sampled, reduced):
        az = a_s @ z
        err = z.T @ az - r
        value += float(np.sum(err * err))
        grad += 4.0 * (az @ err)
    return value, grad


def rbs_fit(matrix_snapshots, phi, sample_set, max_iters=500, grad_tol=1e-9) -> RBSMap:
    """Fit the dense factor of the sparse reduced basis over matrix snapshots.

    Minimizes the summed squared Frobenius error between the sparse
    congruence and the true reduced matrices, by limited-memory
    quasi-Newton descent started from the sampled rows of ``phi``.  On
    stagnation the achieved residual is kept and the map is flagged
    unconverged rather than raising.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[1]
    s_idx = sample_set.indices
    m = sample_set.m
    if m < n:
        raise ValueError("need at least as many samples as basis columns (m >= n)")

    sampled, reduced = [], []
    for a in matrix_snapshots:
        a = np.asarray(a, dtype=float)
        sampled.append(a[np.ix_(s_idx, s_idx)])
        reduced.append(phi.T @ a @ phi)
    if not sampled:
        raise ValueError("no matrix snapshots")

    z0 = phi[s_idx, :].copy()

    def fun(x):
        value, grad = _congruence_objective(x.reshape(m, n), sampled, reduced)
        return value, grad.ravel()

    # Scale of the objective at Z = 0; used to recognize an exact fit.
    obj_scale = max(sum(float(np.sum(r * r)) for r in reduced), 1e-300)

    f0, g0 = fun(z0.ravel())
    gscale = np.max(np.abs(g0)) if np.max(np.abs(g0)) > 0 else 1.0
    if f0 <= 1e-24 * obj_scale:
        # The prescribed initialization is already (numerically) exact,
        # e.g. under full sampling.
        return RBSMap(factor=z0, sample_set=sample_set, fit_residual=float(f0),
                      converged=True, iterations=0)
    result = scipy.optimize.minimize(
        fun,
        z0.ravel(),
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": max_iters,
            "gtol": grad_tol * gscale,
            "ftol": 1e-16,
            "maxcor": 20,
        },
    )
    z = result.x.reshape(m, n)

    # Project back to full column rank: inflate collapsed singular values.
    u, sv, vt = np.linalg.svd(z, full_matrices=False)
    floor = RANK_PROJECT_RTOL * (sv[0] if sv[0] > 0 else 1.0)
    if sv[-1] <= floor:
        logger.warning("rbs_fit: rank-deficient factor, inflating %d singular value(s)",
                       int(np.sum(sv <= floor)))
        z = u @ np.diag(np.maximum(sv, floor)) @ vt

    residual, grad = _congruence_objective(z, sampled, reduced)
    converged = (bool(result.success)
                 or np.max(np.abs(grad)) <= grad_tol * gscale
                 or residual <= 1e-24 * obj_scale)
    if not converged:
        logger.warning("rbs_fit stagnated: residual %.3e (relative %.3e) "
                       "after %d iterations", residual,
                       np.sqrt(residual / obj_scale), result.nit)
    return RBSMap(
        factor=z,
        sample_set=sample_set,
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
    """Sampled and reduced forms of the principal-matrix basis.

    Only the entries needed online are kept: the m x m sampled blocks,
    the n x n reduced blocks, and the upper-triangle-vectorized sampled
    operator used by the least-squares solve.
    """

    sampled_basis: np.ndarray            # (k, m, m)
    reduced_basis: np.ndarray            # (k, n, n)
    vectorized_sampled_operator: np.ndarray  # ((m^2+m)/2, k)
    sample_set: SampleIndexSet
    pd_threshold: float | None = None

    @property
    def k(self) -> int:
        return self.sampled_basis.shape[0]

    @property
    def m(self) -> int:
        return self.sampled_basis.shape[1]

    @property
    def n(self) -> int:
        return self.reduced_basis.shape[1]


def matrix_pod_modes(matrix_snapshots, energy):
    """Principal matrices of the snapshot family via vectorized POD.

    Snapshots are vectorized, run through the standard snapshot-normalized
    POD, and the retained modes are devectorized.  Modes are symmetric up
    to round-off because they are linear combinations of symmetric
    snapshots; they are symmetrized exactly on return.
    """
    from .pod import compute_pod_basis

    mats = [np.asarray(a, dtype=float) for a in matrix_snapshots]
    if not mats:
        raise ValueError("no matrix snapshots")
    big_n = mats[0].shape[0]
    if any(a.shape != (big_n, big_n) for a in mats):
        raise ValueError("matrix snapshots must share one square shape")
    vectorized = np.column_stack([a.ravel() for a in mats])
    basis = compute_pod_basis(vectorized, energy)
    return [symmetrize(basis.columns[:, i].reshape(big_n, big_n))
            for i in range(basis.n)]


def build_matrix_gappy_basis(modes, phi, sample_set, pd_threshold=None) -> MatrixGappyBasis:
    """Sample and reduce full-size principal matrices, then discard them."""
    phi = np.asarray(phi, dtype=float)
    s_idx = sample_set.indices
    m = sample_set.m
    rows, cols = _upper_triangle_indices(m)
    sampled, reduced, op_cols = [], [], []
    for a in modes:
        a = np.asarray(a, dtype=float)
        a_s = a[np.ix_(s_idx, s_idx)]
        sampled.append(a_s)
        reduced.append(symmetrize(phi.T @ a @ phi))
        op_cols.append(a_s[rows, cols])
    return MatrixGappyBasis(
        sampled_basis=np.array(sampled),
        reduced_basis=np.array(reduced),
        vectorized_sampled_operator=np.column_stack(op_cols),
        sample_set=sample_set,
        pd_threshold=pd_threshold,
    )


def matrix_pod_basis(matrix_snapshots, energy, phi, sample_set,
                     pd_threshold=None) -> MatrixGappyBasis:
    """Principal-matrix basis of SPD snapshots in sampled/reduced form."""
    modes = matrix_pod_modes(matrix_snapshots, energy)
    return build_matrix_gappy_basis(modes, phi, sample_set, pd_threshold=pd_threshold)


def _assemble(basis: MatrixGappyBasis, x):
    return np.einsum("i,ijk->jk", np.asarray(x, dtype=float), basis.reduced_basis)


def _pd_threshold(basis: MatrixGappyBasis, x):
    """Definiteness threshold: explicit override, else a tiny fraction of
    the unconstrained assembly's mean diagonal."""
    if basis.pd_threshold is not None:
        return float(basis.pd_threshold)
    scale = abs(float(np.mean(np.diagonal(_assemble(basis, x)))))
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
    a = np.asarray(sampled_online, dtype=float)
    m = basis.m
    if a.shape != (m, m):
        raise ValueError("sampled matrix shape %s does not match basis (%d, %d)"
                         % (a.shape, m, m))
    op = basis.vectorized_sampled_operator
    if (m * m + m) // 2 < basis.k or np.linalg.matrix_rank(op) < basis.k:
        raise ValueError("invalid sampling for matrix gappy POD")

    rows, cols = _upper_triangle_indices(m)
    rhs = a[rows, cols]
    x, *_ = np.linalg.lstsq(op, rhs, rcond=None)

    eps = _pd_threshold(basis, x)
    lam_min = float(np.linalg.eigvalsh(_assemble(basis, x))[0])
    if lam_min < eps:
        logger.info("gappy coefficients infeasible (lambda_min=%.3e < %.3e); "
                    "running constrained solve", lam_min, eps)
        x = eigen_constrained_solve(basis, a, x)
    return x


def gappy_matrix_assemble(x, basis: MatrixGappyBasis) -> np.ndarray:
    """Assemble the reduced approximation from coefficients."""
    approx = symmetrize(_assemble(basis, x))
    if float(np.linalg.eigvalsh(approx)[0]) <= 0.0:
        raise ValueError("assembled matrix is not positive definite; "
                         "constraint enforcement failed upstream")
    return approx


def eigen_constrained_solve(basis: MatrixGappyBasis, sampled_online, x0,
                            pd_threshold=None, max_rounds=10):
    """Eigenvalue-constrained sampled least squares.

    Keeps the coefficients feasible (all eigenvalues of the assembled
    reduced matrix at or above the threshold) via penalized gradient
    descent with the analytic eigenvalue gradient; for a single basis
    matrix the feasible set is an interval and the solution is a direct
    projection.  A feasible input is returned unchanged.
    """
    x0 = np.asarray(x0, dtype=float).copy()
    eps = _pd_threshold(basis, x0) if pd_threshold is None else float(pd_threshold)
    lam0 = np.linalg.eigvalsh(_assemble(basis, x0))
    if lam0[0] >= eps:
        return x0

    a = np.asarray(sampled_online, dtype=float)
    rows, cols = _upper_triangle_indices(basis.m)
    op = basis.vectorized_sampled_operator
    rhs = a[rows, cols]

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

    # Penalized descent: quadratic penalty on eigenvalues short of a target
    # slightly above the threshold, escalated until feasible.
    target = 2.0 * eps
    scale = max(float(rhs @ rhs), 1.0)
    x = x0.copy()
    for round_ in range(max_rounds):
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
