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

Both offline minimizations (the RBS fit and the penalized constrained
solve) run one in-package L-BFGS, :func:`_lbfgs`: the limited-memory BFGS
of Liu & Nocedal (1989), memory ``LBFGS_MEMORY`` = 10, with its inverse
Hessian applied in the compact form of Byrd, Nocedal & Schnabel (1994),
and steps from the Moré-Thuente strong-Wolfe line search (sufficient
decrease 1e-3, curvature 0.9, bracket width 0.1, cubic and quadratic
interpolation, at most 20 evaluations) tried first at the unit step.
These are the choices L-BFGS-B makes on an unconstrained problem, without
the import cost of SciPy's optimizer package.
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
# Penalty escalations of eigen_constrained_solve, each ten times the last,
# and the iteration budget and gradient tolerance of each one's descent.
CONSTRAINED_ROUNDS = 10
CONSTRAINED_MAX_ITERS = 500
CONSTRAINED_GRAD_TOL = 1e-5

# L-BFGS: correction pairs kept, and the stop on a step that lowers the
# objective by less than this fraction of max(|f_old|, |f_new|, 1).
LBFGS_MEMORY = 10
LBFGS_REL_DECREASE = 1e-16
# Moré-Thuente line search: sufficient-decrease and curvature constants of
# the strong Wolfe conditions, the relative bracket width below which it
# stops, its largest step and its evaluations per iteration.
WOLFE_DECREASE = 1e-3
WOLFE_CURVATURE = 0.9
BRACKET_XTOL = 0.1
STEP_MAX = 1e10
LINE_SEARCH_EVALS = 20


def symmetrize(a):
    """Symmetric part of a square matrix."""
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class TrainingBlocks:
    """What both mass fits read of the training matrices, formed once per
    sample set by :func:`training_blocks`."""

    sampled: np.ndarray      # (K, m, m): sampled principal blocks S^T A S
    reduced: np.ndarray      # (K, n, n): reduced matrices phi^T A phi
    phi_rows: np.ndarray     # (m, n): the sampled rows of phi


def training_blocks(matrices, phi, sample_set) -> TrainingBlocks:
    """Sampled principal blocks and reduced matrices ``phi.T @ A @ phi`` of
    full-size matrices, stacked, with the sampled rows of ``phi``.  The
    dense congruences cost O(N^2 n) per matrix, so a reduction forms them
    once and hands them to :func:`rbs_fit` and
    :func:`build_matrix_gappy_basis`.

    Raises ``ValueError`` naming the snapshots whose sampled block or
    reduced matrix is not finite: what both fits read.  A non-finite entry
    off the sampled rows reaches them through ``phi.T @ A @ phi``."""
    phi = np.asarray(phi, dtype=float)
    mats = [np.asarray(a, dtype=float) for a in matrices]
    if not mats:
        raise ValueError("no matrix snapshots")
    block = np.ix_(sample_set.indices, sample_set.indices)
    sampled = np.array([a[block] for a in mats])
    with np.errstate(invalid="ignore", over="ignore"):   # reported below
        reduced = np.array([phi.T @ a @ phi for a in mats])
    bad = ~(np.isfinite(sampled).all(axis=(1, 2)) & np.isfinite(reduced).all(axis=(1, 2)))
    if np.any(bad):
        raise ValueError("matrix snapshot(s) %s not finite" % np.flatnonzero(bad).tolist())
    return TrainingBlocks(sampled=sampled, reduced=reduced,
                          phi_rows=phi[sample_set.indices, :])


# ---------------------------------------------------------------------------
# L-BFGS with the Moré-Thuente line search
# ---------------------------------------------------------------------------

def _cubic_minimizer(a, fa, da, b, fb, db):
    """The minimizer of the cubic through values and slopes at ``a`` and
    ``b``, as the fraction ``r`` of ``b - a`` from ``a``, and the cubic's
    ``gamma`` (zero when it has no interior stationary point)."""
    theta = 3.0 * (fa - fb) / (b - a) + da + db
    s = max(abs(theta), abs(da), abs(db))
    gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))
    if b < a:
        gamma = -gamma
    return ((gamma - da) + theta) / (((gamma - da) + gamma) + db), gamma


def _trial_step(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, stmin, stmax):
    """One safeguarded interpolation step of Moré & Thuente (1994).

    ``stx`` is the best step so far, ``sty`` the other end of the interval
    and ``stp`` the step just evaluated, each with its value and slope.
    Returns the updated interval ends, the next trial step and whether a
    minimizer is bracketed.
    """
    opposite = dp * math.copysign(1.0, dx) < 0.0
    if fp > fx:
        # Higher value: the minimizer is bracketed.  Take the cubic step,
        # or halfway to the quadratic one when the cubic step is farther.
        r, _ = _cubic_minimizer(stx, fx, dx, stp, fp, dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        bracketed = True
    elif opposite:
        # Lower value and the slope changes sign: bracketed.
        r, _ = _cubic_minimizer(stp, fp, dp, stx, fx, dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + dp / (dp - dx) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        bracketed = True
    elif abs(dp) < abs(dx):
        # Lower value, same slope sign, smaller slope: the cubic step if
        # it lies beyond stp, else the bound in that direction.
        r, gamma = _cubic_minimizer(stp, fp, dp, stx, fx, dx)
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stmax if stp > stx else stmin
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if bracketed:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            limit = stp + 0.66 * (sty - stp)
            stpf = min(limit, stpf) if stp > stx else max(limit, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(stmax, max(stmin, stpf))
    elif bracketed:
        # Lower value, slope not smaller: the cubic step toward sty.
        r, _ = _cubic_minimizer(stp, fp, dp, sty, fy, dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stmax if stp > stx else stmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, bracketed


def _line_search(fun, x, f0, d, slope0, stp):
    """Moré-Thuente search along the descent direction ``d`` from ``x``
    (value ``f0``, slope ``slope0`` < 0), first trying ``stp``.

    Returns ``(stp, x, f, g, slope)`` at the first trial step that meets
    the strong Wolfe conditions, or at the last one when the bracket
    cannot shrink further; ``None`` when no such step is found within
    ``LINE_SEARCH_EVALS`` evaluations or a value is not finite.
    """
    gtest = WOLFE_DECREASE * slope0
    bracketed, stage1 = False, True
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = slope0
    width = STEP_MAX
    width1 = 2.0 * width
    stmin, stmax = 0.0, 5.0 * stp
    for _ in range(LINE_SEARCH_EVALS):
        xt = x + stp * d
        f, g = fun(xt)
        f, slope = float(f), float(g @ d)
        if not (math.isfinite(f) and math.isfinite(slope)):
            return None
        ftest = f0 + stp * gtest
        if (ftest >= f and abs(slope) <= -WOLFE_CURVATURE * slope0) or (
                bracketed and (stp <= stmin or stp >= stmax
                               or stmax - stmin <= BRACKET_XTOL * stmax)) or (
                stp == STEP_MAX and f <= ftest and slope <= gtest):
            return stp, xt, f, g, slope
        if stage1 and f <= ftest and slope >= 0.0:
            stage1 = False
        try:
            if stage1 and ftest < f <= fx:
                # Interpolate psi(t) = f(t) - f0 - t * gtest, whose minimizer
                # meets sufficient decrease, until a step does.
                stx, fxm, gxm, sty, fym, gym, stp, bracketed = _trial_step(
                    stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest,
                    gy - gtest, stp, f - stp * gtest, slope - gtest,
                    bracketed, stmin, stmax)
                fx, fy = fxm + stx * gtest, fym + sty * gtest
                gx, gy = gxm + gtest, gym + gtest
            else:
                stx, fx, gx, sty, fy, gy, stp, bracketed = _trial_step(
                    stx, fx, gx, sty, fy, gy, stp, f, slope,
                    bracketed, stmin, stmax)
        except ZeroDivisionError:   # a degenerate interpolation: no progress
            return None
        if bracketed:
            # Bisect when the bracket did not shrink enough in two steps.
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), STEP_MAX)
        if bracketed and (stp <= stmin or stp >= stmax
                          or stmax - stmin <= BRACKET_XTOL * stmax):
            stp = stx
    return None


def _lbfgs(fun, x, f, g, max_iters, gtol):
    """Minimize ``fun`` (returning value and gradient) by L-BFGS from
    ``x``, where ``(f, g) = fun(x)``.  Returns
    ``(x, f, iterations, converged)``.

    Each iteration steps along ``-H g``: ``H`` is the inverse BFGS matrix
    of the last ``LBFGS_MEMORY`` pairs ``(s, y)`` from ``gamma I``,
    ``gamma = s.y / y.y`` of the newest, in the compact form of Byrd,
    Nocedal & Schnabel (1994, thm 2.2): ``H g = gamma g + S p - gamma Y
    R^-1 S^T g``, ``p = R^-T ((D + gamma Y^T Y) R^-1 S^T g - gamma Y^T g)``,
    ``R`` the upper triangle of ``S^T Y`` (oldest first), ``D`` its
    diagonal.  The small matrices are indexed by ring slot, so ``R^-1`` is
    a permuted triangle, updated a column at a time: the inverse of a
    trailing block of a triangle is that block of its inverse, so dropping
    the oldest pair zeroes its row and column.  A slot with a zero row and
    column of ``R^-1`` adds nothing, whatever else it holds.

    The first step is tried at length one, later ones at the unit step
    (:func:`_line_search`).  A pair with ``s.y`` at round-off level is not
    stored.  A failed line search clears the memory and retries along
    ``-g``, or ends the descent if the memory is empty.  Converged: the
    largest gradient entry is at most ``gtol``, or a step lowers ``f`` by at
    most ``LBFGS_REL_DECREASE * max(|f_old|, |f|, 1)``.
    """
    mem = LBFGS_MEMORY
    pairs = np.zeros((2 * mem, x.size))   # by slot: rows s, then rows y
    r_inv = np.zeros((mem, mem))          # by slot, like Y^T Y and s_i.y_i
    yy = np.zeros((mem, mem))
    sy = np.zeros(mem)
    stored, newest = False, mem - 1     # any pair stored; the newest's slot
    if abs(g).max() <= gtol:
        return x, f, 0, True
    iterations = 0
    while iterations < max_iters:
        if stored:
            gamma = sy[newest] / yy[newest, newest]
            ab = pairs @ g
            ria = r_inv @ ab[:mem]
            p = r_inv.T @ (sy * ria + gamma * (yy @ ria - ab[mem:]))
            d = -(gamma * g + np.concatenate((p, -gamma * ria)) @ pairs)
        else:
            d = -g
        slope = float(g @ d)
        # The first direction is -g, of length sqrt(-slope).
        step = min(1.0 / math.sqrt(-slope), STEP_MAX) if iterations == 0 else 1.0
        found = _line_search(fun, x, f, d, slope, step) if slope < 0.0 else None
        if found is None:
            if not stored:
                break
            r_inv[:] = 0.0
            stored = False
            continue
        stp, x_new, f_new, g_new, slope_new = found
        iterations += 1
        if (abs(g_new).max() <= gtol
                or f - f_new <= LBFGS_REL_DECREASE * max(abs(f), abs(f_new), 1.0)):
            return x_new, f_new, iterations, True
        # Store the pair unless s.y = stp (slope_new - slope), from the
        # slopes the search measured, is round-off next to -s.g = -stp slope.
        if slope_new - slope > np.finfo(float).eps * -slope:
            newest = (newest + 1) % mem   # the oldest pair's slot when full
            stored = True
            r_inv[newest] = r_inv[:, newest] = 0.0
            np.multiply(d, stp, out=pairs[newest])
            np.subtract(g_new, g, out=pairs[mem + newest])
            py = pairs @ pairs[mem + newest]
            sy[newest] = py[newest]
            r_inv[:, newest] = r_inv @ py[:mem]
            r_inv[:, newest] /= -sy[newest]
            r_inv[newest, newest] = 1.0 / sy[newest]
            yy[newest] = yy[:, newest] = py[mem:]
        x, f, g = x_new, f_new, g_new
    return x, f, iterations, False


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
    Both sums run over the snapshots in order, each snapshot's term added
    to the running total of those before it.
    """
    az = sampled @ z
    err = z.T @ az - reduced
    values = np.sum((err * err).reshape(len(err), -1), axis=1)
    grads = 4.0 * (az @ err)
    value, grad = values[0], grads[0]
    for k in range(1, len(err)):
        value += values[k]
        grad += grads[k]
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


def rbs_fit(blocks: TrainingBlocks) -> RBSMap:
    """Fit the dense factor of the sparse reduced basis over matrix snapshots.

    Reads the snapshots' sampled blocks and reduced matrices from
    ``blocks`` (:func:`training_blocks`, shared with
    :func:`build_matrix_gappy_basis`).  Minimizes the summed squared
    Frobenius error between the sparse congruence and the true reduced
    matrices by :func:`_lbfgs` (memory ``LBFGS_MEMORY`` = 10, Moré-Thuente
    line search), started from the sampled rows of ``phi``, for at most
    ``RBS_MAX_ITERS`` iterations.  The fit converges when the largest
    gradient entry falls to ``RBS_GRAD_TOL`` times the one at the start, or
    a step lowers the objective by a relative ``LBFGS_REL_DECREASE``.  A
    fit stopped at the budget keeps the achieved residual and is flagged
    unconverged rather than raising.  A start that is already exact (full
    sampling) is returned after no iteration; a factor that lost column
    rank has its collapsed singular values inflated.
    """
    sampled, reduced = blocks.sampled, blocks.reduced
    m, n = blocks.phi_rows.shape
    if m < n:
        raise ValueError("need at least as many samples as basis columns (m >= n)")
    z0 = blocks.phi_rows.copy()

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
    x, residual, iterations, converged = _lbfgs(
        fun, z0.ravel(), f0, g0, RBS_MAX_ITERS,
        gtol=RBS_GRAD_TOL * (np.max(np.abs(g0)) or 1.0))
    z = x.reshape(m, n)

    # Project back to full column rank: inflate collapsed singular values.
    u, sv, vt = np.linalg.svd(z, full_matrices=False)
    floor = RANK_PROJECT_RTOL * (sv[0] if sv[0] > 0 else 1.0)
    if sv[-1] <= floor:
        logger.warning("rbs_fit: rank-deficient factor, inflating %d singular value(s)",
                       int(np.sum(sv <= floor)))
        z = u @ np.diag(np.maximum(sv, floor)) @ vt
        residual, _ = _congruence_objective(z, sampled, reduced)

    converged = converged or residual <= 1e-24 * obj_scale
    if not converged:
        logger.info("rbs_fit stopped after %d iterations: residual %.3e "
                    "(relative %.3e)", iterations, residual,
                    np.sqrt(residual / obj_scale))
    return RBSMap(
        factor=z,
        fit_residual=float(residual),
        converged=bool(converged),
        iterations=iterations,
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


def build_matrix_gappy_basis(coefficients, blocks: TrainingBlocks) -> MatrixGappyBasis:
    """Sampled operator and reduced blocks of the principal matrices
    ``sum_j C[i, j] * A_j``, from (k, K) coefficients C and the K
    snapshots' sampled blocks and reduced matrices in ``blocks``
    (:func:`training_blocks`, shared with :func:`rbs_fit`)."""
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 2 or c.shape[1] != len(blocks.sampled):
        raise ValueError("need (k, %d) coefficients, got shape %s"
                         % (len(blocks.sampled), c.shape))
    sampled = np.tensordot(c, blocks.sampled, axes=1)
    reduced = np.tensordot(c, blocks.reduced, axes=1)
    rows, cols = np.triu_indices(len(blocks.phi_rows))
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
    reduced matrix at or above the threshold) by a quadratic penalty on
    the eigenvalues short of twice the threshold, with the analytic
    eigenvalue gradient, escalated tenfold for up to ``CONSTRAINED_ROUNDS``
    rounds.  Each round runs :func:`_lbfgs` (memory ``LBFGS_MEMORY`` = 10,
    Moré-Thuente line search: sufficient decrease 1e-3, curvature 0.9) for
    at most ``CONSTRAINED_MAX_ITERS`` iterations, to a largest gradient
    entry of ``CONSTRAINED_GRAD_TOL``.  For a single basis matrix the
    feasible set is an interval and the solution is a direct projection.
    A feasible input is returned unchanged.
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

        value, grad = fun(x)
        x = _lbfgs(fun, x, value, grad, CONSTRAINED_MAX_ITERS,
                   gtol=CONSTRAINED_GRAD_TOL)[0]
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
