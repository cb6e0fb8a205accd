"""Shared test helpers: random SPD factories and a linear model double."""

import os

import numpy as np
import pytest

from lagrom.band import SymmetricBand

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_report_header(config):
    """BLAS build and thread settings: some acceptance results (criterion 10)
    move with round-off, which depends on both."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join("%s=%s" % (name, os.environ.get(name, "unset"))
                       for name in THREAD_VARIABLES)
    return ["blas: %s %s" % (blas.get("name"), blas.get("version")),
            "threads: %s cpus=%s" % (threads, os.cpu_count())]


def random_spd(rng, n, shift=None):
    """Random symmetric positive-definite matrix with a safe spectral floor."""
    a = rng.normal(size=(n, n))
    return a @ a.T + (n if shift is None else shift) * np.eye(n)


def random_orthonormal(rng, n, k):
    return np.linalg.qr(rng.normal(size=(n, k)))[0]


def band_of(dense, half):
    """LAPACK band storage of ``dense``: entry (i, j) at [half + i - j, j]."""
    n = dense.shape[0]
    band = np.zeros((2 * half + 1, n))
    for k in range(-half, half + 1):
        j = np.arange(max(0, -k), min(n, n - k))
        band[half + k, j] = dense[j + k, j]
    return band


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def sparse_map(big_n, rows, factor):
    """The (N, n) map that is ``factor`` on ``rows`` and zero elsewhere;
    ``rows=None`` means every dof."""
    z = np.zeros((big_n, np.shape(factor)[1]))
    z[slice(None) if rows is None else np.asarray(rows, int)] = factor
    return z


class DenseKernel:
    """The protocol of ``TrussModel.potential_kernel`` over full-space
    callbacks: the potential, gradient and Hessian at ``z @ q_r``, in
    reduced coordinates.  A callback a test does not need may be None."""

    def __init__(self, z, energy, grad, hess):
        self.z = z
        self._energy, self._grad, self._hess = energy, grad, hess

    def energy(self, q_r):
        return self._energy(self.z @ q_r)

    def gradient(self, q_r):
        return self.z.T @ self._grad(self.z @ q_r)

    def hessian(self, q_r):
        return self.z.T @ self._hess(self.z @ q_r) @ self.z


class QuadraticModel:
    """Linear mechanical system exposing the truss evaluator protocol.

    Potential is the quadratic form of a constant SPD stiffness, the
    equilibrium is the origin, and the external force is a fixed spatial
    pattern with a sinusoidal amplitude.  Used where tests need an exactly
    quadratic potential (e.g. the structure-preserving exactness chain).
    """

    def __init__(self, mass, stiffness, force_pattern=None, tip_dof=0):
        self._mass = np.asarray(mass, dtype=float)
        self.stiffness = np.asarray(stiffness, dtype=float)
        self.dof_count = self._mass.shape[0]
        self.force_pattern = (np.zeros(self.dof_count) if force_pattern is None
                              else np.asarray(force_pattern, dtype=float))
        self.tip_dof = tip_dof
        self.mu = None

    # -- mass ---------------------------------------------------------------

    def mass_dense(self):
        return self._mass

    def mass_band(self):
        return SymmetricBand(band_of(self._mass, self.dof_count - 1))

    def mass_entries(self, rows, cols):
        return self._mass[np.ix_(np.asarray(rows, int), np.asarray(cols, int))]

    # -- potential ------------------------------------------------------------

    def potential_energy(self, q):
        q = np.asarray(q, dtype=float)
        return 0.5 * float(q @ (self.stiffness @ q))

    def potential_kernel(self, rows, factor):
        return DenseKernel(sparse_map(self.dof_count, rows, factor),
                           self.potential_energy, self.internal_force,
                           self.tangent_stiffness)

    def internal_force(self, q):
        return self.stiffness @ np.asarray(q, dtype=float)

    def internal_force_rows_dense(self, rows, q):
        return (self.stiffness @ np.asarray(q, dtype=float))[np.asarray(rows, int)]

    def tangent_stiffness(self, q):
        return self.stiffness

    def tangent_stiffness_band(self, q):
        return SymmetricBand(band_of(self.stiffness, self.dof_count - 1))

    def tangent_stiffness_block(self, rows, cols, dq_idx, dq_val):
        return self.stiffness[np.ix_(np.asarray(rows, int), np.asarray(cols, int))]

    def tangent_stiffness_rows_dense(self, rows, q):
        return self.stiffness[np.asarray(rows, int), :]

    # -- forcing ---------------------------------------------------------------

    def load_patterns(self):
        return self.force_pattern[None, :]

    def force_components(self, t, forcing=None):
        return np.array([np.sin(1.3 * t)])

    def external_force(self, t, forcing=None):
        return np.sin(1.3 * t) * self.force_pattern

    def tip_displacement(self, q):
        return float(np.asarray(q)[self.tip_dof])


def stiefel_feasibility_search(u, w, m, n, rng, restarts=12, iters=400):
    """Best residual of ``Psi.T u = w`` over matrices with orthonormal columns.

    Projected gradient descent on the Stiefel manifold (polar retraction)
    from several random starts; independent of the algebraic solvability
    condition it is used to probe.
    """
    u = np.asarray(u, dtype=float).reshape(m)
    w = np.asarray(w, dtype=float).reshape(n)

    def project(x):
        uu, _, vt = np.linalg.svd(x, full_matrices=False)
        return uu @ vt

    best = np.inf
    for _ in range(restarts):
        psi = project(rng.normal(size=(m, n)))
        step = 0.2
        for _ in range(iters):
            r = psi.T @ u - w
            value = float(r @ r)
            best = min(best, value)
            if value < 1e-18:
                return 0.0
            grad = np.outer(u, r)
            trial = project(psi - step * grad)
            r_t = trial.T @ u - w
            if float(r_t @ r_t) < value:
                psi = trial
                step = min(step * 1.3, 1.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
    return best
