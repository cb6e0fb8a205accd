import numpy as np
import pytest

from lagrom.potential_map import (approx_reduced_gradient,
                                  approx_reduced_hessian, build_potential_map)
from lagrom.sampling import SampleIndexSet

from conftest import random_orthonormal, random_spd, stiefel_feasibility_search


def dense_sampled_gradient(big_n, grad):
    def evaluator(rows, dq_idx, dq_val):
        q = np.zeros(big_n)
        q[np.asarray(dq_idx, int)] = dq_val
        return grad(q)[np.asarray(rows, int)]
    return evaluator


def dense_sampled_hessian(big_n, hess):
    def evaluator(rows, cols, dq_idx, dq_val):
        q = np.zeros(big_n)
        q[np.asarray(dq_idx, int)] = dq_val
        return hess(q)[np.ix_(np.asarray(rows, int), np.asarray(cols, int))]
    return evaluator


class TestBuildPotentialMap:
    def test_identity_case(self):
        s = SampleIndexSet(np.arange(3), 3)
        pmap = build_potential_map(np.eye(3), np.eye(3), s.indices[:3])
        assert np.allclose(pmap.factor, np.eye(3))

    def test_equal_hessians_give_identity(self, rng):
        h = random_spd(rng, 4)
        s = SampleIndexSet(np.arange(5), 8)
        pmap = build_potential_map(h, h, s.indices[:4])
        assert np.allclose(pmap.factor, np.eye(4), atol=1e-12)

    def test_hand_cholesky(self):
        s = SampleIndexSet(np.arange(2), 6)
        pmap = build_potential_map(np.diag([4.0, 9.0]), np.diag([1.0, 1.0]),
                                   s.indices[:2])
        assert np.allclose(pmap.factor, np.diag([2.0, 3.0]))
        check = pmap.factor.T @ np.diag([1.0, 1.0]) @ pmap.factor
        assert np.allclose(check, np.diag([4.0, 9.0]))

    def test_non_spd_rejected(self):
        s = SampleIndexSet(np.arange(2), 4)
        with pytest.raises(ValueError, match="not positive definite"):
            build_potential_map(np.diag([1.0, -1.0]), np.eye(2), s.indices[:2])

    @pytest.mark.parametrize("rows, sampled", [
        (np.arange(2), np.eye(3)),      # too few rows
        (np.arange(4), np.eye(3)),      # too many rows
        (np.arange(2), np.eye(2)),      # a sample set smaller than n
    ])
    def test_wrongly_sized_rows_rejected(self, rows, sampled):
        with pytest.raises(ValueError, match="reduced dimension 3"):
            build_potential_map(np.eye(3), sampled, rows)

    def test_hessian_match_identity(self, rng):
        """The congruence through the sampled Hessian reproduces the
        reduced Hessian by construction."""
        for trial in range(20):
            local = np.random.default_rng(trial)
            big_n, n, m = 12, 4, 7
            h0 = random_spd(local, big_n)
            phi = random_orthonormal(local, big_n, n)
            s = SampleIndexSet(local.permutation(big_n)[:m], big_n)
            first = s.indices[:n]
            pmap = build_potential_map(phi.T @ h0 @ phi,
                                       h0[np.ix_(first, first)], first)
            z_v = np.zeros((big_n, n))
            z_v[first, :] = pmap.factor
            lhs = z_v.T @ h0 @ z_v
            rhs = phi.T @ h0 @ phi
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


class TestApproxReducedGradient:
    def _setup(self, rng, big_n=10, n=3, m=6):
        h0 = random_spd(rng, big_n)
        phi = random_orthonormal(rng, big_n, n)
        s = SampleIndexSet(rng.permutation(big_n)[:m], big_n)
        first = s.indices[:n]
        pmap = build_potential_map(phi.T @ h0 @ phi, h0[np.ix_(first, first)], first)
        return h0, phi, pmap

    def test_zero_at_equilibrium(self, rng):
        h0, phi, pmap = self._setup(rng)
        evaluator = dense_sampled_gradient(10, lambda q: h0 @ q)
        out = approx_reduced_gradient(pmap, evaluator, np.zeros(3))
        assert np.array_equal(out, np.zeros(3))

    def test_quadratic_potential_reproduces_reduced_hessian(self, rng):
        h0, phi, pmap = self._setup(rng)
        evaluator = dense_sampled_gradient(10, lambda q: h0 @ q)
        reduced = phi.T @ h0 @ phi
        for _ in range(5):
            q_r = rng.normal(size=3)
            out = approx_reduced_gradient(pmap, evaluator, q_r)
            assert np.allclose(out, reduced @ q_r, atol=1e-10)

    def test_nonlinear_first_order_consistency(self, rng):
        """To first order about equilibrium the approximated gradient is the
        reduced Hessian action; the remainder is quadratic in the step."""
        big_n = 10
        h0 = random_spd(rng, big_n)

        def grad(q):
            return h0 @ q + 50.0 * q**3

        phi = random_orthonormal(rng, big_n, 3)
        s = SampleIndexSet(rng.permutation(big_n)[:6], big_n)
        first = s.indices[:3]
        pmap = build_potential_map(phi.T @ h0 @ phi, h0[np.ix_(first, first)], first)
        evaluator = dense_sampled_gradient(big_n, grad)
        reduced = phi.T @ h0 @ phi
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        eps = 1e-6
        out = approx_reduced_gradient(pmap, evaluator, eps * direction)
        assert np.linalg.norm(out - reduced @ (eps * direction)) <= 1e-8 * eps


class TestApproxReducedHessian:
    def test_equilibrium_matches_reduced(self, rng):
        big_n = 10
        h0 = random_spd(rng, big_n)
        phi = random_orthonormal(rng, big_n, 3)
        s = SampleIndexSet(rng.permutation(big_n)[:6], big_n)
        first = s.indices[:3]
        reduced = phi.T @ h0 @ phi
        pmap = build_potential_map(reduced, h0[np.ix_(first, first)], first)
        evaluator = dense_sampled_hessian(big_n, lambda q: h0)
        out = approx_reduced_hessian(pmap, evaluator, np.zeros(3))
        assert np.linalg.norm(out - reduced) <= 1e-8 * np.linalg.norm(reduced)

    def test_symmetry_for_all_arguments(self, rng):
        big_n = 8

        def hess(q):
            return random_spd(np.random.default_rng(int(1e6 * abs(q).sum()) % 100),
                              big_n)

        h0 = random_spd(rng, big_n)
        phi = random_orthonormal(rng, big_n, 3)
        s = SampleIndexSet(rng.permutation(big_n)[:5], big_n)
        first = s.indices[:3]
        pmap = build_potential_map(phi.T @ h0 @ phi, h0[np.ix_(first, first)], first)
        evaluator = dense_sampled_hessian(big_n, hess)
        for _ in range(5):
            out = approx_reduced_hessian(pmap, evaluator, rng.normal(size=3))
            assert np.array_equal(out, out.T)

    def test_matches_finite_differences_of_gradient(self, rng):
        big_n = 9
        h0 = random_spd(rng, big_n)
        cubic = rng.normal(size=big_n)

        def grad(q):
            return h0 @ q + cubic * q**3

        def hess(q):
            return h0 + np.diag(3.0 * cubic * q**2)

        phi = random_orthonormal(rng, big_n, 3)
        s = SampleIndexSet(rng.permutation(big_n)[:6], big_n)
        first = s.indices[:3]
        pmap = build_potential_map(phi.T @ h0 @ phi, h0[np.ix_(first, first)], first)
        g_eval = dense_sampled_gradient(big_n, grad)
        h_eval = dense_sampled_hessian(big_n, hess)
        q_r = 0.3 * rng.normal(size=3)
        out = approx_reduced_hessian(pmap, h_eval, q_r)
        h = 1e-5
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (approx_reduced_gradient(pmap, g_eval, q_r + e)
                  - approx_reduced_gradient(pmap, g_eval, q_r - e)) / (2 * h)
            assert np.abs(fd - out[:, i]).max() <= 1e-5 * max(np.abs(out).max(), 1)


def test_two_term_taylor_solvability_property(rng):
    """Numerical feasibility over the Stiefel manifold agrees with the
    norm-comparison solvability condition on small random instances."""
    agree = 0
    trials = 120
    for trial in range(trials):
        local = np.random.default_rng(50_000 + trial)
        n = int(local.integers(1, 4))
        m = int(local.integers(n, 5))
        big_n = int(local.integers(m + 1, m + 5))
        phi_t = random_orthonormal(local, big_n, n)
        c_t = local.normal(size=big_n)
        if trial % 4 == 0:
            # In-range right-hand sides stress the restrictive branch.
            c_t = phi_t @ local.normal(size=n)
        sample_rows = local.permutation(big_n)[:m]
        u = c_t[sample_rows]
        w = phi_t.T @ c_t
        nw, nu = np.linalg.norm(w), np.linalg.norm(u)
        if m == n:
            predicted = abs(nw - nu) <= 1e-9 * max(nw, nu, 1e-12)
        else:
            predicted = nw <= nu * (1 + 1e-12)
        best = stiefel_feasibility_search(u, w, m, n, local)
        observed = best <= 1e-10 * max(nw**2, nu**2, 1e-12)
        agree += int(predicted == observed)
    assert agree >= 0.97 * trials
