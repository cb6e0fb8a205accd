import numpy as np
import pytest

from lagrom.gappy import (apply_force_reconstructor, build_force_reconstructor,
                          gappy_error_bound)
from lagrom.sampling import SampleIndexSet

from conftest import random_orthonormal


class TestBuildForceReconstructor:
    def test_full_sampling_shared_basis_is_projection(self, rng):
        phi = random_orthonormal(rng, 6, 2)
        s = SampleIndexSet(np.arange(6), 6)
        rec = build_force_reconstructor(phi, phi, s)
        f = phi @ rng.normal(size=2)
        out = apply_force_reconstructor(rec, f[s.indices])
        assert np.allclose(out, phi.T @ f, atol=1e-12)

    def test_interpolation_when_basis_fills_samples(self, rng):
        big_n, n_f = 8, 3
        phi_f = random_orthonormal(rng, big_n, n_f)
        s = SampleIndexSet(rng.permutation(big_n)[:n_f], big_n)
        phi = random_orthonormal(rng, big_n, 2)
        rec = build_force_reconstructor(phi, phi_f, s)
        f = rng.normal(size=big_n)
        coeffs, *_ = np.linalg.lstsq(phi_f[s.indices, :], f[s.indices], rcond=None)
        recon = phi_f @ coeffs
        # Interpolation: the reconstruction matches sampled entries exactly.
        assert np.abs(recon[s.indices] - f[s.indices]).max() <= 1e-10

    def test_matches_normal_equation_oracle(self, rng):
        phi_f = rng.normal(size=(6, 2))
        phi = random_orthonormal(rng, 6, 3)
        s = SampleIndexSet(np.array([1, 3, 4]), 6)
        rec = build_force_reconstructor(phi, phi_f, s)
        sub = phi_f[s.indices, :]
        pinv = np.linalg.solve(sub.T @ sub, sub.T)
        oracle = phi.T @ phi_f @ pinv
        assert np.allclose(rec, oracle, atol=1e-10)

    def test_rank_deficient_sampling_rejected(self, rng):
        phi_f = np.zeros((6, 2))
        phi_f[4:, :] = np.eye(2)
        s = SampleIndexSet(np.array([0, 1, 2]), 6)  # misses the support
        with pytest.raises(ValueError, match="insufficient"):
            build_force_reconstructor(random_orthonormal(rng, 6, 2), phi_f, s)

    def test_basis_larger_than_samples_rejected(self, rng):
        phi_f = random_orthonormal(rng, 6, 4)
        s = SampleIndexSet(np.arange(3), 6)
        with pytest.raises(ValueError, match="exceeds"):
            build_force_reconstructor(random_orthonormal(rng, 6, 2), phi_f, s)

    def test_empty_basis_returns_zero_operator(self, rng):
        s = SampleIndexSet(np.arange(3), 6)
        rec = build_force_reconstructor(random_orthonormal(rng, 6, 2),
                                        np.zeros((6, 0)), s)
        assert np.array_equal(rec, np.zeros((2, 3)))
        assert np.array_equal(apply_force_reconstructor(rec, np.ones(3)),
                              np.zeros(2))


class TestApplyForceReconstructor:
    def test_zero_force_exact(self, rng):
        phi_f = random_orthonormal(rng, 8, 2)
        phi = random_orthonormal(rng, 8, 3)
        s = SampleIndexSet(np.arange(4), 8)
        rec = build_force_reconstructor(phi, phi_f, s)
        assert np.array_equal(apply_force_reconstructor(rec, np.zeros(4)),
                              np.zeros(3))

    def test_in_range_force_exact(self, rng):
        big_n = 10
        phi_f = random_orthonormal(rng, big_n, 3)
        phi = random_orthonormal(rng, big_n, 4)
        s = SampleIndexSet(rng.permutation(big_n)[:5], big_n)
        rec = build_force_reconstructor(phi, phi_f, s)
        f = phi_f @ rng.normal(size=3)
        out = apply_force_reconstructor(rec, f[s.indices])
        assert np.abs(out - phi.T @ f).max() <= 1e-10

    def test_scalar_case(self):
        rec = np.array([[2.0]])
        assert np.allclose(apply_force_reconstructor(rec, np.array([3.0])), [6.0])

    def test_reconstruct_then_project_identity(self, rng):
        """Projecting the reconstructed full-space term equals applying the
        operator to the sampled values (the structure-preservation identity)."""
        big_n = 12
        phi_f = random_orthonormal(rng, big_n, 3)
        phi = random_orthonormal(rng, big_n, 4)
        s = SampleIndexSet(rng.permutation(big_n)[:6], big_n)
        rec = build_force_reconstructor(phi, phi_f, s)
        for _ in range(10):
            f = rng.normal(size=big_n)
            coeffs, *_ = np.linalg.lstsq(phi_f[s.indices, :], f[s.indices],
                                         rcond=None)
            full_route = phi.T @ (phi_f @ coeffs)
            sampled_route = apply_force_reconstructor(rec, f[s.indices])
            assert np.allclose(full_route, sampled_route, atol=1e-10)


class TestGappyErrorBound:
    def test_in_range_zero_error_zero_bound(self, rng):
        big_n = 9
        phi_f = random_orthonormal(rng, big_n, 2)
        s = SampleIndexSet(rng.permutation(big_n)[:4], big_n)
        f = phi_f @ rng.normal(size=2)
        error, bound = gappy_error_bound(phi_f, s, f)
        assert error <= 1e-10 and bound <= 1e-10

    def test_full_sampling_random_force(self, rng):
        big_n = 9
        phi_f = random_orthonormal(rng, big_n, 3)
        s = SampleIndexSet(np.arange(big_n), big_n)
        error, bound = gappy_error_bound(phi_f, s, rng.normal(size=big_n))
        assert error <= bound + 1e-12

    def test_orthogonal_complement_full_sampling(self, rng):
        big_n = 7
        phi_f = random_orthonormal(rng, big_n, 2)
        s = SampleIndexSet(np.arange(big_n), big_n)
        f = rng.normal(size=big_n)
        f -= phi_f @ (phi_f.T @ f)
        error, bound = gappy_error_bound(phi_f, s, f)
        assert abs(error - np.linalg.norm(f)) <= 1e-9
        assert bound >= error - 1e-12

    def test_bound_over_many_instances(self):
        """The error/bound inequality over random sizes and samplings."""
        for trial in range(1000):
            rng = np.random.default_rng(trial)
            big_n = int(rng.integers(4, 33))
            n_f = int(rng.integers(1, max(2, big_n // 3)))
            m = int(rng.integers(n_f, big_n + 1))
            phi_f = random_orthonormal(rng, big_n, n_f)
            s = SampleIndexSet(rng.permutation(big_n)[:m], big_n)
            try:
                error, bound = gappy_error_bound(phi_f, s, rng.normal(size=big_n))
            except ValueError:
                continue  # rank-deficient sampled basis draw
            assert error <= bound * (1 + 1e-9) + 1e-14
