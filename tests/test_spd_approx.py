import logging
import tracemalloc

import numpy as np
import pytest

import lagrom.spd_approx
from lagrom.pod import compute_pod_basis
from lagrom.sampling import SampleIndexSet, greedy_sample_indices
from lagrom.spd_approx import (_congruence_objective, assembled_eigen_gradients,
                               build_matrix_gappy_basis, eigen_constrained_solve,
                               gappy_matrix_assemble, gappy_matrix_coeffs,
                               generalized_interlacing_check,
                               matrix_pod_modes, rbs_apply, rbs_fit, symmetrize)
from lagrom.truss import build_truss

from conftest import random_orthonormal, random_spd


def banded_snapshot(rng, big_n, half, drop=0.3):
    """Random symmetric matrix of half-bandwidth ``half`` with structural
    zeros inside the band."""
    a = rng.normal(size=(big_n, big_n))
    i, j = np.indices(a.shape)
    a[(np.abs(i - j) > half) | (rng.random(a.shape) < drop)] = 0.0
    return a + a.T


def materialize(coefficients, snapshots):
    """Modes ``sum_j C[i, j] * A_j`` as dense (k, N, N) matrices."""
    return np.tensordot(coefficients, np.array(snapshots), axes=1)


def dense_matrix_pod(snapshots, energy):
    """Reference: POD of the fully vectorized N x N snapshots, symmetrized."""
    big_n = snapshots[0].shape[0]
    basis = compute_pod_basis(np.column_stack([a.ravel() for a in snapshots]), energy)
    modes = [symmetrize(c.reshape(big_n, big_n)) for c in basis.columns.T]
    return modes, basis.singular_values


def affine_family(rng, big_n):
    a1 = random_spd(rng, big_n)
    a2 = random_spd(rng, big_n)
    return a1, a2, lambda h1, h2: h1 * a1 + h2 * a2


class TestRbsFit:
    @pytest.mark.parametrize("snapshots", [1, 2, 5])
    def test_objective_equals_per_snapshot_loop(self, rng, snapshots):
        """The stacked objective sums exactly what a loop over the snapshots
        sums, in the same order."""
        m, n = 7, 3
        z = rng.normal(size=(m, n))
        sampled = np.array([random_spd(rng, m) for _ in range(snapshots)])
        reduced = np.array([random_spd(rng, n) for _ in range(snapshots)])
        value, grad = 0.0, np.zeros_like(z)
        for a_s, r in zip(sampled, reduced):
            az = a_s @ z
            err = z.T @ az - r
            value += float(np.sum(err * err))
            grad += 4.0 * (az @ err)
        got_value, got_grad = _congruence_objective(z, sampled, reduced)
        assert got_value == value
        assert np.array_equal(got_grad, grad)

    def test_full_sampling_exact(self, rng):
        big_n, n = 9, 3
        phi = random_orthonormal(rng, big_n, n)
        snaps = [random_spd(rng, big_n) for _ in range(2)]
        s = SampleIndexSet(rng.permutation(big_n), big_n)
        fit = rbs_fit(snaps, phi, s)
        assert fit.fit_residual <= 1e-16
        assert fit.converged

    def test_parameter_independent_m_equals_n(self, rng):
        big_n, n = 8, 3
        phi = random_orthonormal(rng, big_n, n)
        a = random_spd(rng, big_n)
        s = SampleIndexSet(np.arange(n), big_n)
        fit = rbs_fit([a], phi, s)
        assert fit.fit_residual <= 1e-10

    def test_matches_grid_search_oracle(self):
        # Two diagonal snapshots, scalar reduced target; the coarse grid
        # bounds the attainable objective from above.
        a1, a2 = np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 2.0, 2.0])
        phi = np.array([[1.0], [0.0], [0.0]])
        s = SampleIndexSet(np.array([0, 1]), 3)
        fit = rbs_fit([a1, a2], phi, s)

        grid = np.linspace(-2.0, 2.0, 161)
        best = np.inf
        for z1 in grid:
            for z2 in grid:
                z = np.array([[z1], [z2]])
                val = sum(
                    np.sum((z.T @ a[:2, :2] @ z - phi.T @ a @ phi)**2)
                    for a in (a1, a2))
                best = min(best, float(val))
        assert abs(fit.fit_residual - best) <= 1e-4

    def test_unconverged_flagged_not_raised(self, rng, monkeypatch):
        monkeypatch.setattr(lagrom.spd_approx, "RBS_MAX_ITERS", 1)
        big_n, n = 10, 2
        phi = random_orthonormal(rng, big_n, n)
        snaps = [random_spd(rng, big_n) for _ in range(4)]
        s = SampleIndexSet(np.arange(3), big_n)
        fit = rbs_fit(snaps, phi, s)
        assert np.isfinite(fit.fit_residual)

    def test_stagnation_warning_reports_relative_residual(self, rng, caplog,
                                                           monkeypatch):
        # Stopping at the iteration budget is expected: logged at INFO.
        monkeypatch.setattr(lagrom.spd_approx, "RBS_MAX_ITERS", 1)
        caplog.set_level(logging.INFO, logger="lagrom.spd_approx")
        big_n, n = 10, 2
        phi = random_orthonormal(rng, big_n, n)
        snaps = [random_spd(rng, big_n) for _ in range(4)]
        s = SampleIndexSet(np.arange(3), big_n)
        fit = rbs_fit(snaps, phi, s)
        assert not fit.converged
        scale = sum(float(np.sum((phi.T @ a @ phi) ** 2)) for a in snaps)
        assert "relative %.3e" % np.sqrt(fit.fit_residual / scale) in caplog.text

    def test_m_below_n_rejected(self, rng):
        phi = random_orthonormal(rng, 6, 3)
        s = SampleIndexSet(np.arange(2), 6)
        with pytest.raises(ValueError, match="m >= n"):
            rbs_fit([np.eye(6)], phi, s)


class TestRbsApply:
    def test_scalar_congruence(self, rng):
        s = SampleIndexSet(np.array([0]), 3)
        fit = rbs_fit([np.diag([4.0, 1.0, 1.0])], np.eye(3)[:, :1], s)
        out = rbs_apply(fit, np.array([[4.0]]))
        assert out.shape == (1, 1)

    def test_direct_multiplication(self):
        from lagrom.spd_approx import RBSMap
        factor = np.array([[1.0], [1.0]])
        rmap = RBSMap(factor=factor, fit_residual=0.0, converged=True,
                      iterations=0)
        assert np.allclose(rbs_apply(rmap, np.eye(2)), [[2.0]])

    def test_definiteness_preserved(self, rng):
        big_n, n, m = 10, 3, 5
        phi = random_orthonormal(rng, big_n, n)
        s = SampleIndexSet(np.arange(m), big_n)
        fit = rbs_fit([random_spd(rng, big_n)], phi, s)
        for _ in range(20):
            spd = random_spd(rng, m)
            out = rbs_apply(fit, spd)
            assert np.abs(out - out.T).max() <= 1e-12 * max(np.abs(out).max(), 1)
            assert np.linalg.eigvalsh(out)[0] > 0

    def test_dimension_mismatch(self, rng):
        phi = random_orthonormal(rng, 6, 2)
        s = SampleIndexSet(np.arange(3), 6)
        fit = rbs_fit([random_spd(rng, 6)], phi, s)
        with pytest.raises(ValueError, match="shape"):
            rbs_apply(fit, np.eye(4))


class TestMatrixPodBasis:
    def test_single_snapshot_normalized_mode(self, rng):
        a = random_spd(rng, 4)
        modes = materialize(matrix_pod_modes([a], energy=1.0), [a])
        assert len(modes) == 1
        assert np.allclose(np.abs(modes[0]), np.abs(a) / np.linalg.norm(a))

    def test_scaled_pair_is_rank_one(self, rng):
        a = random_spd(rng, 4)
        coefficients = matrix_pod_modes([a, 2.0 * a], energy=1.0)
        assert coefficients.shape == (1, 2)

    def test_two_diagonal_snapshots_vs_svd_oracle(self):
        snaps = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        modes = materialize(matrix_pod_modes(snaps, energy=1.0), snaps)
        assert len(modes) == 2
        for mode in modes:
            assert np.abs(mode - mode.T).max() <= 1e-12
        # Oracle: SVD of the 4 x 2 vectorized (already unit-norm) snapshots.
        vec = np.column_stack([s.ravel() for s in snaps])
        u, sv, _ = np.linalg.svd(vec, full_matrices=False)
        got = np.column_stack([m.ravel() for m in modes])
        assert np.allclose(got @ got.T, u[:, :2] @ u[:, :2].T)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no matrix snapshots"):
            matrix_pod_modes([], energy=1.0)

    @staticmethod
    def assert_matches_dense_pod(snaps, energy):
        ref_modes, ref_sv = dense_matrix_pod(snaps, energy)
        coefficients = matrix_pod_modes(snaps, energy)
        assert coefficients.shape == (len(ref_modes), len(snaps))
        modes = materialize(coefficients, snaps)
        # The modes span the leading left singular subspace: projecting the
        # normalized snapshots onto them keeps the leading singular values.
        vec = np.column_stack([a.ravel() / np.linalg.norm(a) for a in snaps])
        got = np.column_stack([m.ravel() for m in modes])
        sv = np.linalg.svd(got.T @ vec, compute_uv=False)
        assert np.allclose(sv, ref_sv[:len(modes)], rtol=1e-12, atol=0.0)
        support = np.logical_or.reduce([a != 0.0 for a in snaps])
        for mode, ref in zip(modes, ref_modes):
            assert np.abs(np.outer(mode, mode) - np.outer(ref, ref)).max() <= 1e-10
            assert np.abs(mode - mode.T).max() <= 1e-12 * np.abs(mode).max()
            assert not np.any(mode[~support])

    @pytest.mark.parametrize("energy", [1.0, 1.0 - 1e-8])
    @pytest.mark.parametrize("count", range(1, 7))
    def test_support_pod_matches_dense_pod(self, rng, count, energy):
        snaps = [banded_snapshot(rng, 12, 1 + i % 3) for i in range(count)]
        self.assert_matches_dense_pod(snaps, energy)

    def test_rank_deficient_pair_matches_dense_pod(self, rng):
        a = banded_snapshot(rng, 12, 2)
        self.assert_matches_dense_pod([a, -3.0 * a], 1.0)

    def test_peak_memory_scales_with_support(self, rng):
        masses = [build_truss(40, rng.uniform(-1, 1, size=16)).mass_dense()
                  for _ in range(3)]
        big_n = masses[0].shape[0]
        tracemalloc.start()
        try:
            matrix_pod_modes(masses, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * len(masses) * big_n**2 * 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_snapshot_errors(self, rng, bad):
        b = random_spd(rng, 5)
        b[1, 3] = bad
        with pytest.raises(ValueError, match=r"non-finite snapshot column\(s\) \[1\]"):
            matrix_pod_modes([np.eye(5), b], energy=1.0)

    def test_asymmetric_snapshot_errors(self, rng):
        b = random_spd(rng, 5)
        with pytest.raises(ValueError, match=r"matrix snapshot\(s\) \[1\] not symmetric"):
            matrix_pod_modes([np.eye(5), np.triu(b)], energy=1.0)

    def test_reduced_basis_symmetric(self, rng):
        big_n, n, m = 8, 3, 4
        snaps = [random_spd(rng, big_n) for _ in range(3)]
        phi = random_orthonormal(rng, big_n, n)
        s = SampleIndexSet(np.arange(m), big_n)
        basis = build_matrix_gappy_basis(matrix_pod_modes(snaps, 1.0), snaps,
                                         phi, s)
        for k in range(basis.k):
            assert np.abs(basis.reduced_basis[k]
                          - basis.reduced_basis[k].T).max() <= 1e-12
        assert basis.sampled_operator.shape == ((m * m + m) // 2, basis.k)

    def test_basis_from_coefficients_matches_materialized_modes(self, rng):
        """Contracting the coefficients with the snapshots' blocks gives the
        blocks of the dense modes."""
        masses = [build_truss(4, rng.uniform(-1, 1, size=16)).mass_dense()
                  for _ in range(4)]
        big_n = masses[0].shape[0]
        phi = random_orthonormal(rng, big_n, 5)
        s = greedy_sample_indices(phi, 9)
        coefficients = matrix_pod_modes(masses, 1.0)
        modes = materialize(coefficients, masses)
        got = build_matrix_gappy_basis(coefficients, masses, phi, s)
        want = build_matrix_gappy_basis(np.eye(len(modes)), list(modes), phi, s)
        for field in ("sampled_operator", "reduced_basis"):
            a, b = getattr(got, field), getattr(want, field)
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), field

    def test_sampled_operator_is_upper_triangles_of_sampled_modes(self, rng):
        masses = [build_truss(4, rng.uniform(-1, 1, size=16)).mass_dense()
                  for _ in range(3)]
        phi = random_orthonormal(rng, masses[0].shape[0], 4)
        s = greedy_sample_indices(phi, 7)
        coefficients = matrix_pod_modes(masses, 1.0)
        basis = build_matrix_gappy_basis(coefficients, masses, phi, s)
        rows, cols = np.triu_indices(s.m)
        want = np.column_stack([mode[np.ix_(s.indices, s.indices)][rows, cols]
                                for mode in materialize(coefficients, masses)])
        assert basis.sampled_operator.shape == want.shape
        assert np.linalg.norm(basis.sampled_operator - want) \
            <= 1e-12 * np.linalg.norm(want)

    def test_sampled_matrix_of_wrong_shape_rejected(self, rng):
        snaps = [random_spd(rng, 6) for _ in range(2)]
        s = SampleIndexSet(np.arange(3), 6)
        basis = build_matrix_gappy_basis(np.eye(2), snaps, np.eye(6)[:, :2], s)
        for bad in (np.eye(2), np.eye(4), np.ones((3, 4)), np.ones(6)):
            with pytest.raises(ValueError, match="does not match basis"):
                gappy_matrix_coeffs(bad, basis)

    def test_coefficients_of_wrong_shape_rejected(self, rng):
        snaps = [random_spd(rng, 4) for _ in range(2)]
        s = SampleIndexSet(np.arange(2), 4)
        for bad in (np.ones((1, 3)), np.ones(2), np.ones((1, 1, 2))):
            with pytest.raises(ValueError, match="coefficients"):
                build_matrix_gappy_basis(bad, snaps, np.eye(4)[:, :2], s)


class TestGappyCoeffs:
    def test_basis_member_recovered(self, rng):
        big_n, n, m = 8, 3, 4
        snaps = [random_spd(rng, big_n) for _ in range(2)]
        phi = random_orthonormal(rng, big_n, n)
        s = SampleIndexSet(np.arange(m), big_n)
        basis = build_matrix_gappy_basis(matrix_pod_modes(snaps, 1.0), snaps,
                                         phi, s)
        idx = np.ix_(s.indices, s.indices)
        coeffs = gappy_matrix_coeffs(np.asarray(snaps[0])[idx], basis)
        recon = basis.sampled_operator @ coeffs
        assert np.allclose(recon, snaps[0][idx][np.triu_indices(m)], atol=1e-10)

    def test_exactness_for_training_member(self, rng):
        big_n = 10
        a1, a2, fam = affine_family(rng, big_n)
        phi = random_orthonormal(rng, big_n, 3)
        snaps = [fam(1.0, 0.5), fam(0.3, 1.2), fam(0.8, 0.8)]
        s = SampleIndexSet(np.arange(4), big_n)
        basis = build_matrix_gappy_basis(matrix_pod_modes(snaps, 1.0), snaps,
                                         phi, s)
        target = fam(0.3, 1.2)
        coeffs = gappy_matrix_coeffs(target[np.ix_(s.indices, s.indices)], basis)
        approx = gappy_matrix_assemble(coeffs, basis)
        exact = phi.T @ target @ phi
        assert np.linalg.norm(approx - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_hand_least_squares(self):
        s = SampleIndexSet(np.arange(2), 2)
        basis = build_matrix_gappy_basis(np.eye(1), [np.eye(2)], np.eye(2), s)
        coeffs = gappy_matrix_coeffs(np.diag([2.0, 4.0]), basis)
        assert np.allclose(coeffs, [3.0])

    def test_rank_deficient_operator_rejected(self, rng):
        s = SampleIndexSet(np.array([0]), 3)
        modes = [np.diag([0.0, 1.0, 1.0]), np.diag([0.0, 2.0, 1.0])]
        basis = build_matrix_gappy_basis(np.eye(2), modes,
                                         random_orthonormal(rng, 3, 1), s)
        with pytest.raises(ValueError, match="invalid sampling"):
            gappy_matrix_coeffs(np.eye(1), basis)

    def test_objective_bound(self, rng):
        """Reduced mismatch is bounded by the full-space mismatch."""
        big_n, n = 9, 3
        for _ in range(30):
            a = random_spd(rng, big_n)
            modes = [random_spd(rng, big_n) for _ in range(2)]
            phi = random_orthonormal(rng, big_n, n)
            x = rng.normal(size=2)
            lhs = np.linalg.norm(
                phi.T @ a @ phi
                - sum(xi * phi.T @ mi @ phi for xi, mi in zip(x, modes)))
            rhs = (np.linalg.norm(phi, "fro")**2
                   * np.linalg.norm(a - sum(xi * mi for xi, mi in zip(x, modes))))
            assert lhs <= rhs + 1e-10


class TestGappyAssemble:
    def test_identity_combinations(self):
        s = SampleIndexSet(np.arange(2), 2)
        basis = build_matrix_gappy_basis(
            np.eye(2), [np.diag([1.0, 0.0]) + 1e-3 * np.eye(2),
             np.diag([0.0, 1.0]) + 1e-3 * np.eye(2)], np.eye(2), s)
        out = gappy_matrix_assemble(np.array([1.0, 1.0]), basis)
        assert np.allclose(out, np.eye(2) + 2e-3 * np.eye(2))

    def test_linear_combination_oracle(self, rng):
        s = SampleIndexSet(np.arange(3), 3)
        modes = [0.5 * (m + m.T) for m in rng.normal(size=(2, 3, 3))]
        modes = [m + 3 * np.eye(3) for m in modes]
        basis = build_matrix_gappy_basis(np.eye(2), modes, np.eye(3), s)
        x = rng.normal(size=2) ** 2 + 0.1
        expected = x[0] * modes[0] + x[1] * modes[1]
        assert np.allclose(gappy_matrix_assemble(x, basis), expected)

    def test_indefinite_assembly_rejected(self):
        s = SampleIndexSet(np.arange(2), 2)
        basis = build_matrix_gappy_basis(np.eye(1), [np.eye(2)], np.eye(2), s)
        with pytest.raises(ValueError, match="positive definite"):
            gappy_matrix_assemble(np.array([-1.0]), basis)


class TestEigenConstrainedSolve:
    def test_feasible_returned_unchanged(self, rng):
        s = SampleIndexSet(np.arange(3), 3)
        basis = build_matrix_gappy_basis(np.eye(1), [np.eye(3)], np.eye(3), s)
        x0 = np.array([2.0])
        assert np.array_equal(
            eigen_constrained_solve(basis, 2 * np.eye(3), x0, pd_threshold=1e-8),
            x0)

    def test_one_dimensional_clip(self, rng):
        a1 = random_spd(rng, 3)
        s = SampleIndexSet(np.arange(3), 3)
        basis = build_matrix_gappy_basis(np.eye(1), [a1], np.eye(3), s)
        lam_min = np.linalg.eigvalsh(a1)[0]
        x = eigen_constrained_solve(basis, -a1, np.array([-1.0]),
                                    pd_threshold=0.5)
        assert np.allclose(x, [0.5 / lam_min])

    def test_eigen_gradient_matches_finite_differences(self, rng):
        big_n, n, k = 4, 4, 3
        modes = [0.5 * (m + m.T) for m in rng.normal(size=(k, big_n, big_n))]
        phi = random_orthonormal(rng, big_n, n)
        s = SampleIndexSet(np.arange(big_n), big_n)
        basis = build_matrix_gappy_basis(np.eye(len(modes)), modes, phi, s)
        for trial in range(10):
            x = np.random.default_rng(trial).normal(size=k)
            lam, grads = assembled_eigen_gradients(basis, x)
            h = 1e-6
            for i in range(k):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                lp = np.linalg.eigvalsh(
                    np.einsum("i,ijk->jk", xp, basis.reduced_basis))
                lm = np.linalg.eigvalsh(
                    np.einsum("i,ijk->jk", xm, basis.reduced_basis))
                fd = (lp - lm) / (2 * h)
                assert np.abs(fd - grads[:, i]).max() <= 1e-6

    def test_multi_coefficient_projection(self, rng):
        # Unconstrained optimum is infeasible; the solve must return a
        # feasible point without destroying the fit entirely.
        big_n, n = 6, 3
        phi = random_orthonormal(rng, big_n, n)
        base = random_spd(rng, big_n)
        modes = [base / np.linalg.norm(base), random_spd(rng, big_n)]
        modes[1] /= np.linalg.norm(modes[1])
        s = SampleIndexSet(np.arange(4), big_n)
        basis = build_matrix_gappy_basis(np.eye(len(modes)), modes, phi, s)
        target = -3.0 * base[np.ix_(s.indices, s.indices)]
        x = eigen_constrained_solve(
            basis, target,
            np.linalg.lstsq(basis.sampled_operator,
                            target[np.triu_indices(4)], rcond=None)[0],
            pd_threshold=1e-3)
        assembled = np.einsum("i,ijk->jk", x, basis.reduced_basis)
        assert np.linalg.eigvalsh(assembled)[0] >= 1e-3 - 1e-12

    def test_infeasible_raises(self):
        s = SampleIndexSet(np.arange(2), 2)
        basis = build_matrix_gappy_basis(np.eye(1), [np.diag([1.0, -1.0])],
                                         np.eye(2), s)
        with pytest.raises(ValueError, match="cannot preserve definiteness"):
            eigen_constrained_solve(basis, np.eye(2), np.array([0.0]),
                                    pd_threshold=1e-6)


class TestInterlacing:
    def test_identical_pencils_trivial(self, rng):
        a = random_spd(rng, 4)
        ok, report = generalized_interlacing_check(a, a, a[:3, :3], a[:3, :3])
        assert ok

    def test_index_window(self, rng):
        # For n = 2, m = 4 the upper comparison uses an offset of m - n.
        d_s = np.eye(4)
        b_s = np.diag([1.0, 2.0, 3.0, 4.0])
        d_r = np.eye(2)
        b_r = np.diag([1.5, 3.5])
        ok, report = generalized_interlacing_check(d_s, b_s, d_r, b_r)
        assert ok
        bad = np.diag([0.5, 3.5])  # 0.5 below the smallest sampled eigenvalue
        ok, _ = generalized_interlacing_check(d_s, b_s, d_r, bad)
        assert not ok

    def test_congruence_necessary_direction(self, rng):
        for trial in range(50):
            local = np.random.default_rng(trial)
            d_s = random_spd(local, 4)
            b_s = random_spd(local, 4)
            u = random_orthonormal(local, 4, 2)
            ok, _ = generalized_interlacing_check(
                d_s, b_s, u.T @ d_s @ u, u.T @ b_s @ u)
            assert ok

    def test_non_spd_metric_rejected(self, rng):
        with pytest.raises(ValueError, match="positive definite"):
            generalized_interlacing_check(-np.eye(3), np.eye(3), np.eye(2),
                                          np.eye(2))


def test_rbs_fit_residual_implies_interlacing(rng):
    """Cauchy necessary direction: a (near-)exact sparse congruence forces
    the reduced pencil eigenvalues inside the sampled windows."""
    hits = 0
    for trial in range(100):
        local = np.random.default_rng(1000 + trial)
        big_n, n, m = 8, 2, 5
        a1, a2 = random_spd(local, big_n), random_spd(local, big_n)
        phi = random_orthonormal(local, big_n, n)
        s = greedy_sample_indices(phi, m)
        fit = rbs_fit([a1, a2, 0.5 * a1 + 0.5 * a2], phi, s)
        scale = sum(np.linalg.norm(phi.T @ a @ phi)**2 for a in (a1, a2))
        if fit.fit_residual > 1e-10 * scale:
            continue
        hits += 1
        idx = np.ix_(s.indices, s.indices)
        ok, _ = generalized_interlacing_check(
            a1[idx], a2[idx], phi.T @ a1 @ phi, phi.T @ a2 @ phi, rtol=1e-5)
        assert ok
    assert hits > 0  # the property must actually have been exercised
