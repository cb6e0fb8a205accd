import numpy as np
import pytest

from lagrom.pod import PODBasis, compute_pod_basis, pod_dimension

from conftest import random_orthonormal


def projector(columns):
    return columns @ columns.T


class TestComputePodBasis:
    def test_single_snapshot_normalized(self):
        basis = compute_pod_basis(np.array([[3.0], [4.0]]), energy=1.0)
        assert basis.columns.shape[1] == 1
        assert np.allclose(np.abs(basis.columns.ravel()), [0.6, 0.8])

    def test_one_dimensional_array_rejected(self):
        for snaps in (np.array([1.0, 2.0, 3.0]), [np.array([1.0, 2.0, 3.0])]):
            with pytest.raises(ValueError, match=r"\(N, k\) array"):
                compute_pod_basis(snaps, energy=1.0)

    def test_rank_one_snapshots(self):
        basis = compute_pod_basis(np.array([[1.0, 1.0], [0.0, 0.0]]), energy=0.99)
        assert basis.columns.shape[1] == 1
        assert np.allclose(np.abs(basis.columns.ravel()), [1.0, 0.0])

    def test_identity_snapshots_half_energy(self):
        # SVD of the 2x2 identity: both singular values are one, so the
        # first mode carries exactly half the energy.
        basis = compute_pod_basis(np.eye(2), energy=0.5)
        assert basis.columns.shape[1] == 1
        assert np.allclose(basis.singular_values, [1.0, 1.0])

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no snapshots"):
            compute_pod_basis(np.zeros((3, 0)), energy=0.9)

    def test_invalid_energy(self):
        with pytest.raises(ValueError, match="invalid energy"):
            compute_pod_basis(np.ones((3, 1)), energy=1.5)

    def test_zero_snapshots_dropped(self):
        snaps = np.column_stack([np.zeros(3), np.array([0.0, 2.0, 0.0])])
        basis = compute_pod_basis(snaps, energy=1.0)
        assert basis.columns.shape[1] == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_snapshot_errors(self, bad):
        snaps = np.ones((3, 4))
        snaps[1, 2] = bad
        with pytest.raises(ValueError, match=r"non-finite snapshot column\(s\) \[2\]"):
            compute_pod_basis(snaps, energy=1.0)

    def test_all_zero_errors(self):
        with pytest.raises(ValueError, match="no snapshots"):
            compute_pod_basis(np.zeros((4, 1)), energy=1.0)

    def test_orthonormal_columns(self, rng):
        snaps = rng.normal(size=(30, 12))
        basis = compute_pod_basis(snaps, energy=0.999)
        gram = basis.columns.T @ basis.columns
        assert np.abs(gram - np.eye(basis.columns.shape[1])).max() <= 1e-10

    def test_tiny_singular_values_dropped_at_full_energy(self, rng):
        # Rank-2 snapshots: full energy must not keep noise modes.
        u = random_orthonormal(rng, 10, 2)
        snaps = u @ rng.normal(size=(2, 6))
        basis = compute_pod_basis(snaps, energy=1.0)
        assert basis.columns.shape[1] == 2


class TestPodDimension:
    def test_equal_energies(self):
        assert pod_dimension([1.0, 1.0], 0.5) == 1

    def test_boundary_inclusive(self):
        assert pod_dimension([2.0, 1.0], 0.8) == 1

    def test_full_energy(self):
        assert pod_dimension([2.0, 1.0], 1.0) == 2

    def test_all_zero_errors(self):
        with pytest.raises(ValueError, match="zero"):
            pod_dimension([0.0, 0.0], 0.5)

    def test_monotone_in_energy(self, rng):
        s = np.sort(np.abs(rng.normal(size=9)))[::-1]
        dims = [pod_dimension(s, e) for e in np.linspace(0.0, 1.0, 21)]
        assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_projection_optimality(rng):
    """POD residual beats random orthonormal bases at every rank."""
    snaps = rng.normal(size=(8, 5))
    normalized = snaps / np.linalg.norm(snaps, axis=0)
    basis = compute_pod_basis(snaps, energy=1.0)
    for k in range(1, basis.columns.shape[1] + 1):
        pod_res = np.linalg.norm(
            normalized - projector(basis.columns[:, :k]) @ normalized)**2
        for _ in range(100):
            q = random_orthonormal(rng, 8, k)
            rand_res = np.linalg.norm(normalized - projector(q) @ normalized)**2
            assert pod_res <= rand_res + 1e-12


def test_sign_agnostic_projector(rng):
    """Columns are defined up to sign; projectors are the stable object."""
    snaps = rng.normal(size=(12, 6))
    a = compute_pod_basis(snaps, energy=0.99)
    b = compute_pod_basis(snaps * np.array([1.0] * 6), energy=0.99)
    assert np.allclose(projector(a.columns), projector(b.columns))


def test_basis_dataclass_properties(rng):
    snaps = rng.normal(size=(7, 4))
    basis = compute_pod_basis(snaps, energy=0.9)
    assert isinstance(basis, PODBasis)
    assert basis.columns.ndim == 2 and basis.columns.shape[0] == 7
    sv = basis.singular_values
    assert np.all(sv[:-1] >= sv[1:]) and np.all(sv >= 0)
