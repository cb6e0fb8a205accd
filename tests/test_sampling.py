import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lagrom.sampling
from lagrom.sampling import (TIE_RTOL, SampleIndexSet, _gappy_residual,
                             greedy_sample_indices, validate_sample_set)
from lagrom.spd_approx import build_matrix_gappy_basis, training_blocks
from lagrom.truss import build_truss

from conftest import random_orthonormal, random_spd


class TestSampleIndexSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            SampleIndexSet(np.array([1, 1, 2]), 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            SampleIndexSet(np.array([0, 5]), 5)

    @pytest.mark.parametrize("indices", [[0.5, 1.7], [0.0, np.nan], ["0", "1"]])
    def test_rejects_non_integral(self, indices):
        with pytest.raises(ValueError, match="integers"):
            SampleIndexSet(indices, 3)

    def test_integral_floats_load(self):
        # Archives store the indices as float64.
        s = SampleIndexSet(np.array([2.0, 0.0]), 3)
        assert s.indices.dtype.kind == "i"
        assert list(s.indices) == [2, 0]

    def test_first_preserves_order(self):
        # The first n indices are the potential map's rows, in this order.
        s = SampleIndexSet(np.array([4, 1, 3]), 6)
        assert list(s.indices[:2]) == [4, 1]


class TestGreedySampleIndices:
    def test_single_column_max_magnitude(self):
        basis = np.zeros((5, 1))
        basis[3, 0] = 1.0
        assert list(greedy_sample_indices(basis, 1).indices) == [3]

    def test_identity_columns_cycle(self):
        s = greedy_sample_indices(np.eye(3), 3)
        assert list(s.indices) == [0, 1, 2]

    def test_matches_bruteforce_greedy_oracle(self, rng):
        # A Gaussian 6 x 2 basis, then random orthonormal ones at m = k and
        # m > k (past the first cycle through the columns).
        cases = [(rng.normal(size=(6, 2)), 3)]
        for big_n, k in ((60, 8), (120, 20)):
            basis = random_orthonormal(rng, big_n, k)
            cases += [(basis, k), (basis, 2 * k + 3)]
        for basis, m in cases:
            assert list(greedy_sample_indices(basis, m).indices) == \
                _bruteforce_greedy(basis, m)

    def test_deterministic_and_tie_break_low_index(self):
        basis = np.ones((4, 1))
        s1 = greedy_sample_indices(basis, 2)
        s2 = greedy_sample_indices(basis, 2)
        assert list(s1.indices) == list(s2.indices) == [0, 1]

    def test_m_larger_than_ambient_errors(self):
        with pytest.raises(ValueError):
            greedy_sample_indices(np.eye(3), 4)

    @pytest.mark.parametrize("m", [2.7, 2.0, np.nan])
    def test_non_integral_m_errors(self, m):
        with pytest.raises(ValueError, match="sample count m must be an integer"):
            greedy_sample_indices(np.eye(3), m)

    def test_zero_column_fallback(self):
        basis = np.zeros((4, 2))
        basis[:, 1] = [0.0, 3.0, 2.0, 1.0]
        # First column is identically zero; selection falls back to the next.
        s = greedy_sample_indices(basis, 2)
        assert list(s.indices)[0] == 1

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_setdiff_reference(self, data):
        big_n = data.draw(st.integers(1, 10), label="N")
        k = data.draw(st.integers(1, 4), label="k")
        m = data.draw(st.integers(1, big_n), label="m")
        # Small integers give exact ties and zeros; zeroed columns run the
        # fallback path.
        basis = np.array(data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=k, max_size=k),
            min_size=big_n, max_size=big_n)), dtype=float)
        zero = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        basis[:, zero] = 0.0
        got = greedy_sample_indices(basis, m).indices
        assert list(got) == _setdiff_greedy(basis, m)

    @pytest.mark.parametrize("residual", ["gelsy", "gelsd"])
    def test_mirrored_rows_take_lowest_index(self, rng, monkeypatch, residual):
        """Rows 7 and 2 mirror rows 1 and 5: every residual is equal in
        magnitude on each pair, so a pair member is never picked before its
        lower-index partner, under either least-squares routine."""
        if residual == "gelsd":
            monkeypatch.setattr(lagrom.sampling, "_gappy_residual",
                                _lstsq_residual)
        basis = rng.normal(size=(10, 3))
        basis[7] = -basis[1]
        basis[2] = -basis[5]
        got = list(greedy_sample_indices(basis, 10).indices)
        assert got.index(1) < got.index(7)
        assert got.index(2) < got.index(5)
        assert got == _setdiff_greedy(basis, 10)

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_load_pattern_ties_independent_of_solver(self, seed, monkeypatch):
        """Orthonormalized load patterns have entries equal in size along a
        chord line, so residual magnitudes tie in exact arithmetic; the
        picks take the lowest tied index under ``gelsy`` and ``gelsd``
        alike."""
        rng = np.random.default_rng(seed)
        model = build_truss(5, np.zeros(16))
        phi = random_orthonormal(rng, model.dof_count, 4)
        loads = np.linalg.qr(model.load_patterns().T)[0]
        basis = np.linalg.qr(np.column_stack([phi, loads]))[0]
        got = list(greedy_sample_indices(basis, 30).indices)
        assert got == _setdiff_greedy(basis, 30)
        monkeypatch.setattr(lagrom.sampling, "_gappy_residual", _lstsq_residual)
        assert list(greedy_sample_indices(basis, 30).indices) == got

    def test_first_n_block_nonsingular(self, rng):
        """The leading indices must support the square sparse-basis block."""
        for trial in range(25):
            local = np.random.default_rng(trial)
            phi = random_orthonormal(local, 20, 4)
            s = greedy_sample_indices(phi, 8)
            block = phi[s.indices[:4], :]
            assert np.linalg.matrix_rank(block) == 4


def _bruteforce_greedy(basis, m):
    """Independent re-implementation: cyclic column visits, least-squares
    reconstruction (``np.linalg.lstsq``) on selected rows over previously
    visited columns, exact argmax."""
    k = basis.shape[1]
    selected, visited = [], []
    for step in range(m):
        col = step % k
        c = basis[:, col]
        prior = [j for j in visited if j != col]
        if prior and selected:
            coeff, *_ = np.linalg.lstsq(
                basis[np.ix_(selected, prior)], c[selected], rcond=None)
            resid = c - basis[:, prior] @ coeff
        else:
            resid = c.copy()
        if col not in visited:
            visited.append(col)
        mags = np.abs(resid)
        mags[selected] = -1.0
        selected.append(int(np.argmax(mags)))
    return selected


def _lstsq_residual(basis, col, visited, selected):
    """``_gappy_residual`` with the fit by ``np.linalg.lstsq`` (LAPACK
    ``gelsd``, an SVD) in place of ``gelsy``."""
    c = basis[:, col]
    prior = [j for j in visited if j != col]
    if not prior or not selected:
        return c
    coeffs, *_ = np.linalg.lstsq(basis[np.ix_(selected, prior)], c[selected],
                                 rcond=None)
    return c - basis[:, prior] @ coeffs


def _setdiff_greedy(basis, m):
    """Reference selection loop that recomputes the remaining rows with
    ``np.setdiff1d`` at every step; magnitudes within ``TIE_RTOL`` of the
    largest are tied and the lowest remaining index among them wins."""
    def argmax_abs(values, candidates):
        mags = np.abs(values[candidates])
        best = mags.max() if mags.size else 0.0
        if best == 0.0:
            return None
        return int(candidates[np.argmax(mags >= (1.0 - TIE_RTOL) * best)])

    big_n, k = basis.shape
    selected, visited = [], []
    step = 0
    while len(selected) < m:
        col = step % k
        step += 1
        remaining = np.setdiff1d(np.arange(big_n), selected)
        residual = _gappy_residual(basis, col, visited, selected)
        if col not in visited:
            visited.append(col)
        pick = argmax_abs(residual, remaining)
        if pick is None:
            for fallback in range(1, k + 1):
                pick = argmax_abs(basis[:, (col + fallback) % k], remaining)
                if pick is not None:
                    break
            if pick is None:
                pick = int(remaining[0])
        selected.append(pick)
    return selected


class TestValidateSampleSet:
    def test_size_rule_pass(self, rng):
        phi = random_orthonormal(rng, 12, 3)
        s = greedy_sample_indices(phi, 3)
        op = rng.normal(size=(6, 6))   # (9 + 3) / 2 == 6 entries, 6 matrices
        assert validate_sample_set(s, op) == []

    def test_size_rule_fail(self, rng):
        s = SampleIndexSet(np.array([0]), 12)
        problems = validate_sample_set(s, np.ones((1, 2)))   # (1 + 1) / 2 < 2
        assert problems == ["(m^2+m)/2 = 1 < 2 basis matrices",
                            "vectorized sampled operator rank 1 < 2"]

    def test_full_sampling_passes(self, rng):
        phi = random_orthonormal(rng, 10, 3)
        s = greedy_sample_indices(phi, 10)
        modes = [random_spd(rng, 10) for _ in range(3)]
        op = build_matrix_gappy_basis(np.eye(3), training_blocks(modes, phi, s)
                                      ).sampled_operator
        assert validate_sample_set(s, op) == []
