import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from lagrom.truss import (ForcingConfig, build_truss, damping_matrix,
                          fundamental_frequency, rayleigh_coefficients,
                          rayleigh_matrix, validate_parameters)


def band_of(dense, half):
    """LAPACK band storage of ``dense``: entry (i, j) at [half + i - j, j]."""
    n = dense.shape[0]
    band = np.zeros((2 * half + 1, n))
    for k in range(-half, half + 1):
        j = np.arange(max(0, -k), min(n, n - k))
        band[half + k, j] = dense[j + k, j]
    return band


@pytest.fixture(scope="module")
def model():
    return build_truss(4, np.zeros(16))


@pytest.fixture(scope="module")
def forcing(model):
    return ForcingConfig(nominal_amplitudes=(2 * 9.81, 2 * 9.81,
                                             0.4 * 9.81, 0.4 * 9.81),
                         omega0=fundamental_frequency(model), final_time=25.0)


class TestGeometry:
    def test_dof_counts(self):
        assert build_truss(1, np.zeros(16)).dof_count == 12
        assert build_truss(250, np.zeros(16)).dof_count == 3000

    def test_sixteen_elements_per_bay(self, model):
        assert len(model.elements) == 16 * model.bays

    def test_parameterized_length(self):
        mu = np.zeros(16)
        mu[0] = 1.0
        assert build_truss(2, mu).total_length == 250.0

    def test_parameterized_section(self):
        mu = np.zeros(16)
        mu[1], mu[2], mu[3] = 0.5, -0.2, 0.4
        m = build_truss(2, mu)
        assert np.isclose(m.area, 0.0025 * 1.25)
        assert np.isclose(m.width, 8.0)
        assert np.isclose(m.height, 14.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            validate_parameters(np.zeros(15))
        bad = np.zeros(16)
        bad[2] = -1.5
        with pytest.raises(ValueError, match="geometry"):
            validate_parameters(bad)
        force_off = np.zeros(16)
        force_off[8:] = -2.0  # documented force-off sentinel
        validate_parameters(force_off)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, value):
        mu = np.zeros(16)
        mu[5] = value
        with pytest.raises(ValueError, match="finite"):
            validate_parameters(mu)

    def test_half_bandwidth_independent_of_bays(self):
        assert build_truss(1, np.zeros(16)).half_bandwidth == 11
        for bays in (2, 3, 7, 40):
            assert build_truss(bays, np.zeros(16)).half_bandwidth == 23

    def test_kinematic_stability(self, model):
        k0 = model.tangent_stiffness(np.zeros(model.dof_count))
        assert np.linalg.eigvalsh(k0)[0] > 0


class TestMass:
    def test_symmetric_and_spd(self, model):
        m = model.mass_dense()
        assert np.abs(m - m.T).max() == 0.0
        assert np.linalg.eigvalsh(m)[0] > 0

    def test_consistent_mass_quadrature_oracle(self):
        """Element mass block against the two-point quadrature of the
        consistent-mass integral for a linear bar."""
        model = build_truss(1, np.zeros(16))
        rho, a = model.density, model.area
        element = 0  # a chord: clamped node -> free node
        length = model.el_length[element]
        # Quadrature of rho*a*int N_i N_j ds with linear shape functions,
        # two-point Gauss (exact for quadratics).
        pts = np.array([-1.0, 1.0]) / np.sqrt(3.0)
        wts = np.array([1.0, 1.0])
        shapes = np.stack([(1 - pts) / 2, (1 + pts) / 2])
        block = np.zeros((2, 2))
        for w, col in zip(wts, shapes.T):
            block += w * np.outer(col, col)
        block *= rho * a * length / 2
        assert np.allclose(block, rho * a * length / 6 * np.array([[2.0, 1.0],
                                                                   [1.0, 2.0]]))
        # The free-node diagonal entry of this single element.
        dof = model.el_dof2[element, 0]
        entry = model.mass_entries([dof], [dof])[0, 0]
        incident = model.elements_for_dofs([dof])
        expected = sum(2.0 * model.el_mass_coeff[e] for e in incident
                       if model.el_dof2[e, 0] == dof or model.el_dof1[e, 0] == dof)
        assert np.isclose(entry, expected)

    def test_mass_linear_in_area(self):
        mu = np.zeros(16)
        m1 = build_truss(2, mu).mass_dense()
        mu2 = mu.copy()
        mu2[1] = 1.0  # area factor 1.5
        m2 = build_truss(2, mu2).mass_dense()
        assert np.allclose(m2, 1.5 * m1)

    def test_spd_over_parameter_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mu = rng.uniform(-1, 1, size=16)
            m = build_truss(2, mu).mass_dense()
            assert np.linalg.eigvalsh(m)[0] > 0

    def test_sparse_matrix_matches_dense(self, model):
        sparse = model.mass_matrix()
        assert np.array_equal(sparse.toarray(), model.mass_dense())


class TestPotential:
    def test_zero_at_equilibrium(self, model):
        zero = np.zeros(model.dof_count)
        assert model.potential_energy(zero) == 0.0
        assert np.array_equal(model.internal_force(zero), zero)

    def test_gradient_matches_finite_differences(self, model):
        rng = np.random.default_rng(1)
        q = 0.05 * rng.normal(size=model.dof_count)
        grad = model.internal_force(q)
        h = 1e-6
        idx = rng.permutation(model.dof_count)[:12]
        for i in idx:
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            fd = (model.potential_energy(qp) - model.potential_energy(qm)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(np.abs(grad).max(), 1.0)

    def test_hessian_matches_finite_differences(self, model):
        rng = np.random.default_rng(2)
        q = 0.05 * rng.normal(size=model.dof_count)
        hess = model.tangent_stiffness(q)
        h = 1e-6
        for i in rng.permutation(model.dof_count)[:6]:
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            fd = (model.internal_force(qp) - model.internal_force(qm)) / (2 * h)
            assert np.abs(fd - hess[:, i]).max() <= 1e-5 * np.abs(hess).max()

    def test_energy_is_line_integral_of_gradient(self, model):
        rng = np.random.default_rng(3)
        q = 0.1 * rng.normal(size=model.dof_count)
        # Gauss-Legendre line quadrature of grad V along the straight path.
        nodes, weights = np.polynomial.legendre.leggauss(24)
        ts = 0.5 * (nodes + 1.0)
        integral = 0.5 * sum(w * float(model.internal_force(t * q) @ q)
                             for w, t in zip(weights, ts))
        value = model.potential_energy(q)
        assert abs(integral - value) <= 1e-6 * max(abs(value), 1.0)

    def test_stiffness_exactly_symmetric(self, model):
        rng = np.random.default_rng(4)
        q = 0.05 * rng.normal(size=model.dof_count)
        k = model.tangent_stiffness(q)
        assert np.abs(k - k.T).max() == 0.0

    def test_element_collapse_detected(self):
        model = build_truss(1, np.zeros(16))
        q = np.zeros(model.dof_count)
        node = model.elements[0][1]  # free end of the first chord
        # Move the node onto its clamped partner: zero deformed length.
        q[3 * (node - 4): 3 * (node - 4) + 3] = (model.node_coords[model.elements[0][0]]
                                                 - model.node_coords[node])
        with pytest.raises(FloatingPointError, match="collapse"):
            model.potential_energy(q)


class TestSampledEvaluators:
    def test_bit_for_bit_agreement(self, model):
        rng = np.random.default_rng(5)
        n = model.dof_count
        rows = np.sort(rng.permutation(n)[:9])
        cols = np.sort(rng.permutation(n)[:7])
        dq_idx = np.sort(rng.permutation(n)[:6])
        dq_val = 0.02 * rng.normal(size=6)
        q_sparse = np.zeros(n)
        q_sparse[dq_idx] = dq_val
        q_dense = 0.03 * rng.normal(size=n)

        assert np.array_equal(model.internal_force_rows(rows, dq_idx, dq_val),
                              model.internal_force(q_sparse)[rows])
        assert np.array_equal(model.internal_force_rows_dense(rows, q_dense),
                              model.internal_force(q_dense)[rows])
        assert np.array_equal(
            model.tangent_stiffness_block(rows, cols, dq_idx, dq_val),
            model.tangent_stiffness(q_sparse)[np.ix_(rows, cols)])
        assert np.array_equal(model.tangent_stiffness_rows_dense(rows, q_dense),
                              model.tangent_stiffness(q_dense)[rows, :])
        assert np.array_equal(model.mass_entries(rows, cols),
                              model.mass_dense()[np.ix_(rows, cols)])

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_sampled_evaluators_slice_full_ones(self, data):
        bays = data.draw(st.integers(1, 5), label="bays")
        n = 12 * bays
        index_sets = st.lists(st.integers(0, n - 1), max_size=n, unique=True)
        rows = np.array(data.draw(index_sets, label="rows"), dtype=int)
        cols = np.array(data.draw(index_sets, label="cols"), dtype=int)
        dq_idx = np.array(data.draw(index_sets, label="dq_idx"), dtype=int)
        dq_val = np.array(data.draw(st.lists(
            st.floats(-0.05, 0.05), min_size=dq_idx.size, max_size=dq_idx.size),
            label="dq_val"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        model = build_truss(bays, rng.uniform(-1.0, 1.0, size=16))
        q_sparse = np.zeros(n)
        q_sparse[dq_idx] = dq_val
        q_dense = 0.03 * rng.normal(size=n)
        block = np.ix_(rows, cols)

        assert np.array_equal(model.internal_force_rows(rows, dq_idx, dq_val),
                              model.internal_force(q_sparse)[rows])
        assert np.array_equal(model.internal_force_rows_dense(rows, q_dense),
                              model.internal_force(q_dense)[rows])
        assert np.array_equal(
            model.tangent_stiffness_block(rows, cols, dq_idx, dq_val),
            model.tangent_stiffness(q_sparse)[block])
        assert np.array_equal(model.tangent_stiffness_rows_dense(rows, q_dense),
                              model.tangent_stiffness(q_dense)[rows, :])
        assert np.array_equal(model.mass_entries(rows, cols),
                              model.mass_dense()[block])
        dense = model.tangent_stiffness(q_dense)
        half = model.half_bandwidth
        assert not np.any(np.triu(dense, half + 1))
        assert not np.any(np.tril(dense, -half - 1))
        assert np.array_equal(model.tangent_stiffness_band(q_dense),
                              band_of(dense, half))
        full = model.potential_energy(q_sparse)
        assert (abs(model.potential_energy_sparse(dq_idx, dq_val) - full)
                <= 1e-12 * abs(full))

    def test_sparse_potential_exact(self, model):
        rng = np.random.default_rng(6)
        dq_idx = np.sort(rng.permutation(model.dof_count)[:5])
        dq_val = 0.05 * rng.normal(size=5)
        q = np.zeros(model.dof_count)
        q[dq_idx] = dq_val
        full = model.potential_energy(q)
        # Resting elements contribute exactly zero; only summation order
        # differs between the two evaluations.
        assert (abs(model.potential_energy_sparse(dq_idx, dq_val) - full)
                <= 1e-12 * abs(full))


class TestRayleigh:
    def test_zero_damping(self, model):
        alpha, beta, c = rayleigh_matrix(model, 0.0)
        assert alpha == beta == 0.0
        assert np.array_equal(c, np.zeros_like(c))

    def test_hand_two_by_two(self):
        # Two modes at omega = 2 and 4, target ratio 0.1.
        alpha, beta = rayleigh_coefficients(np.eye(2), np.diag([4.0, 16.0]), 0.1)
        assert np.isclose(alpha, 4.0 / 15.0)
        assert np.isclose(beta, 1.0 / 30.0)
        for w in (2.0, 4.0):
            assert np.isclose(alpha / (2 * w) + beta * w / 2, 0.1)

    def test_modal_ratio_on_truss(self, model):
        zeta = np.sin(np.deg2rad(5.0))
        alpha, beta, c = rayleigh_matrix(model, zeta)
        k0 = model.tangent_stiffness(np.zeros(model.dof_count))
        lam = scipy.linalg.eigh(k0, model.mass_dense(), eigvals_only=True,
                                subset_by_index=[0, 4])
        freqs = np.sqrt(lam)
        w1 = freqs[0]
        w2 = next(w for w in freqs[1:] if w > w1 * (1 + 1e-6))
        for w in (w1, w2):
            assert abs(alpha / (2 * w) + beta * w / 2 - zeta) <= 1e-10
        assert np.abs(c - c.T).max() == 0.0
        assert np.linalg.eigvalsh(c)[0] >= -1e-10

    def test_degenerate_pencil_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            rayleigh_coefficients(np.eye(2), 4.0 * np.eye(2), 0.1)

    def test_damping_matrix_with_fixed_coefficients(self, model):
        c = damping_matrix(model, 0.1, 0.01)
        k0 = model.tangent_stiffness(np.zeros(model.dof_count))
        assert np.allclose(c, 0.1 * model.mass_dense() + 0.01 * k0)


class TestExternalForce:
    def test_zero_before_onset(self, model, forcing):
        assert np.array_equal(model.external_force(1.0, forcing),
                              np.zeros(model.dof_count))

    def test_zero_at_onset(self, model, forcing):
        f = model.external_force(forcing.final_time / 4.0, forcing)
        assert np.abs(f).max() == 0.0

    def test_nonzero_after_onset(self, model, forcing):
        assert np.abs(model.external_force(10.0, forcing)).max() > 0.0

    def test_force_off_sentinel(self, forcing):
        mu = np.zeros(16)
        mu[8:] = -2.0
        quiet = build_truss(4, mu)
        assert np.abs(quiet.external_force(10.0, forcing)).max() == 0.0

    def test_sampled_rows_match(self, model, forcing):
        rng = np.random.default_rng(8)
        rows = rng.permutation(model.dof_count)[:7]
        full = model.external_force(11.3, forcing)
        assert np.array_equal(model.external_force_rows(rows, 11.3, forcing),
                              full[rows])


class TestInitialDisplacement:
    def test_zero_scales_give_zero(self, model, forcing):
        mu = np.zeros(16)
        mu[4:8] = -2.0
        # IC scales outside the unit box are invalid parameters.
        with pytest.raises(ValueError):
            build_truss(4, mu)
        quiet = ForcingConfig(nominal_amplitudes=(0.0, 0.0, 0.0, 0.0),
                              omega0=forcing.omega0)
        assert np.array_equal(model.initial_displacement(quiet),
                              np.zeros(model.dof_count))

    def test_static_residual_tolerance(self, model, forcing):
        load = forcing.nominal_amplitudes[0] * model.load_patterns()[0]
        x = model.static_displacement(load)
        rel = np.linalg.norm(model.internal_force(x) - load) / np.linalg.norm(load)
        assert rel <= 1e-6

    def test_singular_shift_skipped(self, model, forcing, monkeypatch):
        # The unshifted tangent is reported singular at every iterate; the
        # Levenberg-shifted ones still reach the static solution.
        solve_banded = scipy.linalg.solve_banded
        unshifted = []   # right-hand sides, one per iterate

        def failing_unshifted(l_and_u, ab, b, **kwargs):
            if not unshifted or not np.array_equal(unshifted[-1], b):
                unshifted.append(b)
                raise np.linalg.LinAlgError("singular matrix")
            return solve_banded(l_and_u, ab, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_banded", failing_unshifted)
        load = forcing.nominal_amplitudes[0] * model.load_patterns()[0]
        x = model.static_displacement(load)
        rel = np.linalg.norm(model.internal_force(x) - load) / np.linalg.norm(load)
        assert unshifted and rel <= 1e-6

    def test_linear_elastic_limit(self, model):
        k0 = model.tangent_stiffness(np.zeros(model.dof_count))
        load = 1e-3 * model.load_patterns()[1]  # small load: linear regime
        x = model.static_displacement(load)
        x_lin = np.linalg.solve(k0, load)
        assert np.linalg.norm(x - x_lin) <= 1e-3 * np.linalg.norm(x_lin)


class TestTipDisplacement:
    def test_zero(self, model):
        assert model.tip_displacement(np.zeros(model.dof_count)) == 0.0

    def test_unit_entry(self, model):
        q = np.zeros(model.dof_count)
        q[model.tip_dof] = 1.0
        assert model.tip_displacement(q) == 1.0

    def test_matches_index_map_oracle(self, model):
        rng = np.random.default_rng(9)
        q = rng.normal(size=model.dof_count)
        # Independent index computation: corner 0 of the last section,
        # y-axis, numbered after removing the four clamped nodes.
        node = 4 * model.bays + 0
        expected = q[3 * (node - 4) + 1]
        assert model.tip_displacement(q) == expected
