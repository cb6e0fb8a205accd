import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import lagrom.band
import lagrom.truss
from lagrom.band import SymmetricBand
from lagrom.truss import (ForcingConfig, build_truss, damping_band,
                          fundamental_frequency, rayleigh_coefficients,
                          validate_parameters)

from conftest import band_of


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

    @pytest.mark.parametrize("bays", [2.7, 2.0, 0, -1])
    def test_bay_count_must_be_positive_integer(self, bays):
        with pytest.raises(ValueError, match="bay count"):
            build_truss(bays, np.zeros(16))

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

    @pytest.mark.parametrize("index, dimension", [(2, "width"), (3, "height")])
    def test_zero_section_dimension_rejected(self, index, dimension):
        """mu = -1 gives a section of zero width or height, so bars of zero
        length; it is the box edge, but no truss."""
        mu = np.zeros(16)
        mu[index] = -1.0
        with pytest.raises(ValueError, match="section %s" % dimension):
            build_truss(2, mu)

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
        dof = model.el_dofs[1][element, 0]
        entry = model.mass_entries([dof], [dof])[0, 0]
        incident = model.elements_for_dofs([dof])
        expected = sum(2.0 * model.el_mass_coeff[e] for e in incident
                       if model.el_dofs[1][e, 0] == dof or model.el_dofs[0][e, 0] == dof)
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
        with pytest.raises(FloatingPointError, match="collapse"):
            model.potential_energy(np.stack([np.zeros_like(q), q]))

    def test_stacked_potential_energies_equal_each_state(self, model):
        rng = np.random.default_rng(5)
        states = 0.05 * rng.normal(size=(6, model.dof_count))
        energies = model.potential_energy(states)
        each = np.array([model.potential_energy(q) for q in states])
        assert energies.shape == (6,)
        assert np.abs(energies - each).max() <= 1e-14 * np.abs(each).max()
        with pytest.raises(ValueError, match="%d entries" % model.dof_count):
            model.potential_energy(states[:, 1:])


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
        stiffness = model.tangent_stiffness_band(q_dense)
        assert np.array_equal(stiffness.ab, band_of(dense, half))
        # Every band operator: exact dense form, and products and solves
        # that agree with dense ones to round-off.  One or two bays have
        # half >= N - 1, so the storage has entries outside the matrix.
        alpha, beta = rng.uniform(0.01, 0.1), rng.uniform(1e-4, 1e-3)
        k0 = model.tangent_stiffness(np.zeros(n))
        pairs = ((stiffness, dense), (model.mass_band(), model.mass_dense()),
                 (damping_band(model, alpha, beta),
                  alpha * model.mass_dense() + beta * k0))
        x, xs = rng.normal(size=n), rng.normal(size=(n, 3))
        eps = np.finfo(float).eps
        for band, reference in pairs:
            assert np.array_equal(band.toarray(), reference)
            for rhs in (x, xs):
                bound = 4 * half * eps * (np.abs(reference) @ np.abs(rhs))
                assert np.all(np.abs(band @ rhs - reference @ rhs) <= bound)
            y = band.solve(x)
            assert (np.abs(reference @ y - x).max()
                    <= 1e-12 * np.abs(reference).sum(axis=1).max()
                    * np.abs(y).max())
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
        k0 = model.tangent_stiffness(np.zeros(model.dof_count))
        alpha, beta = rayleigh_coefficients(model.mass_dense(), k0, 0.0)
        assert alpha == beta == 0.0
        c = damping_band(model, alpha, beta).toarray()
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
        k0 = model.tangent_stiffness(np.zeros(model.dof_count))
        alpha, beta = rayleigh_coefficients(model.mass_dense(), k0, zeta)
        c = damping_band(model, alpha, beta).toarray()
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

    def test_damping_band_with_fixed_coefficients(self, model):
        c = damping_band(model, 0.1, 0.01).toarray()
        k0 = model.tangent_stiffness(np.zeros(model.dof_count))
        assert np.array_equal(c, 0.1 * model.mass_dense() + 0.01 * k0)


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
        solve = SymmetricBand.solve
        unshifted = []   # right-hand sides, one per iterate

        def failing_unshifted(band, b):
            if not unshifted or not np.array_equal(unshifted[-1], b):
                unshifted.append(b)
                raise np.linalg.LinAlgError("singular matrix")
            return solve(band, b)

        monkeypatch.setattr(SymmetricBand, "solve", failing_unshifted)
        load = forcing.nominal_amplitudes[0] * model.load_patterns()[0]
        x = model.static_displacement(load)
        rel = np.linalg.norm(model.internal_force(x) - load) / np.linalg.norm(load)
        assert unshifted and rel <= 1e-6

    def test_divergence_names_reason_and_load_fraction(self, model, forcing,
                                                       monkeypatch):
        # Increments up to half the load converge, larger ones fail: the
        # continuation halves the increment below 1/4096 and gives up.
        load = forcing.nominal_amplitudes[0] * model.load_patterns()[0]
        solve = lagrom.truss.newton

        def fails_past_half(residual, jacobian, x0, settings, reference_norm,
                            merit):
            result = solve(residual, jacobian, x0, settings, reference_norm,
                           merit)
            if reference_norm > 0.5 * np.linalg.norm(load):
                return dataclasses.replace(result, converged=False,
                                           reason="linesearch")
            return result

        monkeypatch.setattr(lagrom.truss, "newton", fails_past_half)
        with pytest.raises(RuntimeError,
                           match=r"load fraction 0\.5:.*'linesearch'"):
            model.static_displacement(load)

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


def test_band_operators_do_not_mix_with_dense(model):
    """A band and a dense matrix never combine silently: the sum, an
    elementwise product or a band-by-band product would be wrong."""
    band = model.mass_band()
    dense = model.mass_dense()
    for combine in (lambda: band + dense, lambda: dense + band,
                    lambda: dense * band, lambda: band * band):
        with pytest.raises(TypeError):
            combine()


def test_band_assembly_caches_band_scatters_only():
    """Full-order band assembly keeps one band scatter operator for the mass
    and one for the stiffness, and no index array with N x N entries (an
    operator with a row per dense entry would have one)."""
    lagrom.truss._plan_topology.cache_clear()
    model = build_truss(10, np.zeros(16))
    model.mass_band()
    model.tangent_stiffness_band(np.zeros(model.dof_count))
    topology = model._plan().topology
    assert [half for _, half in topology._matrix] == [model.half_bandwidth] * 2
    arrays = [value for value in vars(topology).values()
              if isinstance(value, np.ndarray)]
    for scatter in (topology.vector, *topology._matrix.values()):
        arrays += [scatter.indices, scatter.indptr, scatter.data]
        if scatter.dest is not None:
            arrays.append(scatter.dest)
    assert max(array.size for array in arrays) < model.dof_count**2


def test_singular_band_solve_raises():
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        SymmetricBand(np.zeros((3, 4))).solve(np.ones(4))


def test_models_with_one_bay_count_share_plan_topology():
    """Every model of a bay count reuses the parameter-independent part of
    its plans; the element constants stay the model's own."""
    rng = np.random.default_rng(3)
    first, second = (build_truss(3, rng.uniform(-1.0, 1.0, 16))
                     for _ in range(2))
    rows, cols = [17, 1, 5], [2, 30]
    for index_sets in ((), (rows,), (rows, cols)):
        assert (first._plan(*index_sets).topology
                is second._plan(*index_sets).topology)
    assert first._plan().topology is not build_truss(4, np.zeros(16))._plan().topology
    assert not np.array_equal(first._plan().vec, second._plan().vec)


def _reference_assembly(model, q):
    """Energy, force, stiffness and mass by the sequential scatter: element
    values stacked as +-blocks, gathered and summed with ``np.add.at`` in
    the full assembly's order (elements ascending; force second node
    first; matrix blocks in the order below).  Returns the energy's
    per-element terms and the dense arrays."""
    n = model.dof_count
    pad = np.append(q, 0.0)
    du = pad[model.el_dofs[1]] - pad[model.el_dofs[0]]
    vec, length_sq = model.el_vec, model.el_length_sq
    d = vec + du
    stretch = (2.0 * np.einsum("ij,ij->i", vec, du)
               + np.einsum("ij,ij->i", du, du))
    strain = stretch / (2.0 * length_sq)
    f2 = (model.ea_over_l * strain)[:, None] * d
    outer = np.einsum("ik,il->ikl", d, d) / length_sq[:, None, None]
    k22 = model.ea_over_l[:, None, None] * (strain[:, None, None] * np.eye(3)
                                           + outer)
    coeff = model.el_mass_coeff[:, None, None]

    force = np.zeros(n + 1)   # the last slot collects clamped dofs
    np.add.at(force, model.el_dofs[::-1].ravel(), np.stack([f2, -f2]).ravel())

    def matrix(blocks, values):
        out = np.zeros((n + 1, n + 1))
        for (row_end, col_end), block in zip(blocks, values):
            rows = model.el_dofs[row_end][:, :, None]
            cols = model.el_dofs[col_end][:, None, :]
            np.add.at(out, (np.broadcast_to(rows, block.shape),
                            np.broadcast_to(cols, block.shape)), block)
        return out[:n, :n]

    stiffness = matrix(((1, 1), (0, 0), (1, 0), (0, 1)),
                       np.stack([k22, k22, -k22, -k22]))
    mass = matrix(((0, 0), (1, 1), (0, 1), (1, 0)),
                  [coeff * (factor * np.eye(3)) for factor in (2.0, 2.0, 1.0, 1.0)])
    return 0.5 * model.el_eal * strain**2, force[:n], stiffness, mass


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_evaluators_equal_sequential_scatter(data):
    """Every evaluator, full and sampled, equals the sequential-scatter
    assembly bit for bit."""
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
    energy, force, stiffness, mass = _reference_assembly(model, q_dense)
    sparse_energy, sparse_force, sparse_stiffness, _ = _reference_assembly(
        model, q_sparse)
    block, half = np.ix_(rows, cols), model.half_bandwidth

    assert model.potential_energy(q_dense) == float(np.sum(energy))
    assert (model.potential_energy_sparse(dq_idx, dq_val)
            == float(np.sum(sparse_energy[model.elements_for_dofs(dq_idx)])))
    assert np.array_equal(model.internal_force(q_dense), force)
    assert np.array_equal(model.internal_force_rows(rows, dq_idx, dq_val),
                          sparse_force[rows])
    assert np.array_equal(model.internal_force_rows_dense(rows, q_dense),
                          force[rows])
    assert np.array_equal(model.tangent_stiffness(q_dense), stiffness)
    assert np.array_equal(model.tangent_stiffness_band(q_dense).ab,
                          band_of(stiffness, half))
    assert np.array_equal(
        model.tangent_stiffness_block(rows, cols, dq_idx, dq_val),
        sparse_stiffness[block])
    assert np.array_equal(model.tangent_stiffness_rows_dense(rows, q_dense),
                          stiffness[rows])
    assert np.array_equal(model.mass_dense(), mass)
    assert np.array_equal(model.mass_band().ab, band_of(mass, half))
    assert np.array_equal(model.mass_entries(rows, cols), mass[block])


def _bits(array) -> bytes:
    """Shape and bytes: equal only for arrays equal bit for bit, signed
    zeros included."""
    array = np.asarray(array)
    return repr(array.shape).encode() + array.tobytes()


@pytest.mark.parametrize("bays", [20, 40])
def test_rest_band_entries_equal_sampled_block(bays):
    """The at-rest block read off K(0)'s band equals the one its own plan
    assembles, for rows both within and beyond the half-bandwidth."""
    rng = np.random.default_rng(bays)
    model = build_truss(bays, rng.uniform(-1.0, 1.0, 16))
    rows = rng.choice(model.dof_count, size=24, replace=False)
    gap = np.abs(rows[:, None] - rows[None, :])
    assert np.any(gap > model.half_bandwidth)
    k0 = model.tangent_stiffness_band(np.zeros(model.dof_count))
    block = model.tangent_stiffness_block(rows, rows, [], [])
    assert _bits(k0.entries(rows, rows)) == _bits(block)
    assert np.any(block[gap <= model.half_bandwidth] != 0.0)


def test_geometry_equals_node_loop():
    model = build_truss(7, np.random.default_rng(4).uniform(-1.0, 1.0, 16))
    pitch = model.total_length / model.bays
    coords = np.empty((4 * (model.bays + 1), 3))
    for section in range(model.bays + 1):
        for corner, (wy, wz) in enumerate(lagrom.truss._CORNERS):
            coords[4 * section + corner] = (
                pitch * section, wy * model.width, wz * model.height)
    assert _bits(model.node_coords) == _bits(coords)


def test_models_with_one_bay_count_share_element_arrays():
    rng = np.random.default_rng(5)
    first, second = (build_truss(6, rng.uniform(-1.0, 1.0, 16))
                     for _ in range(2))
    assert first.elements is second.elements
    assert first.el_dofs is second.el_dofs
    assert first.half_bandwidth == second.half_bandwidth == 23
    for array in (first.elements, first.el_dofs):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0


def test_band_storage_is_read_only(model):
    """A band keeps its LU factor and product view, so its storage cannot
    change under them; ``shifted`` builds a new band."""
    q = 0.01 * np.random.default_rng(6).normal(size=model.dof_count)
    band = model.tangent_stiffness_band(q)
    rhs = np.ones(model.dof_count)
    x = band.solve(rhs)
    with pytest.raises(ValueError, match="read-only"):
        band.ab[band.half, 0] = 1.0
    shifted = band.shifted(1.0)
    assert np.array_equal(shifted.ab[band.half], band.ab[band.half] + 1.0)
    # The kept factor solves as a fresh one does.
    assert _bits(band.solve(rhs)) == _bits(x)
    assert _bits(SymmetricBand(band.ab.copy()).solve(rhs)) == _bits(x)


def test_at_rest_stiffness_assembled_once_per_model(model):
    zero = np.zeros(model.dof_count)
    k0 = model.tangent_stiffness_band(zero)
    assert model.tangent_stiffness_band(zero.copy()) is k0
    assert _bits(k0.ab) == _bits(build_truss(
        model.bays, model.mu).tangent_stiffness_band(zero).ab)
    assert model.tangent_stiffness_band(zero + 1e-3) is not k0


def test_kept_strain_follows_the_argument():
    """Evaluating at x, then y, then x returns what a fresh model returns
    at each point, bit for bit."""
    rng = np.random.default_rng(7)
    mu = rng.uniform(-1.0, 1.0, 16)
    model = build_truss(5, mu)
    x, y = 0.02 * rng.normal(size=(2, model.dof_count))
    evaluators = (
        lambda m, q: m.internal_force(q),
        lambda m, q: m.potential_energy(q),
        lambda m, q: m.tangent_stiffness_band(q).ab,
        lambda m, q: m.internal_force_rows_dense([3, 40], q))
    for point in (x, y, x, y, y, x):
        for evaluate in evaluators:
            assert (_bits(evaluate(model, point))
                    == _bits(evaluate(build_truss(5, mu), point)))
    rows = np.arange(12, 18)
    factor = rng.normal(size=(6, 4))
    kernel = model.potential_kernel(rows, factor)
    x_r, y_r = 0.01 * rng.normal(size=(2, 4))
    for point in (x_r, y_r, x_r, y_r, y_r, x_r):
        fresh = build_truss(5, mu).potential_kernel(rows, factor)
        assert kernel.energy(point) == fresh.energy(point)
        assert _bits(kernel.gradient(point)) == _bits(fresh.gradient(point))
        assert _bits(kernel.hessian(point)) == _bits(fresh.hessian(point))
    d, strain = model._plan().strain(model._plan().dense_source(x))
    assert not (d.flags.writeable or strain.flags.writeable)


def _count_deformations(monkeypatch):
    """Record the displacement differences of every strain evaluation."""
    points = []
    deformation = lagrom.truss.AssemblyPlan.deformation

    def counted(plan, du):
        points.append(du.tobytes())
        return deformation(plan, du)

    monkeypatch.setattr(lagrom.truss.AssemblyPlan, "deformation", counted)
    return points


def test_static_solve_evaluates_each_point_once(monkeypatch):
    """Residual, Jacobian and merit at one Newton point share its strains,
    including the returns of a backtracking linesearch to its iterate."""
    model = build_truss(20, np.random.default_rng(1).uniform(-1.0, 1.0, 16))
    load = 2 * 9.81 * model.load_patterns()[0]
    points = _count_deformations(monkeypatch)
    model.static_displacement(load)
    assert len(points) >= 10
    assert len(points) == len(set(points))


def test_initial_displacement_factors_rest_stiffness_once(monkeypatch):
    """The first Newton step of each of the four static solves starts from
    rest; they share one factorization of K(0), which is released when the
    initial condition is done, while the K(0) band stays."""
    rng = np.random.default_rng(2)
    model = build_truss(20, rng.uniform(-1.0, 1.0, 16))
    zero = np.zeros(model.dof_count)
    k0 = build_truss(20, model.mu).tangent_stiffness_band(zero)
    kept = model.tangent_stiffness_band(zero)
    factored = []
    gbtrf = lagrom.band._GBTRF

    def counted(ab, kl, ku, **kwargs):
        factored.append(ab[kl:].copy())
        return gbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(lagrom.band, "_GBTRF", counted)
    forcing = ForcingConfig(nominal_amplitudes=(2 * 9.81, 2 * 9.81,
                                                0.4 * 9.81, 0.4 * 9.81),
                            omega0=1.0)
    model.initial_displacement(forcing)
    assert sum(np.array_equal(ab, k0.ab) for ab in factored) == 1
    assert len({ab.tobytes() for ab in factored}) == len(factored)
    assert model.tangent_stiffness_band(zero) is kept
    kept.solve(np.ones(model.dof_count))
    assert sum(np.array_equal(ab, k0.ab) for ab in factored) == 2
