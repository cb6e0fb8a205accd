import re
import tracemalloc

import numpy as np
import pytest

import lagrom.truss

from lagrom.gappy import build_force_reconstructor
from lagrom.midpoint import NewtonSettings, State, midpoint_step
from lagrom.pod import compute_pod_basis
from lagrom.roms import (build_collocation, build_galerkin, build_gappy_rom,
                         build_structure_preserving, full_order_system,
                         integrate_full_model, integrate_rom,
                         reduced_total_energy, total_energy)
from lagrom.sampling import SampleIndexSet, greedy_sample_indices
from lagrom.spd_approx import build_matrix_gappy_basis, matrix_pod_modes, rbs_fit
from lagrom.truss import ForcingConfig, build_truss, fundamental_frequency

from conftest import QuadraticModel, random_orthonormal, random_spd


@pytest.fixture(scope="module")
def truss():
    return build_truss(2, np.zeros(16))


@pytest.fixture(scope="module")
def forcing(truss):
    return ForcingConfig(nominal_amplitudes=(2 * 9.81, 2 * 9.81,
                                             0.4 * 9.81, 0.4 * 9.81),
                         omega0=fundamental_frequency(truss), final_time=8.0)


@pytest.fixture(scope="module")
def basis(truss, forcing):
    traj = integrate_full_model(
        truss, 0.05, 4.0, forcing=forcing,
        state0=State(q=truss.initial_displacement(forcing),
                     v=np.zeros(truss.dof_count)))
    return compute_pod_basis(traj.q.T, 1.0 - 1e-8).columns


def sp_products(truss, phi, m, method="rbs"):
    sample_set = greedy_sample_indices(phi, m)
    if method == "rbs":
        product = rbs_fit([truss.mass_dense()], phi, sample_set)
    else:
        mass = [truss.mass_dense()]
        product = build_matrix_gappy_basis(matrix_pod_modes(mass, 1.0), mass, phi,
                                           sample_set)
    return sample_set, product


# Bases no builder accepts for the 24-dof truss.
BAD_BASES = (np.ones(24), np.ones((24, 3, 1)), np.ones((23, 3)), np.ones((3, 24)),
             np.full((24, 3), np.nan), np.full((24, 3), np.inf))
BAD_BASIS_IDS = ("1d", "3d", "rows", "transposed", "nan", "inf")
SAMPLED_BUILDERS = ("collocation", "gappy_pod", "sp_rbs")


def build_on(builder, truss, basis, phi, sample_set):
    """Build ``builder``'s model of ``phi`` on ``sample_set``, from offline
    products fitted to the valid ``basis`` on that set's indices."""
    if builder == "galerkin":
        return build_galerkin(truss, phi)
    if builder == "collocation":
        return build_collocation(truss, phi, sample_set)
    fit_set = SampleIndexSet(sample_set.indices, truss.dof_count)
    if builder == "gappy_pod":
        recs = dict.fromkeys(("mass", "damping", "potential", "force"),
                             build_force_reconstructor(basis, basis, fit_set))
        return build_gappy_rom(truss, phi, recs, sample_set)
    product = rbs_fit([truss.mass_dense()], basis, fit_set)
    return build_structure_preserving(truss, phi, sample_set, product)


def assert_basis_rejected(builder, truss, basis, phi):
    with pytest.raises(ValueError, match=r"\(24, n\).*%s" % (
            str(phi.shape).replace("(", r"\(").replace(")", r"\)"))):
        build_on(builder, truss, basis, phi, SampleIndexSet(np.arange(24), 24))


@pytest.mark.parametrize("phi", BAD_BASES, ids=BAD_BASIS_IDS)
@pytest.mark.parametrize("builder", SAMPLED_BUILDERS)
def test_sampled_builder_rejects_misshapen_or_nonfinite_basis(truss, basis,
                                                              builder, phi):
    assert_basis_rejected(builder, truss, basis, phi)


@pytest.mark.parametrize("builder", SAMPLED_BUILDERS)
def test_sample_set_of_another_model_rejected(truss, basis, builder):
    """A sample set drawn for a 48-dof truss does not sample this one."""
    with pytest.raises(ValueError, match="sample set over 48 dofs for a "
                                         "model of 24 dofs"):
        build_on(builder, truss, basis, basis, SampleIndexSet(np.arange(24), 48))


def test_misshapen_sampled_operator_rejected(truss, basis):
    """A term operator that is not (n, m) fails at build and names both
    shapes: the force reconstructor of SP and each gappy POD term."""
    sample_set = greedy_sample_indices(basis, 12)
    n, m = basis.shape[1], sample_set.m
    good = np.zeros((n, m))
    product = rbs_fit([truss.mass_dense()], basis, sample_set)
    for shape in ((n, m - 1), (n - 1, m), (m, n), (n * m,)):
        expected = r"operator of shape %s, expected \(n, m\) = \(%d, %d\)" % (
            re.escape(str(shape)), n, m)
        with pytest.raises(ValueError, match="force reconstructor " + expected):
            build_structure_preserving(truss, basis, sample_set, product,
                                       force_reconstructor=np.zeros(shape))
        for term in ("mass", "damping", "potential", "force"):
            recs = dict.fromkeys(("mass", "damping", "potential", "force"), good)
            recs[term] = np.zeros(shape)
            with pytest.raises(ValueError, match=term + " reconstructor " + expected):
                build_gappy_rom(truss, basis, recs, sample_set)


def replaced_force(model, phi, operator, sample_set, forcing):
    """The reduced force as the builders formed it from the sampled rows of
    the full load (Galerkin: the projection of the full load)."""
    if operator is None:
        return lambda t: phi.T @ model.external_force(t, forcing)
    return lambda t: operator @ model.external_force_rows(sample_set.indices,
                                                          t, forcing)


@pytest.mark.parametrize("amplitudes", ["on", "off"])
@pytest.mark.parametrize("variant", ["galerkin", "collocation", "gappy_pod",
                                     "sp_rbs"])
def test_reduced_loads_equal_sampled_row_force(truss, forcing, basis, variant,
                                               amplitudes):
    """Each variant's force from its reduced loads equals the replaced
    sampled-row form to round-off: zero before the load onset at t = 2,
    and zero throughout with every force amplitude switched off."""
    mu = np.zeros(16)
    if amplitudes == "off":
        mu[8:12] = -2.0
    model = build_truss(truss.bays, mu)
    sample_set = greedy_sample_indices(basis, 12)
    force_basis = np.linalg.qr(model.load_patterns().T)[0]
    operator = build_force_reconstructor(basis, force_basis, sample_set)
    if variant == "galerkin":
        system = build_galerkin(model, basis, forcing=forcing)
        operator = None
    elif variant == "collocation":
        system = build_collocation(model, basis, sample_set, forcing=forcing)
        operator = basis[sample_set.indices].T
    elif variant == "gappy_pod":
        recs = dict.fromkeys(("mass", "damping", "potential", "force"), operator)
        system = build_gappy_rom(model, basis, recs, sample_set,
                                 forcing=forcing)
    else:
        system = build_structure_preserving(
            model, basis, sample_set,
            rbs_fit([model.mass_dense()], basis, sample_set),
            force_reconstructor=operator, forcing=forcing)
    expected = replaced_force(model, basis, operator, sample_set, forcing)
    for t in (0.0, 1.9, 2.5, 5.5, 7.9):
        value, reference = system.force(t), expected(t)
        assert value.shape == (basis.shape[1],)
        if t < 2.0 or amplitudes == "off":
            assert not reference.any() and not value.any()
        else:
            assert np.abs(reference).max() > 0.0
            assert (np.abs(value - reference).max()
                    <= 1e-14 * np.abs(reference).max())


class TestGalerkin:
    def test_identity_basis_reproduces_full_model(self, truss, forcing):
        n = truss.dof_count
        alpha, beta = 0.05, 2e-4
        system = build_galerkin(truss, np.eye(n), alpha=alpha, beta=beta,
                                forcing=forcing)
        # The operators are the full model's exactly ...
        full_system = full_order_system(truss, alpha, beta, forcing)
        assert np.array_equal(system.mass_r, full_system.mass.toarray())
        assert np.array_equal(system.damping_r, full_system.damping.toarray())
        q = 0.01 * np.random.default_rng(0).normal(size=n)
        assert np.array_equal(system.grad(q), truss.internal_force(q))
        assert np.array_equal(system.hess(q),
                              truss.tangent_stiffness_band(q).toarray())
        # ... and the trajectories differ only by the round-off of banded
        # against dense LU and products (measured: 5e-16 in q, 7e-14 in v,
        # relative to the largest entry).
        state0 = State(q=truss.initial_displacement(forcing), v=np.zeros(n))
        rom = integrate_rom(system, 0.05, 1.0, state0=state0)
        full = integrate_full_model(truss, 0.05, 1.0, alpha=alpha, beta=beta,
                                    forcing=forcing, state0=state0)
        assert np.array_equal(rom.newton_iterations, full.newton_iterations)
        for ours, theirs in ((rom.q, full.q), (rom.v, full.v)):
            assert np.abs(ours - theirs).max() <= 1e-11 * np.abs(theirs).max()

    @pytest.mark.parametrize("phi", BAD_BASES, ids=BAD_BASIS_IDS)
    def test_misshapen_or_nonfinite_basis_rejected(self, truss, basis, phi):
        assert_basis_rejected("galerkin", truss, basis, phi)

    def test_reduced_mass_symmetric_positive(self, truss, basis):
        system = build_galerkin(truss, basis)
        assert np.abs(system.mass_r - system.mass_r.T).max() <= 1e-12
        assert np.linalg.eigvalsh(system.mass_r)[0] > 0

    def test_linear_modal_oracle(self):
        """For a quadratic potential and initial data inside the basis span,
        the Galerkin response equals the projected full response."""
        rng = np.random.default_rng(0)
        mass = random_spd(rng, 4, shift=2.0)
        stiffness = random_spd(rng, 4, shift=4.0)
        model = QuadraticModel(mass, stiffness)
        phi = random_orthonormal(rng, 4, 2)
        system = build_galerkin(model, phi)
        q_r0 = rng.normal(size=2)
        rom = integrate_rom(system, 0.01, 2.0,
                            settings=NewtonSettings(rel_tol=1e-12),
                            state0=State(q=q_r0, v=np.zeros(2)))
        # The reduced system is itself a 2-dof linear oscillator; integrate
        # the projected operators directly as the oracle.
        from lagrom.midpoint import SecondOrderSystem, implicit_midpoint_solve
        oracle = SecondOrderSystem(
            mass=phi.T @ mass @ phi, damping=np.zeros((2, 2)),
            grad=lambda q: (phi.T @ stiffness @ phi) @ q,
            hess=lambda q: phi.T @ stiffness @ phi,
            force=lambda t: np.zeros(2))
        ref = implicit_midpoint_solve(oracle, State(q=q_r0, v=np.zeros(2)),
                                      0.01, 2.0, NewtonSettings(rel_tol=1e-12))
        assert np.allclose(rom.q, ref.q, atol=1e-10)


class TestCollocation:
    def test_full_sampling_equals_galerkin(self, truss, forcing, basis):
        n = truss.dof_count
        sample_set = SampleIndexSet(np.arange(n), n)
        coll = build_collocation(truss, basis, sample_set, forcing=forcing)
        gal = build_galerkin(truss, basis, forcing=forcing)
        assert np.allclose(coll.mass_r, gal.mass_r, atol=1e-12)
        q_r = np.random.default_rng(1).normal(size=basis.shape[1])
        assert np.allclose(coll.grad(q_r), gal.grad(q_r), atol=1e-9)

    def test_partial_sampling_asymmetric(self, truss, basis):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sample_set = SampleIndexSet(
                rng.permutation(truss.dof_count)[:10], truss.dof_count)
            system = build_collocation(truss, basis, sample_set)
            asym = np.linalg.norm(system.mass_r - system.mass_r.T)
            assert asym / np.linalg.norm(system.mass_r) > 1e-6

    def test_sampled_rows_only(self, truss, basis):
        """The collocation gradient only reads the sampled equations."""
        sample_set = SampleIndexSet(np.arange(8), truss.dof_count)
        system = build_collocation(truss, basis, sample_set)
        q_r = 1e-3 * np.ones(basis.shape[1])
        expected = basis[sample_set.indices].T @ truss.internal_force(
            basis @ q_r)[sample_set.indices]
        assert np.allclose(system.grad(q_r), expected, atol=1e-12)


class TestGappyRom:
    def _reconstructors(self, truss, phi, sample_set, rng):
        terms = {}
        for name in ("mass", "damping", "potential", "force"):
            basis_cols = random_orthonormal(rng, truss.dof_count, 3)
            terms[name] = build_force_reconstructor(phi, basis_cols, sample_set)
        return terms

    def test_exact_bases_full_sampling_equals_galerkin(self, truss, forcing, basis):
        n = truss.dof_count
        sample_set = SampleIndexSet(np.arange(n), n)
        eye = np.eye(n)
        recs = {name: build_force_reconstructor(basis, eye, sample_set)
                for name in ("mass", "damping", "potential", "force")}
        rom = build_gappy_rom(truss, basis, recs, sample_set, forcing=forcing)
        gal = build_galerkin(truss, basis, forcing=forcing)
        assert np.allclose(rom.mass_r, gal.mass_r, atol=1e-10)
        q_r = np.random.default_rng(2).normal(size=basis.shape[1])
        assert np.allclose(rom.grad(q_r), gal.grad(q_r), atol=1e-8)
        assert np.allclose(rom.force(5.0), gal.force(5.0), atol=1e-10)

    def test_partial_sampling_asymmetric_mass(self, truss, basis, rng):
        sample_set = greedy_sample_indices(basis, 10)
        recs = self._reconstructors(truss, basis, sample_set, rng)
        rom = build_gappy_rom(truss, basis, recs, sample_set)
        asym = np.linalg.norm(rom.mass_r - rom.mass_r.T)
        assert asym / np.linalg.norm(rom.mass_r) > 1e-6

    def test_force_term_is_reconstructor_output(self, truss, forcing, basis, rng):
        """The force is the force reconstructor applied to the sampled
        load, up to the round-off of forming the reduced loads first."""
        from lagrom.gappy import apply_force_reconstructor
        sample_set = greedy_sample_indices(basis, 10)
        recs = self._reconstructors(truss, basis, sample_set, rng)
        rom = build_gappy_rom(truss, basis, recs, sample_set, forcing=forcing)
        t = 5.5
        sampled = truss.external_force(t, forcing)[sample_set.indices]
        expected = apply_force_reconstructor(recs["force"], sampled)
        assert (np.abs(rom.force(t) - expected).max()
                <= 1e-14 * np.abs(expected).max())


def test_sampled_projections_build_no_full_matrices(truss, forcing, basis,
                                                    rng, monkeypatch):
    """Collocation and gappy POD take their sampled mass and damping rows
    from the row plans, and Galerkin its mass and damping from the band
    operators of the full-order system, not from N x N matrices."""
    def refuse(*args, **kwargs):
        raise AssertionError("N x N matrix assembled")

    sample_set = greedy_sample_indices(basis, 10)
    recs = {name: build_force_reconstructor(
        basis, random_orthonormal(rng, truss.dof_count, 3), sample_set)
        for name in ("mass", "damping", "potential", "force")}
    alpha, beta = 0.05, 2e-4
    terms = dict(alpha=alpha, beta=beta, forcing=forcing)
    monkeypatch.setattr(type(truss), "mass_dense", refuse)
    coll = build_collocation(truss, basis, sample_set, **terms)
    gappy = build_gappy_rom(truss, basis, recs, sample_set, **terms)
    gal = build_galerkin(truss, basis, **terms)
    monkeypatch.undo()
    full_mass = truss.mass_dense()
    full_damping = (alpha * full_mass
                    + beta * truss.tangent_stiffness(np.zeros(truss.dof_count)))
    for reduced, full in ((gal.mass_r, full_mass),
                          (gal.damping_r, full_damping)):
        reference = basis.T @ full @ basis
        assert (np.abs(reduced - reference).max()
                <= 1e-12 * np.abs(reference).max())
    # The rows are the dense matrices' rows exactly.
    mass = full_mass[sample_set.indices]
    damping = full_damping[sample_set.indices]
    test_basis = basis[sample_set.indices].T
    assert np.array_equal(coll.mass_r, test_basis @ (mass @ basis))
    assert np.array_equal(coll.damping_r, test_basis @ (damping @ basis))
    assert np.array_equal(gappy.mass_r,
                          recs["mass"] @ (mass @ basis))
    assert np.array_equal(gappy.damping_r,
                          recs["damping"] @ (damping @ basis))


class TestStructurePreserving:
    def test_mass_symmetric_pd_over_draws(self, basis):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            mu = rng.uniform(-1, 1, size=16)
            model = build_truss(2, mu)
            phi = random_orthonormal(rng, model.dof_count, 4)
            sample_set, product = sp_products(model, phi, 8)
            system = build_structure_preserving(model, phi, sample_set, product)
            assert np.abs(system.mass_r - system.mass_r.T).max() <= 1e-12
            assert np.linalg.eigvalsh(system.mass_r)[0] > 0

    def test_conservative_case_drops_terms(self, truss, basis):
        sample_set, product = sp_products(truss, basis, 12)
        system = build_structure_preserving(truss, basis, sample_set, product)
        assert np.array_equal(system.damping_r, np.zeros_like(system.damping_r))
        assert np.array_equal(system.force(3.0),
                              np.zeros(system.mass_r.shape[0]))

    def test_fixed_parameter_methods_agree(self, truss, basis):
        """Trained and evaluated at one parameter, both mass approximations
        reproduce the same reduced mass."""
        sample_set, rbs_product = sp_products(truss, basis, 12, "rbs")
        _, gap_product = sp_products(truss, basis, 12, "matrix_gappy")
        sys1 = build_structure_preserving(truss, basis, sample_set, rbs_product)
        sys2 = build_structure_preserving(truss, basis, sample_set, gap_product)
        assert (sys1.variant, sys2.variant) == ("sp_rbs", "sp_matrix_gappy")
        ref = basis.T @ truss.mass_dense() @ basis
        assert np.linalg.norm(sys1.mass_r - ref) <= 1e-7 * np.linalg.norm(ref)
        assert np.linalg.norm(sys2.mass_r - ref) <= 1e-7 * np.linalg.norm(ref)

    def test_build_assembles_no_full_stiffness(self, truss, basis,
                                               monkeypatch):
        """The reduced equilibrium Hessian comes from the band, O(N n)."""
        sample_set, product = sp_products(truss, basis, 12)

        def refuse(*args, **kwargs):
            raise AssertionError("N x N tangent stiffness assembled")

        monkeypatch.setattr(type(truss), "tangent_stiffness", refuse)
        system = build_structure_preserving(truss, basis, sample_set, product,
                                            alpha=0.05, beta=2e-4)
        monkeypatch.undo()
        k0 = truss.tangent_stiffness(np.zeros(truss.dof_count))
        ref = basis.T @ k0 @ basis
        assert (np.abs(system.damping_r - 0.05 * system.mass_r - 2e-4 * ref).max()
                <= 1e-12 * 2e-4 * np.abs(ref).max())

    def test_fewer_samples_than_basis_width_rejected(self, truss, basis):
        """m < n cannot carry the n x n potential map; the error names both."""
        sample_set, product = sp_products(truss, basis, basis.shape[1])
        fewer = SampleIndexSet(sample_set.indices[:-2], truss.dof_count)
        with pytest.raises(ValueError, match="m = %d dofs for a basis of n = %d"
                           % (fewer.m, basis.shape[1])):
            build_structure_preserving(truss, basis, fewer, product)

    def test_unknown_mass_product_rejected(self, truss, basis):
        sample_set, _ = sp_products(truss, basis, 12)
        with pytest.raises(TypeError, match="RBSMap or a MatrixGappyBasis"):
            build_structure_preserving(truss, basis, sample_set,
                                       truss.mass_dense())

    @pytest.mark.parametrize("method, name", [("rbs", "RBSMap"),
                                              ("matrix_gappy",
                                               "MatrixGappyBasis")])
    def test_mass_product_of_another_width_rejected(self, truss, basis,
                                                    method, name):
        """A product fitted to a 6-column basis, passed with 5 columns."""
        sample_set, product = sp_products(truss, basis[:, :6], 12, method)
        with pytest.raises(ValueError, match=re.escape(
                "%s mass product of reduced size (6, 6) for a basis of n = 5"
                % name)):
            build_structure_preserving(truss, basis[:, :5], sample_set,
                                       product)

    def test_forcing_without_reconstructor_rejected(self, truss, forcing,
                                                   basis):
        sample_set, product = sp_products(truss, basis, 12)
        with pytest.raises(ValueError, match="forcing needs a "
                                             "force_reconstructor"):
            build_structure_preserving(truss, basis, sample_set, product,
                                       forcing=forcing)

    def test_smoke_integration_stable(self, truss, forcing, basis):
        sample_set, product = sp_products(truss, basis, 12)
        system = build_structure_preserving(truss, basis, sample_set, product)
        q0 = truss.initial_displacement(forcing)
        traj = integrate_rom(system, 0.05, 2.0,
                             state0=State(q=basis.T @ q0,
                                          v=np.zeros(basis.shape[1])))
        assert traj.stable

    def test_exactness_chain_matches_galerkin(self):
        """Exact mass (full-sampling congruence), quadratic potential, and
        in-range force make the structure-preserving model coincide with
        Galerkin."""
        rng = np.random.default_rng(3)
        big_n = 8
        mass = random_spd(rng, big_n, shift=3.0)
        stiffness = random_spd(rng, big_n, shift=5.0)
        pattern = rng.normal(size=big_n)
        model = QuadraticModel(mass, stiffness, force_pattern=pattern)
        phi = random_orthonormal(rng, big_n, 3)
        sample_set = SampleIndexSet(rng.permutation(big_n), big_n)
        product = rbs_fit([mass], phi, sample_set)
        force_rec = build_force_reconstructor(
            phi, pattern[:, None] / np.linalg.norm(pattern), sample_set)
        sp = build_structure_preserving(model, phi, sample_set, product,
                                        force_reconstructor=force_rec,
                                        forcing=object())
        gal = build_galerkin(model, phi, forcing=object())
        settings = NewtonSettings(rel_tol=1e-12)
        state0 = State(q=rng.normal(size=3), v=np.zeros(3))
        t1 = integrate_rom(sp, 0.02, 2.0, settings=settings, state0=state0)
        t2 = integrate_rom(gal, 0.02, 2.0, settings=settings, state0=state0)
        assert np.abs(t1.q - t2.q).max() <= 1e-8


class TestEnergyAndReconstruction:
    def test_total_energy_zero_at_rest(self, truss):
        zero = np.zeros(truss.dof_count)
        assert total_energy(truss, zero, zero) == 0.0

    def test_total_energy_direct_formula(self, truss, rng):
        q = 0.01 * rng.normal(size=truss.dof_count)
        v = rng.normal(size=truss.dof_count)
        expected = 0.5 * v @ truss.mass_dense() @ v + truss.potential_energy(q)
        assert np.isclose(total_energy(truss, q, v), expected, rtol=1e-12)

    def test_reduced_energy_requires_potential(self, truss, basis):
        sample_set = SampleIndexSet(np.arange(10), truss.dof_count)
        system = build_collocation(truss, basis, sample_set)
        zeros = np.zeros(system.mass_r.shape[0])
        with pytest.raises(ValueError, match="potential"):
            reduced_total_energy(system, zeros, zeros)

    def test_sp_reduced_energy_bounded_conservative(self, truss, forcing, basis):
        sample_set, product = sp_products(truss, basis, 12)
        system = build_structure_preserving(truss, basis, sample_set, product)
        q0 = truss.initial_displacement(forcing)
        traj = integrate_rom(system, 0.02, 4.0,
                             state0=State(q=basis.T @ q0,
                                          v=np.zeros(basis.shape[1])),
                             record_energy=True)
        assert traj.stable
        drift = np.abs(traj.energy - traj.energy[0]).max()
        assert drift <= 5e-2 * max(abs(traj.energy[0]), np.ptp(traj.energy))


def test_full_order_stepping_allocates_no_square_matrix():
    """Full-order stepping keeps every operator banded.  The traced peak
    bounds every single block from above; the model's O(N) plan caches are
    filled by a first run so that the peak is the stepping's own."""
    model = build_truss(40, np.zeros(16))
    n = model.dof_count
    forcing = ForcingConfig(nominal_amplitudes=(2 * 9.81,) * 4, omega0=1.0,
                            final_time=0.2)
    state0 = State(q=1e-3 * np.random.default_rng(0).normal(size=n),
                   v=np.zeros(n))

    def run():
        return integrate_full_model(model, 0.05, 0.1, alpha=0.1, beta=1e-3,
                                    forcing=forcing, state0=state0,
                                    record_energy=True)

    run()
    tracemalloc.start()
    try:
        traj = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.stable and traj.n_steps == 2
    assert peak < n * n * 8


# Every TrussModel evaluator whose cost grows with N.
FULL_ORDER_EVALUATORS = (
    "internal_force", "tangent_stiffness", "tangent_stiffness_band",
    "potential_energy", "mass_band", "mass_dense", "external_force",
    "internal_force_rows_dense", "tangent_stiffness_rows_dense")


@pytest.mark.parametrize("method", ["rbs", "matrix_gappy"])
def test_sp_stepping_makes_no_full_order_call(truss, forcing, basis, method,
                                              monkeypatch):
    """Once built, a forced, damped SP model steps and records its energy
    through sampled evaluators only: its online cost does not depend on N."""
    sample_set, product = sp_products(truss, basis, 12, method)
    force_basis = np.linalg.qr(truss.load_patterns().T)[0]
    system = build_structure_preserving(
        truss, basis, sample_set, product, alpha=0.05, beta=2e-4,
        force_reconstructor=build_force_reconstructor(basis, force_basis,
                                                      sample_set),
        forcing=forcing)
    state0 = State(q=basis.T @ truss.initial_displacement(forcing),
                   v=np.zeros(basis.shape[1]))

    def refuse(*args, **kwargs):
        raise AssertionError("full-order evaluator called while stepping")

    for name in FULL_ORDER_EVALUATORS:
        monkeypatch.setattr(type(truss), name, refuse)
    # The loads start at a quarter of the forcing's final time, 2.0.
    traj = integrate_rom(system, 0.05, 3.0, state0=state0, record_energy=True)
    monkeypatch.undo()
    assert traj.stable and traj.n_steps == 60
    assert np.all(np.isfinite(traj.energy))
    assert np.any(system.force(2.5) != 0.0)


# Sample rows of one local pattern, the dofs of section 2, which carry a
# load of each of the four groups; the map takes the first six.
LOCAL_SAMPLES = np.arange(12, 24)


def local_sp_system(bays, n=6):
    """A forced, damped SP-RBS model on ``LOCAL_SAMPLES``, with a random
    basis, whose reduced dimensions do not depend on ``bays``."""
    rng = np.random.default_rng(0)
    model = build_truss(bays, np.zeros(16))
    phi = random_orthonormal(rng, model.dof_count, n)
    sample_set = SampleIndexSet(LOCAL_SAMPLES, model.dof_count)
    forcing = ForcingConfig(nominal_amplitudes=(2 * 9.81,) * 4, omega0=1.0,
                            final_time=0.4)
    force_basis = np.linalg.qr(model.load_patterns().T)[0]
    system = build_structure_preserving(
        model, phi, sample_set, rbs_fit([model.mass_dense()], phi, sample_set),
        alpha=0.05, beta=2e-4,
        force_reconstructor=build_force_reconstructor(phi, force_basis,
                                                      sample_set),
        forcing=forcing)
    return model, system, State(q=1e-3 * rng.normal(size=n), v=np.zeros(n))


def test_sp_kernel_touches_fixed_element_count():
    """The SP potential kernel lives on the one plan over its rows x rows
    and holds the elements incident to its rows only: the same count at 20
    and 40 bays for the same rows."""
    rows = LOCAL_SAMPLES[:6]
    shapes = []
    for bays in (20, 40):
        model = build_truss(bays, np.zeros(16))
        kernel = model.potential_kernel(rows, np.eye(rows.size))
        assert list(model._plans.values()) == [kernel.plan]
        assert kernel.plan is model._plan(rows, rows)
        shapes.append(kernel._flat.shape)     # D_e of every bar, (3 E, n)
    assert shapes[0] == shapes[1]
    assert shapes[0][0] <= 3 * 2 * 16   # bays 2 and 3 meet at section 2


def test_galerkin_kernel_lives_on_the_full_plan():
    """A Galerkin model of the element-sum width evaluates its potential on
    the model's one full plan, not on a second plan over every dof."""
    model = build_truss(20, np.zeros(16))
    dofs = model.dof_count
    phi = random_orthonormal(np.random.default_rng(0), dofs, 30)
    system = build_galerkin(model, phi, alpha=0.05, beta=2e-4)
    q_r = 1e-3 * phi[model.tip_dof]
    for evaluate in (system.grad, system.hess, system.potential):
        evaluate(q_r)
    assert list(model._plans.values()) == [model._plan()]
    assert (np.arange(dofs).tobytes(),) * 2 not in model._plans


@pytest.mark.parametrize("t0", [0.0, 0.2])
def test_sp_step_evaluates_each_point_once(t0, monkeypatch):
    """Gradient, Hessian and energy at one Newton point of an SP midpoint
    step share one kernel strain evaluation (unforced and forced)."""
    _, system, state0 = local_sp_system(20)
    points = []
    deformation = lagrom.truss.AssemblyPlan.deformation

    def counted(plan, du):
        points.append(du.tobytes())
        return deformation(plan, du)

    monkeypatch.setattr(lagrom.truss.AssemblyPlan, "deformation", counted)
    _, _, result = midpoint_step(system.second_order_system(), state0.q,
                                 state0.v, t0, 0.05)
    assert result.converged and result.iterations >= 1
    assert len(points) == len(set(points)) == result.iterations + 1


ELEMENT_SUM, CONGRUENCE = "element sum", "congruence"


def galerkin_forms(model, phi):
    """Both exact forms of ``phi^T K(phi q_r) phi``: the element sum of the
    reduced element kernel over every bar, and the band congruence."""
    return {ELEMENT_SUM: model.potential_kernel(None, phi).hessian,
            CONGRUENCE: lambda q_r: phi.T @ (
                model.tangent_stiffness_band(phi @ q_r) @ phi)}


def galerkin_takes(model, n, seed):
    """The form that the Galerkin model of a random orthonormal basis of
    width ``n`` takes, at a small random state."""
    rng = np.random.default_rng(seed)
    phi = random_orthonormal(rng, model.dof_count, n)
    return taken_form(build_galerkin(model, phi).hess,
                      galerkin_forms(model, phi), 1e-3 * rng.normal(size=n))


def taken_form(hess, forms, q_r):
    """The one of ``forms`` (form -> Hessian) whose value at ``q_r`` the
    Hessian ``hess`` reproduces bit for bit."""
    value = hess(q_r)
    taken = [form for form, each in forms.items()
             if np.array_equal(each(q_r), value)]
    assert len(taken) == 1
    return taken[0]


# Galerkin rows timed when the two forms were first calibrated: bays, n,
# the bars E its maps touch, and the form that measured faster.  (20 bays,
# n = 36) was retimed for the width rule; there the congruence is the
# faster form (README, reduced Hessians).
HESSIAN_TABLE = ((20, 13, 320, ELEMENT_SUM),
                 (40, 13, 640, ELEMENT_SUM),
                 (20, 36, 320, CONGRUENCE),
                 (40, 61, 640, CONGRUENCE))


@pytest.mark.parametrize("bays, n, elements, faster", HESSIAN_TABLE,
                         ids=["galerkin-%d-%d-%d-%s" % row for row in HESSIAN_TABLE])
def test_hessian_form_picks_the_faster_form(bays, n, elements, faster):
    """The Galerkin model takes each timed row's faster form from n alone;
    its maps touch every bar."""
    model = build_truss(bays, np.zeros(16))
    assert elements == len(model.elements)
    assert galerkin_takes(model, n, bays + n) == faster


@pytest.mark.parametrize("bays", [20, 40, 80])
def test_hessian_form_follows_basis_width(bays):
    """The Galerkin model takes the element sum up to its width and the
    congruence beyond it, at every bay count."""
    model = build_truss(bays, np.zeros(16))
    assert [galerkin_takes(model, n, bays) for n in (30, 31)] == [
        ELEMENT_SUM, CONGRUENCE]


@pytest.mark.parametrize("bays", [1, 2, 20])
def test_identity_basis_takes_the_band(bays):
    """A basis as wide as the model gets the full band's congruence, which
    the element sum would otherwise win at a few bays; one column narrower,
    it takes the element sum up to the width."""
    model = build_truss(bays, np.zeros(16))
    dofs = model.dof_count
    assert galerkin_takes(model, dofs, bays) == CONGRUENCE
    assert galerkin_takes(model, dofs - 1, bays) == (
        ELEMENT_SUM if bays <= 2 else CONGRUENCE)


@pytest.mark.parametrize("bays, n", [(20, 13), (20, 36), (40, 13), (40, 61)])
def test_galerkin_hessian_is_the_band_congruence(bays, n):
    """Both Hessian forms, and the one the Galerkin model takes, equal
    ``phi^T K(phi q_r) phi`` in the nonlinear range (the every-dof kernel's
    element sum also beyond Galerkin's width); the model's gradient
    and potential (of one state and of states stacked in rows) equal the
    projected full-order system's."""
    rng = np.random.default_rng(bays + n)
    model = build_truss(bays, rng.uniform(-0.5, 0.5, 16))
    phi = random_orthonormal(rng, model.dof_count, n)
    system = build_galerkin(model, phi)
    forms = galerkin_forms(model, phi)
    states = []
    for _ in range(3):
        q_r = rng.normal(size=n)
        q_r *= 0.5 / np.abs(phi @ q_r).max()   # bars are about 10 long
        states.append(q_r)
        reference = phi.T @ (model.tangent_stiffness(phi @ q_r) @ phi)
        for hess in (system.hess, *forms.values()):
            assert (np.linalg.norm(hess(q_r) - reference)
                    <= 1e-12 * np.linalg.norm(reference))
        grad = phi.T @ model.internal_force(phi @ q_r)
        assert (np.linalg.norm(system.grad(q_r) - grad)
                <= 1e-12 * np.linalg.norm(grad))
        energy = model.potential_energy(phi @ q_r)
        assert abs(system.potential(q_r) - energy) <= 1e-12 * energy
    states = np.stack(states)
    energies = model.potential_energy(states @ phi.T)
    assert system.potential(states).shape == (3,)
    assert (np.abs(system.potential(states) - energies).max()
            <= 1e-12 * energies.max())


@pytest.mark.parametrize("t0", [0.0, 0.2])
def test_galerkin_step_evaluates_each_point_once(t0, monkeypatch):
    """The Galerkin Hessian at a Newton point reads the strains of the
    residual there: one full-plan strain evaluation per distinct point."""
    model = build_truss(20, np.zeros(16))
    rng = np.random.default_rng(0)
    phi = random_orthonormal(rng, model.dof_count, 13)
    forcing = ForcingConfig(nominal_amplitudes=(2 * 9.81,) * 4, omega0=1.0,
                            final_time=0.4)
    system = build_galerkin(model, phi, alpha=0.05, beta=2e-4, forcing=forcing)
    points = []
    deformation = lagrom.truss.AssemblyPlan.deformation

    def counted(plan, du):
        points.append(du.tobytes())
        return deformation(plan, du)

    monkeypatch.setattr(lagrom.truss.AssemblyPlan, "deformation", counted)
    _, _, result = midpoint_step(system.second_order_system(),
                                 1e-3 * rng.normal(size=13), np.zeros(13), t0,
                                 0.05)
    assert result.converged and result.iterations >= 1
    assert len(points) == len(set(points)) == result.iterations + 1


def test_sp_model_at_criterion_10_size_holds_no_element_gram():
    """At 40 bays and n = 61 the SP Hessian is the n x n congruence: the
    built model keeps less than one (E, n^2) array of its E bars."""
    rng = np.random.default_rng(0)
    model = build_truss(40, np.zeros(16))
    n, m = 61, 96
    phi = random_orthonormal(rng, model.dof_count, n)
    sample_set = SampleIndexSet(rng.permutation(model.dof_count)[:m],
                                model.dof_count)
    product = rbs_fit([model.mass_dense()], phi, sample_set)
    model.tangent_stiffness_band(np.zeros(model.dof_count))
    tracemalloc.start()
    try:
        system = build_structure_preserving(model, phi, sample_set, product)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    elements = model._plan(sample_set.indices[:n]).topology.elements.size
    assert elements > 300
    assert held < elements * n * n * 8 / 4
    q_r = 1e-3 * rng.normal(size=n)
    assert np.all(np.isfinite(system.hess(q_r)))


def test_sp_stepping_memory_independent_of_dof_count():
    """After the build, SP stepping allocates nothing that grows with N:
    its traced peak at 80 bays is not above the one at 20 bays (an O(N)
    float array at 80 bays would add 7.7 kB)."""
    peaks = []
    for bays in (20, 80):
        _, system, state0 = local_sp_system(bays)

        def run():
            return integrate_rom(system, 0.05, 0.4, state0=state0,
                                 record_energy=True)

        run()
        tracemalloc.start()
        try:
            traj = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.stable and traj.n_steps == 8
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 1024


def test_structure_dichotomy(truss, rng):
    """Galerkin/SP reduced masses stay symmetric; collocation/gappy ones
    are measurably asymmetric for partial sampling."""
    for seed in range(50):
        local = np.random.default_rng(seed)
        phi = random_orthonormal(local, truss.dof_count, 4)
        sample_set = SampleIndexSet(
            local.permutation(truss.dof_count)[:9], truss.dof_count)
        gal = build_galerkin(truss, phi)
        coll = build_collocation(truss, phi, sample_set)
        scale = np.abs(gal.mass_r).max()
        assert np.abs(gal.mass_r - gal.mass_r.T).max() <= 1e-14 * scale
        asym = (np.linalg.norm(coll.mass_r - coll.mass_r.T)
                / np.linalg.norm(coll.mass_r))
        assert asym > 1e-6
