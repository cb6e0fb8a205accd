import dataclasses

import numpy as np
import pytest
import scipy.linalg

import lagrom.roms
from lagrom.gappy import build_force_reconstructor
from lagrom.midpoint import NewtonSettings, State
from lagrom.potential_map import (approx_reduced_gradient,
                                  approx_reduced_hessian, build_potential_map)
from lagrom.roms import build_structure_preserving, integrate_rom
from lagrom.sampling import SampleIndexSet, greedy_sample_indices
from lagrom.spd_approx import (build_matrix_gappy_basis, matrix_pod_modes,
                               rbs_fit, symmetrize, training_blocks)
from lagrom.truss import ForcingConfig, build_truss, fundamental_frequency

from conftest import (DenseKernel, random_orthonormal, random_spd,
                      sparse_map, stiefel_feasibility_search)


def dense_kernel(pmap, big_n, grad=None, hess=None):
    return DenseKernel(sparse_map(big_n, pmap.rows, pmap.factor), None,
                       grad, hess)


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
        kernel = dense_kernel(pmap, 10, grad=lambda q: h0 @ q)
        out = approx_reduced_gradient(kernel, np.zeros(3))
        assert np.array_equal(out, np.zeros(3))

    def test_quadratic_potential_reproduces_reduced_hessian(self, rng):
        h0, phi, pmap = self._setup(rng)
        kernel = dense_kernel(pmap, 10, grad=lambda q: h0 @ q)
        reduced = phi.T @ h0 @ phi
        for _ in range(5):
            q_r = rng.normal(size=3)
            out = approx_reduced_gradient(kernel, q_r)
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
        kernel = dense_kernel(pmap, big_n, grad=grad)
        reduced = phi.T @ h0 @ phi
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        eps = 1e-6
        out = approx_reduced_gradient(kernel, eps * direction)
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
        kernel = dense_kernel(pmap, big_n, hess=lambda q: h0)
        out = approx_reduced_hessian(kernel, np.zeros(3))
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
        kernel = dense_kernel(pmap, big_n, hess=hess)
        for _ in range(5):
            out = approx_reduced_hessian(kernel, rng.normal(size=3))
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
        kernel = dense_kernel(pmap, big_n, grad=grad, hess=hess)
        q_r = 0.3 * rng.normal(size=3)
        out = approx_reduced_hessian(kernel, q_r)
        h = 1e-5
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (approx_reduced_gradient(kernel, q_r + e)
                  - approx_reduced_gradient(kernel, q_r - e)) / (2 * h)
            assert np.abs(fd - out[:, i]).max() <= 1e-5 * max(np.abs(out).max(), 1)


BAYS = 20


@pytest.fixture(scope="module")
def truss20():
    return build_truss(BAYS, np.random.default_rng(3).uniform(-0.5, 0.5, 16))


@pytest.fixture(scope="module")
def modal_basis(truss20):
    """The lowest eight undeformed modes, orthonormalized."""
    k0 = truss20.tangent_stiffness(np.zeros(truss20.dof_count))
    _, modes = scipy.linalg.eigh(k0, truss20.mass_dense(),
                                 subset_by_index=[0, 7])
    return np.linalg.qr(modes)[0]


@pytest.fixture(scope="module")
def sampled_map(truss20, modal_basis):
    """The potential map of a greedy sample set, as the SP builder forms it."""
    phi = modal_basis
    sample_set = greedy_sample_indices(phi, 2 * phi.shape[1])
    rows = sample_set.indices[:phi.shape[1]]
    k0 = truss20.tangent_stiffness(np.zeros(truss20.dof_count))
    return build_potential_map(phi.T @ k0 @ phi,
                               truss20.tangent_stiffness_block(rows, rows, [], []),
                               rows)


def displaced(pmap, rng, largest=0.5):
    """Random reduced coordinates whose largest nodal displacement is
    ``largest`` (bars are about 10 long), well into the nonlinear range."""
    q_r = rng.normal(size=pmap.factor.shape[1])
    return q_r * largest / np.abs(pmap.factor @ q_r).max()


class TestReducedElementKernel:
    """``TrussModel.potential_kernel`` against the sampled plan evaluators
    it replaces in SP stepping, at 20 bays with a greedy sample set."""

    def test_matches_sampled_evaluators(self, truss20, sampled_map):
        pmap = sampled_map
        rows, factor = pmap.rows, pmap.factor
        kernel = truss20.potential_kernel(rows, factor)
        rng = np.random.default_rng(0)
        for _ in range(10):
            q_r = displaced(pmap, rng)
            dq = factor @ q_r
            energy = truss20.potential_energy_sparse(rows, dq)
            grad = factor.T @ truss20.internal_force_rows(rows, rows, dq)
            hess = factor.T @ truss20.tangent_stiffness_block(
                rows, rows, rows, dq) @ factor
            assert abs(kernel.energy(q_r) - energy) <= 1e-12 * abs(energy)
            assert (np.linalg.norm(kernel.gradient(q_r) - grad)
                    <= 1e-12 * np.linalg.norm(grad))
            assert (np.linalg.norm(kernel.hessian(q_r) - hess)
                    <= 1e-12 * np.linalg.norm(hess))

    def test_exactly_zero_gradient_at_rest(self, truss20, sampled_map):
        kernel = truss20.potential_kernel(sampled_map.rows, sampled_map.factor)
        zero = np.zeros(sampled_map.factor.shape[1])
        assert np.array_equal(approx_reduced_gradient(kernel, zero), zero)
        assert kernel.energy(zero) == 0.0

    def test_central_differences(self, truss20, sampled_map):
        kernel = truss20.potential_kernel(sampled_map.rows, sampled_map.factor)
        q_r = displaced(sampled_map, np.random.default_rng(1))
        n = q_r.size
        grad, hess = kernel.gradient(q_r), kernel.hessian(q_r)
        h = 1e-6 * np.linalg.norm(q_r)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd_grad = (kernel.energy(q_r + e) - kernel.energy(q_r - e)) / (2 * h)
            assert abs(fd_grad - grad[i]) <= 1e-6 * np.abs(grad).max()
            fd_hess = (kernel.gradient(q_r + e) - kernel.gradient(q_r - e)) / (2 * h)
            assert np.abs(fd_hess - hess[:, i]).max() <= 1e-6 * np.abs(hess).max()

    def test_collapsed_bar_raises(self, truss20, sampled_map):
        """Reduced coordinates that move a bar's second node onto its first."""
        kernel = truss20.potential_kernel(sampled_map.rows, sampled_map.factor)
        vec = kernel.plan.vec
        maps = kernel._flat.reshape(len(vec), 3, -1)   # D_e of every bar
        solves = [np.linalg.lstsq(d_e, -x_e, rcond=None)[0]
                  for d_e, x_e in zip(maps, vec)]
        misses = [np.linalg.norm(d_e @ q + x_e) / np.linalg.norm(x_e)
                  for d_e, q, x_e in zip(maps, solves, vec)]
        q_r = solves[int(np.argmin(misses))]
        assert min(misses) <= 1e-12
        for evaluate in (kernel.energy, kernel.gradient, kernel.hessian):
            with pytest.raises(FloatingPointError, match="collapse"):
                evaluate(q_r)
        with pytest.raises(FloatingPointError, match="collapse"):
            kernel.energy(np.stack([np.zeros_like(q_r), q_r]))

    def test_stacked_energies_equal_each_state(self, truss20, sampled_map):
        """The energies of coordinates stacked in rows are those of each
        row, to the round-off of one product with ``D`` for all rows."""
        kernel = truss20.potential_kernel(sampled_map.rows, sampled_map.factor)
        rng = np.random.default_rng(2)
        states = np.stack([displaced(sampled_map, rng) for _ in range(7)])
        energies = kernel.energy(states)
        each = np.array([kernel.energy(q_r) for q_r in states])
        assert energies.shape == (7,)
        assert np.abs(energies - each).max() <= 1e-14 * np.abs(each).max()
        assert np.array_equal(kernel.energy(np.zeros((2, states.shape[1]))),
                              np.zeros(2))


@pytest.mark.parametrize("bays, n", [(20, 9), (20, 13), (20, 36), (40, 61)])
def test_kernel_hessian_forms_agree(bays, n):
    """At the benchmark widths (n = 9, 13) and the criterion-10 sizes the
    kernel's n x n congruence equals the sampled evaluators' ``F^T K_ss F``
    (``tangent_stiffness_block``) in the nonlinear range; so does the
    congruence of a map narrower than its rows (F without its last column)."""
    rng = np.random.default_rng(n)
    model = build_truss(bays, rng.uniform(-0.5, 0.5, 16))
    phi = random_orthonormal(rng, model.dof_count, n)
    rows = rng.permutation(model.dof_count)[:n]
    k0 = model.tangent_stiffness(np.zeros(model.dof_count))
    pmap = build_potential_map(phi.T @ k0 @ phi, k0[np.ix_(rows, rows)], rows)
    for factor in (pmap.factor, pmap.factor[:, :-1]):
        kernel = model.potential_kernel(rows, factor)
        for _ in range(3):
            q_r = displaced(pmap, rng)[:factor.shape[1]]
            reference = factor.T @ model.tangent_stiffness_block(
                rows, rows, rows, factor @ q_r) @ factor
            assert (np.linalg.norm(kernel.hessian(q_r) - reference)
                    <= 1e-12 * np.linalg.norm(reference))


@pytest.mark.parametrize("method", ["rbs", "matrix_gappy"])
def test_sp_trajectory_matches_sampled_evaluators(truss20, modal_basis, method,
                                                  monkeypatch):
    """A forced, damped SP model steps the same through the kernel as
    through closures over the sampled plan evaluators it replaced."""
    model, phi = truss20, modal_basis
    sample_set = greedy_sample_indices(phi, 2 * phi.shape[1])
    mass = [model.mass_dense()]
    blocks = training_blocks(mass, phi, sample_set)
    product = (rbs_fit(blocks) if method == "rbs" else
               build_matrix_gappy_basis(matrix_pod_modes(mass, 1.0), blocks))
    forcing = ForcingConfig(nominal_amplitudes=(2 * 9.81, 2 * 9.81,
                                                0.4 * 9.81, 0.4 * 9.81),
                            omega0=fundamental_frequency(model), final_time=2.0)
    force_basis = np.linalg.qr(model.load_patterns().T)[0]
    maps = []

    def keep_map(*args):
        maps.append(build_potential_map(*args))
        return maps[-1]

    monkeypatch.setattr(lagrom.roms, "build_potential_map", keep_map)
    system = build_structure_preserving(
        model, phi, sample_set, product, alpha=0.05, beta=2e-4,
        force_reconstructor=build_force_reconstructor(phi, force_basis,
                                                      sample_set),
        forcing=forcing)
    rows, factor = maps[0].rows, maps[0].factor

    def sampled_energy(q_r):
        # The energy record passes every state at once, stacked in rows.
        if np.ndim(q_r) == 2:
            return np.array([sampled_energy(q) for q in q_r])
        return model.potential_energy_sparse(rows, factor @ q_r)

    reference = dataclasses.replace(
        system,
        grad=lambda q_r: factor.T @ model.internal_force_rows(
            rows, rows, factor @ q_r),
        hess=lambda q_r: symmetrize(factor.T @ model.tangent_stiffness_block(
            rows, rows, rows, factor @ q_r) @ factor),
        potential=sampled_energy)
    state0 = State(q=phi.T @ model.initial_displacement(forcing),
                   v=np.zeros(phi.shape[1]))
    settings = NewtonSettings(rel_tol=1e-10)
    # The loads start at a quarter of the forcing's final time, 0.5.
    runs = [integrate_rom(rom, 0.02, 1.0, state0=state0, settings=settings,
                          record_energy=True) for rom in (system, reference)]
    kernel_run, sampled_run = runs
    assert kernel_run.stable and kernel_run.n_steps == 50
    assert np.array_equal(kernel_run.newton_iterations,
                          sampled_run.newton_iterations)
    assert (np.abs(kernel_run.q - sampled_run.q).max()
            <= 1e-12 * np.abs(sampled_run.q).max())
    assert (np.abs(kernel_run.energy - sampled_run.energy).max()
            <= 1e-12 * np.abs(sampled_run.energy).max())


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
