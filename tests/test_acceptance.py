"""Acceptance suite: one test per criterion, each at its stated tolerance.

The two desk-scale studies (criteria 9 and 10) run the full benchmark
pipeline on a 20-bay truss and take a few minutes each; everything else is
fast.  Each test prints a single summary line for the criterion it covers.
"""

import time

import numpy as np
import pytest

from lagrom.bench import (ExperimentConfig, energy_drift, error_metric,
                          galerkin_step_seconds, online_points,
                          reduce_products, run_offline, run_online,
                          sp_step_seconds, verify_timestep)
from lagrom.gappy import (apply_force_reconstructor, build_force_reconstructor,
                          gappy_error_bound)
from lagrom.midpoint import (NewtonSettings, SecondOrderSystem, State,
                             implicit_midpoint_solve, midpoint_step,
                             richardson_estimate)
from lagrom.pod import compute_pod_basis
from lagrom.potential_map import (approx_reduced_gradient, build_potential_map)
from lagrom.roms import (build_collocation, build_galerkin, build_gappy_rom,
                         integrate_full_model, integrate_rom)
from lagrom.sampling import SampleIndexSet, greedy_sample_indices
from lagrom.spd_approx import (assembled_eigen_gradients,
                               build_matrix_gappy_basis, gappy_matrix_assemble,
                               gappy_matrix_coeffs,
                               generalized_interlacing_check,
                               matrix_pod_modes, rbs_fit)
from lagrom.truss import ForcingConfig, build_truss, fundamental_frequency

from conftest import random_orthonormal, random_spd, stiefel_feasibility_search

pytestmark = pytest.mark.acceptance


def report(criterion, passed, detail):
    print("[%s] criterion %s: %s" % ("PASS" if passed else "FAIL", criterion,
                                     detail))
    assert passed, detail


def test_criterion_01_structure_preservation():
    """SP mass approximations symmetric and PD; sampled baselines asymmetric."""
    start = time.time()
    worst_sym, worst_lam, worst_asym = 0.0, np.inf, np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        mu = rng.uniform(-1, 1, size=16)
        model = build_truss(10, mu)
        big_n = model.dof_count
        n, m = 4, 9
        phi = random_orthonormal(rng, big_n, n)
        sample_set = SampleIndexSet(rng.permutation(big_n)[:m], big_n)
        mass = model.mass_dense()

        rbs = rbs_fit([mass], phi, sample_set)
        sp1 = model.mass_entries(sample_set.indices, sample_set.indices)
        mass_rbs = rbs.factor.T @ sp1 @ rbs.factor
        basis = build_matrix_gappy_basis(matrix_pod_modes([mass], 1.0), [mass],
                                         phi, sample_set)
        coeffs = gappy_matrix_coeffs(sp1, basis)
        mass_gap = gappy_matrix_assemble(coeffs, basis)

        for approx in (mass_rbs, mass_gap):
            scale = np.abs(approx).max()
            worst_sym = max(worst_sym, np.abs(approx - approx.T).max() / scale)
            worst_lam = min(worst_lam, np.linalg.eigvalsh(approx)[0])

        coll = build_collocation(model, phi, sample_set)
        recs = {name: build_force_reconstructor(
            phi, random_orthonormal(rng, big_n, 3), sample_set)
            for name in ("mass", "damping", "potential", "force")}
        gap_rom = build_gappy_rom(model, phi, recs, sample_set)
        for system in (coll, gap_rom):
            asym = (np.linalg.norm(system.mass_r - system.mass_r.T)
                    / np.linalg.norm(system.mass_r))
            worst_asym = min(worst_asym, asym)

    elapsed = time.time() - start
    passed = (worst_sym <= 1e-12 and worst_lam > 0.0 and worst_asym > 1e-6
              and elapsed < 60.0)
    report(1, passed,
           "sym defect %.1e, min eig %.3e, min baseline asym %.1e, %.0fs"
           % (worst_sym, worst_lam, worst_asym, elapsed))


def test_criterion_02_matrix_gappy_exactness():
    """Untruncated matrix basis reproduces training-set reduced matrices."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        big_n, n, n_train = 20, 4, 5
        a1, a2 = random_spd(rng, big_n), random_spd(rng, big_n)
        weights = rng.uniform(0.5, 2.0, size=(n_train, 2))
        snaps = [h1 * a1 + h2 * a2 for h1, h2 in weights]
        phi = random_orthonormal(rng, big_n, n)
        sample_set = SampleIndexSet(rng.permutation(big_n)[:6], big_n)
        basis = build_matrix_gappy_basis(matrix_pod_modes(snaps, 1.0), snaps, phi,
                                         sample_set)
        target = snaps[int(rng.integers(n_train))]
        coeffs = gappy_matrix_coeffs(
            target[np.ix_(sample_set.indices, sample_set.indices)], basis)
        approx = gappy_matrix_assemble(coeffs, basis)
        exact = phi.T @ target @ phi
        worst = max(worst, np.linalg.norm(approx - exact)
                    / np.linalg.norm(exact))
    report(2, worst <= 1e-8, "max relative reconstruction error %.2e" % worst)


def test_criterion_03_rbs_full_sampling_exactness():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        big_n, n = 12, 4
        phi = random_orthonormal(rng, big_n, n)
        snaps = [random_spd(rng, big_n) for _ in range(3)]
        sample_set = SampleIndexSet(rng.permutation(big_n), big_n)
        fit = rbs_fit(snaps, phi, sample_set)
        worst = max(worst, fit.fit_residual)
    report(3, worst <= 1e-12, "max full-sampling fit residual %.2e" % worst)


def test_criterion_04_potential_map_identity():
    """Hessian-match identity and exact zero gradient at the origin."""
    worst_match, worst_grad = 0.0, 0.0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        mu = rng.uniform(-1, 1, size=16)
        model = build_truss(3, mu)
        big_n = model.dof_count
        n, m = 4, 8
        phi = random_orthonormal(rng, big_n, n)
        sample_set = SampleIndexSet(rng.permutation(big_n)[:m], big_n)
        k0 = model.tangent_stiffness(np.zeros(big_n))
        first = sample_set.indices[:n]
        reduced = phi.T @ k0 @ phi
        pmap = build_potential_map(reduced, k0[np.ix_(first, first)], first)
        z_v = np.zeros((big_n, n))
        z_v[first, :] = pmap.factor
        worst_match = max(worst_match,
                          np.linalg.norm(z_v.T @ k0 @ z_v - reduced)
                          / np.linalg.norm(reduced))
        grad0 = approx_reduced_gradient(
            model.potential_kernel(pmap.rows, pmap.factor), np.zeros(n))
        worst_grad = max(worst_grad, np.abs(grad0).max())
    report(4, worst_match <= 1e-8 and worst_grad == 0.0,
           "max Hessian mismatch %.2e, max |grad(0)| %.1e"
           % (worst_match, worst_grad))


def test_criterion_05_derivative_consistency():
    rng = np.random.default_rng(11)
    model = build_truss(4, rng.uniform(-1, 1, size=16))
    big_n = model.dof_count
    q = 0.05 * rng.normal(size=big_n)
    h = 1e-6

    grad = model.internal_force(q)
    gscale = np.abs(grad).max()
    worst_g = 0.0
    for i in rng.permutation(big_n)[:20]:
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        fd = (model.potential_energy(qp) - model.potential_energy(qm)) / (2 * h)
        worst_g = max(worst_g, abs(fd - grad[i]) / gscale)

    hess = model.tangent_stiffness(q)
    kscale = np.abs(hess).max()
    worst_k = 0.0
    for i in rng.permutation(big_n)[:10]:
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        fd = (model.internal_force(qp) - model.internal_force(qm)) / (2 * h)
        worst_k = max(worst_k, np.abs(fd - hess[:, i]).max() / kscale)

    # Analytic eigenvalue gradient of the constrained coefficient problem.
    worst_e = 0.0
    for seed in range(10):
        local = np.random.default_rng(seed)
        modes = [0.5 * (a + a.T) for a in local.normal(size=(3, 4, 4))]
        phi = random_orthonormal(local, 4, 4)
        basis = build_matrix_gappy_basis(np.eye(3), modes, phi,
                                         SampleIndexSet(np.arange(4), 4))
        x = local.normal(size=3)
        _, grads = assembled_eigen_gradients(basis, x)
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            lp = np.linalg.eigvalsh(np.einsum("i,ijk->jk", xp,
                                              basis.reduced_basis))
            lm = np.linalg.eigvalsh(np.einsum("i,ijk->jk", xm,
                                              basis.reduced_basis))
            worst_e = max(worst_e, np.abs((lp - lm) / (2 * h)
                                          - grads[:, i]).max())

    passed = worst_g <= 1e-6 and worst_k <= 1e-5 and worst_e <= 1e-6
    report(5, passed, "grad fd %.1e, hess fd %.1e, eig grad fd %.1e"
           % (worst_g, worst_k, worst_e))


def test_criterion_06_interlacing():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d_s = random_spd(rng, 6)
        b_s = random_spd(rng, 6)
        u = random_orthonormal(rng, 6, 3)
        ok, _ = generalized_interlacing_check(d_s, b_s, u.T @ d_s @ u,
                                              u.T @ b_s @ u)
        assert ok

    # Diagnostic: failure rate of the check on pencils the sparse fit
    # cannot reproduce (no threshold attached).
    qualifying, failures = 0, 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        big_n, n, m = 8, 3, 3
        a1 = random_spd(rng, big_n, shift=0.5)
        a2 = np.diag(rng.uniform(0.1, 30.0, size=big_n))
        phi = random_orthonormal(rng, big_n, n)
        sample_set = SampleIndexSet(rng.permutation(big_n)[:m], big_n)
        fit = rbs_fit([a1, a2], phi, sample_set)
        scale = sum(np.linalg.norm(phi.T @ a @ phi)**2 for a in (a1, a2))
        if fit.fit_residual <= 1e-3 * scale:
            continue
        qualifying += 1
        idx = np.ix_(sample_set.indices, sample_set.indices)
        ok, _ = generalized_interlacing_check(a1[idx], a2[idx],
                                              phi.T @ a1 @ phi,
                                              phi.T @ a2 @ phi)
        failures += int(not ok)
    rate = failures / qualifying if qualifying else float("nan")
    report(6, True,
           "congruence direction 100/100; poor-fit pencils: %d qualifying, "
           "interlacing failure rate %.2f (diagnostic)" % (qualifying, rate))


def test_criterion_07_midpoint_integrator():
    sho = SecondOrderSystem(mass=np.eye(1), damping=np.zeros((1, 1)),
                            grad=lambda q: q, hess=lambda q: np.eye(1),
                            force=lambda t: np.zeros(1))

    def averaged(dt):
        traj = implicit_midpoint_solve(sho, State(np.ones(1), np.zeros(1)),
                                       dt, 10.0, NewtonSettings(rel_tol=1e-12))
        return float(np.trapezoid(traj.q[:, 0], traj.times) / 10.0)

    rate, _ = richardson_estimate(averaged(0.1), averaged(0.05),
                                  averaged(0.025))

    # Symplecticity defect of one step on a conservative 2-dof reduced
    # system (Galerkin reduction of a one-bay truss).
    truss = build_truss(1, np.zeros(16))
    rng = np.random.default_rng(5)
    phi = random_orthonormal(rng, truss.dof_count, 2)
    reduced = build_galerkin(truss, phi)
    system = reduced.second_order_system()
    mass = system.mass
    inv_mass = np.linalg.inv(mass)
    settings = NewtonSettings(rel_tol=1e-13)

    def step_map(z):
        q1, v1, _ = midpoint_step(system, z[:2], inv_mass @ z[2:], 0.0, 0.02,
                                  settings)
        return np.concatenate([q1, mass @ v1])

    z0 = np.array([1e-3, -2e-3, 1e-2, 5e-3])
    h = 1e-6
    jac = np.zeros((4, 4))
    for i in range(4):
        zp, zm = z0.copy(), z0.copy()
        zp[i] += h
        zm[i] -= h
        jac[:, i] = (step_map(zp) - step_map(zm)) / (2 * h)
    omega = np.block([[np.zeros((2, 2)), np.eye(2)],
                      [-np.eye(2), np.zeros((2, 2))]])
    defect = np.abs(jac.T @ omega @ jac - omega).max()

    period = 2 * np.pi
    traj = implicit_midpoint_solve(sho, State(np.ones(1), np.zeros(1)),
                                   0.01 * period, 1e4 * 0.01 * period,
                                   NewtonSettings(rel_tol=1e-10))
    energy = 0.5 * traj.v[:, 0]**2 + 0.5 * traj.q[:, 0]**2
    drift = np.abs(energy - energy[0]).max() / energy[0]

    passed = 1.9 <= rate <= 2.1 and defect <= 1e-6 and drift <= 1e-3
    report(7, passed, "rate %.3f, symplectic defect %.1e, energy drift %.1e"
           % (rate, defect, drift))


def test_criterion_08_full_sampling_collapse():
    start = time.time()
    model = build_truss(5, np.zeros(16))
    omega0 = fundamental_frequency(model)
    forcing = ForcingConfig(nominal_amplitudes=(2 * 9.81, 2 * 9.81,
                                                0.4 * 9.81, 0.4 * 9.81),
                            omega0=omega0, final_time=10.0)
    q0 = model.initial_displacement(forcing)
    traj = integrate_full_model(model, 0.02, 5.0, forcing=forcing,
                                state0=State(q=q0, v=np.zeros_like(q0)))
    phi = compute_pod_basis(traj.q.T, 1.0 - 1e-7).columns
    big_n = model.dof_count
    sample_set = greedy_sample_indices(phi, big_n)  # full sampling, greedy order

    gal = build_galerkin(model, phi, forcing=forcing)
    coll = build_collocation(model, phi, sample_set, forcing=forcing)
    state0 = State(q=phi.T @ q0, v=np.zeros(phi.shape[1]))
    t_gal = integrate_rom(gal, 0.02, 5.0, state0=state0)
    t_coll = integrate_rom(coll, 0.02, 5.0, state0=state0)
    scale = np.abs(t_gal.quantity).max()
    gap = np.abs(t_coll.quantity - t_gal.quantity).max() / scale
    elapsed = time.time() - start
    report(8, gap <= 1e-10 and elapsed < 120.0,
           "collocation/Galerkin gap %.2e, %.0fs" % (gap, elapsed))


def test_criterion_09_conservative_study():
    """Conservative varying-parameters study with a verified timestep and a
    predictive evaluation at the nominal point."""
    start = time.time()
    config = ExperimentConfig(
        bays=20, dt=0.04, final_time=25.0, conservative=True,
        n_train=6, seed_train=1, n_online=1,
        sampling_percentages=(5.0, 20.0, 100.0), energy_state=1 - 1e-5,
        newton_rel_tol=1e-9)

    dt = None
    for candidate in (0.04, 0.02, 0.01, 0.005):
        try:
            result = verify_timestep(config, dt=candidate, horizon=5.0)
        except ValueError:
            continue  # pre-asymptotic: differences not yet monotone
        if 1.8 <= result["rate"] <= 2.2:
            dt = candidate
            rate = result["rate"]
            break
    assert dt is not None, "no timestep reached the asymptotic range"
    config = ExperimentConfig(**{**config.to_dict(), "dt": dt})

    offline = run_offline(config)
    mu = np.zeros(16)
    mu[8:] = -2.0  # nominal geometry, forces off (predictive online point)
    model = build_truss(config.bays, mu)
    q0 = model.initial_displacement(offline.forcing)
    hfm = integrate_full_model(model, dt, config.final_time,
                               forcing=offline.forcing,
                               state0=State(q=q0, v=np.zeros_like(q0)),
                               settings=config.newton_settings,
                               record_energy=True)
    assert hfm.stable

    lines = ["dt %.3g (rate %.3f), n=%d" % (dt, rate, offline.n)]
    all_ok = True
    red_full = reduce_products(offline, 100.0)
    gal = run_online(offline, red_full, mu, "galerkin")
    gal_err = error_metric(gal.trajectory.quantity, hfm.quantity)
    all_ok &= gal.trajectory.stable and gal_err <= 0.10
    lines.append("galerkin err %.3f" % gal_err)

    for pct in config.sampling_percentages:
        reduced = reduce_products(offline, pct)
        for variant in ("sp_rbs", "sp_matrix_gappy"):
            result = run_online(offline, reduced, mu, variant,
                                record_energy=True)
            traj = result.trajectory
            stable = traj.stable and len(traj.quantity) == len(hfm.quantity)
            err = error_metric(traj.quantity, hfm.quantity) if stable else np.inf
            drift = energy_drift(traj) if stable else np.inf
            ok = stable and drift <= 5e-2 and (pct < 20.0 or err <= 0.10)
            all_ok &= ok
            lines.append("%s@%g%%: err %.4f drift %.1e%s"
                         % (variant, pct, err, drift, "" if ok else " FAIL"))

    elapsed = time.time() - start
    all_ok &= elapsed < 15 * 60
    report(9, all_ok, "; ".join(lines) + "; %.0fs" % elapsed)


def test_criterion_10_predictive_study():
    start = time.time()
    config = ExperimentConfig(
        bays=20, dt=0.05, final_time=25.0, zeta=float(np.sin(np.deg2rad(5))),
        n_train=6, n_online=3, sampling_percentages=(10.0, 20.0),
        energy_state=1 - 1e-4, seed_train=1, seed_online=1)

    offline = run_offline(config)
    mus = online_points(config)
    hfms = []
    for mu in mus:
        model = build_truss(config.bays, mu)
        q0 = model.initial_displacement(offline.forcing)
        hfm = integrate_full_model(
            model, config.dt, config.final_time, alpha=offline.alpha,
            beta=offline.beta, forcing=offline.forcing,
            state0=State(q=q0, v=np.zeros_like(q0)),
            settings=config.newton_settings)
        assert hfm.stable
        hfms.append(hfm)

    all_ok = True
    # Report only: the nominal eigensolve behind the forcing frequency and
    # the damping of every run, in full (its round-off follows the BLAS).
    lines = ["n=%d" % offline.n, "omega0 %r alpha %r beta %r"
             % (offline.omega0, offline.alpha, offline.beta)]
    for pct in config.sampling_percentages:
        reduced = reduce_products(offline, pct)
        for j, mu in enumerate(mus):
            errs = {}
            for variant in ("sp_rbs", "sp_matrix_gappy"):
                result = run_online(offline, reduced, mu, variant)
                traj = result.trajectory
                stable = (traj.stable
                          and len(traj.quantity) == len(hfms[j].quantity))
                all_ok &= stable
                errs[variant] = (error_metric(traj.quantity, hfms[j].quantity)
                                 if stable else np.inf)
            e1, e2 = errs["sp_rbs"], errs["sp_matrix_gappy"]
            ratio = max(e1, e2) / min(e1, e2)
            all_ok &= ratio <= 2.0
            lines.append("p%g pt%d: %.3f/%.3f (x%.2f)"
                         % (pct, j, e1, e2, ratio))

    # Online per-step cost must not scale with the full dimension beyond
    # the documented amortized setup: doubling the truss leaves the
    # stepping cost flat at pinned reduced dimensions.
    t_small = sp_step_seconds(20, n=10, m=24, steps=300, dt=config.dt)
    t_large = sp_step_seconds(40, n=10, m=24, steps=300, dt=config.dt)
    scaling = t_large / t_small
    all_ok &= scaling <= 1.5
    lines.append("per-step scaling x%.2f for 2x dofs" % scaling)
    # Report only: per-step SP and Galerkin cost at the sizes this study
    # reaches at 20 and 40 bays (20% sampling).
    lines.append("per-step us sp/galerkin: " + ", ".join(
        "%d bays n=%d %.0f/%.0f" % (
            bays, n, 1e6 * sp_step_seconds(bays, n=n, m=m, dt=config.dt),
            1e6 * galerkin_step_seconds(bays, n=n, dt=config.dt))
        for bays, n, m in ((20, 36, 48), (40, 61, 96))))

    elapsed = time.time() - start
    all_ok &= elapsed < 30 * 60
    report(10, all_ok, "; ".join(lines) + "; %.0fs" % elapsed)


def test_criterion_11_gappy_bound_and_exactness():
    violations = 0
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        big_n = int(rng.integers(4, 33))
        n_f = int(rng.integers(1, max(2, big_n // 3)))
        m = int(rng.integers(n_f, big_n + 1))
        phi_f = random_orthonormal(rng, big_n, n_f)
        sample_set = SampleIndexSet(rng.permutation(big_n)[:m], big_n)
        try:
            error, bound = gappy_error_bound(phi_f, sample_set,
                                             rng.normal(size=big_n))
        except ValueError:
            continue
        violations += int(error > bound * (1 + 1e-9) + 1e-14)

    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        big_n = 16
        phi_f = random_orthonormal(rng, big_n, 3)
        phi = random_orthonormal(rng, big_n, 4)
        sample_set = SampleIndexSet(rng.permutation(big_n)[:6], big_n)
        rec = build_force_reconstructor(phi, phi_f, sample_set)
        f = phi_f @ rng.normal(size=3)
        out = apply_force_reconstructor(rec, f[sample_set.indices])
        worst = max(worst, np.abs(out - phi.T @ f).max())
        zero = apply_force_reconstructor(rec, np.zeros(6))
        worst = max(worst, np.abs(zero).max())

    passed = violations == 0 and worst <= 1e-10
    report(11, passed, "bound violations %d/1000, exactness defect %.1e"
           % (violations, worst))


def test_criterion_12_taylor_solvability():
    agree, trials = 0, 500
    for trial in range(trials):
        rng = np.random.default_rng(90_000 + trial)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 5))
        big_n = int(rng.integers(m + 1, m + 5))
        phi_t = random_orthonormal(rng, big_n, n)
        c_t = rng.normal(size=big_n)
        if trial % 4 == 0:
            c_t = phi_t @ rng.normal(size=n)
        rows = rng.permutation(big_n)[:m]
        u = c_t[rows]
        w = phi_t.T @ c_t
        nw, nu = np.linalg.norm(w), np.linalg.norm(u)
        if m == n:
            predicted = abs(nw - nu) <= 1e-9 * max(nw, nu, 1e-12)
        else:
            predicted = nw <= nu * (1 + 1e-12)
        best = stiefel_feasibility_search(u, w, m, n, rng)
        observed = best <= 1e-10 * max(nw**2, nu**2, 1e-12)
        agree += int(predicted == observed)
    rate = agree / trials
    report(12, rate >= 0.99, "norm-condition agreement %.1f%%" % (100 * rate))
