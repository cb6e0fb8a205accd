import numpy as np
import pytest

from lagrom.midpoint import (NewtonSettings, SecondOrderSystem, State,
                             implicit_midpoint_solve, midpoint_step, newton,
                             richardson_estimate)


def harmonic_oscillator(k=1.0):
    return SecondOrderSystem(mass=np.eye(1), damping=np.zeros((1, 1)),
                             grad=lambda q: k * q,
                             hess=lambda q: k * np.eye(1),
                             force=lambda t: np.zeros(1))


class TestNewton:
    def test_linear_single_iteration(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        b = np.array([1.0, -2.0])
        result = newton(lambda x: a @ x - b, lambda x: a, np.zeros(2))
        assert result.converged and result.iterations == 1
        assert np.allclose(result.x, np.linalg.solve(a, b))

    def test_scalar_cube_root(self):
        result = newton(lambda x: x**3 - 8.0, lambda x: np.atleast_2d(3 * x**2),
                        np.array([3.0]), NewtonSettings(rel_tol=1e-14))
        assert result.converged and result.iterations <= 10
        assert abs(result.x[0] - 2.0) <= 1e-10

    def test_zero_jacobian_saddle_no_nan(self):
        # Merit stationary point away from a root: signal, never NaN.
        result = newton(lambda x: x**2 + 1.0, lambda x: np.atleast_2d(2 * x),
                        np.array([0.0]))
        assert not result.converged
        assert np.isfinite(result.x).all()

    def test_globalization_from_far_start(self):
        result = newton(lambda x: np.arctan(x), lambda x: np.atleast_2d(1 / (1 + x**2)),
                        np.array([20.0]), NewtonSettings(rel_tol=1e-12))
        # Undamped Newton diverges for |x0| > ~1.39; the linesearch must save it.
        assert result.converged
        assert abs(result.x[0]) <= 1e-10

    def test_reference_norm_controls_convergence(self):
        a = np.eye(1)
        result = newton(lambda x: a @ x - 1.0, lambda x: a, np.zeros(1),
                        NewtonSettings(rel_tol=0.5), reference_norm=1e6)
        # Loose effective tolerance: the start already satisfies it.
        assert result.converged and result.iterations == 0


class TestNewtonEvaluations:
    @staticmethod
    def counted(residual, jacobian):
        calls = {"residual": 0, "jacobian": 0}

        def counted_residual(x):
            calls["residual"] += 1
            return residual(x)

        def counted_jacobian(x):
            calls["jacobian"] += 1
            return jacobian(x)
        return counted_residual, counted_jacobian, calls

    def test_full_steps_assemble_one_jacobian_per_iteration(self):
        residual, jacobian, calls = self.counted(
            lambda x: x**3 - 8.0, lambda x: np.atleast_2d(3 * x**2))
        result = newton(residual, jacobian, np.array([3.0]),
                        NewtonSettings(rel_tol=1e-14))
        assert result.converged and result.iterations >= 3
        # One trial point per linesearch: every full step was accepted.
        assert calls["residual"] == result.iterations + 1
        # The accepted point's Jacobian, taken by the linesearch, is reused.
        assert calls["jacobian"] == result.iterations + 1

    def test_non_finite_residual_fails_at_once(self):
        residual, jacobian, calls = self.counted(
            lambda x: np.full_like(x, np.nan), lambda x: np.eye(x.size))
        result = newton(residual, jacobian, np.zeros(2))
        assert not result.converged and result.iterations == 0
        assert calls == {"residual": 1, "jacobian": 0}


class TestMidpointStep:
    def test_linear_closed_form(self):
        sho = harmonic_oscillator()
        dt = 0.1
        q1, v1, result = midpoint_step(sho, np.array([1.0]), np.array([0.0]),
                                       0.0, dt)
        denom = 1 + dt * dt / 4
        assert abs(q1[0] - (1 - dt * dt / 4) / denom) <= 1e-14
        assert abs(v1[0] - (-dt) / denom) <= 1e-14
        assert result.iterations == 1

    def test_time_reversibility_linear(self):
        sho = harmonic_oscillator(k=2.3)
        q0, v0 = np.array([0.4]), np.array([-0.7])
        q1, v1, _ = midpoint_step(sho, q0, v0, 0.0, 0.05)
        q2, v2, _ = midpoint_step(sho, q1, v1, 0.05, -0.05)
        assert abs(q2[0] - q0[0]) <= 1e-10
        assert abs(v2[0] - v0[0]) <= 1e-10


class TestImplicitMidpointSolve:
    def test_zero_everything_stays_zero(self):
        traj = implicit_midpoint_solve(harmonic_oscillator(),
                                       State(np.zeros(1), np.zeros(1)), 0.1, 2.0)
        assert traj.stable
        assert np.abs(traj.q).max() == 0.0
        assert np.all(traj.newton_iterations == 0)

    def test_linear_one_iteration_per_step(self):
        traj = implicit_midpoint_solve(harmonic_oscillator(),
                                       State(np.ones(1), np.zeros(1)), 0.1, 2.0)
        assert np.all(traj.newton_iterations == 1)

    def test_unstable_run_flagged_not_raised(self):
        # A repulsive cubic force blows up; the solver must flag, not raise.
        system = SecondOrderSystem(
            mass=np.eye(1), damping=np.zeros((1, 1)),
            grad=lambda q: -200.0 * q**3 - q,
            hess=lambda q: np.atleast_2d(-600.0 * q**2 - 1),
            force=lambda t: np.zeros(1))
        traj = implicit_midpoint_solve(system, State(np.ones(1), np.ones(1)),
                                       0.5, 40.0,
                                       NewtonSettings(rel_tol=1e-10, max_iters=8))
        assert not traj.stable
        assert traj.failed_steps >= 3
        assert len(traj.times) < 81

    def test_non_integral_span_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            implicit_midpoint_solve(harmonic_oscillator(),
                                    State(np.zeros(1), np.zeros(1)), 0.3, 1.0)

    def test_energy_bounded_over_long_run(self):
        period = 2 * np.pi
        traj = implicit_midpoint_solve(
            harmonic_oscillator(), State(np.ones(1), np.zeros(1)),
            0.01 * period, 1e4 * 0.01 * period,
            NewtonSettings(rel_tol=1e-10))
        energy = 0.5 * traj.v[:, 0]**2 + 0.5 * traj.q[:, 0]**2
        assert np.abs(energy - energy[0]).max() <= 1e-3 * energy[0]

    def test_richardson_rate_second_order(self):
        sho = harmonic_oscillator()

        def averaged_tip(dt):
            traj = implicit_midpoint_solve(sho, State(np.ones(1), np.zeros(1)),
                                           dt, 10.0,
                                           NewtonSettings(rel_tol=1e-12))
            return float(np.trapezoid(traj.q[:, 0], traj.times) / 10.0)

        rate, _ = richardson_estimate(averaged_tip(0.1), averaged_tip(0.05),
                                      averaged_tip(0.025))
        assert 1.9 <= rate <= 2.1

    def test_symplecticity_two_dof(self):
        mass = np.array([[2.0, 0.3], [0.3, 1.0]])
        system = SecondOrderSystem(
            mass=mass, damping=np.zeros((2, 2)),
            grad=lambda q: q + 0.8 * q**3,
            hess=lambda q: np.eye(2) + np.diag(2.4 * q**2),
            force=lambda t: np.zeros(2))
        settings = NewtonSettings(rel_tol=1e-13)
        inv_mass = np.linalg.inv(mass)

        def step_map(z):
            q, p = z[:2], z[2:]
            q1, v1, _ = midpoint_step(system, q, inv_mass @ p, 0.0, 0.05,
                                      settings)
            return np.concatenate([q1, mass @ v1])

        z0 = np.array([0.2, -0.1, 0.3, 0.15])
        h = 1e-6
        jac = np.zeros((4, 4))
        for i in range(4):
            zp, zm = z0.copy(), z0.copy()
            zp[i] += h
            zm[i] -= h
            jac[:, i] = (step_map(zp) - step_map(zm)) / (2 * h)
        omega = np.block([[np.zeros((2, 2)), np.eye(2)],
                          [-np.eye(2), np.zeros((2, 2))]])
        assert np.abs(jac.T @ omega @ jac - omega).max() <= 1e-6


class TestRichardson:
    def test_quadratic_rate(self):
        def y(dt):
            return 1.0 + 2.0 * dt**2
        rate, error = richardson_estimate(y(0.1), y(0.05), y(0.025))
        assert abs(rate - 2.0) <= 1e-10
        assert error > 0

    def test_linear_rate(self):
        def y(dt):
            return 1.0 + 2.0 * dt
        rate, _ = richardson_estimate(y(0.1), y(0.05), y(0.025))
        assert abs(rate - 1.0) <= 1e-10

    def test_identical_values_rejected(self):
        with pytest.raises(ValueError, match="noise floor"):
            richardson_estimate(1.0, 1.0, 1.0)

    def test_alternating_differences_rejected(self):
        with pytest.raises(ValueError, match="noise floor"):
            richardson_estimate(1.0, 2.0, 1.5)
