"""The Newton loop and midpoint step against the code they replace.

The Newton loop tests the full step before entering the backtracking
linesearch, forms ``||r||^2`` once per point and the Levenberg scale only
when a shift is tried, and the midpoint step hoists its constants out of
the residual; the reduced models take their force from reduced loads and
record their energies in one stacked evaluation.  The references below are
the replaced forms, kept here.  The full-order (band) path must give the
same bytes; a reduced model, whose force and energy are now summed in
another order, the same Newton counts and its trajectory to round-off.
"""

import dataclasses
import math

import numpy as np
import pytest

import lagrom.midpoint
import lagrom.truss
from lagrom.band import SymmetricBand
from lagrom.bench import (NOMINAL_FORCES, ExperimentConfig, build_truss,
                          build_variant, lhs_points, online_points,
                          reduce_products, run_offline)
from lagrom.gappy import apply_force_reconstructor
from lagrom.midpoint import (ARMIJO_C1, MAX_BACKTRACKS, SHIFTS, NewtonResult,
                             NewtonSettings, State, _dense_solve, _plus_scaled)
from lagrom.roms import VARIANTS, integrate_full_model, integrate_rom
from lagrom.truss import ForcingConfig


# ---------------------------------------------------------------------------
# The replaced code
# ---------------------------------------------------------------------------

def reference_descent_direction(jac, r, merit_grad):
    band = isinstance(jac, SymmetricBand)
    diag = jac.ab[jac.half] if band else np.diagonal(jac)
    scale = max(float(np.abs(diag).sum() / diag.size), 1e-300)
    for tau in SHIFTS:
        try:
            if band:
                direction = (jac.shifted(tau * scale) if tau else jac).solve(-r)
            else:
                shifted = jac + tau * scale * np.eye(len(r)) if tau else jac
                direction = _dense_solve(shifted, -r)
        except np.linalg.LinAlgError:
            continue
        slope = float(merit_grad @ direction)
        if slope < 0.0:
            return direction, slope
    slope = -float(merit_grad @ merit_grad)
    return (-merit_grad, slope) if slope < 0.0 else (None, 0.0)


def reference_linesearch(residual, merit, x, r, direction, slope):
    rr = float(r @ r)
    merit0 = None
    for k in range(MAX_BACKTRACKS):
        step = 0.5**k
        trial = x + (step * direction if k else direction)
        try:
            r_trial = residual(trial) if k == 0 or merit is None else None
            if k == 0 and float(r_trial @ r_trial) <= (1.0 - 2.0 * ARMIJO_C1) * rr:
                return trial, r_trial
            if merit is None:
                value, merit0 = 0.5 * float(r_trial @ r_trial), 0.5 * rr
            else:
                value = float(merit(trial))
                if merit0 is None:
                    merit0 = float(merit(x))
        except FloatingPointError:
            continue
        if value <= merit0 + ARMIJO_C1 * step * slope:
            if r_trial is None:
                r_trial = residual(trial)
            return trial, r_trial
    return None


def reference_newton(residual, jacobian, x0, settings=None,
                     reference_norm=None, merit=None):
    settings = settings or NewtonSettings()
    x = np.array(x0, dtype=float)
    r = residual(x)
    rnorm = math.sqrt(r @ r)
    ref = rnorm if reference_norm is None else float(reference_norm)
    target = settings.rel_tol * ref

    for it in range(settings.max_iters):
        if not np.isfinite(rnorm):
            return NewtonResult(x=x, iterations=it, converged=False,
                                reason="nonfinite")
        if rnorm <= target:
            return NewtonResult(x=x, iterations=it, converged=True,
                                reason="converged")
        jac = jacobian(x)
        direction, slope = reference_descent_direction(
            jac, r, r if merit is not None else jac.T @ r)
        if direction is None:
            return NewtonResult(x=x, iterations=it, converged=False,
                                reason="stationary")
        accepted = reference_linesearch(residual, merit, x, r, direction, slope)
        if accepted is None:
            return NewtonResult(x=x, iterations=it + 1, converged=False,
                                reason="linesearch")
        x, r = accepted
        rnorm = math.sqrt(r @ r)

    converged = rnorm <= target
    return NewtonResult(x=x, iterations=settings.max_iters,
                        converged=converged,
                        reason="converged" if converged else "budget")


def reference_step(system, linear_part, q0, v0, t0, dt, settings):
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    t_mid = t0 + 0.5 * dt
    f_mid = np.asarray(system.force(t_mid), dtype=float)

    q_mid0 = q0 + 0.5 * dt * v0

    def q_mid(a):
        return q_mid0 + 0.25 * dt * dt * a

    def residual(a):
        v_mid = v0 + 0.5 * dt * a
        return (system.mass @ a + system.damping @ v_mid
                + system.grad(q_mid(a)) - f_mid)

    def jacobian(a):
        return _plus_scaled(linear_part, 0.25 * dt * dt, system.hess(q_mid(a)))

    merit = None
    if system.potential is not None:
        def merit(a):
            return (float(a @ (0.5 * (system.mass @ a)
                               + system.damping @ (0.25 * dt * a + v0)))
                    + 4.0 / (dt * dt) * system.potential(q_mid(a))
                    - float(f_mid @ a))

    result = reference_newton(residual, jacobian, np.zeros_like(q0), settings,
                              merit=merit)
    a = result.x
    q1 = q0 + dt * v0 + 0.5 * dt * dt * a
    v1 = v0 + dt * a
    return q1, v1, result


def reference_force(system, model, reduced, forcing):
    """The replaced reduced force: each variant's operator applied to the
    sampled rows of the full load, Galerkin's projection of the full load."""
    s_idx = reduced.sample_set.indices
    if system.variant == "galerkin":
        return lambda t: system.phi.T @ model.external_force(t, forcing)
    if system.variant == "collocation":
        operator = system.phi[s_idx].T
    else:
        operator = reduced.reconstructors["force"]
    return lambda t: apply_force_reconstructor(
        operator, model.external_force_rows(s_idx, t, forcing))


def reference_energy(system, q, v):
    """The replaced energy record: one state at a time."""
    return np.array([0.5 * float(vk @ (system.mass_r @ vk))
                     + float(system.potential(qk)) for qk, vk in zip(q, v)])


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def _bits(array) -> bytes:
    array = np.asarray(array)
    return repr(array.shape).encode() + array.tobytes()


def recorded(newton, results):
    """``newton`` that appends each result's bytes, count and reason."""
    def run(*args, **kwargs):
        result = newton(*args, **kwargs)
        results.append((_bits(result.x), result.iterations, result.converged,
                        result.reason))
        return result
    return run


def _chain(band, n=12, c=0.1):
    """A chain of double wells, ``V = sum (x^2 - 1)^2 / 4 + c x.L x / 2``:
    near x = 0 its Hessian is negative definite, so Newton tries shifts."""
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    lap[0, 0] = lap[-1, -1] = 1.0

    def jacobian(x):
        if not band:
            return np.diag(3.0 * x * x - 1.0) + c * lap
        ab = np.zeros((3, n))
        ab[0, 1:] = ab[2, :-1] = -c
        ab[1] = 3.0 * x * x - 1.0 + c * np.diagonal(lap)
        return SymmetricBand(ab)

    return (lambda x: x**3 - x + c * (lap @ x), jacobian,
            lambda x: float(0.25 * np.sum((x * x - 1.0)**2)
                            + 0.5 * c * (x @ (lap @ x))))


def _collapsing(x):
    # Raises beyond 3, as a collapsing bar element does.
    if np.any(x > 3.0):
        raise FloatingPointError("bar element length collapse")
    return np.arctan(x)


def _arctan_jacobian(x):
    return np.atleast_2d(1 / (1 + x**2))


def _arctan_merit(x):
    return float(x @ np.arctan(x) - 0.5 * np.log1p(x @ x))


_X_CHAIN = 0.05 * np.random.default_rng(3).normal(size=12)
PROBLEMS = {
    # (residual, jacobian, merit, x0, settings)
    "band-shifts": (*_chain(True), _X_CHAIN, None),
    "dense-shifts": (*_chain(False), _X_CHAIN, None),
    "dense-shifts-no-merit": (*_chain(False)[:2], None, _X_CHAIN, None),
    "far-start": (np.arctan, _arctan_jacobian, None, np.array([20.0]),
                  NewtonSettings(rel_tol=1e-12)),
    "collapse": (_collapsing, _arctan_jacobian, None, np.array([-2.0]),
                 NewtonSettings(rel_tol=1e-12)),
    "collapse-merit": (_collapsing, _arctan_jacobian, _arctan_merit,
                       np.array([-2.0]), NewtonSettings(rel_tol=1e-12)),
    "budget": (lambda x: x**3 - 8.0, lambda x: np.atleast_2d(3 * x**2), None,
               np.array([3.0]), NewtonSettings(rel_tol=1e-14, max_iters=2)),
    "linesearch": (lambda x: x, lambda x: -np.eye(1), None, np.array([1.0]),
                   None),
    "stationary": (lambda x: x**2 + 1.0, lambda x: np.atleast_2d(2 * x), None,
                   np.array([0.0]), None),
}


@pytest.mark.parametrize("name", PROBLEMS)
def test_newton_equals_replaced_loop_on_every_path(name):
    """Levenberg shifts on band and dense Jacobians, backtracking with and
    without a merit, a trial point that raises, and each failure reason:
    the same result bytes, and residuals and merits evaluated at the same
    points in the same order."""
    residual, jacobian, merit, x0, settings = PROBLEMS[name]
    if name.endswith("shifts"):
        assert np.linalg.eigvalsh(_chain(False)[1](x0)).max() < 0.0

    def run(newton):
        points = []

        def logged(function, tag):
            def call(x):
                points.append((tag, _bits(x)))
                return function(x)
            return None if function is None else call

        result = newton(logged(residual, "r"), jacobian, x0, settings,
                        merit=logged(merit, "m"))
        return (_bits(result.x), result.iterations, result.converged,
                result.reason), points

    assert run(lagrom.midpoint.newton) == run(reference_newton)


@pytest.fixture(scope="module")
def hard_point():
    """Criterion 10's LHS training point 4 at 20 bays: its static solve
    fails at full load and takes 35-38 iterations per load increment."""
    model = build_truss(20, lhs_points(6, seed=1)[4])
    forcing = ForcingConfig(nominal_amplitudes=NOMINAL_FORCES, omega0=1.0,
                            final_time=2.0)
    return model, forcing


def test_multi_increment_static_solve_equals_replaced_loop(hard_point,
                                                           monkeypatch):
    model, forcing = hard_point
    runs = []
    for newton in (reference_newton, lagrom.midpoint.newton):
        results = []
        monkeypatch.setattr(lagrom.truss, "newton", recorded(newton, results))
        q0 = model.initial_displacement(forcing)
        runs.append((_bits(q0), results))
    monkeypatch.undo()
    (q_ref, ref), (q_new, new) = runs
    # Load increments that fail and are halved, and long ones.
    assert any(not converged for _, _, converged, _ in ref)
    assert max(iterations for _, iterations, _, _ in ref) >= 30
    assert new == ref
    assert q_new == q_ref


def test_full_order_run_equals_replaced_step(hard_point, monkeypatch):
    """A damped, forced 20-step HFM run from the hard point's initial
    condition: every state and Newton count is the replaced code's."""
    model, forcing = hard_point
    q0 = model.initial_displacement(forcing)

    def run():
        return integrate_full_model(
            model, 0.05, 1.0, State(q=q0, v=np.zeros_like(q0)), alpha=0.1,
            beta=1e-3, forcing=forcing)

    new = run()
    monkeypatch.setattr(lagrom.midpoint, "_step", reference_step)
    ref = run()
    monkeypatch.undo()
    assert new.stable and new.n_steps == 20
    assert ref.newton_iterations.sum() > 2 * 20   # some steps backtrack
    for name in ("q", "v", "newton_iterations", "quantity"):
        assert _bits(getattr(new, name)) == _bits(getattr(ref, name)), name


@pytest.fixture(scope="module")
def study():
    """A forced, damped study at 4 bays; the loads start at a quarter of
    the 1.0 s horizon."""
    config = ExperimentConfig(bays=4, dt=0.05, final_time=1.0, zeta=0.05,
                              n_train=2, seed_train=1, seed_online=1,
                              n_online=1, energy_state=1 - 1e-6)
    offline = run_offline(config)
    return offline, reduce_products(offline, 50.0), online_points(config)[0]


@pytest.mark.parametrize("variant", VARIANTS)
def test_reduced_run_matches_replaced_step(study, variant, monkeypatch):
    """Each variant steps as with the replaced Newton loop, sampled-row
    force and per-state energy: equal Newton counts, states to 1e-13."""
    offline, reduced, mu = study
    config = offline.config
    model = build_truss(config.bays, mu)
    system = build_variant(offline, reduced, model, variant)
    q_r0 = system.phi.T @ model.initial_displacement(offline.forcing)
    state0 = State(q=q_r0, v=np.zeros_like(q_r0))

    def run(system):
        return integrate_rom(system, config.dt, config.final_time, state0,
                             settings=config.newton_settings,
                             record_energy=True)

    new = run(system)
    monkeypatch.setattr(lagrom.midpoint, "_step", reference_step)
    ref = run(dataclasses.replace(system, force=reference_force(
        system, model, reduced, offline.forcing)))
    monkeypatch.undo()
    assert new.n_steps == ref.n_steps == 20
    assert np.array_equal(new.newton_iterations, ref.newton_iterations)
    for name in ("q", "v", "quantity"):
        value, expected = getattr(new, name), getattr(ref, name)
        assert (np.abs(value - expected).max()
                <= 1e-13 * np.abs(expected).max()), name
    if system.potential is None:
        assert new.energy is None
    else:
        expected = reference_energy(system, ref.q, ref.v)
        assert (np.abs(new.energy - expected).max()
                <= 1e-13 * np.abs(expected).max())
