"""Implicit midpoint time stepping with a globalized Newton inner solver.

The step unknown is the stage acceleration of the one-stage Gauss
collocation form: all terms of ``M a + C v + grad V(q) = f(t)`` are
evaluated at the midpoint state, which makes the scheme second order and
symplectic for conservative systems.  Newton iterations are globalized by
a strong-Wolfe linesearch on the squared residual norm, and convergence is
declared relative to the residual of the zero-acceleration predictor.  A
Jacobian given as a :class:`~lagrom.band.SymmetricBand` (the full-order
model) is solved by banded LU, a dense one (the reduced models) by dense LU.
"""

import time
from dataclasses import dataclass

import numpy as np

from .band import SymmetricBand

# Strong-Wolfe constants (sufficient decrease, curvature) and the bracketing
# and zoom budgets of one linesearch.
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
MAX_LINESEARCH = 30
# Unconverged steps after which an integration stops and is flagged unstable.
MAX_FAILED_STEPS = 3


@dataclass(frozen=True)
class NewtonSettings:
    rel_tol: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("relative tolerance must be positive")


@dataclass(frozen=True)
class NewtonResult:
    """Outcome of :func:`newton`.

    ``reason`` is why the iteration ended: ``converged``, ``budget`` (the
    iteration limit), ``linesearch`` (no acceptable step along the
    direction), ``stationary`` (a stationary point of the merit away from a
    root) or ``nonfinite`` (a non-finite residual).
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    reason: str


@dataclass(frozen=True)
class State:
    """Configuration/velocity pair at one time instant."""
    q: np.ndarray
    v: np.ndarray
    t: float = 0.0


@dataclass
class Trajectory:
    """Time series produced by one integration run."""

    times: np.ndarray
    q: np.ndarray                   # (n_times, dim)
    v: np.ndarray
    newton_iterations: np.ndarray   # (n_times - 1,)
    stable: bool
    failure_reasons: tuple          # NewtonResult.reason of each failed step
    wall_time: float = 0.0
    quantity: np.ndarray | None = None
    energy: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def failed_steps(self) -> int:
        return len(self.failure_reasons)


@dataclass(frozen=True)
class SecondOrderSystem:
    """Operators of ``M a + C v + grad(q) = force(t)`` plus the potential
    Hessian used in the Newton Jacobian.

    ``mass``, ``damping`` and the values of ``hess`` are all dense arrays
    or all :class:`~lagrom.band.SymmetricBand`.
    """

    mass: np.ndarray | SymmetricBand
    damping: np.ndarray | SymmetricBand
    grad: object          # q -> vector
    hess: object          # q -> matrix of the type of ``mass``
    force: object         # t -> vector

    @property
    def dim(self) -> int:
        return self.mass.shape[0]


# ---------------------------------------------------------------------------
# Globalized Newton
# ---------------------------------------------------------------------------

def _strong_wolfe(phi, dphi, phi0, dphi0):
    """Step length meeting sufficient decrease and the curvature condition.

    Bracketing/zoom on the scalar merit phi; returns None when no
    acceptable step exists within the iteration budget.
    """
    a_prev, phi_prev = 0.0, phi0
    a = 1.0
    for i in range(MAX_LINESEARCH):
        phi_a = phi(a)
        if phi_a > phi0 + WOLFE_C1 * a * dphi0 or (i > 0 and phi_a >= phi_prev):
            return _zoom(a_prev, a, phi_prev, phi, dphi, phi0, dphi0)
        dphi_a = dphi(a)
        if abs(dphi_a) <= -WOLFE_C2 * dphi0:
            return a
        if dphi_a >= 0.0:
            return _zoom(a, a_prev, phi_a, phi, dphi, phi0, dphi0)
        a_prev, phi_prev = a, phi_a
        a *= 2.0
    return None


def _zoom(lo, hi, phi_lo, phi, dphi, phi0, dphi0):
    best = None
    for _ in range(MAX_LINESEARCH):
        a = 0.5 * (lo + hi)
        phi_a = phi(a)
        if phi_a > phi0 + WOLFE_C1 * a * dphi0 or phi_a >= phi_lo:
            hi = a
        else:
            best = a
            dphi_a = dphi(a)
            if abs(dphi_a) <= -WOLFE_C2 * dphi0:
                return a
            if dphi_a * (hi - lo) >= 0.0:
                hi = lo
            lo, phi_lo = a, phi_a
    return best if best is not None else (lo if phi_lo < phi0 else None)


def newton(residual, jacobian, x0, settings: NewtonSettings | None = None,
           reference_norm=None) -> NewtonResult:
    """Newton's method with a strong-Wolfe linesearch on ``0.5 ||r||^2``.

    Convergence: ``||r|| <= rel_tol * reference_norm`` (reference defaults
    to the initial residual norm).  Non-convergence is reported through the
    result, not raised; a non-finite residual at an iterate ends the
    iteration at once.

    The residual and Jacobian at the last point evaluated are kept and
    reused when the same point is asked for again: the linesearch asks for
    both at a trial step, and an accepted step is the next iterate.
    """
    settings = settings or NewtonSettings()
    last_point, last_r, last_jac = None, None, None

    def at(point, with_jacobian=False):
        """Residual (and Jacobian) at ``point``, reused if it is the last."""
        nonlocal last_point, last_r, last_jac
        key = point.tobytes()   # bitwise equality; -0.0 differs from 0.0
        if key != last_point:
            last_point, last_r, last_jac = key, np.atleast_1d(residual(point)), None
        if with_jacobian and last_jac is None:
            last_jac = jacobian(point)
            if not isinstance(last_jac, SymmetricBand):
                last_jac = np.atleast_2d(last_jac)
        return last_r, last_jac

    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    r, _ = at(x)
    rnorm = float(np.linalg.norm(r))
    ref = rnorm if reference_norm is None else float(reference_norm)
    target = settings.rel_tol * ref

    for it in range(settings.max_iters):
        if not np.isfinite(rnorm):
            return NewtonResult(x=x, iterations=it, converged=False,
                                residual_norm=rnorm, reason="nonfinite")
        if rnorm <= target:
            return NewtonResult(x=x, iterations=it, converged=True,
                                residual_norm=rnorm, reason="converged")
        _, jac = at(x, with_jacobian=True)
        grad = jac.T @ r
        try:
            direction = (jac.solve(-r) if isinstance(jac, SymmetricBand)
                         else np.linalg.solve(jac, -r))
        except np.linalg.LinAlgError:
            direction = -grad
        slope = float(grad @ direction)
        if not np.isfinite(slope) or slope >= 0.0:
            direction = -grad
            slope = -float(grad @ grad)
            if slope == 0.0:
                return NewtonResult(x=x, iterations=it, converged=False,
                                    residual_norm=rnorm, reason="stationary")

        def phi(a):
            ra, _ = at(x + a * direction)
            return 0.5 * float(ra @ ra)

        def dphi(a):
            ra, ja = at(x + a * direction, with_jacobian=True)
            return float((ja.T @ ra) @ direction)

        phi0 = 0.5 * rnorm * rnorm
        step = _strong_wolfe(phi, dphi, phi0, slope)
        if step is None:
            return NewtonResult(x=x, iterations=it + 1, converged=False,
                                residual_norm=rnorm, reason="linesearch")
        x = x + step * direction
        r, _ = at(x)
        rnorm = float(np.linalg.norm(r))

    converged = rnorm <= target
    return NewtonResult(x=x, iterations=settings.max_iters,
                        converged=converged, residual_norm=rnorm,
                        reason="converged" if converged else "budget")


# ---------------------------------------------------------------------------
# Implicit midpoint stepping
# ---------------------------------------------------------------------------

def midpoint_step(system: SecondOrderSystem, q0, v0, t0, dt,
                  settings: NewtonSettings | None = None):
    """Advance one step; returns ``(q1, v1, newton_result)``.

    The Newton reference residual is the residual of the zero-acceleration
    predictor, evaluated afresh each step.
    """
    settings = settings or NewtonSettings()
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    t_mid = t0 + 0.5 * dt
    f_mid = np.asarray(system.force(t_mid), dtype=float)

    def q_mid(a):
        return q0 + 0.5 * dt * v0 + 0.25 * dt * dt * a

    def residual(a):
        v_mid = v0 + 0.5 * dt * a
        return (system.mass @ a + system.damping @ v_mid
                + system.grad(q_mid(a)) - f_mid)

    linear_part = system.mass + 0.5 * dt * system.damping

    def jacobian(a):
        return linear_part + 0.25 * dt * dt * system.hess(q_mid(a))

    # The reference residual is the one at the first iterate, zero.
    result = newton(residual, jacobian, np.zeros_like(q0), settings)
    a = result.x
    q1 = q0 + dt * v0 + 0.5 * dt * dt * a
    v1 = v0 + dt * a
    return q1, v1, result


def implicit_midpoint_solve(system: SecondOrderSystem, state0: State, dt, t_end,
                            settings: NewtonSettings | None = None) -> Trajectory:
    """Integrate from ``state0.t`` to ``t_end`` with fixed step ``dt``.

    A step whose Newton iteration does not converge is marked failed, with
    its ``NewtonResult.reason``, but its best iterate is kept; after
    ``MAX_FAILED_STEPS`` failures the run stops early and the trajectory is
    flagged unstable instead of raising.
    """
    settings = settings or NewtonSettings()
    if dt <= 0:
        raise ValueError("time step must be positive")
    span = float(t_end) - float(state0.t)
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(abs(span), 1.0):
        raise ValueError("time span must be an integral number of steps")

    dim = len(np.asarray(state0.q))
    times = state0.t + dt * np.arange(n_steps + 1)
    q = np.zeros((n_steps + 1, dim))
    v = np.zeros((n_steps + 1, dim))
    q[0], v[0] = state0.q, state0.v
    iters = np.zeros(n_steps, dtype=int)

    start = time.perf_counter()
    failures = []
    stopped_at = n_steps
    for k in range(n_steps):
        q[k + 1], v[k + 1], result = midpoint_step(
            system, q[k], v[k], times[k], dt, settings)
        iters[k] = result.iterations
        if not result.converged:
            failures.append(result.reason)
            if len(failures) >= MAX_FAILED_STEPS:
                stopped_at = k + 1
                break
    wall = time.perf_counter() - start

    end = stopped_at + 1
    return Trajectory(
        times=times[:end], q=q[:end], v=v[:end],
        newton_iterations=iters[:stopped_at],
        stable=len(failures) < MAX_FAILED_STEPS,
        failure_reasons=tuple(failures), wall_time=wall)


def richardson_estimate(coarse, medium, fine):
    """Observed convergence rate and extrapolated error of the finest value.

    Applies the Richardson rule to one scalar quantity computed at steps
    ``dt``, ``dt/2`` and ``dt/4``.
    """
    d1 = float(coarse) - float(medium)
    d2 = float(medium) - float(fine)
    if d2 == 0.0 or not np.isfinite(d1 / d2) or d1 / d2 <= 0.0:
        raise ValueError("differences below noise floor")
    rate = float(np.log2(d1 / d2))
    error = abs(d2) / (2.0**rate - 1.0) if rate > 0 else np.inf
    return rate, error
