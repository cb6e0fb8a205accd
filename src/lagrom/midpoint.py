"""Implicit midpoint time stepping with a globalized Newton inner solver.

The step unknown is the stage acceleration of the one-stage Gauss
collocation form: all terms of ``M a + C v + grad V(q) = f(t)`` are
evaluated at the midpoint state, which makes the scheme second order and
symplectic for conservative systems.  A system with a potential makes the
step the minimizer of an incremental potential (an incremental variational
update), and the same Newton routine serves the static equilibrium solves:
Levenberg-shifted Newton directions and Armijo backtracking on the
potential, or on the squared residual norm for a system without one.
Convergence is declared relative to the residual of the zero-acceleration
predictor.  A Jacobian given as a :class:`~lagrom.band.SymmetricBand` (the
full-order model) is solved by banded LU, a dense one (the reduced models)
by dense LU (LAPACK ``gesv``).
"""

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .band import SymmetricBand

# Armijo sufficient-decrease constant and the number of step lengths
# 1, 1/2, 1/4, ... one linesearch tries.
ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 40
# Levenberg shifts of the Newton matrix, in units of its mean |diagonal|.
SHIFTS = (0.0, 1e-8, 1e-5, 1e-2, 1.0, 1e2)
# Unconverged steps after which an integration stops and is flagged unstable.
MAX_FAILED_STEPS = 3

_GESV, = scipy.linalg.get_lapack_funcs(("gesv",), (np.zeros(1),))


@dataclass(frozen=True)
class NewtonSettings:
    rel_tol: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:   # false for NaN
            raise ValueError("rel_tol must be positive and finite: %r"
                             % self.rel_tol)
        if not (isinstance(self.max_iters, numbers.Integral)
                and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer of at least 1: %r"
                             % self.max_iters)


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
    reason: str


@dataclass(frozen=True)
class State:
    """Configuration/velocity pair at one time instant."""
    q: np.ndarray
    v: np.ndarray


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
    or all :class:`~lagrom.band.SymmetricBand`.  ``potential``, when given,
    is the function whose gradient is ``grad``; ``mass`` and ``damping``
    are then symmetric.
    """

    mass: np.ndarray | SymmetricBand
    damping: np.ndarray | SymmetricBand
    grad: object          # q -> vector
    hess: object          # q -> matrix of the type of ``mass``
    force: object         # t -> vector
    potential: object = None   # q -> scalar


# ---------------------------------------------------------------------------
# Globalized Newton
# ---------------------------------------------------------------------------

def _dense_solve(a, b):
    """``a^{-1} b`` by LU with partial pivoting (LAPACK ``gesv``)."""
    _, _, x, info = _GESV(a, b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _descent_direction(jac, r, merit_grad):
    """First Levenberg direction ``-(J + tau I)^{-1} r`` along which the
    merit descends, or steepest descent; ``(None, 0.0)`` if the merit
    gradient vanishes.  Returns ``(direction, slope)``."""
    band = isinstance(jac, SymmetricBand)
    neg_r = -r     # both solvers copy the right-hand side
    scale = None   # the mean |diagonal|, formed once a shift is tried
    for tau in SHIFTS:
        try:
            if not tau:
                direction = jac.solve(neg_r) if band else _dense_solve(jac, neg_r)
            else:
                if scale is None:
                    diag = jac.ab[jac.half] if band else np.diagonal(jac)
                    scale = max(float(np.abs(diag).sum() / diag.size), 1e-300)
                direction = (jac.shifted(tau * scale).solve(neg_r) if band else
                             _dense_solve(jac + tau * scale * np.eye(len(r)), neg_r))
        except np.linalg.LinAlgError:
            continue
        slope = float(merit_grad @ direction)
        if slope < 0.0:   # false for NaN
            return direction, slope
    slope = -float(merit_grad @ merit_grad)
    return (-merit_grad, slope) if slope < 0.0 else (None, 0.0)


def _linesearch(residual, merit, x, rr, direction, slope, trial, r_trial):
    """Accepted ``(x, r)`` along ``direction``, or None, once the full step
    ``trial = x + direction`` has failed :func:`newton`'s residual test;
    ``r_trial`` is its residual, None if it raised.

    Steps 1, 1/2, 1/4, ... are tried under Armijo on the merit (on ``0.5
    ||r||^2`` without one; ``rr`` is ``||r||^2`` at ``x``).  A
    ``FloatingPointError`` at a trial point rejects that step.
    """
    merit0 = 0.5 * rr if merit is None else None
    for k in range(MAX_BACKTRACKS):
        step = 0.5**k
        try:
            if k:
                trial = x + step * direction
                r_trial = residual(trial) if merit is None else None
            elif r_trial is None:   # the full step raised
                continue
            if merit is None:
                value = 0.5 * float(r_trial @ r_trial)
            else:
                value = float(merit(trial))
                if merit0 is None:
                    merit0 = float(merit(x))
        except FloatingPointError:
            continue
        if value <= merit0 + ARMIJO_C1 * step * slope:
            return trial, residual(trial) if r_trial is None else r_trial
    return None


def newton(residual, jacobian, x0, settings: NewtonSettings | None = None,
           reference_norm=None, merit=None) -> NewtonResult:
    """Newton's method with Levenberg shifts and a backtracking linesearch.

    ``merit`` is a potential whose gradient is ``residual``; the iteration
    then minimizes it (the residual's Jacobian is its Hessian).  Without
    one the merit is ``0.5 ||r||^2``, and the Jacobian must be dense; a
    :class:`~lagrom.band.SymmetricBand` comes with a merit.  Convergence:
    ``||r|| <= rel_tol * reference_norm`` (reference defaults to the
    initial residual norm).  Non-convergence is reported through the result, not raised; a
    non-finite residual at an iterate ends the iteration at once.  One
    Jacobian is assembled per iteration, none at trial points.

    The full step is taken when it cuts ``||r||^2`` by the factor ``1 - 2
    c1`` (for an exact Newton direction, Armijo on ``0.5 ||r||^2``);
    otherwise :func:`_linesearch` backtracks from it.
    """
    settings = settings or NewtonSettings()
    x = np.array(x0, dtype=float)
    r = residual(x)
    rr = float(r @ r)
    rnorm = math.sqrt(rr)
    ref = rnorm if reference_norm is None else float(reference_norm)
    target = settings.rel_tol * ref

    for it in range(settings.max_iters):
        if not math.isfinite(rnorm):
            return NewtonResult(x=x, iterations=it, converged=False,
                                reason="nonfinite")
        if rnorm <= target:
            return NewtonResult(x=x, iterations=it, converged=True,
                                reason="converged")
        jac = jacobian(x)
        direction, slope = _descent_direction(
            jac, r, r if merit is not None else jac.T @ r)
        if direction is None:
            return NewtonResult(x=x, iterations=it, converged=False,
                                reason="stationary")
        trial = x + direction
        try:
            r_trial = residual(trial)
            rr_trial = float(r_trial @ r_trial)
        except FloatingPointError:
            r_trial, rr_trial = None, math.nan
        if rr_trial <= (1.0 - 2.0 * ARMIJO_C1) * rr:
            x, r, rr = trial, r_trial, rr_trial
        else:
            accepted = _linesearch(residual, merit, x, rr, direction, slope,
                                   trial, r_trial)
            if accepted is None:
                return NewtonResult(x=x, iterations=it + 1, converged=False,
                                    reason="linesearch")
            x, r = accepted
            rr = float(r @ r)
        rnorm = math.sqrt(rr)

    converged = rnorm <= target
    return NewtonResult(x=x, iterations=settings.max_iters,
                        converged=converged,
                        reason="converged" if converged else "budget")


# ---------------------------------------------------------------------------
# Implicit midpoint stepping
# ---------------------------------------------------------------------------

def midpoint_step(system: SecondOrderSystem, q0, v0, t0, dt,
                  settings: NewtonSettings | None = None):
    """Advance one step; returns ``(q1, v1, newton_result)``.

    The Newton reference residual is the residual of the zero-acceleration
    predictor, evaluated afresh each step.  With a potential, M and C
    symmetric, the residual is the gradient of the incremental potential
    ``0.5 a.(M + 0.5 dt C) a + a.C v0 + (4/dt^2) V(q_mid(a)) - f.a``, which
    Newton then minimizes.
    """
    return _step(system, system.mass + 0.5 * dt * system.damping, q0, v0, t0,
                 dt, settings or NewtonSettings())


def _plus_scaled(a, scalar, b):
    """``a + scalar * b`` for two dense arrays or two bands, in one new
    array: the bits of the two-operation form, without its temporary."""
    band = isinstance(a, SymmetricBand)
    out = np.multiply(scalar, b.ab if band else b)
    np.add(a.ab if band else a, out, out=out)
    return SymmetricBand(out) if band else out


def _step(system, linear_part, q0, v0, t0, dt, settings):
    """:func:`midpoint_step` with its Newton matrix's constant part
    ``linear_part = M + 0.5 dt C`` given, so a run of steps forms it once."""
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    f_mid = np.asarray(system.force(t0 + 0.5 * dt), dtype=float)
    mass, damping, grad, hess = (system.mass, system.damping, system.grad,
                                 system.hess)
    half_dt = 0.5 * dt
    h = 0.25 * dt * dt           # d q_mid / d a
    q_mid0 = q0 + half_dt * v0   # the midpoint at zero acceleration

    def residual(a):
        return (mass @ a + damping @ (v0 + half_dt * a)
                + grad(q_mid0 + h * a) - f_mid)

    def jacobian(a):
        return _plus_scaled(linear_part, h, hess(q_mid0 + h * a))

    merit = None
    if system.potential is not None:
        potential, quarter_dt = system.potential, 0.25 * dt
        v_weight = 4.0 / (dt * dt)

        def merit(a):
            # 0.5 a.(M + 0.5 dt C) a + a.C v0 + (4/dt^2) V(q_mid(a)) - f.a
            return (float(a @ (0.5 * (mass @ a)
                               + damping @ (quarter_dt * a + v0)))
                    + v_weight * potential(q_mid0 + h * a)
                    - float(f_mid @ a))

    # The reference residual is the one at the first iterate, zero.
    result = newton(residual, jacobian, np.zeros_like(q0), settings,
                    merit=merit)
    a = result.x
    q1 = q0 + dt * v0 + 0.5 * dt * dt * a
    v1 = v0 + dt * a
    return q1, v1, result


def implicit_midpoint_solve(system: SecondOrderSystem, state0: State, dt, t_end,
                            settings: NewtonSettings | None = None) -> Trajectory:
    """Integrate from t = 0 to ``t_end`` with fixed step ``dt``.

    A step whose Newton iteration does not converge is marked failed, with
    its ``NewtonResult.reason``, but its best iterate is kept; after
    ``MAX_FAILED_STEPS`` failures the run stops early and the trajectory is
    flagged unstable instead of raising.
    """
    settings = settings or NewtonSettings()
    if dt <= 0:
        raise ValueError("time step must be positive")
    t_end = float(t_end)
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(abs(t_end), 1.0):
        raise ValueError("time span must be an integral number of steps")

    dim = len(np.asarray(state0.q))
    times = dt * np.arange(n_steps + 1)
    q = np.zeros((n_steps + 1, dim))
    v = np.zeros((n_steps + 1, dim))
    q[0], v[0] = state0.q, state0.v
    iters = np.zeros(n_steps, dtype=int)

    start = time.perf_counter()
    linear_part = system.mass + 0.5 * dt * system.damping
    failures = []
    stopped_at = n_steps
    for k in range(n_steps):
        q[k + 1], v[k + 1], result = _step(
            system, linear_part, q[k], v[k], times[k], dt, settings)
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
