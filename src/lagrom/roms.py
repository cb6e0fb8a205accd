"""The five reduced-order model variants and their energy diagnostics.

Galerkin projects every operator densely (no complexity reduction);
collocation and gappy POD sample the equations of motion and lose the
symmetry of the reduced mass/damping matrices; the two structure-preserving
variants approximate the Lagrangian ingredients instead (mass by sparse
congruence or constrained matrix reconstruction, potential through the
sparse potential map, damping as their combination, force by gappy
reconstruction) and keep symmetric positive-definite operators by
construction.
"""

import time
from dataclasses import dataclass

import numpy as np

from .gappy import ForceReconstructor, apply_force_reconstructor
from .midpoint import (NewtonSettings, SecondOrderSystem, State, Trajectory,
                       implicit_midpoint_solve)
from .potential_map import (build_potential_map, approx_reduced_gradient,
                            approx_reduced_hessian)
from .spd_approx import (MatrixGappyBasis, RBSMap, gappy_matrix_assemble,
                         gappy_matrix_coeffs, rbs_apply, symmetrize)
from .truss import damping_matrix

VARIANTS = ("galerkin", "collocation", "gappy_pod", "sp_rbs", "sp_matrix_gappy")


@dataclass
class ReducedSystem:
    """A built reduced-order model ready for time integration."""

    variant: str
    mass_r: np.ndarray
    damping_r: np.ndarray
    grad: object                  # q_r -> (n,) reduced potential gradient
    hess: object                  # q_r -> (n, n) Newton Jacobian contribution
    force: object                 # t -> (n,) reduced external force
    phi: np.ndarray
    q_ref: np.ndarray
    mu: object = None
    potential: object = None      # q_r -> scalar, for energy diagnostics
    qoi_weights: np.ndarray | None = None
    qoi_offset: float = 0.0
    setup_seconds: float = 0.0

    @property
    def n(self) -> int:
        return self.mass_r.shape[0]

    def second_order_system(self) -> SecondOrderSystem:
        return SecondOrderSystem(mass=self.mass_r, damping=self.damping_r,
                                 grad=self.grad, hess=self.hess, force=self.force)


def reconstruct(phi, q_ref, q_r) -> np.ndarray:
    """Map reduced coordinates back to the full configuration space."""
    return np.asarray(q_ref, dtype=float) + np.asarray(phi, dtype=float) @ q_r


def _zero_force(n):
    zero = np.zeros(n)
    return lambda t: zero


def _qoi(model, phi, q_ref):
    tip = getattr(model, "tip_dof", None)
    if tip is None:
        return None, 0.0
    return phi[tip, :].copy(), float(np.asarray(q_ref)[tip])


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_galerkin(model, phi, q_ref=None, alpha=0.0, beta=0.0,
                   forcing=None, mu=None) -> ReducedSystem:
    """Dense Galerkin projection of every operator (no complexity reduction)."""
    start = time.perf_counter()
    phi = np.asarray(phi, dtype=float)
    n_full = model.dof_count
    q_ref = np.zeros(n_full) if q_ref is None else np.asarray(q_ref, dtype=float)

    # A congruence is symmetric; kill the product round-off so the
    # structural dichotomy against sampled variants is exact.
    mass_r = symmetrize(phi.T @ (model.mass_dense() @ phi))
    damping_r = symmetrize(phi.T @ (damping_matrix(model, alpha, beta) @ phi))

    def grad(q_r):
        return phi.T @ model.internal_force(q_ref + phi @ q_r)

    def hess(q_r):
        return phi.T @ model.tangent_stiffness(q_ref + phi @ q_r) @ phi

    if forcing is None:
        force = _zero_force(phi.shape[1])
    else:
        def force(t):
            return phi.T @ model.external_force(t, forcing)

    def potential(q_r):
        return model.potential_energy(q_ref + phi @ q_r)

    weights, offset = _qoi(model, phi, q_ref)
    return ReducedSystem(variant="galerkin", mass_r=mass_r, damping_r=damping_r,
                         grad=grad, hess=hess, force=force, phi=phi, q_ref=q_ref,
                         mu=mu, potential=potential, qoi_weights=weights,
                         qoi_offset=offset,
                         setup_seconds=time.perf_counter() - start)


def build_collocation(model, phi, sample_set, q_ref=None, alpha=0.0, beta=0.0,
                      forcing=None, mu=None) -> ReducedSystem:
    """Galerkin projection of the sampled subset of the full equations.

    Every operator is left-multiplied by the sampled test basis, which
    breaks the symmetry of the reduced mass and damping matrices whenever
    the sampling is partial.
    """
    start = time.perf_counter()
    phi = np.asarray(phi, dtype=float)
    n_full = model.dof_count
    q_ref = np.zeros(n_full) if q_ref is None else np.asarray(q_ref, dtype=float)
    s_idx = sample_set.indices
    phi_s = phi[s_idx, :]

    mass_r = phi_s.T @ (model.mass_dense()[s_idx, :] @ phi)
    damping_r = phi_s.T @ (damping_matrix(model, alpha, beta)[s_idx, :] @ phi)

    def grad(q_r):
        return phi_s.T @ model.internal_force_rows_dense(s_idx, q_ref + phi @ q_r)

    def hess(q_r):
        rows = model.tangent_stiffness_rows_dense(s_idx, q_ref + phi @ q_r)
        return phi_s.T @ (rows @ phi)

    if forcing is None:
        force = _zero_force(phi.shape[1])
    else:
        def force(t):
            return phi_s.T @ model.external_force_rows(s_idx, t, forcing)

    weights, offset = _qoi(model, phi, q_ref)
    return ReducedSystem(variant="collocation", mass_r=mass_r, damping_r=damping_r,
                         grad=grad, hess=hess, force=force, phi=phi, q_ref=q_ref,
                         mu=mu, potential=None, qoi_weights=weights,
                         qoi_offset=offset,
                         setup_seconds=time.perf_counter() - start)


def build_gappy_rom(model, phi, reconstructors, sample_set, q_ref=None,
                    alpha=0.0, beta=0.0, forcing=None, mu=None) -> ReducedSystem:
    """Gappy POD baseline: a separate reconstruction for every term.

    ``reconstructors`` maps the keys ``mass``, ``damping``, ``potential``
    and ``force`` to :class:`ForceReconstructor` instances built on the
    shared sample set.
    """
    start = time.perf_counter()
    phi = np.asarray(phi, dtype=float)
    n_full = model.dof_count
    q_ref = np.zeros(n_full) if q_ref is None else np.asarray(q_ref, dtype=float)
    s_idx = sample_set.indices

    g_mass = reconstructors["mass"].operator
    g_damp = reconstructors["damping"].operator
    g_grad = reconstructors["potential"].operator
    g_force = reconstructors["force"]

    mass_r = g_mass @ (model.mass_dense()[s_idx, :] @ phi)
    damping_r = g_damp @ (damping_matrix(model, alpha, beta)[s_idx, :] @ phi)

    def grad(q_r):
        return g_grad @ model.internal_force_rows_dense(s_idx, q_ref + phi @ q_r)

    def hess(q_r):
        rows = model.tangent_stiffness_rows_dense(s_idx, q_ref + phi @ q_r)
        return g_grad @ (rows @ phi)

    if forcing is None:
        force = _zero_force(phi.shape[1])
    else:
        def force(t):
            return apply_force_reconstructor(
                g_force, model.external_force_rows(s_idx, t, forcing))

    weights, offset = _qoi(model, phi, q_ref)
    return ReducedSystem(variant="gappy_pod", mass_r=mass_r, damping_r=damping_r,
                         grad=grad, hess=hess, force=force, phi=phi, q_ref=q_ref,
                         mu=mu, potential=None, qoi_weights=weights,
                         qoi_offset=offset,
                         setup_seconds=time.perf_counter() - start)


def build_structure_preserving(model, phi, sample_set, method, mass_product,
                               alpha=0.0, beta=0.0,
                               force_reconstructor: ForceReconstructor | None = None,
                               forcing=None, mu=None) -> ReducedSystem:
    """Assemble a structure-preserving reduced model from offline products.

    ``method`` selects the mass approximation: ``"rbs"`` applies the fitted
    sparse congruence to the sampled online mass block, ``"matrix_gappy"``
    solves the constrained sampled least-squares problem and assembles the
    reduced combination.  The potential is handled through the sparse
    potential map built here for the online parameter; the damping matrix
    combines the approximated mass with the reduced equilibrium Hessian,
    which the map reproduces exactly.
    """
    start = time.perf_counter()
    phi = np.asarray(phi, dtype=float)
    n_full = model.dof_count
    n = phi.shape[1]
    s_idx = sample_set.indices

    sampled_mass = model.mass_entries(s_idx, s_idx)
    if method == "rbs":
        if not isinstance(mass_product, RBSMap):
            raise TypeError("rbs method needs an RBSMap mass product")
        mass_r = rbs_apply(mass_product, sampled_mass)
    elif method == "matrix_gappy":
        if not isinstance(mass_product, MatrixGappyBasis):
            raise TypeError("matrix_gappy method needs a MatrixGappyBasis")
        coeffs = gappy_matrix_coeffs(sampled_mass, mass_product)
        mass_r = gappy_matrix_assemble(coeffs, mass_product)
    else:
        raise ValueError("unknown structure-preserving method %r" % method)

    # Equilibrium Hessian blocks: the reduced one is the documented
    # parameter-amortized large-dimension step, the sampled one is cheap.
    zeros = np.zeros(n_full)
    k0_reduced = phi.T @ model.tangent_stiffness(zeros) @ phi
    first = sample_set.first(n)
    k0_sampled = model.tangent_stiffness_block(first, first, [], [])
    pmap = build_potential_map(k0_reduced, k0_sampled, sample_set, parameter=mu)

    damping_r = alpha * mass_r + beta * k0_reduced

    def grad(q_r):
        return approx_reduced_gradient(pmap, model.internal_force_rows, q_r)

    def hess(q_r):
        return approx_reduced_hessian(pmap, model.tangent_stiffness_block, q_r)

    if forcing is None or force_reconstructor is None:
        force = _zero_force(n)
    else:
        def force(t):
            return apply_force_reconstructor(
                force_reconstructor, model.external_force_rows(s_idx, t, forcing))

    def potential(q_r):
        return model.potential_energy_sparse(pmap.rows, pmap.factor @ q_r)

    weights, offset = _qoi(model, phi, np.zeros(n_full))
    variant = "sp_rbs" if method == "rbs" else "sp_matrix_gappy"
    return ReducedSystem(variant=variant, mass_r=mass_r, damping_r=damping_r,
                         grad=grad, hess=hess, force=force, phi=phi,
                         q_ref=np.zeros(n_full), mu=mu, potential=potential,
                         qoi_weights=weights, qoi_offset=offset,
                         setup_seconds=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Integration and energy
# ---------------------------------------------------------------------------

def integrate_rom(system: ReducedSystem, dt, t_end,
                  settings: NewtonSettings | None = None,
                  state0: State | None = None,
                  record_energy: bool = False) -> Trajectory:
    """Integrate a reduced system with the shared midpoint/Newton stack."""
    if state0 is None:
        state0 = State(q=np.zeros(system.n), v=np.zeros(system.n))
    traj = implicit_midpoint_solve(system.second_order_system(), state0, dt,
                                   t_end, settings)
    if system.qoi_weights is not None:
        traj.quantity = system.qoi_offset + traj.q @ system.qoi_weights
    if record_energy and system.potential is not None:
        traj.energy = np.array([reduced_total_energy(system, q, v)
                                for q, v in zip(traj.q, traj.v)])
    return traj


def full_order_system(model, alpha=0.0, beta=0.0, forcing=None) -> SecondOrderSystem:
    """The unreduced equations of motion in integrator form."""
    if forcing is None:
        force = _zero_force(model.dof_count)
    else:
        def force(t):
            return model.external_force(t, forcing)
    return SecondOrderSystem(mass=model.mass_dense(),
                             damping=damping_matrix(model, alpha, beta),
                             grad=model.internal_force,
                             hess=model.tangent_stiffness,
                             force=force)


def integrate_full_model(model, dt, t_end, alpha=0.0, beta=0.0, forcing=None,
                         state0: State | None = None,
                         settings: NewtonSettings | None = None,
                         record_energy: bool = False) -> Trajectory:
    """Reference full-order solve; records the tip displacement."""
    if state0 is None:
        zeros = np.zeros(model.dof_count)
        state0 = State(q=zeros, v=zeros.copy())
    system = full_order_system(model, alpha, beta, forcing)
    traj = implicit_midpoint_solve(system, state0, dt, t_end, settings)
    traj.quantity = np.array([model.tip_displacement(q) for q in traj.q])
    if record_energy:
        traj.energy = np.array([total_energy(model, q, v)
                                for q, v in zip(traj.q, traj.v)])
    return traj


def total_energy(model, q, v) -> float:
    """Hamiltonian of the full model: kinetic plus potential energy."""
    v = np.asarray(v, dtype=float)
    return 0.5 * float(v @ (model.mass_dense() @ v)) + model.potential_energy(q)


def reduced_total_energy(system: ReducedSystem, q_r, v_r) -> float:
    """Hamiltonian of a reduced model through its approximated ingredients."""
    if system.potential is None:
        raise ValueError("variant %r carries no potential-energy evaluator"
                         % system.variant)
    v_r = np.asarray(v_r, dtype=float)
    return 0.5 * float(v_r @ (system.mass_r @ v_r)) + float(system.potential(q_r))
