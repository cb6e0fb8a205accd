"""The five reduced-order model variants and their energy diagnostics.

Galerkin projects the one full-order system, :func:`full_order_system`
(no complexity reduction); collocation and gappy POD sample the equations
of motion and lose the symmetry of the reduced mass/damping matrices; the
two structure-preserving variants approximate the Lagrangian ingredients
instead (mass by sparse congruence or constrained matrix reconstruction,
potential through the sparse potential map, damping as their combination,
force by gappy reconstruction) and keep symmetric positive-definite
operators by construction.
"""

from dataclasses import dataclass

import numpy as np

from .midpoint import (NewtonSettings, SecondOrderSystem, State, Trajectory,
                       implicit_midpoint_solve)
from .potential_map import build_potential_map
# Not called here: the models evaluate their kernel and reduced loads
# directly.  Kept as names of this module, where perfbench's tracer
# patches them.
from .gappy import apply_force_reconstructor  # noqa: F401
from .potential_map import (approx_reduced_gradient,  # noqa: F401
                            approx_reduced_hessian)
from .spd_approx import (MatrixGappyBasis, RBSMap, gappy_matrix_assemble,
                         gappy_matrix_coeffs, rbs_apply, symmetrize)
from .truss import damping_band

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
    qoi_weights: np.ndarray       # tip displacement is q_r @ qoi_weights
    # q_r -> scalar whose gradient is grad; coordinates stacked in rows
    # (T, n) -> their (T,) values.
    potential: object = None

    def second_order_system(self) -> SecondOrderSystem:
        return SecondOrderSystem(mass=self.mass_r, damping=self.damping_r,
                                 grad=self.grad, hess=self.hess, force=self.force,
                                 potential=self.potential)


def _zero_force(n):
    zero = np.zeros(n)
    return lambda t: zero


def _reduced_force(model, forcing, loads_r):
    """``t -> loads_r @ model.force_components(t)``.

    Every reduced force is linear in the model's load components, so its
    reduced loads ``loads_r`` (n, components), the images of the load
    patterns, are formed once at build; a step costs one small product.
    """
    if forcing is None:
        return _zero_force(loads_r.shape[0])

    def force(t):
        return loads_r @ model.force_components(t, forcing)
    return force


def _checked_operator(name, operator, n, m) -> np.ndarray:
    """``operator`` as a float array, once it is (n, m): it maps the m
    sampled values of a term to the n reduced coordinates."""
    operator = np.asarray(operator, dtype=float)
    if operator.shape != (n, m):
        raise ValueError("%s operator of shape %s, expected (n, m) = (%d, %d)"
                         % (name, operator.shape, n, m))
    return operator


def _checked_basis(model, phi, sample_set=None) -> np.ndarray:
    """``phi`` as a float array, once it is a finite (N, n) basis of the
    model and ``sample_set`` (if given) samples the model's N dofs."""
    phi = np.asarray(phi, dtype=float)
    if (phi.ndim != 2 or phi.shape[0] != model.dof_count
            or not np.all(np.isfinite(phi))):
        raise ValueError("basis must be a finite array of shape (%d, n), "
                         "got shape %s" % (model.dof_count, phi.shape))
    if sample_set is not None and sample_set.ambient_dim != model.dof_count:
        raise ValueError("sample set over %d dofs for a model of %d dofs"
                         % (sample_set.ambient_dim, model.dof_count))
    return phi


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_galerkin(model, phi, alpha=0.0, beta=0.0,
                   forcing=None) -> ReducedSystem:
    """The full-order system projected onto span ``phi`` (no reduction).

    The Hessian takes the exact form its basis width picks
    (``model.reduced_hessian``); the residual, potential, mass, damping and
    force are the full-order system's.
    """
    phi = _checked_basis(model, phi)
    full = full_order_system(model, alpha, beta, forcing)

    # A congruence is symmetric; kill the product round-off so the
    # structural dichotomy against sampled variants is exact.
    mass_r = symmetrize(phi.T @ (full.mass @ phi))
    damping_r = symmetrize(phi.T @ (full.damping @ phi))

    def grad(q_r):
        return phi.T @ full.grad(phi @ q_r)

    hess = model.reduced_hessian(phi)
    force = _reduced_force(model, forcing, phi.T @ model.load_patterns().T)

    def potential(q_r):
        return full.potential(phi @ q_r if np.ndim(q_r) == 1 else q_r @ phi.T)

    return ReducedSystem(variant="galerkin", mass_r=mass_r, damping_r=damping_r,
                         grad=grad, hess=hess, force=force, phi=phi,
                         qoi_weights=phi[model.tip_dof], potential=potential)


def _sampled_projection(variant, model, phi, sample_set, ops, alpha, beta,
                        forcing) -> ReducedSystem:
    """Project the sampled rows of every equation term through its operator.

    ``ops`` maps ``mass``, ``damping``, ``potential`` and ``force`` to an
    (n, m) matrix applied to that term's sampled rows; ``phi`` is checked
    (:func:`_checked_basis`).
    """
    s_idx = sample_set.indices

    # The sampled rows of M and of the Rayleigh damping alpha M + beta K(0).
    zeros = np.zeros(model.dof_count)
    mass_rows = model.mass_entries(s_idx, np.arange(model.dof_count))
    damping_rows = (alpha * mass_rows
                    + beta * model.tangent_stiffness_rows_dense(s_idx, zeros))
    mass_r = ops["mass"] @ (mass_rows @ phi)
    damping_r = ops["damping"] @ (damping_rows @ phi)

    def grad(q_r):
        return ops["potential"] @ model.internal_force_rows_dense(s_idx, phi @ q_r)

    def hess(q_r):
        rows = model.tangent_stiffness_rows_dense(s_idx, phi @ q_r)
        return ops["potential"] @ (rows @ phi)

    force = _reduced_force(model, forcing,
                           ops["force"] @ model.load_patterns()[:, s_idx].T)

    return ReducedSystem(variant=variant, mass_r=mass_r, damping_r=damping_r,
                         grad=grad, hess=hess, force=force, phi=phi,
                         qoi_weights=phi[model.tip_dof])


def build_collocation(model, phi, sample_set, alpha=0.0, beta=0.0,
                      forcing=None) -> ReducedSystem:
    """Galerkin projection of the sampled subset of the full equations.

    Every operator is left-multiplied by the sampled test basis, which
    breaks the symmetry of the reduced mass and damping matrices whenever
    the sampling is partial.
    """
    phi = _checked_basis(model, phi, sample_set)
    test_basis = phi[sample_set.indices, :].T
    ops = dict.fromkeys(("mass", "damping", "potential", "force"), test_basis)
    return _sampled_projection("collocation", model, phi, sample_set, ops,
                               alpha, beta, forcing)


def build_gappy_rom(model, phi, reconstructors, sample_set, alpha=0.0,
                    beta=0.0, forcing=None) -> ReducedSystem:
    """Gappy POD baseline: a separate reconstruction for every term.

    ``reconstructors`` maps the keys ``mass``, ``damping``, ``potential``
    and ``force`` to (n, m) operators of ``build_force_reconstructor`` on
    the shared sample set.
    """
    phi = _checked_basis(model, phi, sample_set)
    shape = phi.shape[1], sample_set.m
    ops = {term: _checked_operator(term + " reconstructor",
                                   reconstructors[term], *shape)
           for term in ("mass", "damping", "potential", "force")}
    return _sampled_projection("gappy_pod", model, phi, sample_set, ops,
                               alpha, beta, forcing)


def build_structure_preserving(model, phi, sample_set, mass_product,
                               alpha=0.0, beta=0.0,
                               force_reconstructor: np.ndarray | None = None,
                               forcing=None) -> ReducedSystem:
    """Assemble a structure-preserving reduced model from offline products.

    The type of ``mass_product`` selects the mass approximation: an
    :class:`RBSMap` (variant ``sp_rbs``) applies the fitted sparse
    congruence to the sampled online mass block, a
    :class:`MatrixGappyBasis` (variant ``sp_matrix_gappy``) solves the
    constrained sampled least-squares problem and assembles the reduced
    combination.  The potential is handled through the sparse potential map
    built here for the model's parameter; the damping matrix combines the
    approximated mass with the reduced equilibrium Hessian, which the map
    reproduces exactly.  A ``forcing`` needs its ``force_reconstructor``.
    """
    if forcing is not None and force_reconstructor is None:
        raise ValueError("a forcing needs a force_reconstructor: without one "
                         "the model would integrate with zero force")
    phi = _checked_basis(model, phi, sample_set)
    n = phi.shape[1]
    s_idx = sample_set.indices
    if sample_set.m < n:
        raise ValueError("sample set of m = %d dofs for a basis of n = %d: "
                         "the potential map needs m >= n" % (sample_set.m, n))
    if force_reconstructor is not None:
        force_reconstructor = _checked_operator(
            "force reconstructor", force_reconstructor, n, sample_set.m)

    sampled_mass = model.mass_entries(s_idx, s_idx)
    if isinstance(mass_product, RBSMap):
        variant = "sp_rbs"
        mass_r = rbs_apply(mass_product, sampled_mass)
    elif isinstance(mass_product, MatrixGappyBasis):
        variant = "sp_matrix_gappy"
        coeffs = gappy_matrix_coeffs(sampled_mass, mass_product)
        mass_r = gappy_matrix_assemble(coeffs, mass_product)
    else:
        raise TypeError("mass product must be an RBSMap or a MatrixGappyBasis, "
                        "got %s" % type(mass_product).__name__)

    # Equilibrium Hessian blocks: the reduced one is the documented
    # parameter-amortized large-dimension step (O(N n) through the band),
    # the sampled one is read off the same band.
    k0 = model.tangent_stiffness_band(np.zeros(model.dof_count))
    k0_reduced = phi.T @ (k0 @ phi)
    rows = s_idx[:n]
    k0_sampled = k0.entries(rows, rows)
    pmap = build_potential_map(k0_reduced, k0_sampled, rows)
    kernel = model.potential_kernel(pmap.rows, pmap.factor)

    damping_r = alpha * mass_r + beta * k0_reduced

    def hess(q_r):
        return symmetrize(kernel.hessian(q_r))

    force = (_zero_force(n) if forcing is None else _reduced_force(
        model, forcing, force_reconstructor @ model.load_patterns()[:, s_idx].T))

    return ReducedSystem(variant=variant, mass_r=mass_r, damping_r=damping_r,
                         grad=kernel.gradient, hess=hess, force=force, phi=phi,
                         qoi_weights=phi[model.tip_dof], potential=kernel.energy)


# ---------------------------------------------------------------------------
# Integration and energy
# ---------------------------------------------------------------------------

def integrate_rom(system: ReducedSystem, dt, t_end, state0: State,
                  settings: NewtonSettings | None = None,
                  record_energy: bool = False) -> Trajectory:
    """Integrate a reduced system with the shared midpoint/Newton stack."""
    traj = implicit_midpoint_solve(system.second_order_system(), state0, dt,
                                   t_end, settings)
    traj.quantity = traj.q @ system.qoi_weights
    if record_energy and system.potential is not None:
        traj.energy = reduced_total_energy(system, traj.q, traj.v)
    return traj


def full_order_system(model, alpha=0.0, beta=0.0, forcing=None) -> SecondOrderSystem:
    """The unreduced equations of motion in integrator form, with banded
    mass, damping and tangent stiffness."""
    if forcing is None:
        force = _zero_force(model.dof_count)
    else:
        def force(t):
            return model.external_force(t, forcing)
    return SecondOrderSystem(mass=model.mass_band(),
                             damping=damping_band(model, alpha, beta),
                             grad=model.internal_force,
                             hess=model.tangent_stiffness_band,
                             force=force, potential=model.potential_energy)


def integrate_full_model(model, dt, t_end, state0: State, alpha=0.0, beta=0.0,
                         forcing=None, settings: NewtonSettings | None = None,
                         record_energy: bool = False) -> Trajectory:
    """Reference full-order solve; records the tip displacement."""
    system = full_order_system(model, alpha, beta, forcing)
    traj = implicit_midpoint_solve(system, state0, dt, t_end, settings)
    traj.quantity = traj.q[:, model.tip_dof]
    if record_energy:
        traj.energy = np.array([total_energy(model, q, v)
                                for q, v in zip(traj.q, traj.v)])
    return traj


def total_energy(model, q, v) -> float:
    """Hamiltonian of the full model: kinetic plus potential energy."""
    v = np.asarray(v, dtype=float)
    return 0.5 * float(v @ (model.mass_band() @ v)) + model.potential_energy(q)


def reduced_total_energy(system: ReducedSystem, q_r, v_r):
    """Hamiltonian of a reduced model through its approximated ingredients,
    at one state or, for states stacked in rows (T, n), the (T,) values."""
    if system.potential is None:
        raise ValueError("variant %r carries no potential-energy evaluator"
                         % system.variant)
    v_r = np.asarray(v_r, dtype=float)
    kinetic = 0.5 * np.sum(v_r * (v_r @ system.mass_r.T), axis=-1)
    return kinetic + system.potential(np.asarray(q_r, dtype=float))
