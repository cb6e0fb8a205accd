"""Offline/online benchmark orchestration on the parameterized truss.

Reproduces the comparison protocol at configurable scale: full-order
training runs over the first half of the time window, POD bases for the
states and for each nonlinear term, matrix snapshots and fits, greedy
sampling at requested percentages, and online sweeps of the five
reduced-order model variants with error, speedup, stability and
(conservative runs) energy-drift reporting.
"""

import csv
import dataclasses
import json
import logging
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .archive import flatten, load_archive, save_archive, unflatten
from .gappy import build_force_reconstructor
from .midpoint import NewtonSettings, State, richardson_estimate
from .pod import compute_pod_basis
from .roms import (build_collocation, build_galerkin, build_gappy_rom,
                   build_structure_preserving, full_order_system,
                   integrate_full_model, integrate_rom, VARIANTS)
from .sampling import SampleIndexSet, greedy_sample_indices, validate_sample_set
from .spd_approx import (MatrixGappyBasis, RBSMap, build_matrix_gappy_basis,
                         matrix_pod_modes, rbs_fit)
from .truss import (PARAMETER_COUNT, ForcingConfig, build_truss,
                    fundamental_frequency, rayleigh_coefficients)

logger = logging.getLogger(__name__)

NOMINAL_FORCES = (2.0 * 9.81, 2.0 * 9.81, 0.4 * 9.81, 0.4 * 9.81)
TERM_NAMES = ("mass", "damping", "potential", "force")
# POD energy of the term and matrix bases: keep every nonzero mode.
FULL_ENERGY = 1.0
# Keys of older configs whose values are now fixed: NOMINAL_FORCES,
# FULL_ENERGY for both bases and NewtonSettings' own iteration budget.
FIXED_KEYS = ("nominal_forces", "energy_terms", "energy_matrix",
              "newton_max_iters")
# Newton tolerance of verify_timestep, tight enough to keep solver noise
# below the Richardson differences (the config's is used if tighter).
VERIFY_REL_TOL = 1e-10
# Random-basis seed and timing repeats of sp_step_seconds and
# galerkin_step_seconds.
SP_STEP_SEED = 0
SP_STEP_REPEATS = 3


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value, least: int) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least)


def _check_percentage(p):
    if not (_is_number(p) and 0 < p <= 100):   # false for NaN
        raise ValueError("sampling percentages must lie in (0, 100]: %r" % (p,))


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and protocol knobs of one benchmark experiment."""

    bays: int
    dt: float
    final_time: float = 25.0
    zeta: float = 0.0
    energy_state: float = 1.0 - 1e-5
    n_train: int = 6
    n_online: int = 3
    sampling_percentages: tuple = (5.0, 20.0, 100.0)
    variants: tuple = VARIANTS
    seed_train: int = 0
    seed_online: int = 1
    conservative: bool = False
    fixed_parameters: bool = False
    newton_rel_tol: float = 1e-6

    def __post_init__(self):
        for name in ("dt", "final_time", "zeta", "energy_state", "newton_rel_tol"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ValueError("%s must be a number: %r" % (name, value))
        for name in ("dt", "final_time", "newton_rel_tol"):
            if not 0 < getattr(self, name) < math.inf:   # false for NaN
                raise ValueError("%s must be positive and finite" % name)
        # implicit_midpoint_solve's rule; two steps or more, as training takes half.
        if (self.n_steps < 2 or abs(self.n_steps * self.dt - self.final_time)
                > 1e-9 * max(self.final_time, 1.0)):
            raise ValueError("final_time must be an integral number of at "
                             "least two steps dt: %r / %r"
                             % (self.final_time, self.dt))
        if not 0 <= self.zeta < math.inf:
            raise ValueError("zeta must be nonnegative and finite")
        for name in ("conservative", "fixed_parameters"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError("%s must be true or false: %r"
                                 % (name, getattr(self, name)))
        if self.conservative and self.zeta != 0.0:
            raise ValueError("a conservative experiment is undamped: zeta must be 0")
        for name, least in (("bays", 1), ("n_train", 1), ("n_online", 1),
                            ("seed_train", 0), ("seed_online", 0)):
            value = getattr(self, name)
            if not _is_integer(value, least):
                raise ValueError("%s must be an integer of at least %d: %r"
                                 % (name, least, value))
        if not 0 <= self.energy_state <= 1:
            raise ValueError("energy_state must lie in [0, 1]")
        for p in self.sampling_percentages:
            _check_percentage(p)
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ValueError("unknown variants: %r" % unknown)

    @property
    def n_steps(self) -> int:
        return int(round(self.final_time / self.dt))

    @property
    def newton_settings(self) -> NewtonSettings:
        return NewtonSettings(rel_tol=self.newton_rel_tol)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("a config must be a JSON object, not %s"
                             % type(data).__name__)
        for key in sorted(set(data) - {f.name for f in dataclasses.fields(cls)}):
            raise ValueError(("config key %r is no longer settable: its value "
                              "is fixed" if key in FIXED_KEYS else
                              "unknown config key %r") % key)
        kwargs = dict(data)
        for key in ("sampling_percentages", "variants"):
            if key in kwargs:
                if not isinstance(kwargs[key], (list, tuple)):
                    raise ValueError("%s must be a list: %r" % (key, kwargs[key]))
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def lhs_points(n: int, seed: int = 0) -> np.ndarray:
    """Latin hypercube training points on the parameter box [-1, 1]^16.

    The stream of ``qmc.scale(qmc.LatinHypercube(d=16, seed=seed)
    .random(n), -1, 1)`` (SciPy 1.17), byte for byte, without loading
    ``scipy.stats``: one jitter draw, then one in-place shuffle of
    ``1..n`` per dimension, each stratum ``(k - u) / n``.
    """
    for name, value, least in (("n", n, 1), ("seed", seed, 0)):
        if not _is_integer(value, least):
            raise ValueError("%s must be an integer of at least %d: %r"
                             % (name, least, value))
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(size=(n, PARAMETER_COUNT))
    perms = np.tile(np.arange(1, n + 1), (PARAMETER_COUNT, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - jitter) / n * 2.0 + -1.0


def _apply_conservative(mu: np.ndarray) -> np.ndarray:
    """Switch the eight force parameters off (the documented -2 sentinel)."""
    mu = mu.copy()
    mu[..., 8:16] = -2.0
    return mu


# ---------------------------------------------------------------------------
# Offline stage
# ---------------------------------------------------------------------------

@dataclass
class OfflineProducts:
    """Sampling-independent training products."""

    config: ExperimentConfig
    mu_train: np.ndarray                   # (n_train, 16)
    omega0: float
    alpha: float
    beta: float
    phi: np.ndarray                        # (N, n)
    phi_singular_values: np.ndarray
    term_bases: dict[str, np.ndarray]      # name -> (N, n_f)
    matrix_modes: np.ndarray               # (k, n_train) over mass_snapshots
    mass_snapshots: list[np.ndarray]       # training_masses; not archived

    @property
    def forcing(self) -> ForcingConfig:
        return ForcingConfig(nominal_amplitudes=NOMINAL_FORCES,
                             omega0=self.omega0,
                             final_time=self.config.final_time)

    @property
    def n(self) -> int:
        return self.phi.shape[1]


def _term_basis(snapshots):
    """POD basis of a term's snapshots; empty basis if the term vanishes."""
    mat = np.column_stack(snapshots)
    if not np.any(np.linalg.norm(mat, axis=0) > 0.0):
        return np.zeros((mat.shape[0], 0))
    return compute_pod_basis(mat, FULL_ENERGY).columns


def training_points(config: ExperimentConfig) -> np.ndarray:
    if config.fixed_parameters:
        mu = np.zeros((1, 16))
    else:
        mu = lhs_points(config.n_train, seed=config.seed_train)
    if config.conservative:
        mu = _apply_conservative(mu)
    return mu


def training_masses(config: ExperimentConfig, mu_train) -> list[np.ndarray]:
    """The N x N mass matrices at the training points."""
    return [build_truss(config.bays, mu).mass_dense() for mu in mu_train]


def online_points(config: ExperimentConfig) -> np.ndarray:
    if config.fixed_parameters:
        mu = np.zeros((config.n_online, 16))
    else:
        rng = np.random.default_rng(config.seed_online)
        mu = rng.uniform(-1.0, 1.0, size=(config.n_online, 16))
    if config.conservative:
        mu = _apply_conservative(mu)
    return mu


def nominal_setup(config: ExperimentConfig):
    """Nominal truss, forcing and Rayleigh coefficients of an experiment.

    Returns ``(model, forcing, alpha, beta)``.  The nominal point is the
    center of the parameter box (force switched off for conservative
    runs); ``omega0`` and the damping fit depend on its geometry only.
    """
    mu = np.zeros(16)
    if config.conservative:
        mu = _apply_conservative(mu)
    model = build_truss(config.bays, mu)
    forcing = ForcingConfig(nominal_amplitudes=NOMINAL_FORCES,
                            omega0=fundamental_frequency(model),
                            final_time=config.final_time)
    alpha, beta = 0.0, 0.0
    if config.zeta > 0.0:
        k0 = model.tangent_stiffness(np.zeros(model.dof_count))
        alpha, beta = rayleigh_coefficients(model.mass_dense(), k0, config.zeta)
    return model, forcing, alpha, beta


def run_offline(config: ExperimentConfig) -> OfflineProducts:
    """Full-order training runs, snapshot collection, bases, matrix snapshots.

    Snapshots are collected over the first ``n_steps // 2`` steps only,
    so the second half of every comparison is predictive.  An unstable
    training run aborts the offline stage.
    """
    _, forcing, alpha, beta = nominal_setup(config)

    mu_train = training_points(config)
    half = (config.n_steps // 2) * config.dt
    settings = config.newton_settings

    state_snaps, term_snaps = [], {name: [] for name in TERM_NAMES}
    for i, mu in enumerate(mu_train):
        model = build_truss(config.bays, mu)
        q0 = model.initial_displacement(forcing)
        traj = integrate_full_model(
            model, config.dt, half, alpha=alpha, beta=beta, forcing=forcing,
            state0=State(q=q0, v=np.zeros_like(q0)), settings=settings)
        if not traj.stable:
            raise RuntimeError(
                "training run %d unstable after %d failed steps at t=%.3f"
                % (i, traj.failed_steps, traj.times[-1]))
        if traj.failed_steps:
            logger.warning("training run %d/%d keeps %d unconverged step(s) "
                           "as snapshots (%s)", i + 1, len(mu_train),
                           traj.failed_steps, ", ".join(traj.failure_reasons))

        # The mass term M a is read off the equation of motion at the state.
        system = full_order_system(model, alpha, beta, forcing)
        for t, q, v in zip(traj.times, traj.q, traj.v):
            grad = system.grad(q)
            force = system.force(t)
            damp = system.damping @ v
            state_snaps.append(q)
            term_snaps["mass"].append(force - damp - grad)
            term_snaps["damping"].append(damp)
            term_snaps["potential"].append(grad)
            term_snaps["force"].append(force)
        logger.info("training run %d/%d done (%d steps, avg %.2f Newton iters)",
                    i + 1, len(mu_train), traj.n_steps,
                    float(np.mean(traj.newton_iterations)))

    basis = compute_pod_basis(np.column_stack(state_snaps), config.energy_state)
    term_bases = {name: _term_basis(snaps) for name, snaps in term_snaps.items()}
    mass_snapshots = training_masses(config, mu_train)
    modes = matrix_pod_modes(mass_snapshots, FULL_ENERGY)

    return OfflineProducts(config=config, mu_train=mu_train,
                           omega0=forcing.omega0,
                           alpha=alpha, beta=beta, phi=basis.columns,
                           phi_singular_values=basis.singular_values,
                           term_bases=term_bases, matrix_modes=modes,
                           mass_snapshots=mass_snapshots)


# ---------------------------------------------------------------------------
# Sampling-dependent products
# ---------------------------------------------------------------------------

@dataclass
class ReducedProducts:
    """Per-sampling-percentage offline products."""

    sample_set: SampleIndexSet
    rbs_map: RBSMap
    gappy_basis: MatrixGappyBasis
    reconstructors: dict[str, np.ndarray]  # term -> (n, m) operator
    # The training run reduced from: its OfflineProducts.phi_singular_values.
    phi_singular_values: np.ndarray


def sample_count(config: ExperimentConfig, percentage: float, n: int,
                 k_matrix: int) -> int:
    """Requested sample count, clamped to the structural minima."""
    big_n = 12 * config.bays
    m = int(round(percentage / 100.0 * big_n))
    minimum = max(n, 1)
    while (minimum * minimum + minimum) // 2 < k_matrix:
        minimum += 1
    if m < minimum:
        logger.warning("sampling %.3g%% gives m=%d below the structural "
                       "minimum %d; clamping", percentage, m, minimum)
        m = minimum
    return min(m, big_n)


def _fit_reconstructor(phi, term_basis, sample_set, name):
    """Build a term reconstructor, shrinking the basis until the sampled
    block has full numerical rank (the pseudoinverse needs at most m
    well-conditioned columns)."""
    n_f = min(term_basis.shape[1], sample_set.m)
    while n_f > 0:
        try:
            rec = build_force_reconstructor(phi, term_basis[:, :n_f], sample_set)
        except ValueError:
            n_f = n_f - 1 if n_f < 8 else int(0.8 * n_f)
            continue
        if n_f < term_basis.shape[1]:
            logger.info("term %r basis truncated to %d columns for m=%d",
                        name, n_f, sample_set.m)
        return rec
    return build_force_reconstructor(phi, term_basis[:, :0], sample_set)


def reduce_products(offline: OfflineProducts, percentage: float) -> ReducedProducts:
    """Greedy sample selection on the potential term basis plus all
    sampling-dependent fits."""
    _check_percentage(percentage)
    config = offline.config
    phi = offline.phi
    k_matrix = len(offline.matrix_modes)
    m = sample_count(config, percentage, offline.n, k_matrix)

    sample_set = greedy_sample_indices(offline.term_bases["potential"], m)

    rbs_map = rbs_fit(offline.mass_snapshots, phi, sample_set)
    gappy_basis = build_matrix_gappy_basis(offline.matrix_modes,
                                           offline.mass_snapshots, phi, sample_set)
    problems = validate_sample_set(sample_set, gappy_basis.sampled_operator)
    if problems:
        logger.warning("sample-set diagnostics at %.3g%%: %s",
                       percentage, "; ".join(problems))

    reconstructors = {name: _fit_reconstructor(phi, term_basis, sample_set, name)
                      for name, term_basis in offline.term_bases.items()}

    return ReducedProducts(sample_set=sample_set, rbs_map=rbs_map,
                           gappy_basis=gappy_basis,
                           reconstructors=reconstructors,
                           phi_singular_values=offline.phi_singular_values)


# ---------------------------------------------------------------------------
# Online stage
# ---------------------------------------------------------------------------

@dataclass
class OnlineResult:
    trajectory: object
    build_seconds: float           # model + initial condition + ROM assembly
    rom_seconds: float             # build + stepping (the online phase)


def build_variant(offline: OfflineProducts, reduced: ReducedProducts,
                  model, variant: str):
    """Assemble one reduced system for an already-built online model."""
    phi, sample_set = offline.phi, reduced.sample_set
    terms = dict(alpha=offline.alpha, beta=offline.beta, forcing=offline.forcing)
    if variant == "galerkin":
        return build_galerkin(model, phi, **terms)
    if variant == "collocation":
        return build_collocation(model, phi, sample_set, **terms)
    if variant == "gappy_pod":
        return build_gappy_rom(model, phi, reduced.reconstructors, sample_set,
                               **terms)
    if variant in ("sp_rbs", "sp_matrix_gappy"):
        product = reduced.rbs_map if variant == "sp_rbs" else reduced.gappy_basis
        return build_structure_preserving(
            model, phi, sample_set, product,
            force_reconstructor=reduced.reconstructors["force"], **terms)
    raise ValueError("unknown variant %r" % variant)


def run_online(offline: OfflineProducts, reduced: ReducedProducts, mu_star,
               variant: str, record_energy: bool = False) -> OnlineResult:
    """Build and integrate one reduced model at one online point."""
    config = offline.config
    start = time.perf_counter()
    model = build_truss(config.bays, mu_star)
    system = build_variant(offline, reduced, model, variant)
    q0 = model.initial_displacement(offline.forcing)
    q_r0 = system.phi.T @ q0
    build_seconds = time.perf_counter() - start

    traj = integrate_rom(system, config.dt, config.final_time,
                         settings=config.newton_settings,
                         state0=State(q=q_r0, v=np.zeros_like(q_r0)),
                         record_energy=record_energy)
    return OnlineResult(trajectory=traj, build_seconds=build_seconds,
                        rom_seconds=build_seconds + traj.wall_time)


def error_metric(y_rom, y_hfm) -> float:
    """Normalized time-averaged absolute error of a response series."""
    y_rom = np.asarray(y_rom, dtype=float)
    y_hfm = np.asarray(y_hfm, dtype=float)
    if y_rom.shape != y_hfm.shape:
        raise ValueError("responses must share one time grid")
    spread = float(np.max(y_hfm) - np.min(y_hfm))
    if spread == 0.0:
        raise ValueError("flat full-order response; error metric undefined")
    return float(np.mean(np.abs(y_rom - y_hfm))) / spread


def energy_drift(traj) -> float:
    """Normalized worst-case drift of the recorded total energy."""
    if traj.energy is None:
        raise ValueError("trajectory carries no energy record")
    e0 = traj.energy[0]
    kinetic_scale = float(np.max(np.abs(traj.energy - traj.energy.min())))
    scale = max(abs(e0), kinetic_scale, 1e-300)
    return float(np.max(np.abs(traj.energy - e0))) / scale


# ---------------------------------------------------------------------------
# Full comparison sweep
# ---------------------------------------------------------------------------

@dataclass
class ComparisonRow:
    variant: str
    percentage: float
    online_index: int
    stable: bool
    error: float | None
    speedup: float | None
    energy_drift: float | None
    newton_avg: float
    rom_seconds: float
    failure_reasons: tuple         # NewtonResult.reason of each failed step


@dataclass
class ComparisonReport:
    config: ExperimentConfig
    rows: list = field(default_factory=list)
    sample_indices: dict = field(default_factory=dict)


def run_comparison(config: ExperimentConfig, outdir=None,
                   offline: OfflineProducts | None = None) -> ComparisonReport:
    """Full sweep over variants x sampling percentages x online points."""
    if offline is None:
        offline = run_offline(config)
    report = ComparisonReport(config=config)
    record_energy = config.conservative

    mu_online = online_points(config)
    hfm_runs, hfm_seconds = [], []
    for mu in mu_online:
        # Timed like run_online: model build, initial condition, stepping.
        start = time.perf_counter()
        model = build_truss(config.bays, mu)
        q0 = model.initial_displacement(offline.forcing)
        traj = integrate_full_model(
            model, config.dt, config.final_time, alpha=offline.alpha,
            beta=offline.beta, forcing=offline.forcing,
            state0=State(q=q0, v=np.zeros_like(q0)),
            settings=config.newton_settings, record_energy=record_energy)
        hfm_seconds.append(time.perf_counter() - start)
        hfm_runs.append(traj)

    trajectories = {}
    for pct in config.sampling_percentages:
        reduced = reduce_products(offline, pct)
        report.sample_indices[pct] = [int(i) for i in reduced.sample_set.indices]
        for variant in config.variants:
            for j, mu in enumerate(mu_online):
                result = run_online(offline, reduced, mu, variant,
                                    record_energy=record_energy)
                traj = result.trajectory
                stable = traj.stable
                err = speed = drift = None
                if stable:
                    err = error_metric(traj.quantity, hfm_runs[j].quantity)
                    speed = hfm_seconds[j] / max(result.rom_seconds, 1e-12)
                    if record_energy and traj.energy is not None:
                        drift = energy_drift(traj)
                newton_avg = (float(np.mean(traj.newton_iterations))
                              if len(traj.newton_iterations) else 0.0)
                report.rows.append(ComparisonRow(
                    variant=variant, percentage=pct, online_index=j,
                    stable=stable, error=err, speedup=speed,
                    energy_drift=drift, newton_avg=newton_avg,
                    rom_seconds=result.rom_seconds,
                    failure_reasons=traj.failure_reasons))
                trajectories[(variant, pct, j)] = traj
                logger.info("%s @ %.3g%% point %d: stable=%s error=%s",
                            variant, pct, j, stable,
                            "%.3e" % err if err is not None else "-")

    if outdir is not None:
        write_report_artifacts(Path(outdir), config, report, hfm_runs,
                               trajectories)
    return report


# ---------------------------------------------------------------------------
# Timestep verification (Richardson)
# ---------------------------------------------------------------------------

def time_averaged_quantity(traj) -> float:
    """Trapezoidal time average of the recorded response quantity."""
    span = traj.times[-1] - traj.times[0]
    return float(np.trapezoid(traj.quantity, traj.times) / span)


def verify_timestep(config: ExperimentConfig, dt=None, horizon=None) -> dict:
    """Richardson study of the full model at the nominal point.

    The observable is the trapezoidal time average of the response over the
    (configurable) horizon, computed at ``dt``, ``dt/2`` and ``dt/4``.
    Averaging filters the unresolved high-frequency content that pollutes
    pointwise self-convergence of the stiff conservative response; the
    inner Newton runs at a verification-grade tolerance so the solver
    noise stays below the Richardson differences.
    """
    dt = config.dt if dt is None else float(dt)
    horizon = config.final_time / 5.0 if horizon is None else float(horizon)
    for name, value in (("dt", dt), ("horizon", horizon)):
        if not 0 < value < math.inf:   # false for NaN
            raise ValueError("%s must be positive and finite: %r" % (name, value))
    # Keep the horizon an integral multiple of the coarsest step.
    horizon = max(1, int(round(horizon / dt))) * dt
    settings = NewtonSettings(rel_tol=min(config.newton_rel_tol, VERIFY_REL_TOL))

    model, forcing, alpha, beta = nominal_setup(config)
    q0 = model.initial_displacement(forcing)

    values = []
    for step in (dt, dt / 2.0, dt / 4.0):
        traj = integrate_full_model(
            model, step, horizon, alpha=alpha, beta=beta, forcing=forcing,
            state0=State(q=q0, v=np.zeros_like(q0)), settings=settings)
        if not traj.stable:
            raise RuntimeError("verification run unstable at dt=%.4g" % step)
        values.append(time_averaged_quantity(traj))
    rate, error = richardson_estimate(*values)
    return {"dt": dt, "horizon": horizon, "values": values,
            "rate": rate, "error_estimate": error}


# ---------------------------------------------------------------------------
# Online cost scaling probe
# ---------------------------------------------------------------------------

def _random_basis(bays: int, n: int):
    """A model at rest parameters, a seeded random orthonormal (N, n)
    basis, and the generator that drew it."""
    rng = np.random.default_rng(SP_STEP_SEED)
    model = build_truss(bays, np.zeros(16))
    phi = np.linalg.qr(rng.normal(size=(model.dof_count, n)))[0]
    return model, phi, rng


def _best_step_seconds(system, q_r0, steps, dt) -> float:
    """Best per-step wall time of ``SP_STEP_REPEATS`` integrations."""
    best = np.inf
    for _ in range(SP_STEP_REPEATS):
        traj = integrate_rom(system, dt, steps * dt,
                             state0=State(q=q_r0.copy(), v=np.zeros_like(q_r0)))
        best = min(best, traj.wall_time / traj.n_steps)
    return best


def sp_step_seconds(bays: int, n: int, m: int, steps: int = 200,
                    dt: float = 0.05) -> float:
    """Per-step online cost of the SP-RBS model at pinned (n, m).

    Uses a seeded random orthonormal basis so the reduced dimensions stay
    fixed while the truss size varies; returns the best of
    ``SP_STEP_REPEATS`` timing runs.
    """
    model, phi, rng = _random_basis(bays, n)
    big_n = model.dof_count
    indices = rng.permutation(big_n)[:m]
    sample_set = SampleIndexSet(indices, big_n)
    rbs_map = rbs_fit([model.mass_dense()], phi, sample_set)
    system = build_structure_preserving(model, phi, sample_set, rbs_map)
    return _best_step_seconds(system, 1e-3 * rng.normal(size=n), steps, dt)


def galerkin_step_seconds(bays: int, n: int, steps: int = 200,
                          dt: float = 0.05) -> float:
    """Per-step online cost of the Galerkin model on the seeded random
    basis of :func:`sp_step_seconds`; the best of ``SP_STEP_REPEATS``."""
    model, phi, rng = _random_basis(bays, n)
    system = build_galerkin(model, phi)
    return _best_step_seconds(system, 1e-3 * rng.normal(size=n), steps, dt)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def write_trajectory_csv(path, traj) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["time", "quantity"]
        columns = [traj.times, traj.quantity]
        if traj.energy is not None:
            header.append("energy")
            columns.append(traj.energy)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow(["%.17g" % v for v in row])


def write_report_artifacts(outdir: Path, config, report, hfm_runs,
                           trajectories) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "config.json", "w") as fh:
        json.dump(config.to_dict(), fh, indent=2)

    with open(outdir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "sampling_percent", "online_point",
                         "stable", "error", "speedup", "energy_drift",
                         "newton_avg", "rom_seconds", "failed_steps",
                         "failure_reasons"])
        for r in report.rows:
            writer.writerow([
                r.variant, "%g" % r.percentage, r.online_index,
                int(r.stable),
                "" if r.error is None else "%.6e" % r.error,
                "" if r.speedup is None else "%.4g" % r.speedup,
                "" if r.energy_drift is None else "%.4e" % r.energy_drift,
                "%.3f" % r.newton_avg, "%.4g" % r.rom_seconds,
                len(r.failure_reasons), ";".join(r.failure_reasons)])

    with open(outdir / "samples.json", "w") as fh:
        json.dump({"%g" % pct: idx for pct, idx in report.sample_indices.items()},
                  fh)

    traj_dir = outdir / "trajectories"
    traj_dir.mkdir(exist_ok=True)
    for j, traj in enumerate(hfm_runs):
        write_trajectory_csv(traj_dir / ("hfm_point%d.csv" % j), traj)
    for (variant, pct, j), traj in trajectories.items():
        name = "%s_p%g_point%d.csv" % (variant, pct, j)
        write_trajectory_csv(traj_dir / name, traj)

    lines = ["experiment summary", "=" * 60]
    for r in report.rows:
        lines.append(
            "%-16s %6g%%  point %d  stable=%d  error=%s  speedup=%s  "
            "failed_steps=%d  failure_reasons=%s"
            % (r.variant, r.percentage, r.online_index, int(r.stable),
               "-" if r.error is None else "%.3e" % r.error,
               "-" if r.speedup is None else "%.3g" % r.speedup,
               len(r.failure_reasons), ";".join(r.failure_reasons) or "-"))
    (outdir / "report.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Offline product persistence
# ---------------------------------------------------------------------------

def save_offline(path, offline: OfflineProducts) -> None:
    """Persist training products but the masses, which ``load_offline``
    rebuilds; the config goes to a JSON file next to the archive."""
    save_archive(path, flatten(offline, skip=("config", "mass_snapshots")))
    Path(path).with_suffix(".config.json").write_text(
        json.dumps(offline.config.to_dict(), indent=2))


def load_offline(path) -> OfflineProducts:
    config = ExperimentConfig.from_dict(
        json.loads(Path(path).with_suffix(".config.json").read_text()))
    offline = unflatten(OfflineProducts, load_archive(path), config=config,
                        mass_snapshots=[])
    if offline.phi.shape[0] != 12 * config.bays:
        raise ValueError("archived basis has %d rows, a config of %d bays %d"
                         % (offline.phi.shape[0], config.bays, 12 * config.bays))
    offline.mass_snapshots = training_masses(config, offline.mu_train)
    return offline


def save_reduced(path, reduced: ReducedProducts) -> None:
    """Persist per-percentage products (full matrices already discarded)."""
    save_archive(path, flatten(reduced))


def load_reduced(path, offline: OfflineProducts) -> ReducedProducts:
    """Per-percentage products reduced from the training run ``offline``;
    an archive reduced from another run raises ``ValueError``."""
    arrays = load_archive(path)
    if not np.array_equal(arrays.get("phi_singular_values"),
                          offline.phi_singular_values):
        raise ValueError("%s was not reduced from the current training "
                         "archive; rerun lagrom reduce" % path)
    return unflatten(ReducedProducts, arrays)
