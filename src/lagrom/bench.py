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
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.stats import qmc

from .archive import load_archive, save_archive
from .gappy import build_force_reconstructor
from .midpoint import NewtonSettings, State, richardson_estimate
from .pod import compute_pod_basis
from .roms import (build_collocation, build_galerkin, build_gappy_rom,
                   build_structure_preserving, integrate_full_model,
                   integrate_rom, VARIANTS)
from .sampling import greedy_sample_indices, validate_sample_set
from .spd_approx import build_matrix_gappy_basis, matrix_pod_modes, rbs_fit
from .truss import (ForcingConfig, build_truss, damping_matrix,
                    fundamental_frequency, rayleigh_coefficients)

logger = logging.getLogger(__name__)

DEFAULT_NOMINAL_FORCES = (2.0 * 9.81, 2.0 * 9.81, 0.4 * 9.81, 0.4 * 9.81)
TERM_NAMES = ("mass", "damping", "potential", "force")


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and protocol knobs of one benchmark experiment."""

    bays: int
    dt: float
    final_time: float = 25.0
    zeta: float = 0.0
    nominal_forces: tuple = DEFAULT_NOMINAL_FORCES
    energy_state: float = 1.0 - 1e-5
    energy_terms: float = 1.0
    energy_matrix: float = 1.0
    n_train: int = 6
    n_online: int = 3
    sampling_percentages: tuple = (5.0, 20.0, 100.0)
    variants: tuple = VARIANTS
    seed_train: int = 0
    seed_online: int = 1
    conservative: bool = False
    fixed_parameters: bool = False
    newton_rel_tol: float = 1e-6
    newton_max_iters: int = 500

    def __post_init__(self):
        for name in ("dt", "final_time"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be positive and finite" % name)
        if not 0 <= self.zeta < math.inf:
            raise ValueError("zeta must be nonnegative and finite")
        for name in ("bays", "n_train"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1" % name)
        if any(not 0 < p <= 100 for p in self.sampling_percentages):
            raise ValueError("sampling percentages must lie in (0, 100]")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError("unknown variants: %s" % sorted(unknown))

    @property
    def newton_settings(self) -> NewtonSettings:
        return NewtonSettings(rel_tol=self.newton_rel_tol,
                              max_iters=self.newton_max_iters)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        kwargs = dict(data)
        for key in ("nominal_forces", "sampling_percentages", "variants"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def lhs_points(n: int, dim: int = 16, seed: int = 0) -> np.ndarray:
    """Latin hypercube training points on the unit parameter box."""
    if n < 1:
        raise ValueError("need at least one point")
    sampler = qmc.LatinHypercube(d=dim, seed=seed)
    return qmc.scale(sampler.random(n), -1.0, 1.0)


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
    term_bases: dict                       # name -> (N, n_f) arrays
    matrix_modes: list                     # full principal mass matrices
    mass_snapshots: list                   # training mass matrices

    @property
    def forcing(self) -> ForcingConfig:
        return ForcingConfig(nominal_amplitudes=tuple(self.config.nominal_forces),
                             omega0=self.omega0,
                             final_time=self.config.final_time)

    @property
    def n(self) -> int:
        return self.phi.shape[1]


def _term_basis(snapshots, energy):
    """POD basis of a term's snapshots; empty basis if the term vanishes."""
    mat = np.column_stack(snapshots)
    if not np.any(np.linalg.norm(mat, axis=0) > 0.0):
        return np.zeros((mat.shape[0], 0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compute_pod_basis(mat, energy).columns


def training_points(config: ExperimentConfig) -> np.ndarray:
    if config.fixed_parameters:
        mu = np.zeros((1, 16))
    else:
        mu = lhs_points(config.n_train, seed=config.seed_train)
    if config.conservative:
        mu = _apply_conservative(mu)
    return mu


def online_points(config: ExperimentConfig) -> np.ndarray:
    if config.fixed_parameters:
        mu = np.zeros((max(1, config.n_online), 16))
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
    forcing = ForcingConfig(nominal_amplitudes=tuple(config.nominal_forces),
                            omega0=fundamental_frequency(model),
                            final_time=config.final_time)
    alpha, beta = 0.0, 0.0
    if config.zeta > 0.0 and not config.conservative:
        k0 = model.tangent_stiffness(np.zeros(model.dof_count))
        alpha, beta = rayleigh_coefficients(model.mass_dense(), k0, config.zeta)
    return model, forcing, alpha, beta


def run_offline(config: ExperimentConfig) -> OfflineProducts:
    """Full-order training runs, snapshot collection, bases, matrix snapshots.

    Snapshots are collected over the first half of the time window only,
    so the second half of every comparison is predictive.  An unstable
    training run aborts the offline stage.
    """
    _, forcing, alpha, beta = nominal_setup(config)

    mu_train = training_points(config)
    half = config.final_time / 2.0
    settings = config.newton_settings

    state_snaps, term_snaps = [], {name: [] for name in TERM_NAMES}
    mass_snapshots = []
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

        mass = model.mass_dense()
        damping = damping_matrix(model, alpha, beta) if (alpha or beta) else None
        cho = scipy.linalg.cho_factor(mass)
        for t, q, v in zip(traj.times, traj.q, traj.v):
            grad = model.internal_force(q)
            force = model.external_force(t, forcing)
            damp = damping @ v if damping is not None else np.zeros_like(v)
            accel = scipy.linalg.cho_solve(cho, force - damp - grad)
            state_snaps.append(q)
            term_snaps["mass"].append(mass @ accel)
            term_snaps["damping"].append(damp)
            term_snaps["potential"].append(grad)
            term_snaps["force"].append(force)
        mass_snapshots.append(mass)
        logger.info("training run %d/%d done (%d steps, avg %.2f Newton iters)",
                    i + 1, len(mu_train), traj.n_steps,
                    float(np.mean(traj.newton_iterations)))

    basis = compute_pod_basis(np.column_stack(state_snaps), config.energy_state)
    term_bases = {name: _term_basis(snaps, config.energy_terms)
                  for name, snaps in term_snaps.items()}
    modes = matrix_pod_modes(mass_snapshots, config.energy_matrix)

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

    percentage: float
    sample_set: object
    rbs_map: object
    gappy_basis: object
    reconstructors: dict
    diagnostics: object


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


def reduce_products(offline: OfflineProducts, percentage: float,
                    sampling_basis: str = "potential") -> ReducedProducts:
    """Greedy sample selection plus all sampling-dependent fits."""
    config = offline.config
    phi = offline.phi
    k_matrix = len(offline.matrix_modes)
    m = sample_count(config, percentage, offline.n, k_matrix)

    basis_for_sampling = offline.term_bases.get(sampling_basis)
    if basis_for_sampling is None or basis_for_sampling.shape[1] == 0:
        basis_for_sampling = phi
    sample_set = greedy_sample_indices(basis_for_sampling, m)

    rbs_map = rbs_fit(offline.mass_snapshots, phi, sample_set)
    gappy_basis = build_matrix_gappy_basis(offline.matrix_modes, phi, sample_set)
    diagnostics = validate_sample_set(sample_set, k_matrix, phi,
                                      matrix_basis=offline.matrix_modes)
    if not diagnostics.passed:
        logger.warning("sample-set diagnostics at %.3g%%: %s",
                       percentage, "; ".join(diagnostics.messages))

    reconstructors = {name: _fit_reconstructor(phi, term_basis, sample_set, name)
                      for name, term_basis in offline.term_bases.items()}

    return ReducedProducts(percentage=percentage, sample_set=sample_set,
                           rbs_map=rbs_map, gappy_basis=gappy_basis,
                           reconstructors=reconstructors,
                           diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Online stage
# ---------------------------------------------------------------------------

@dataclass
class OnlineResult:
    variant: str
    percentage: float
    trajectory: object
    build_seconds: float           # model + initial condition + ROM assembly
    rom_seconds: float             # build + stepping (the online phase)


def build_variant(offline: OfflineProducts, reduced: ReducedProducts,
                  model, variant: str):
    """Assemble one reduced system for an already-built online model."""
    forcing = offline.forcing
    alpha, beta = offline.alpha, offline.beta
    phi = offline.phi
    if variant == "galerkin":
        return build_galerkin(model, phi, alpha=alpha, beta=beta,
                              forcing=forcing, mu=model.mu)
    if variant == "collocation":
        return build_collocation(model, phi, reduced.sample_set, alpha=alpha,
                                 beta=beta, forcing=forcing, mu=model.mu)
    if variant == "gappy_pod":
        return build_gappy_rom(model, phi, reduced.reconstructors,
                               reduced.sample_set, alpha=alpha, beta=beta,
                               forcing=forcing, mu=model.mu)
    if variant in ("sp_rbs", "sp_matrix_gappy"):
        method = "rbs" if variant == "sp_rbs" else "matrix_gappy"
        product = reduced.rbs_map if method == "rbs" else reduced.gappy_basis
        return build_structure_preserving(
            model, phi, reduced.sample_set, method, product, alpha=alpha,
            beta=beta, force_reconstructor=reduced.reconstructors["force"],
            forcing=forcing, mu=model.mu)
    raise ValueError("unknown variant %r" % variant)


def run_online(offline: OfflineProducts, reduced: ReducedProducts, mu_star,
               variant: str, record_energy: bool = False) -> OnlineResult:
    """Build and integrate one reduced model at one online point."""
    config = offline.config
    start = time.perf_counter()
    model = build_truss(config.bays, mu_star)
    q0 = model.initial_displacement(offline.forcing)
    system = build_variant(offline, reduced, model, variant)
    q_r0 = system.phi.T @ (q0 - system.q_ref)
    build_seconds = time.perf_counter() - start

    traj = integrate_rom(system, config.dt, config.final_time,
                         settings=config.newton_settings,
                         state0=State(q=q_r0, v=np.zeros_like(q_r0)),
                         record_energy=record_energy)
    return OnlineResult(variant=variant, percentage=reduced.percentage,
                        trajectory=traj,
                        build_seconds=build_seconds,
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


@dataclass
class ComparisonReport:
    config: ExperimentConfig
    rows: list = field(default_factory=list)
    hfm_seconds: list = field(default_factory=list)
    sample_indices: dict = field(default_factory=dict)

    def select(self, variant=None, percentage=None):
        out = self.rows
        if variant is not None:
            out = [r for r in out if r.variant == variant]
        if percentage is not None:
            out = [r for r in out if abs(r.percentage - percentage) < 1e-12]
        return out


def run_comparison(config: ExperimentConfig, outdir=None,
                   offline: OfflineProducts | None = None) -> ComparisonReport:
    """Full sweep over variants x sampling percentages x online points."""
    if offline is None:
        offline = run_offline(config)
    report = ComparisonReport(config=config)
    record_energy = bool(config.conservative)

    mu_online = online_points(config)
    hfm_runs = []
    for mu in mu_online:
        model = build_truss(config.bays, mu)
        q0 = model.initial_displacement(offline.forcing)
        traj = integrate_full_model(
            model, config.dt, config.final_time, alpha=offline.alpha,
            beta=offline.beta, forcing=offline.forcing,
            state0=State(q=q0, v=np.zeros_like(q0)),
            settings=config.newton_settings, record_energy=record_energy)
        hfm_runs.append(traj)
        report.hfm_seconds.append(traj.wall_time)

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
                    hfm = hfm_runs[j]
                    err = error_metric(traj.quantity, hfm.quantity)
                    speed = hfm.wall_time / max(result.rom_seconds, 1e-12)
                    if record_energy and traj.energy is not None:
                        drift = energy_drift(traj)
                newton_avg = (float(np.mean(traj.newton_iterations))
                              if len(traj.newton_iterations) else 0.0)
                report.rows.append(ComparisonRow(
                    variant=variant, percentage=pct, online_index=j,
                    stable=stable, error=err, speedup=speed,
                    energy_drift=drift, newton_avg=newton_avg,
                    rom_seconds=result.rom_seconds))
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


def verify_timestep(config: ExperimentConfig, dt=None, horizon=None,
                    newton_rel_tol=None) -> dict:
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
    # Keep the horizon an integral multiple of the coarsest step.
    horizon = max(1, int(round(horizon / dt))) * dt
    rel_tol = (min(config.newton_rel_tol, 1e-10) if newton_rel_tol is None
               else float(newton_rel_tol))
    settings = NewtonSettings(rel_tol=rel_tol,
                              max_iters=config.newton_max_iters)

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

def sp_step_seconds(bays: int, n: int, m: int, steps: int = 200,
                    dt: float = 0.05, method: str = "rbs",
                    seed: int = 0, repeats: int = 3) -> float:
    """Per-step online cost of a structure-preserving model at pinned (n, m).

    Uses a seeded random orthonormal basis so the reduced dimensions stay
    fixed while the truss size varies; returns the best of ``repeats``
    timing runs.
    """
    from .sampling import SampleIndexSet

    rng = np.random.default_rng(seed)
    model = build_truss(bays, np.zeros(16))
    big_n = model.dof_count
    phi = np.linalg.qr(rng.normal(size=(big_n, n)))[0]
    indices = rng.permutation(big_n)[:m]
    sample_set = SampleIndexSet(indices, big_n)
    rbs_map = rbs_fit([model.mass_dense()], phi, sample_set)
    system = build_structure_preserving(model, phi, sample_set, method, rbs_map)
    q_r0 = 1e-3 * rng.normal(size=n)

    best = np.inf
    for _ in range(repeats):
        traj = integrate_rom(system, dt, steps * dt,
                             state0=State(q=q_r0.copy(), v=np.zeros(n)))
        best = min(best, traj.wall_time / traj.n_steps)
    return best


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
                         "newton_avg", "rom_seconds"])
        for r in report.rows:
            writer.writerow([
                r.variant, "%g" % r.percentage, r.online_index,
                int(r.stable),
                "" if r.error is None else "%.6e" % r.error,
                "" if r.speedup is None else "%.4g" % r.speedup,
                "" if r.energy_drift is None else "%.4e" % r.energy_drift,
                "%.3f" % r.newton_avg, "%.4g" % r.rom_seconds])

    with open(outdir / "samples.json", "w") as fh:
        json.dump({"%g" % pct: idx for pct, idx in report.sample_indices.items()},
                  fh)

    traj_dir = outdir / "trajectories"
    traj_dir.mkdir(exist_ok=True)
    for j, traj in enumerate(hfm_runs):
        write_trajectory_csv(traj_dir / ("hfm_point%d.csv" % j), traj)
    for (variant, pct, j), traj in trajectories.items():
        if traj.quantity is None:
            continue
        name = "%s_p%g_point%d.csv" % (variant, pct, j)
        write_trajectory_csv(traj_dir / name, traj)

    lines = ["experiment summary", "=" * 60]
    for r in report.rows:
        lines.append(
            "%-16s %6g%%  point %d  stable=%d  error=%s  speedup=%s"
            % (r.variant, r.percentage, r.online_index, int(r.stable),
               "-" if r.error is None else "%.3e" % r.error,
               "-" if r.speedup is None else "%.3g" % r.speedup))
    (outdir / "report.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Offline product persistence
# ---------------------------------------------------------------------------

def save_offline(path, offline: OfflineProducts) -> None:
    """Persist training products (plus the config next to the archive)."""
    arrays = {
        "mu_train": offline.mu_train,
        "phi": offline.phi,
        "phi_singular_values": offline.phi_singular_values,
        "omega0": np.array(offline.omega0),
        "alpha": np.array(offline.alpha),
        "beta": np.array(offline.beta),
        "matrix_modes": np.array(offline.matrix_modes),
        "mass_snapshots": np.array(offline.mass_snapshots),
    }
    for name, term_basis in offline.term_bases.items():
        arrays["term_basis_%s" % name] = term_basis
    save_archive(path, arrays)
    Path(path).with_suffix(".config.json").write_text(
        json.dumps(offline.config.to_dict(), indent=2))


def load_offline(path) -> OfflineProducts:
    arrays = load_archive(path)
    config = ExperimentConfig.from_dict(
        json.loads(Path(path).with_suffix(".config.json").read_text()))
    term_bases = {name: arrays["term_basis_%s" % name] for name in TERM_NAMES}
    return OfflineProducts(
        config=config, mu_train=arrays["mu_train"],
        omega0=float(arrays["omega0"]), alpha=float(arrays["alpha"]),
        beta=float(arrays["beta"]), phi=arrays["phi"],
        phi_singular_values=arrays["phi_singular_values"],
        term_bases=term_bases,
        matrix_modes=list(arrays["matrix_modes"]),
        mass_snapshots=list(arrays["mass_snapshots"]))


def save_reduced(path, reduced: ReducedProducts) -> None:
    """Persist per-percentage products (full matrices already discarded)."""
    arrays = {
        "percentage": np.array(reduced.percentage),
        "sample_indices": reduced.sample_set.indices.astype(float),
        "ambient_dim": np.array(float(reduced.sample_set.ambient_dim)),
        "rbs_factor": reduced.rbs_map.factor,
        "rbs_fit_residual": np.array(reduced.rbs_map.fit_residual),
        "rbs_converged": np.array(float(reduced.rbs_map.converged)),
        "gappy_sampled": reduced.gappy_basis.sampled_basis,
        "gappy_reduced": reduced.gappy_basis.reduced_basis,
        "gappy_operator": reduced.gappy_basis.vectorized_sampled_operator,
    }
    for name, rec in reduced.reconstructors.items():
        arrays["reconstructor_%s" % name] = rec.operator
        arrays["reconstructor_dim_%s" % name] = np.array(float(rec.basis_dim))
    save_archive(path, arrays)


def load_reduced(path) -> ReducedProducts:
    from .gappy import ForceReconstructor
    from .sampling import SampleIndexSet
    from .spd_approx import MatrixGappyBasis, RBSMap

    arrays = load_archive(path)
    sample_set = SampleIndexSet(arrays["sample_indices"].astype(int),
                                int(arrays["ambient_dim"]))
    rbs_map = RBSMap(factor=arrays["rbs_factor"], sample_set=sample_set,
                     fit_residual=float(arrays["rbs_fit_residual"]),
                     converged=bool(arrays["rbs_converged"]), iterations=0)
    gappy_basis = MatrixGappyBasis(
        sampled_basis=arrays["gappy_sampled"],
        reduced_basis=arrays["gappy_reduced"],
        vectorized_sampled_operator=arrays["gappy_operator"],
        sample_set=sample_set)
    reconstructors = {}
    for name in TERM_NAMES:
        reconstructors[name] = ForceReconstructor(
            operator=arrays["reconstructor_%s" % name],
            basis_dim=int(arrays["reconstructor_dim_%s" % name]),
            sample_set=sample_set)
    return ReducedProducts(percentage=float(arrays["percentage"]),
                           sample_set=sample_set, rbs_map=rbs_map,
                           gappy_basis=gappy_basis,
                           reconstructors=reconstructors, diagnostics=None)
