"""The benchmark's workloads: inputs from the seed, timed phases, and checks.

Every workload runs the same round: offline training, then passes of a
reduction at one sampling level, one full-order query (HFM) and one online
query per variant, all at one online point.  Phases are named after the
end-to-end metrics they produce.  A :class:`Gate` checks every round's
outputs; see ``perfbench/README.md`` for the workloads' rationale and sizes.
Each workload has three sizes: "tiny" for the smoke test, "bench" for timed
runs and "full" for the criterion-9/10 protocol at T=25.
"""

import math
import shutil
from pathlib import Path

import numpy as np

import lagrom.bench as lb
from lagrom.midpoint import State
from lagrom.spd_approx import rbs_apply

VARIANTS = ("galerkin", "sp_rbs", "sp_matrix_gappy")
SP_VARIANTS = ("sp_rbs", "sp_matrix_gappy")
ZETA = float(np.sin(np.deg2rad(5.0)))
NOT_DEFINED = -1.0   # per-layer value of a metric a workload does not define


class Gate:
    """Correctness checks.

    ``attempted`` and ``failed`` count trajectories (training, HFM, ROM): a
    trajectory fails when it is unstable, short, or its phase raises.
    ``failures`` lists every failed check with its reason, trajectories
    included; any entry makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, reason):
        self.failures.append(reason)

    def trajectory(self, label, traj, n_steps):
        if not traj.stable or traj.n_steps != n_steps:
            self.failed += 1
            self.fail("%s: stable=%s, %d of %d steps"
                      % (label, traj.stable, traj.n_steps, n_steps))
            return False
        return True

    def spd(self, label, matrix, allow_zero=False):
        matrix = np.asarray(matrix, dtype=float)
        scale = float(np.linalg.norm(matrix))
        if float(np.linalg.norm(matrix - matrix.T)) > 1e-12 * scale:
            self.fail("%s: not symmetric" % label)
        elif allow_zero and scale == 0.0:
            return
        else:
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                self.fail("%s: not Cholesky-factorable" % label)

    def finite(self, label, value):
        if not math.isfinite(value):
            self.fail("%s: %r is not finite" % (label, value))
        return value


class Workload:
    """Shared round logic; subclasses supply the set-up and the offline phase."""

    name = None
    record_energy = False
    has_errors = True
    bench_passes = 1   # reduce-and-query passes per untraced bench round

    def __init__(self, size, seed):
        self.size = size
        self.seed = int(seed)
        self.passes = self.bench_passes if size == "bench" else 1

    # -- phases (each is one timed call) -------------------------------------

    def full_order(self, offline):
        config = offline.config
        model = lb.build_truss(config.bays, self.mu)
        q0 = model.initial_displacement(offline.forcing)
        return lb.integrate_full_model(
            model, config.dt, config.final_time, alpha=offline.alpha,
            beta=offline.beta, forcing=offline.forcing,
            state0=State(q=q0, v=np.zeros_like(q0)),
            settings=config.newton_settings, record_energy=self.record_energy)

    def reduce(self, offline):
        return lb.reduce_products(offline, self.percentage)

    def online(self, offline, reduced, variant):
        return lb.run_online(offline, reduced, self.mu, variant,
                             record_energy=self.record_energy)

    # -- checks and fit quality (untimed) ------------------------------------

    @property
    def training_runs(self) -> int:
        return 0

    def requested_samples(self) -> int:
        """m before ``sample_count`` clamps it to the structural minimum."""
        return int(round(self.percentage / 100.0 * 12 * self.config.bays))

    def check_query(self, gate, offline, query):
        """Gate one query pass (HFM plus every variant); returns its
        fidelity numbers."""
        config = offline.config
        n_steps = int(round(config.final_time / config.dt))
        hfm = query["hfm"]
        hfm_ok = gate.trajectory("hfm", hfm, n_steps)
        out = {}
        for variant in VARIANTS:
            traj = query[variant].trajectory
            if not gate.trajectory(variant, traj, n_steps):
                continue
            if self.has_errors and hfm_ok:
                out["error." + variant] = gate.finite(
                    "error." + variant,
                    lb.error_metric(traj.quantity, hfm.quantity))
            if self.record_energy and variant in SP_VARIANTS:
                out["energy_drift." + variant] = gate.finite(
                    "energy_drift." + variant, lb.energy_drift(traj))
        return out

    def check_systems(self, gate, offline, reduced):
        """Rebuild each SP system (untimed) and gate its reduced matrices."""
        for variant in SP_VARIANTS:
            model = lb.build_truss(offline.config.bays, self.mu)
            system = lb.build_variant(offline, reduced, model, variant)
            gate.spd(variant + " reduced mass", system.mass_r)
            gate.spd(variant + " reduced damping", system.damping_r,
                     allow_zero=True)

    def layer_values(self, last, workdir):
        """Per-layer numbers of the last round that come from its products
        and checks, not from spans."""
        offline, reduced, fidelity = last["offline"], last["reduced"], last["fidelity"]
        rbs = reduced.rbs_map
        m_requested = self.requested_samples()
        out = {
            "pod.n": offline.n,
            "sampling.m_requested": m_requested,
            "sampling.m_effective": reduced.sample_set.m,
            "sampling.clamped": int(reduced.sample_set.m != m_requested),
            "spd_approx.rbs_fit.iterations": rbs.iterations,
            "spd_approx.rbs_fit.converged": int(rbs.converged),
            "spd_approx.rbs_fit.rel_residual": rbs_relative_residual(offline, reduced),
            "archive.bytes": archive_bytes(offline, reduced, workdir),
        }
        for variant in VARIANTS:
            out["error." + variant] = fidelity.get("error." + variant, NOT_DEFINED)
        for variant in SP_VARIANTS:
            err = fidelity.get("error." + variant)
            floor = fidelity.get("error.galerkin")
            out["error.hyper." + variant] = (NOT_DEFINED if err is None or floor is None
                                             else err - floor)
            out["energy_drift." + variant] = fidelity.get(
                "energy_drift." + variant, NOT_DEFINED)
        return out


def rbs_relative_residual(offline, reduced) -> float:
    """||rbs_apply(map, S^T A S) - Phi^T A Phi||_F / ||Phi^T A Phi||_F over
    the training mass snapshots."""
    phi, idx = offline.phi, reduced.sample_set.indices
    num = den = 0.0
    for a in offline.mass_snapshots:
        exact = phi.T @ a @ phi
        approx = rbs_apply(reduced.rbs_map, a[np.ix_(idx, idx)])
        num += float(np.sum((approx - exact) ** 2))
        den += float(np.sum(exact ** 2))
    return math.sqrt(num / den)


def archive_bytes(offline, reduced, workdir) -> int:
    """Size of what ``save_offline`` plus ``save_reduced`` write."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        lb.save_offline(workdir / "offline.lgrm", offline)
        lb.save_reduced(workdir / "reduced.lgrm", reduced)
        return sum(p.stat().st_size for p in workdir.iterdir())
    finally:
        shutil.rmtree(workdir)


class StudyWorkload(Workload):
    """The package's own offline/online protocol at 20 bays."""

    params = {}

    def setup(self):
        p = self.params[self.size]
        self.percentage = p["percentage"]
        self.config = lb.ExperimentConfig(
            bays=p["bays"], dt=p["dt"], final_time=p["final_time"],
            zeta=p.get("zeta", 0.0), conservative=self.record_energy,
            n_train=p["n_train"], seed_train=1, seed_online=self.seed,
            n_online=1, sampling_percentages=(p["percentage"],),
            energy_state=p["energy_state"],
            newton_rel_tol=p.get("newton_rel_tol", 1e-6))
        self.mu = self.online_point(p)

    @property
    def training_runs(self) -> int:
        return self.config.n_train

    def offline(self):
        return lb.run_offline(self.config)


class Study20(StudyWorkload):
    """Criterion-10 predictive protocol: damped, forced, 20% sampling.

    Training uses the criterion-10 LHS set (``seed_train=1``); the seed
    draws the online point, scaled into a box of the given half-width.
    """

    name = "study-20"
    bench_passes = 4
    params = {
        "tiny": dict(bays=4, dt=0.05, final_time=1.0, zeta=ZETA, n_train=2,
                     percentage=20.0, energy_state=1 - 1e-4, half_width=0.05),
        "bench": dict(bays=20, dt=0.05, final_time=1.0, zeta=ZETA, n_train=6,
                      percentage=20.0, energy_state=1 - 1e-4, half_width=0.05),
        "full": dict(bays=20, dt=0.05, final_time=25.0, zeta=ZETA, n_train=6,
                     percentage=20.0, energy_state=1 - 1e-4, half_width=1.0),
    }

    def online_point(self, p):
        return p["half_width"] * lb.online_points(self.config)[0]


class Conservative20(StudyWorkload):
    """Criterion-9 physics: forces off, undamped, tight Newton tolerance,
    nominal online point, energy recorded; sampling clamps to m = n."""

    name = "conservative-20"
    record_energy = True
    bench_passes = 4
    params = {
        "tiny": dict(bays=4, dt=0.02, final_time=0.4, n_train=2,
                     percentage=5.0, energy_state=1 - 1e-5, newton_rel_tol=1e-9),
        "bench": dict(bays=20, dt=0.02, final_time=0.6, n_train=6,
                      percentage=2.0, energy_state=1 - 1e-5, newton_rel_tol=1e-9),
        "full": dict(bays=20, dt=0.02, final_time=25.0, n_train=6,
                     percentage=20.0, energy_state=1 - 1e-5, newton_rel_tol=1e-9),
    }

    def online_point(self, p):
        mu = np.zeros(16)
        mu[8:] = -2.0   # nominal geometry, forces off
        return mu


class Scale40(Workload):
    """40 bays at study-20's pinned reduced dimensions (n, m), seeded random
    orthonormal basis, mass fits at a few LHS points, short horizon.

    ``reduce_products`` runs on these synthetic offline products at the
    percentage that requests m samples.  It samples on the "potential" term
    basis, which here holds the random basis plus the load patterns, so the
    sample set covers the loads and the gappy force fit is well posed.
    """

    name = "scale-40"
    has_errors = False
    bench_passes = 2
    params = {
        "tiny": dict(bays=8, n=4, m=8, steps=4, dt=0.05, mass_points=2,
                     half_width=0.05),
        "bench": dict(bays=40, n=13, m=48, steps=20, dt=0.05, mass_points=3,
                      half_width=0.05),
        "full": dict(bays=40, n=31, m=48, steps=20, dt=0.05, mass_points=3,
                     half_width=0.05),
    }

    def setup(self):
        p = self.params[self.size]
        self.p = p
        rng = np.random.default_rng(self.seed)
        self.nominal = lb.build_truss(p["bays"], np.zeros(16))
        big_n = self.nominal.dof_count
        self.phi = np.linalg.qr(rng.normal(size=(big_n, p["n"])))[0]
        self.mu = p["half_width"] * rng.uniform(-1.0, 1.0, size=16)
        self.percentage = 100.0 * p["m"] / big_n
        self.config = lb.ExperimentConfig(
            bays=p["bays"], dt=p["dt"], final_time=p["steps"] * p["dt"],
            zeta=ZETA, seed_train=self.seed)

    def offline(self):
        p, nominal = self.p, self.nominal
        zeros = np.zeros(nominal.dof_count)
        omega0 = lb.fundamental_frequency(nominal)
        alpha, beta = lb.rayleigh_coefficients(
            nominal.mass_dense(), nominal.tangent_stiffness(zeros), ZETA)
        mu_train = lb.lhs_points(p["mass_points"], seed=self.seed)
        snapshots = [lb.build_truss(p["bays"], mu).mass_dense() for mu in mu_train]
        modes = lb.matrix_pod_modes(snapshots, 1.0)
        force_basis = np.linalg.qr(nominal.load_patterns().T)[0]
        sampling_basis = np.linalg.qr(np.column_stack([self.phi, force_basis]))[0]
        return lb.OfflineProducts(
            config=self.config, mu_train=mu_train, omega0=omega0, alpha=alpha,
            beta=beta, phi=self.phi, phi_singular_values=np.ones(p["n"]),
            term_bases={"potential": sampling_basis, "force": force_basis},
            matrix_modes=modes, mass_snapshots=snapshots)


WORKLOADS = {cls.name: cls for cls in (Study20, Scale40, Conservative20)}
