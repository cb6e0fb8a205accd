import csv
import dataclasses
import importlib.util
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lagrom.bench
import lagrom.midpoint
import lagrom.roms
from lagrom.bench import (ExperimentConfig, build_variant, error_metric,
                          lhs_points, load_offline, load_reduced, nominal_setup,
                          online_points, reduce_products, run_comparison,
                          run_offline, run_online, save_offline, save_reduced,
                          training_points, verify_timestep)
from lagrom.archive import load_archive, save_archive
from lagrom.cli import main as cli_main
from lagrom.midpoint import State
from lagrom.roms import VARIANTS, integrate_full_model
from lagrom.spd_approx import (build_matrix_gappy_basis, rbs_apply, rbs_fit,
                               training_blocks)
from lagrom.truss import TrussModel, build_truss


def assert_same_products(loaded, original, path="products"):
    """Every dataclass field, dict key and list item equal: arrays by value,
    scalars by value and type; the config is not archived."""
    if dataclasses.is_dataclass(original):
        assert type(loaded) is type(original), path
        for f in dataclasses.fields(original):
            if f.name != "config":
                assert_same_products(getattr(loaded, f.name),
                                     getattr(original, f.name),
                                     "%s.%s" % (path, f.name))
    elif isinstance(original, dict):
        assert list(loaded) == list(original), path
        for key in original:
            assert_same_products(loaded[key], original[key],
                                 "%s[%r]" % (path, key))
    elif isinstance(original, list):
        assert isinstance(loaded, list) and len(loaded) == len(original), path
        for i, (a, b) in enumerate(zip(loaded, original)):
            assert_same_products(a, b, "%s[%d]" % (path, i))
    elif isinstance(original, np.ndarray):
        assert isinstance(loaded, np.ndarray), path
        assert loaded.shape == original.shape, path
        assert np.array_equal(loaded, original), path
    else:
        assert type(loaded) is type(original), path
        assert loaded == original, path


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(bays=2, dt=0.05, final_time=3.0,
                            zeta=float(np.sin(np.deg2rad(5))), n_train=2,
                            n_online=1, sampling_percentages=(50.0, 100.0),
                            energy_state=1 - 1e-8, seed_train=1)


@pytest.fixture(scope="module")
def tiny_offline(tiny_config):
    return run_offline(tiny_config)


class TestLhsPoints:
    def test_single_point_in_box(self):
        pts = lhs_points(1, seed=0)
        assert pts.shape == (1, 16)
        assert np.all(pts >= -1) and np.all(pts <= 1)

    def test_two_points_opposite_halves(self):
        pts = lhs_points(2, seed=3)
        for d in range(16):
            assert min(pts[0, d], pts[1, d]) < 0 < max(pts[0, d], pts[1, d])

    def test_stratification(self):
        n = 6
        pts = lhs_points(n, seed=5)
        edges = np.linspace(-1, 1, n + 1)
        for d in range(16):
            counts, _ = np.histogram(pts[:, d], bins=edges)
            assert np.all(counts == 1)

    def test_seed_determinism(self):
        assert np.array_equal(lhs_points(6, seed=9), lhs_points(6, seed=9))
        assert not np.array_equal(lhs_points(6, seed=9), lhs_points(6, seed=10))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 9, 10, 2**40 + 17])
    def test_scipy_latin_hypercube_stream(self, seed):
        """The training set is SciPy's ``LatinHypercube(seed=)`` stream,
        byte for byte, at every seed the suite and the benchmark use."""
        qmc = pytest.importorskip("scipy.stats").qmc
        for n in (1, 2, 3, 6, 48):
            expected = qmc.scale(
                qmc.LatinHypercube(d=16, seed=seed).random(n), -1.0, 1.0)
            got = lhs_points(n, seed=seed)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (n, seed)

    @pytest.mark.parametrize("n, seed, name", [
        (0, 0, "n"), (-1, 0, "n"), (2.5, 0, "n"), (2.0, 0, "n"),
        (True, 0, "n"), ("3", 0, "n"), (np.float64(3), 0, "n"),
        (3, -1, "seed"), (3, 1.0, "seed"), (3, True, "seed"), (3, None, "seed")])
    def test_bad_arguments_fail_fast(self, n, seed, name):
        with pytest.raises(ValueError, match="^%s must be an integer of at "
                                             "least [01]: " % name):
            lhs_points(n, seed=seed)

    def test_numpy_integer_arguments(self):
        assert np.array_equal(lhs_points(np.int64(3), seed=np.uint8(5)),
                              lhs_points(3, seed=5))


class TestErrorMetric:
    def test_identical_series(self, rng):
        y = rng.normal(size=50)
        assert error_metric(y, y) == 0.0

    def test_constant_shift(self, rng):
        y = rng.normal(size=200)
        spread = y.max() - y.min()
        assert np.isclose(error_metric(y + 0.37, y), 0.37 / spread)

    def test_sine_against_zero(self):
        t = np.linspace(0, 2 * np.pi, 20001)
        y = np.sin(t)
        # mean |sin| on a period is 2/pi; the response spread is 2.
        assert abs(error_metric(np.zeros_like(y), y) - 1 / np.pi) <= 1e-3

    def test_shift_invariance(self, rng):
        y = rng.normal(size=100)
        z = rng.normal(size=100)
        assert np.isclose(error_metric(z, y), error_metric(z + 5.0, y + 5.0))

    def test_flat_reference_rejected(self):
        with pytest.raises(ValueError, match="flat"):
            error_metric(np.ones(4), np.ones(4))


class TestPointGeneration:
    def test_conservative_override(self):
        cfg = ExperimentConfig(bays=2, dt=0.1, conservative=True, n_train=3)
        mu = training_points(cfg)
        assert np.all(mu[:, 8:] == -2.0)
        assert np.all(np.abs(mu[:, :8]) <= 1.0)

    def test_fixed_parameters_nominal(self):
        cfg = ExperimentConfig(bays=2, dt=0.1, fixed_parameters=True)
        assert np.array_equal(training_points(cfg), np.zeros((1, 16)))
        assert np.array_equal(online_points(cfg)[0], np.zeros(16))

    def test_online_determinism(self):
        cfg = ExperimentConfig(bays=2, dt=0.1, n_online=3, seed_online=4)
        assert np.array_equal(online_points(cfg), online_points(cfg))


class TestOfflineProducts:
    def test_basis_spans_training_states(self, tiny_offline):
        # A single-parameter, near-full-energy basis reconstructs the
        # training states well by construction.
        assert tiny_offline.phi.shape[0] == 24
        gram = tiny_offline.phi.T @ tiny_offline.phi
        assert np.abs(gram - np.eye(tiny_offline.n)).max() <= 1e-10

    def test_matrix_snapshots_collected(self, tiny_offline, tiny_config):
        assert len(tiny_offline.mass_snapshots) == tiny_config.n_train
        assert 1 <= len(tiny_offline.matrix_modes) <= tiny_config.n_train
        assert tiny_offline.matrix_modes.shape[1] == tiny_config.n_train

    def test_conservative_force_terms_empty(self):
        cfg = ExperimentConfig(bays=2, dt=0.05, final_time=2.0,
                               conservative=True, fixed_parameters=True)
        off = run_offline(cfg)
        assert off.term_bases["force"].shape[1] == 0
        assert off.term_bases["damping"].shape[1] == 0
        assert off.alpha == off.beta == 0.0
        red = reduce_products(off, 100.0)
        out = red.reconstructors["force"] @ np.zeros(red.sample_set.m)
        assert np.array_equal(out, np.zeros(off.n))

    def test_archive_round_trip(self, tiny_offline, tmp_path):
        path = tmp_path / "training.lgrm"
        save_offline(path, tiny_offline)
        loaded = load_offline(path)
        assert loaded.config == tiny_offline.config
        assert_same_products(loaded, tiny_offline)

    def test_archive_round_trip_partial_term_bases(self, tiny_offline,
                                                   tmp_path):
        offline = dataclasses.replace(tiny_offline, term_bases={
            name: tiny_offline.term_bases[name] for name in ("potential", "force")})
        path = tmp_path / "training.lgrm"
        save_offline(path, offline)
        loaded = load_offline(path)
        assert list(loaded.term_bases) == ["potential", "force"]
        assert_same_products(loaded, offline)
        red = reduce_products(offline, 50.0)
        save_reduced(tmp_path / "reduced.lgrm", red)
        assert_same_products(load_reduced(tmp_path / "reduced.lgrm", offline),
                             red)

    def test_mass_fits_share_one_set_of_training_blocks(self, tiny_offline,
                                                        monkeypatch):
        """``reduce_products`` forms the training blocks once, and both mass
        fits from them equal, bit for bit, the fits from blocks formed for
        each fit on its own."""
        calls = []

        def counted(*args):
            calls.append(args)
            return training_blocks(*args)

        monkeypatch.setattr(lagrom.bench, "training_blocks", counted)
        red = reduce_products(tiny_offline, 50.0)
        assert len(calls) == 1
        args = (tiny_offline.mass_snapshots, tiny_offline.phi, red.sample_set)
        rbs = rbs_fit(training_blocks(*args))
        gappy = build_matrix_gappy_basis(tiny_offline.matrix_modes,
                                         training_blocks(*args))
        assert np.array_equal(red.rbs_map.factor, rbs.factor)
        assert red.rbs_map.fit_residual == rbs.fit_residual
        assert np.array_equal(red.gappy_basis.sampled_operator,
                              gappy.sampled_operator)
        assert np.array_equal(red.gappy_basis.reduced_basis, gappy.reduced_basis)

    def test_reduced_products_round_trip(self, tiny_offline, tmp_path):
        red = reduce_products(tiny_offline, 50.0)
        path = tmp_path / "reduced.lgrm"
        save_reduced(path, red)
        assert_same_products(load_reduced(path, tiny_offline), red)
        # Older archives also store each reconstructor's basis dimension
        # and the sampling percentage.
        arrays = load_archive(path)
        for name, operator in red.reconstructors.items():
            arrays["reconstructors/%s/basis_dim" % name] = np.array(
                float(operator.shape[1]))
        arrays["percentage"] = np.array(50.0)
        save_archive(path, arrays)
        assert_same_products(load_reduced(path, tiny_offline), red)

    def test_reduced_archive_records_its_training_run(self, tiny_offline,
                                                      tmp_path):
        path = tmp_path / "reduced.lgrm"
        save_reduced(path, reduce_products(tiny_offline, 50.0))
        arrays = load_archive(path)
        assert "percentage" not in arrays
        assert np.array_equal(arrays["phi_singular_values"],
                              tiny_offline.phi_singular_values)

    def test_training_archive_stores_no_masses(self, tiny_offline, tmp_path):
        """The masses are rebuilt from the training points, bit for bit."""
        path = tmp_path / "training.lgrm"
        save_offline(path, tiny_offline)
        assert not [name for name in load_archive(path)
                    if name.startswith("mass_snapshots")]
        loaded = load_offline(path).mass_snapshots
        assert len(loaded) == len(tiny_offline.mass_snapshots)
        for got, want in zip(loaded, tiny_offline.mass_snapshots):
            assert np.array_equal(got, want)

    def test_archive_with_masses_loads(self, tiny_offline, tmp_path):
        """A training archive that also stores the masses
        (``mass_snapshots/0``, ...) loads to the same products."""
        path = tmp_path / "training.lgrm"
        save_offline(path, tiny_offline)
        arrays = load_archive(path)
        for i, mass in enumerate(tiny_offline.mass_snapshots):
            arrays["mass_snapshots/%d" % i] = mass
        save_archive(path, arrays)
        assert_same_products(load_offline(path), tiny_offline)

    def test_config_of_other_bay_count_rejected(self, tiny_offline, tmp_path):
        path = tmp_path / "training.lgrm"
        save_offline(path, tiny_offline)
        config = {**tiny_offline.config.to_dict(), "bays": 3}
        path.with_suffix(".config.json").write_text(json.dumps(config))
        with pytest.raises(ValueError, match="basis has 24 rows, a config of "
                                             "3 bays 36"):
            load_offline(path)

    def test_reduced_archive_with_sampled_blocks_rejected(self, tiny_offline,
                                                          tmp_path):
        """An archive of the stacked sampled blocks
        (``gappy_basis/sampled_basis``) and of wrapped reconstructor
        operators (``reconstructors/force/operator``) names the entry it
        lacks."""
        red = reduce_products(tiny_offline, 50.0)
        path = tmp_path / "reduced.lgrm"
        save_reduced(path, red)
        arrays = load_archive(path)
        operator = arrays.pop("gappy_basis/sampled_operator")
        rows, cols = np.triu_indices(red.sample_set.m)
        blocks = np.zeros((red.gappy_basis.k, red.sample_set.m, red.sample_set.m))
        blocks[:, rows, cols] = blocks[:, cols, rows] = operator.T
        arrays["gappy_basis/sampled_basis"] = blocks
        for name in red.reconstructors:
            arrays["reconstructors/%s/operator" % name] = arrays.pop(
                "reconstructors/" + name)
        save_archive(path, arrays)
        with pytest.raises(ValueError, match="archive has no entry "
                                             "'gappy_basis/sampled_operator'"):
            load_reduced(path, tiny_offline)

    def test_old_layout_training_archive_rejected(self, tiny_offline, tmp_path):
        """An archive that stores the modes as N x N matrices
        (``matrix_modes/0``, ...) names the entry it lacks."""
        path = tmp_path / "training.lgrm"
        save_offline(path, tiny_offline)
        arrays = load_archive(path)
        del arrays["matrix_modes"]
        for i, mode in enumerate(tiny_offline.mass_snapshots[:2]):
            arrays["matrix_modes/%d" % i] = mode
        save_archive(path, arrays)
        with pytest.raises(ValueError, match="archive has no entry 'matrix_modes'"):
            load_offline(path)

    def test_mass_term_basis_holds_mass_times_acceleration(self):
        """The mass snapshots are M a with a from the equation of motion:
        recompute the last training state and solve for a densely."""
        config = ExperimentConfig(bays=2, dt=0.05, final_time=0.4,
                                  zeta=float(np.sin(np.deg2rad(5))),
                                  n_train=1, seed_train=1)
        basis = run_offline(config).term_bases["mass"]
        _, forcing, alpha, beta = nominal_setup(config)
        model = build_truss(config.bays, training_points(config)[0])
        q0 = model.initial_displacement(forcing)
        traj = integrate_full_model(
            model, config.dt, config.final_time / 2, alpha=alpha, beta=beta,
            forcing=forcing, state0=State(q=q0, v=np.zeros_like(q0)),
            settings=config.newton_settings)
        t, q, v = traj.times[-1], traj.q[-1], traj.v[-1]
        mass = model.mass_dense()
        damping = alpha * mass + beta * model.tangent_stiffness(np.zeros_like(q))
        accel = np.linalg.solve(mass, model.external_force(t, forcing)
                                - damping @ v - model.internal_force(q))
        target = mass @ accel
        assert basis.shape[1] < model.dof_count   # the span is a subspace
        residual = target - basis @ (basis.T @ target)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(target)

    def test_unconverged_training_step_is_reported(self, tiny_config,
                                                   monkeypatch, caplog):
        integrate = lagrom.bench.integrate_full_model

        def one_failed_step(*args, **kwargs):
            return dataclasses.replace(integrate(*args, **kwargs),
                                       failure_reasons=("budget",))

        monkeypatch.setattr(lagrom.bench, "integrate_full_model",
                            one_failed_step)
        with caplog.at_level(logging.WARNING, logger="lagrom.bench"):
            run_offline(tiny_config)
        warned = [r.getMessage() for r in caplog.records
                  if "unconverged" in r.getMessage()]
        n = tiny_config.n_train
        assert warned == ["training run %d/%d keeps 1 unconverged step(s) as "
                          "snapshots (budget)" % (i + 1, n) for i in range(n)]

    def test_study20_training_run_steps_all_converge(self):
        # Training run 5 of 6 of the 20-bay criterion-10 set (seed_train=1)
        # over the study-20 benchmark's training horizon.
        config = ExperimentConfig(bays=20, dt=0.05, final_time=1.0,
                                  zeta=float(np.sin(np.deg2rad(5))),
                                  seed_train=1)
        _, forcing, alpha, beta = nominal_setup(config)
        model = build_truss(config.bays, training_points(config)[4])
        q0 = model.initial_displacement(forcing)
        traj = integrate_full_model(
            model, config.dt, 0.5, alpha=alpha, beta=beta, forcing=forcing,
            state0=State(q=q0, v=np.zeros_like(q0)),
            settings=config.newton_settings)
        assert traj.n_steps == 10
        assert traj.failure_reasons == ()


class TestOnlineAndComparison:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_build_variant_names_its_system(self, tiny_config, tiny_offline,
                                            variant):
        model = build_truss(tiny_config.bays, np.zeros(16))
        system = build_variant(tiny_offline, reduce_products(tiny_offline, 50.0),
                               model, variant)
        assert system.variant == variant

    def test_galerkin_ignores_sampling(self, tiny_offline):
        mu = np.zeros(16)
        r50 = run_online(tiny_offline, reduce_products(tiny_offline, 50.0),
                         mu, "galerkin")
        r100 = run_online(tiny_offline, reduce_products(tiny_offline, 100.0),
                          mu, "galerkin")
        assert np.array_equal(r50.trajectory.q, r100.trajectory.q)

    def test_comparison_artifacts(self, tiny_config, tiny_offline, tmp_path):
        report = run_comparison(tiny_config, outdir=tmp_path,
                                offline=tiny_offline)
        expected = (len(tiny_config.sampling_percentages)
                    * len(tiny_config.variants) * tiny_config.n_online)
        assert len(report.rows) == expected
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "config.json").exists()
        assert (tmp_path / "report.txt").exists()
        samples = json.loads((tmp_path / "samples.json").read_text())
        assert all(isinstance(i, int) for i in samples["50"])
        traj_files = list((tmp_path / "trajectories").glob("*.csv"))
        assert len(traj_files) >= expected

    def test_failed_steps_reported_in_artifacts(self, tiny_config,
                                                tiny_offline, tmp_path,
                                                monkeypatch):
        integrate = lagrom.bench.integrate_rom

        def one_failed_step(*args, **kwargs):
            return dataclasses.replace(integrate(*args, **kwargs),
                                       failure_reasons=("budget",))

        monkeypatch.setattr(lagrom.bench, "integrate_rom", one_failed_step)
        cfg = ExperimentConfig(**{**tiny_config.to_dict(),
                                  "sampling_percentages": (50.0,),
                                  "variants": ("galerkin",)})
        run_comparison(cfg, outdir=tmp_path, offline=tiny_offline)
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant", "sampling_percent", "online_point",
                           "stable", "error", "speedup", "energy_drift",
                           "newton_avg", "rom_seconds", "failed_steps",
                           "failure_reasons"]
        assert [row[-2:] for row in rows[1:]] == [["1", "budget"]]
        report = (tmp_path / "report.txt").read_text()
        assert "failed_steps=1  failure_reasons=budget" in report

    @pytest.mark.parametrize("percentage", [150.0, 0.0, -5.0, np.nan, np.inf])
    def test_reduce_rejects_bad_percentage(self, tiny_offline, percentage):
        with pytest.raises(ValueError, match="percentages"):
            reduce_products(tiny_offline, percentage)

    def test_speedup_compares_like_times(self, tiny_config, tiny_offline,
                                         monkeypatch):
        # Both sides of the speedup include the static initial condition, so
        # slowing it down slows the HFM and the ROM queries alike.
        initial = TrussModel.initial_displacement

        def slow_initial(self, forcing):
            time.sleep(0.2)
            return initial(self, forcing)

        monkeypatch.setattr(TrussModel, "initial_displacement", slow_initial)
        cfg = ExperimentConfig(**{**tiny_config.to_dict(),
                                  "sampling_percentages": (100.0,)})
        report = run_comparison(cfg, offline=tiny_offline)
        assert report.rows
        assert all(r.speedup > 0.5 for r in report.rows), \
            [(r.variant, r.speedup) for r in report.rows]

    def test_unknown_variant_fails_before_initial_condition(self, tiny_offline,
                                                            monkeypatch):
        def no_initial(self, forcing):
            raise AssertionError("initial condition computed")

        monkeypatch.setattr(TrussModel, "initial_displacement", no_initial)
        with pytest.raises(ValueError, match="unknown variant"):
            run_online(tiny_offline, reduce_products(tiny_offline, 50.0),
                       np.zeros(16), "nope")

    def test_build_seconds_within_rom_seconds(self, tiny_offline):
        result = run_online(tiny_offline, reduce_products(tiny_offline, 50.0),
                            np.zeros(16), "sp_rbs")
        assert 0.0 < result.build_seconds < result.rom_seconds

    def test_empty_variant_list(self, tiny_config, tiny_offline):
        cfg = ExperimentConfig(**{**tiny_config.to_dict(), "variants": ()})
        report = run_comparison(cfg, offline=tiny_offline)
        assert report.rows == []

    def test_report_deterministic_given_seeds(self):
        cfg = ExperimentConfig(bays=2, dt=0.1, final_time=2.0,
                               conservative=True, fixed_parameters=True,
                               sampling_percentages=(100.0,),
                               variants=("galerkin", "sp_rbs"))
        first = run_comparison(cfg)
        second = run_comparison(cfg)
        for a, b in zip(first.rows, second.rows):
            assert (a.variant, a.percentage, a.online_index) == \
                (b.variant, b.percentage, b.online_index)
            assert a.stable == b.stable
            assert a.error == b.error  # wall-clock fields excluded
            assert a.energy_drift == b.energy_drift
        assert first.sample_indices == second.sample_indices

    def test_collocation_full_sampling_equals_galerkin_output(self, tiny_offline):
        mu = np.zeros(16)
        red = reduce_products(tiny_offline, 100.0)
        coll = run_online(tiny_offline, red, mu, "collocation")
        gal = run_online(tiny_offline, red, mu, "galerkin")
        scale = np.abs(gal.trajectory.quantity).max()
        assert np.abs(coll.trajectory.quantity
                      - gal.trajectory.quantity).max() <= 1e-10 * scale


class TestVerifyTimestep:
    def test_reports_rate_and_error(self):
        cfg = ExperimentConfig(bays=2, dt=0.02, final_time=8.0,
                               conservative=True, fixed_parameters=True)
        out = verify_timestep(cfg, horizon=2.0)
        assert set(out) >= {"rate", "error_estimate", "values", "dt"}
        assert np.isfinite(out["rate"])

    @pytest.mark.parametrize("name, value", [
        ("dt", 0.0), ("dt", -0.1), ("dt", np.nan), ("dt", np.inf),
        ("horizon", 0.0), ("horizon", -1.0), ("horizon", np.nan)])
    def test_bad_step_or_horizon_rejected(self, name, value):
        cfg = ExperimentConfig(bays=2, dt=0.02, final_time=8.0,
                               conservative=True, fixed_parameters=True)
        with pytest.raises(ValueError, match=name):
            verify_timestep(cfg, **{name: value})


class TestConfig:
    def test_json_round_trip(self, tiny_config):
        data = json.loads(json.dumps(tiny_config.to_dict()))
        again = ExperimentConfig.from_dict(data)
        assert again == tiny_config

    def test_validation(self):
        with pytest.raises(ValueError, match="dt"):
            ExperimentConfig(bays=2, dt=0.0)
        with pytest.raises(ValueError, match="percentages"):
            ExperimentConfig(bays=2, dt=0.1, sampling_percentages=(0.0,))
        with pytest.raises(ValueError, match="variants"):
            ExperimentConfig(bays=2, dt=0.1, variants=("nope",))

    # The cases below read their config as the CLI does, through from_dict,
    # which also rejects the keys whose values are now fixed.

    @pytest.mark.parametrize("field", ["dt", "final_time"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_times_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict({"bays": 2, "dt": 0.1, field: value})

    @pytest.mark.parametrize("field, value", [
        ("zeta", np.nan), ("zeta", np.inf), ("zeta", -0.1),
        ("bays", 0), ("bays", -1), ("n_train", 0),
        ("nominal_forces", (1.0, 2.0)), ("nominal_forces", (1.0, 2.0, 3.0, np.nan)),
        ("nominal_forces", (1.0, 2.0, np.inf, 4.0)),
        ("conservative", "false"), ("fixed_parameters", 1), ("bays", True),
        ("n_train", True), ("seed_train", -1),
        ("seed_online", 1.5), ("seed_online", True)])
    def test_bad_damping_and_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict({"bays": 2, "dt": 0.1, field: value})

    def test_conservative_must_be_undamped(self):
        with pytest.raises(ValueError, match="zeta"):
            ExperimentConfig(bays=2, dt=0.1, conservative=True, zeta=0.2)

    @pytest.mark.parametrize("field", ["newton_rel_tol", "newton_max_iters",
                                       "n_online"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0, -3])
    def test_newton_settings_and_online_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict({"bays": 2, "dt": 0.1, field: value})

    @pytest.mark.parametrize("field", ["energy_state", "energy_terms",
                                       "energy_matrix"])
    @pytest.mark.parametrize("value", [np.nan, -0.1, 1.5])
    def test_energy_criteria_must_lie_in_unit_interval(self, field, value):
        # The term and matrix bases keep every mode: any value is rejected.
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict({"bays": 2, "dt": 0.1, field: value})

    @pytest.mark.parametrize("key", lagrom.bench.FIXED_KEYS)
    def test_fixed_keys_rejected(self, key, tiny_config):
        data = {**tiny_config.to_dict(), key: 1.0}
        with pytest.raises(ValueError, match="%r is no longer settable" % key):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("data, match", [
        ({"bays": 2, "dt": "0.1"}, "dt must be a number"),
        ({"bays": 2, "dt": True}, "dt must be a number"),
        ({"bays": 2, "dt": 0.1, "zeta": "0"}, "zeta must be a number"),
        ({"bays": 2, "dt": 0.1, "energy_state": None},
         "energy_state must be a number"),
        ({"bays": 2, "dt": 0.1, "sampling_percentages": 5},
         "sampling_percentages must be a list"),
        ({"bays": 2, "dt": 0.1, "sampling_percentages": [True]},
         r"sampling percentages must lie in \(0, 100\]: True"),
        ({"bays": 2, "dt": 0.1, "variants": "sp_rbs"}, "variants must be a list"),
        ([1], "a config must be a JSON object, not list")],
        ids=["dt-string", "dt-bool", "zeta-string", "energy_state-null",
             "percentages-number", "percentages-bool", "variants-string",
             "top-level-array"])
    def test_values_of_wrong_json_type_rejected(self, data, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_dict(data)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'bay'"):
            ExperimentConfig.from_dict({"bays": 2, "dt": 0.1, "bay": 3})

    @pytest.mark.parametrize("dt, final_time", [
        (0.3, 1.0), (2.0, 1.0), (1.0, 1.0), (0.1, 1.0 + 1e-6)])
    def test_final_time_must_be_whole_steps(self, dt, final_time):
        with pytest.raises(ValueError, match="integral number"):
            ExperimentConfig(bays=2, dt=dt, final_time=final_time)

    def test_odd_step_count_trains_over_first_half_steps(self, monkeypatch):
        steps = []

        def recording(*args, **kwargs):
            traj = integrate_full_model(*args, **kwargs)
            steps.append(traj.n_steps)
            return traj

        monkeypatch.setattr(lagrom.bench, "integrate_full_model", recording)
        cfg = ExperimentConfig(bays=2, dt=0.1, final_time=0.3, n_train=1,
                               conservative=True)
        run_offline(cfg)
        assert steps == [1]

    def test_readme_examples_load(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```json\n")[1:]
        assert blocks
        for block in blocks:
            ExperimentConfig.from_dict(json.loads(block.split("```")[0]))


class TestCli:
    def test_workflow(self, tmp_path, tiny_config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config.to_dict()))
        out = tmp_path / "run"

        assert cli_main(["train", "--config", str(config_path),
                         "--out", str(out)]) == 0
        assert (out / "training.lgrm").exists()

        assert cli_main(["reduce", "--out", str(out), "--percent", "50"]) == 0
        assert (out / "reduced_p50.lgrm").exists()

        assert cli_main(["simulate", "--out", str(out), "--percent", "50",
                         "--variant", "sp_rbs"]) == 0
        assert (out / "simulate_sp_rbs_p50.csv").exists()

        assert cli_main(["verify-dt", "--config", str(config_path),
                         "--horizon", "1.0"]) == 0

    def test_reduce_prints_relative_rbs_residual(self, tmp_path, capsys,
                                                 tiny_config):
        """The printed RBS residual is relative to the reduced training
        masses, as ``rbs_fit`` logs it and the benchmark reports it."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config.to_dict()))
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(config_path),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["reduce", "--out", str(out), "--percent", "50"]) == 0
        printed = capsys.readouterr().out.split("rbs relative residual ")[1]
        offline = load_offline(out / "training.lgrm")
        reduced = load_reduced(out / "reduced_p50.lgrm", offline)
        phi, idx = offline.phi, reduced.sample_set.indices
        num = den = 0.0
        for a in offline.mass_snapshots:
            exact = phi.T @ a @ phi
            approx = rbs_apply(reduced.rbs_map, a[np.ix_(idx, idx)])
            num += float(np.sum((approx - exact) ** 2))
            den += float(np.sum(exact ** 2))
        assert float(printed) == pytest.approx(np.sqrt(num / den), rel=1e-3)

    def test_simulate_rejects_unknown_variant(self, tmp_path, capsys):
        # Rejected while parsing, before any archive is read or model built.
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "--out", str(tmp_path / "missing"),
                      "--percent", "50", "--variant", "sp_rbz"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @staticmethod
    def assert_one_error_line(capsys, command):
        err = capsys.readouterr().err
        assert err.startswith("lagrom %s: " % command) and err.count("\n") == 1, err

    def test_rejected_config_key_prints_one_line(self, tmp_path, capsys,
                                                 tiny_config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**tiny_config.to_dict(),
                                           "nominal_forces": [1.0] * 4}))
        assert cli_main(["train", "--config", str(config_path),
                         "--out", str(tmp_path / "run")]) == 1
        self.assert_one_error_line(capsys, "train")

    def test_config_value_of_wrong_type_prints_one_line(self, tmp_path, capsys,
                                                        tiny_config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**tiny_config.to_dict(), "dt": "0.1"}))
        assert cli_main(["verify-dt", "--config", str(config_path)]) == 1
        self.assert_one_error_line(capsys, "verify-dt")

    def test_bad_step_prints_one_line(self, tmp_path, capsys, tiny_config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config.to_dict()))
        assert cli_main(["verify-dt", "--config", str(config_path),
                         "--dt", "0"]) == 1
        self.assert_one_error_line(capsys, "verify-dt")

    def test_missing_training_archive_prints_one_line(self, tmp_path, capsys):
        assert cli_main(["reduce", "--out", str(tmp_path),
                         "--percent", "50"]) == 1
        self.assert_one_error_line(capsys, "reduce")

    @pytest.mark.parametrize("index", [-1, 1, 7])
    def test_simulate_rejects_online_index_out_of_range(self, tmp_path, capsys,
                                                        tiny_offline, index):
        save_offline(tmp_path / "training.lgrm", tiny_offline)
        assert cli_main(["simulate", "--out", str(tmp_path), "--percent", "50",
                         "--variant", "galerkin",
                         "--online-index", str(index)]) == 1
        err = capsys.readouterr().err
        assert "--online-index must be in [0, 1), got %d" % index in err

    @pytest.mark.parametrize("change", [{"dt": 0.04}, {"bays": 3},
                                        {"seed_train": 4}, None],
                             ids=["dt", "bays", "seed_train", "unrecorded"])
    def test_simulate_rejects_reduced_archive_of_other_training(
            self, tmp_path, capsys, tiny_offline, change):
        """A reduced archive left from an earlier training run, or written
        before archives recorded their run, is not used.  The retrain at
        dt 0.04 keeps n = 14, so its stale products would fit every shape."""
        reduced_path = tmp_path / "reduced_p50.lgrm"
        save_reduced(reduced_path, reduce_products(tiny_offline, 50.0))
        if change is None:
            offline = tiny_offline
            arrays = load_archive(reduced_path)
            arrays.pop("phi_singular_values", None)
            save_archive(reduced_path, arrays)
        else:
            offline = run_offline(dataclasses.replace(tiny_offline.config,
                                                      **change))
        save_offline(tmp_path / "training.lgrm", offline)
        assert cli_main(["simulate", "--out", str(tmp_path), "--percent", "50",
                         "--variant", "sp_rbs"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert ("%s was not reduced from the current training archive; "
                "rerun lagrom reduce" % reduced_path) in err

    MU_TYPE_ERROR = "--mu must be a JSON list of numbers"

    @pytest.mark.parametrize("mu, message", [
        ('{"a": 1}', MU_TYPE_ERROR),
        (json.dumps([True] + [0] * 15), MU_TYPE_ERROR),
        (json.dumps(["0"] * 16), MU_TYPE_ERROR),
        ("[[0]]", MU_TYPE_ERROR),
        ("null", MU_TYPE_ERROR),
        ("[0, 0", MU_TYPE_ERROR),
        ("[1%s]" % ("0" * 400), MU_TYPE_ERROR),
        (json.dumps([0] * 15), "parameter vector must have 16 components")],
        ids=["object", "bool", "string", "nested", "null", "not-json",
             "overflow", "length"])
    def test_simulate_rejects_bad_mu(self, tmp_path, capsys, tiny_offline, mu,
                                     message):
        save_offline(tmp_path / "training.lgrm", tiny_offline)
        assert cli_main(["simulate", "--out", str(tmp_path), "--percent", "50",
                         "--variant", "galerkin", "--mu", mu]) == 1
        err = capsys.readouterr().err
        assert err.startswith("lagrom simulate: ") and err.count("\n") == 1, err
        assert message in err

    def test_compare_subcommand(self, tmp_path):
        cfg = ExperimentConfig(bays=2, dt=0.1, final_time=2.0,
                               conservative=True, fixed_parameters=True,
                               sampling_percentages=(100.0,),
                               variants=("galerkin", "sp_rbs"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "cmp"
        assert cli_main(["compare", "--config", str(config_path),
                         "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()


def test_import_does_not_load_scipy_stats():
    """Neither ``scipy.stats`` nor ``scipy.optimize`` (slow to import, and
    heavy in memory) loads in a lagrom process: not on import, not for the
    parameter points, the offline stage, the reduce stage, an online query
    of any variant, nor the penalized constrained gappy solve."""
    src = str(Path(lagrom.bench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import lagrom",
        "from lagrom.bench import (ExperimentConfig, online_points,",
        "                          reduce_products, run_offline, run_online,",
        "                          training_points)",
        "from lagrom.roms import VARIANTS",
        "from lagrom.sampling import SampleIndexSet",
        "from lagrom.spd_approx import (build_matrix_gappy_basis,",
        "                               eigen_constrained_solve, training_blocks)",
        "loaded = lambda: [m for m in ('scipy.stats', 'scipy.optimize')",
        "                  if m in sys.modules]",
        "print(loaded())",
        "config = ExperimentConfig(bays=2, dt=0.05, final_time=0.5, n_train=2,",
        "                          n_online=2, seed_train=1)",
        "training_points(config)",
        "mu = online_points(config)[0]",
        "offline = run_offline(config)",
        "print(loaded())",
        "reduced = reduce_products(offline, 50.0)",
        "for variant in VARIANTS:",
        "    run_online(offline, reduced, mu, variant)",
        "print(loaded())",
        "modes = [np.eye(2), np.diag([1.0, -1.0])]",
        "basis = build_matrix_gappy_basis(",
        "    np.eye(2), training_blocks(modes, np.eye(2), SampleIndexSet(np.arange(2), 2)))",
        "x = eigen_constrained_solve(basis, modes[1], np.array([0.0, 1.0]), 1e-3)",
        "print(bool(np.linalg.eigvalsh(x[0] * modes[0] + x[1] * modes[1])[0] >= 1e-3))",
        "print(loaded())",
    ])
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:5] == ["[]", "[]", "[]", "True", "[]"]


def test_tracer_targets_are_own_attributes():
    """``perfbench/tracing.py`` swaps each traced name in its owner's own
    ``__dict__``; a moved or removed name fails here, not in a traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(owner, attr) for owner, attr, _ in tracing.SPAN_TARGETS]
    targets += [(lagrom.roms, "full_order_system"),
                (lagrom.roms.ReducedSystem, "second_order_system"),
                (lagrom.midpoint, "newton")]
    missing = ["%s.%s" % (owner.__name__, attr) for owner, attr in targets
               if attr not in vars(owner)]
    assert missing == []
