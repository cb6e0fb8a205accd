import json

import numpy as np
import pytest

from lagrom.bench import (ExperimentConfig, error_metric, lhs_points,
                          load_offline, load_reduced, online_points,
                          reduce_products, run_comparison, run_offline,
                          run_online, save_offline, save_reduced,
                          training_points, verify_timestep)
from lagrom.cli import main as cli_main


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

    def test_conservative_force_terms_empty(self):
        cfg = ExperimentConfig(bays=2, dt=0.05, final_time=2.0,
                               conservative=True, fixed_parameters=True)
        off = run_offline(cfg)
        assert off.term_bases["force"].shape[1] == 0
        assert off.term_bases["damping"].shape[1] == 0
        assert off.alpha == off.beta == 0.0
        red = reduce_products(off, 100.0)
        out = red.reconstructors["force"].operator @ np.zeros(red.sample_set.m)
        assert np.array_equal(out, np.zeros(off.n))

    def test_archive_round_trip(self, tiny_offline, tmp_path):
        path = tmp_path / "training.lgrm"
        save_offline(path, tiny_offline)
        loaded = load_offline(path)
        assert np.array_equal(loaded.phi, tiny_offline.phi)
        assert np.array_equal(loaded.mu_train, tiny_offline.mu_train)
        assert loaded.omega0 == tiny_offline.omega0
        for name, term_basis in tiny_offline.term_bases.items():
            assert np.array_equal(loaded.term_bases[name], term_basis)

    def test_reduced_products_round_trip(self, tiny_offline, tmp_path):
        red = reduce_products(tiny_offline, 50.0)
        path = tmp_path / "reduced.lgrm"
        save_reduced(path, red)
        loaded = load_reduced(path)
        assert np.array_equal(loaded.sample_set.indices, red.sample_set.indices)
        assert np.array_equal(loaded.rbs_map.factor, red.rbs_map.factor)
        assert np.array_equal(loaded.gappy_basis.vectorized_sampled_operator,
                              red.gappy_basis.vectorized_sampled_operator)


class TestOnlineAndComparison:
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

    @pytest.mark.parametrize("field", ["dt", "final_time"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_times_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{"bays": 2, "dt": 0.1, field: value})

    @pytest.mark.parametrize("field, value", [
        ("zeta", np.nan), ("zeta", np.inf), ("zeta", -0.1),
        ("bays", 0), ("bays", -1), ("n_train", 0)])
    def test_bad_damping_and_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{"bays": 2, "dt": 0.1, field: value})


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

    def test_simulate_rejects_unknown_variant(self, tmp_path, capsys):
        # Rejected while parsing, before any archive is read or model built.
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "--out", str(tmp_path / "missing"),
                      "--percent", "50", "--variant", "sp_rbz"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

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
