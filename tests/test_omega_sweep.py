import importlib.util
from pathlib import Path

import lagrom.bench
from lagrom.bench import ExperimentConfig

TOOL = Path(__file__).resolve().parents[1] / "tools" / "omega_sweep.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("omega_sweep", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_sweep_moves_omega0_by_round_off_and_restores_it(monkeypatch):
    """On a tiny study the sweep trains once per k at omega0 scaled by
    (1 + k * 1e-12), prints a ratio per (percentage, point) and puts the
    frequency function back afterwards."""
    tool = load_tool()
    exact = lagrom.bench.fundamental_frequency
    seen = []
    train = lagrom.bench.run_offline

    def run_offline(config):
        offline = train(config)
        seen.append(offline.omega0)
        return offline

    monkeypatch.setattr(lagrom.bench, "run_offline", run_offline)
    config = ExperimentConfig(bays=2, dt=0.05, final_time=1.0, n_train=2,
                              n_online=2, sampling_percentages=(50.0, 100.0),
                              energy_state=1 - 1e-8, seed_train=1,
                              variants=("sp_rbs", "sp_matrix_gappy"))
    rows = list(tool.sweep(config, steps=(-1, 0, 2)))
    assert lagrom.bench.fundamental_frequency is exact
    assert [k for k, *_ in rows] == [-1, 0, 2]
    assert seen[0] < seen[1] < seen[2]
    assert abs(seen[2] / seen[1] - 1.0 - 2e-12) < 1e-14
    for _, n, ratios, passed in rows:
        assert n >= 1
        assert sorted(ratios) == [(50.0, 0), (50.0, 1), (100.0, 0), (100.0, 1)]
        assert all(ratio >= 1.0 for ratio in ratios.values())
        assert passed == (max(ratios.values()) <= tool.RATIO_BOUND)
