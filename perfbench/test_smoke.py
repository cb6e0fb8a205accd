"""Smoke test of the benchmark at its tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every workload emits every metric named in ``BENCHMARK.json``
with its unit, in both modes, and that a failed correctness check or a
missing package source makes the command exit nonzero.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_command(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = run_command(ROOT, "--workload", workload, "--size", "tiny",
                       "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    report = proc.stdout.splitlines()[:-1]
    for name in expected:
        assert any(line.split()[:1] == [name] for line in report), name


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import lagrom.bench
    import run

    integrate_rom = lagrom.bench.integrate_rom

    def one_step_short(system, dt, t_end, **kwargs):
        return integrate_rom(system, dt, t_end - dt, **kwargs)

    monkeypatch.setattr(lagrom.bench, "integrate_rom", one_step_short)
    code = run.main(["--workload", "study-20", "--size", "tiny",
                     "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    # One round: two training runs, the HFM and three short ROM trajectories.
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (6, 3)


def test_missing_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
