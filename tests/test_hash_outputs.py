import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hash_outputs.py"


@pytest.mark.parametrize("workload", ["study-20", "scale-40", "conservative-20"])
def test_hash_outputs_is_deterministic(workload):
    """Two runs of one workload print the same digests, so a diff between
    two source trees shows only what the code changed."""
    def run():
        return subprocess.run(
            [sys.executable, str(TOOL), workload, "--size", "tiny"],
            capture_output=True, text=True, check=True, timeout=300).stdout

    first = run()
    lines = first.splitlines()
    names = [line.split()[0] for line in lines]
    assert {"offline/phi", "offline/mass_snapshots/0",
            "reduced/sample_set/indices", "hfm/q",
            "sp_rbs/newton_iterations"} <= set(names)
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert run() == first


def test_warm_process_repeats_fresh_digests(monkeypatch):
    """Two rounds in one process print what a fresh process prints: the
    caches kept by bay count (element arrays, plan topologies) carry
    nothing from one query into the next."""
    # The tool's loader prepends to sys.path and turns off bytecode writes.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("hash_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    workloads = tool.load_workloads()

    def digests():
        workload = workloads.WORKLOADS["study-20"]("tiny", 1)
        workload.setup()
        return ["%s %s" % (name, tool.digest(value)) for name, value
                in tool.output_arrays(workload, workloads.VARIANTS)]

    fresh = subprocess.run(
        [sys.executable, str(TOOL), "study-20", "--size", "tiny"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    assert digests() == digests() == fresh.splitlines()


def test_save_and_against_round_trip(tmp_path):
    """``--save`` writes the arrays whose digests it prints; ``--against``
    that file prints ``same`` for each of them, the relative difference for
    a changed array, and names arrays on one side only."""
    def run(*args):
        return subprocess.run(
            [sys.executable, str(TOOL), "study-20", "--size", "tiny", *args],
            capture_output=True, text=True, check=True, timeout=300).stdout

    saved = tmp_path / "a.npz"
    lines = [line.split() for line in run("--save", str(saved)).splitlines()]
    names = [name for name, _ in lines]
    spec = importlib.util.spec_from_file_location("hash_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with np.load(saved) as data:
        arrays = {name: data[name] for name in data.files}
    assert list(arrays) == names
    assert [tool.digest(arrays[name]) for name in names] == [
        value for _, value in lines]
    assert run("--against", str(saved)).splitlines() == [
        "%s same" % name for name in names]

    arrays["hfm/q"] = arrays["hfm/q"] * (1.0 + 1e-9)
    arrays["gone/q"] = arrays.pop("sp_rbs/q")
    edited = tmp_path / "b.npz"
    np.savez(edited, **arrays)
    compared = dict(line.split(" ", 1)
                    for line in run("--against", str(edited)).splitlines())
    assert compared.pop("hfm/q") == "1.00e-09"
    assert compared.pop("sp_rbs/q") == "not saved"
    assert compared.pop("gone/q") == "not produced"
    assert set(compared.values()) == {"same"}
