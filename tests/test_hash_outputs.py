import importlib.util
import subprocess
import sys
from pathlib import Path

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
