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
