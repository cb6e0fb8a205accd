import subprocess
import sys
from pathlib import Path

from lagrom.roms import GALERKIN_ELEMENT_SUM_MAX_N

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hessian_forms.py"


def test_tool_prints_a_row_per_size_with_the_rule_pick():
    """One quick pass of the timing tool: both Galerkin forms agree on every
    row (the tool asserts it) and each row names the form the Galerkin
    model takes: the element sum up to its width (every row has N >= 240)."""
    out = subprocess.run([sys.executable, str(TOOL), "--number", "1"],
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    header, *rows = out.splitlines()
    assert header.split()[-2:] == ["pick", "loss"]
    assert len(rows) == 12
    for row in rows:
        bays, n, _, _, _, *pick, _ = row.split()
        assert 12 * int(bays) >= 240
        assert " ".join(pick) == ("element sum"
                                  if int(n) <= GALERKIN_ELEMENT_SUM_MAX_N
                                  else "congruence")
