import subprocess
import sys
from pathlib import Path

from lagrom.truss import hessian_form

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hessian_forms.py"


def test_tool_prints_a_row_per_size_with_the_rule_pick():
    """One quick pass of the timing tool: both forms agree on every row
    (the tool asserts it) and each row names the rule's pick."""
    out = subprocess.run([sys.executable, str(TOOL), "--number", "1"],
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    header, *rows = out.splitlines()
    assert header.split()[-2:] == ["pick", "loss"]
    assert len(rows) == 27
    for row in rows:
        kernel, bays, n, _, _, _, *pick, _ = row.split()
        dofs = 12 * int(bays) if kernel == "galerkin" else None
        assert " ".join(pick) == hessian_form(int(n), dofs)
